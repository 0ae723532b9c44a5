"""graph6 encoding and decoding.

Bit-exact implementation of the standard format: the vertex count is one
byte N+63 for n <= 62, otherwise 126 followed by three bytes holding an
18-bit big-endian count; the upper triangle follows in column order
x(0,1), x(0,2), x(1,2), x(0,3), ... padded with zeros to a multiple of
six bits, each six-bit group offset by 63.  Only graph6 is supported (no
sparse6/digraph6) and the vertex count is capped at MAX_N = 258.
"""

from __future__ import annotations

import re

import numpy as np

from .graphs import Graph

HEADER = ">>graph6<<"
MAX_N = 258


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


# graph6 lists the pairs in column order, x(0,1), x(0,2), x(1,2), ...: the
# lower triangle in row-major order, which a boolean mask selects.  The mask
# of order n is the leading n x n block of the mask for MAX_N, so one table
# serves every order by a slice.
_LOWER = np.tril(np.ones((MAX_N, MAX_N), dtype=bool), -1)
_LOWER.setflags(write=False)


def _column_order_mask(n: int) -> np.ndarray:
    """The pairs of order n in graph6's column order, as a read-only n x n
    mask whose row-major True entries are (v, u) for the pair u < v."""
    return _LOWER[:n, :n]


# a byte outside 63..126 ('?'..'~')
_OUT_OF_RANGE = re.compile(rb"[^?-~]")
# a six-bit group in the high bits of a byte, from and to its graph6 character
_GROUP_BITS = bytes(((c - 63) << 2) & 255 for c in range(256))
_GROUP_CHAR = bytes((c >> 2) + 63 for c in range(256))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (an optional >>graph6<< header is allowed)."""
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(HEADER):
        base = len(HEADER)
        line = line[base:]
    if not line:
        raise Graph6Error("empty graph6 string", base)
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII character", base + exc.start) from None
    bad = _OUT_OF_RANGE.search(data)
    if bad:
        i = bad.start()
        raise Graph6Error(f"character {data[i]!r} out of graph6 range", base + i)

    if data[0] == 126:
        if len(data) < 4:
            raise Graph6Error("truncated long-form vertex count", base)
        if data[1] == 126:
            raise Graph6Error("8-byte vertex counts exceed the size cap", base + 1)
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        body_base = base + 4
    else:
        n = data[0] - 63
        body = data[1:]
        body_base = base + 1
    if n < 1:
        raise Graph6Error("graph6 vertex count must be at least 1", base)
    if n > MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_N}", base)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error(
            f"need {nbytes} adjacency bytes, found {len(body)}",
            body_base + len(body),
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after adjacency bits", body_base + nbytes)

    # the low 6 * nbytes - nbits bits of the last group are padding
    if nbytes and (body[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6Error("nonzero padding bits", body_base + nbytes - 1)
    groups = np.frombuffer(body.translate(_GROUP_BITS), dtype=np.uint8)
    bits = np.unpackbits(groups.reshape(-1, 1), axis=1, count=6).reshape(-1)
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[_column_order_mask(n)] = bits[:nbits]
    return Graph(adj | adj.T)


def write_graph6(g: Graph) -> str:
    """Encode in canonical graph6 (no header, shortest legal size prefix)."""
    n = g.n
    if n > MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_N}")
    if n <= 62:
        prefix = bytes([n + 63])
    else:
        prefix = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    nbits = n * (n - 1) // 2
    bits = np.zeros(((nbits + 5) // 6, 6), dtype=np.uint8)
    bits.reshape(-1)[:nbits] = g.adj[_column_order_mask(n)]
    body = np.packbits(bits, axis=1).tobytes().translate(_GROUP_CHAR)
    return (prefix + body).decode("ascii")
