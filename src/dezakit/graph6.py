"""graph6 encoding and decoding.

Bit-exact implementation of the standard format: the vertex count is one
byte N+63 for n <= 62, otherwise 126 followed by three bytes holding an
18-bit big-endian count; the upper triangle follows in column order
x(0,1), x(0,2), x(1,2), x(0,3), ... padded with zeros to a multiple of
six bits, each six-bit group offset by 63.  Only graph6 is supported (no
sparse6/digraph6) and the vertex count is capped at MAX_N = 258.

parse_graph6 and write_graph6 take one line or one graph.  The batch forms,
parse_graph6s and write_graph6s, take many, and decode or encode the ones of
each order as one stack, with the results in input order; parse_graph6s
checks each line on its own and in order first, so a bad line raises what
parse_graph6 raises for it.  Both forms run one codec: a line is a batch of
one.
"""

from __future__ import annotations

import re

import numpy as np

from .graphs import Graph, adjacency_stack, graphs_from_stack, stacked

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
# lower triangle in row-major order, whatever the order n.  Unpacked eight
# bits per byte (a six-bit group sits in the high six bits of its byte, as
# _GROUP_BITS puts it), the p-th pair's bit is at 8 (p // 6) + p % 6.  The
# table holds that position at (v, u) and at (u, v), and -1 on the diagonal,
# which names a zero bit kept after a line's bits: a stack of lines decodes
# by one gather through the table, and encodes by one scatter.  The table of
# order n is the leading n x n block of the table for MAX_N, so one table
# serves every order by a slice.  Its largest entry, 44202, needs int32.
def _pair_bit_table() -> np.ndarray:
    p = np.arange(MAX_N * (MAX_N - 1) // 2)
    lower = np.tri(MAX_N, k=-1, dtype=bool)
    table = np.full((MAX_N, MAX_N), -1, dtype=np.int32)
    table[lower] = p // 6 * 8 + p % 6
    table.T[lower] = table[lower]
    table.setflags(write=False)
    return table


_PAIR_BIT = _pair_bit_table()


def _pair_bits(n: int) -> np.ndarray:
    """The bit of each pair of order n, as a read-only n x n block of
    _PAIR_BIT."""
    return _PAIR_BIT[:n, :n]


# a byte outside 63..126 ('?'..'~')
_OUT_OF_RANGE = re.compile(rb"[^?-~]")
# a six-bit group in the high bits of a byte, from and to its graph6 character
_GROUP_BITS = bytes(((c - 63) << 2) & 255 for c in range(256))
_GROUP_CHAR = bytes((c >> 2) + 63 for c in range(256))


def _read(text: str) -> tuple[int, bytes]:
    """The vertex count and the adjacency bytes of one graph6 line (an
    optional >>graph6<< header is allowed), checked byte by byte."""
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
    return n, body


def _decode(n: int, bodies: list[bytes]) -> list[Graph]:
    """The graphs of order n whose checked adjacency bytes are bodies, in
    order, decoded as one stack."""
    # each line's bytes and then a zero group, "?", whose last bit the
    # diagonal names
    groups = np.frombuffer((b"?".join(bodies) + b"?").translate(_GROUP_BITS), dtype=np.uint8)
    bits = np.unpackbits(groups.reshape(len(bodies), -1), axis=1)
    return graphs_from_stack(bits.take(_pair_bits(n), axis=1))


def _encode(adj: np.ndarray) -> list[str]:
    """The canonical graph6 line (no header, shortest legal size prefix) of
    each matrix of a k x n x n stack of symmetric adjacency matrices, in
    order."""
    k, n = adj.shape[:2]
    if n > MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_N}")
    if n <= 62:
        prefix = bytes([n + 63])
    else:
        prefix = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    nbytes = (n * (n - 1) // 2 + 5) // 6
    # a pair's bit is written from both (u, v) and (v, u), with one value
    bits = np.zeros((k, 8 * nbytes + 1), dtype=np.uint8)
    bits[:, _pair_bits(n)] = adj
    body = np.packbits(bits[:, :-1], axis=1).tobytes().translate(_GROUP_CHAR)
    return [(prefix + body[i * nbytes : (i + 1) * nbytes]).decode("ascii") for i in range(k)]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (an optional >>graph6<< header is allowed)."""
    n, body = _read(text)
    return _decode(n, [body])[0]


def parse_graph6s(texts) -> list[Graph]:
    """Decode graph6 lines, each checked as parse_graph6 checks it and in
    order, so a bad line raises parse_graph6's error; the graphs of each
    order are decoded as one stack and returned in the order of texts."""
    read = [_read(text) for text in texts]
    return stacked(lambda rows: _decode(rows[0][0], [body for _, body in rows]),
                   read, lambda row: (row[0], row[0]))


def write_graph6(g: Graph) -> str:
    """Encode in canonical graph6 (no header, shortest legal size prefix)."""
    return _encode(g.adj[None])[0]


def write_graph6s(graphs) -> list[str]:
    """write_graph6 of each graph, in order; the graphs of each order are
    encoded as one stack."""
    return stacked(lambda gs: _encode(adjacency_stack(gs)), list(graphs), lambda g: (g.n, g.n))
