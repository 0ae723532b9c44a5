"""graph6 encoding and decoding.

Bit-exact implementation of the standard format: the vertex count is one
byte N+63 for n <= 62, otherwise 126 followed by three bytes holding an
18-bit big-endian count; the upper triangle follows in column order
x(0,1), x(0,2), x(1,2), x(0,3), ... padded with zeros to a multiple of
six bits, each six-bit group offset by 63.  Only graph6 is supported (no
sparse6/digraph6) and the vertex count is capped at MAX_N = 258.
"""

from __future__ import annotations

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


# The pairs of order n are the first n(n-1)/2 pairs of every larger order:
# column v lists (0, v), ..., (v-1, v) and never depends on n.  So one table
# for MAX_N serves every order by a prefix slice.
_COLS, _ROWS = np.tril_indices(MAX_N, -1)
_ROWS.setflags(write=False)
_COLS.setflags(write=False)


def _column_order_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the upper triangle in graph6's column order, as
    read-only slices of the MAX_N table."""
    count = n * (n - 1) // 2
    return _ROWS[:count], _COLS[:count]


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
    for i, byte in enumerate(data):
        if byte < 63 or byte > 126:
            raise Graph6Error(f"character {byte!r} out of graph6 range", base + i)

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

    vals = np.frombuffer(body, dtype=np.uint8) - 63
    bits = np.unpackbits(vals.reshape(-1, 1), axis=1)[:, 2:8].reshape(-1)
    if bits[nbits:].any():
        raise Graph6Error("nonzero padding bits", body_base + nbytes - 1)
    adj = np.zeros((n, n), dtype=np.uint8)
    rows, cols = _column_order_pairs(n)
    adj[rows, cols] = bits[:nbits]
    adj |= adj.T
    return Graph(adj)


def write_graph6(g: Graph) -> str:
    """Encode in canonical graph6 (no header, shortest legal size prefix)."""
    n = g.n
    if n > MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_N}")
    if n <= 62:
        prefix = bytes([n + 63])
    else:
        prefix = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    rows, cols = _column_order_pairs(n)
    bits = g.adj[rows, cols]
    pad = (-len(bits)) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, 6)
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    body = (groups * weights).sum(axis=1).astype(np.uint8) + 63
    return (prefix + body.tobytes()).decode("ascii")
