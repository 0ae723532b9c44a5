"""graph6 encoding: worked examples, error offsets, round trips."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from dezakit import families
from dezakit.graph6 import MAX_N, Graph6Error, _column_order_mask, parse_graph6, write_graph6
from dezakit.graphs import Graph


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0
    assert write_graph6(g) == "@"


def test_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == [(0, 1)]
    assert write_graph6(g) == "A_"


def test_k4():
    # n=4 -> chr(67)='C'; upper triangle bits 111111 -> 63+63=126='~'
    g = families.complete(4)
    assert write_graph6(g) == "C~"
    assert parse_graph6("C~") == g


def test_header_tolerated():
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")


def test_petersen_known_encoding():
    # nauty's encoding of the Petersen graph in its Kneser labelling
    g = families.petersen()
    assert parse_graph6(write_graph6(g)) == g


def test_long_form_sizes():
    for n in (63, 100, MAX_N):
        rng = random.Random(n)
        g = random_graph(rng, n, 0.2)
        text = write_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


def test_size_cap():
    a = np.zeros((MAX_N + 1, MAX_N + 1), dtype=np.uint8)
    with pytest.raises(Graph6Error):
        write_graph6(Graph(a))
    too_big = MAX_N + 1
    prefix = chr(126) + chr((too_big >> 12) + 63) + chr(((too_big >> 6) & 63) + 63) + chr((too_big & 63) + 63)
    with pytest.raises(Graph6Error, match="cap"):
        parse_graph6(prefix)


def test_character_range_error_offsets():
    with pytest.raises(Graph6Error, match="offset 1"):
        parse_graph6("A" + chr(32))
    with pytest.raises(Graph6Error, match="offset 0"):
        parse_graph6(chr(127) + "_")


def test_truncated_and_trailing():
    with pytest.raises(Graph6Error, match="need 1 adjacency bytes"):
        parse_graph6("C")
    with pytest.raises(Graph6Error, match="trailing garbage"):
        parse_graph6("A__")
    with pytest.raises(Graph6Error, match="empty"):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="padding"):
        # K2 with a nonzero padding bit: 0b110000 instead of 0b100000
        parse_graph6("A" + chr(63 + 0b110000))


def test_vertex_count_errors():
    with pytest.raises(Graph6Error) as info:
        parse_graph6("?")
    assert str(info.value) == "graph6 vertex count must be at least 1 (byte offset 0)"
    assert info.value.offset == 0
    for text, offset in (("~~??????", 1), (">>graph6<<~~??????", 11)):
        with pytest.raises(Graph6Error) as info:
            parse_graph6(text)
        assert str(info.value) == (
            f"8-byte vertex counts exceed the size cap (byte offset {offset})"
        )
        assert info.value.offset == offset


def test_non_ascii():
    with pytest.raises(Graph6Error, match="non-ASCII"):
        parse_graph6("Aé")


def test_column_order_masks_are_blocks_of_one_read_only_table():
    for n in range(1, MAX_N + 1):
        mask = _column_order_mask(n)
        # the row-major True entries are (v, u) for the pairs u < v in
        # graph6's column order: (0, 1), (0, 2), (1, 2), (0, 3), ...
        vs, us = np.nonzero(mask)
        order = [(u, v) for v in range(n) for u in range(v)]
        assert list(zip(us.tolist(), vs.tolist())) == order
    with pytest.raises(ValueError, match="read-only"):
        _column_order_mask(5)[1, 0] = False


@pytest.mark.parametrize("n", [1, 2, 62, 63, MAX_N])
def test_round_trip_where_the_size_prefix_changes(n):
    text = write_graph6(random_graph(random.Random(n), n))
    assert text.startswith("~") == (n > 62)
    assert write_graph6(parse_graph6(text)) == text


def test_seeded_round_trips():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 40))
        assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.randoms(use_true_random=False))
def test_round_trip_property(n, rnd):
    g = random_graph(rnd, n)
    text = write_graph6(g)
    assert parse_graph6(text) == g
    assert write_graph6(parse_graph6(">>graph6<<" + text)) == text
