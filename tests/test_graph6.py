"""graph6 encoding: worked examples, error offsets, round trips."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from dezakit import families
from dezakit.graph6 import (
    MAX_N,
    Graph6Error,
    _pair_bits,
    parse_graph6,
    parse_graph6s,
    write_graph6,
    write_graph6s,
)
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


def test_pair_bits_are_blocks_of_one_read_only_table():
    # the pairs u < v in graph6's column order, (0, 1), (0, 2), (1, 2), (0, 3),
    # ...: those of order n come first, so they are the first n(n-1)/2
    us, vs = map(np.array, zip(*[(u, v) for v in range(MAX_N) for u in range(v)]))
    p = np.arange(len(us))
    # the bit of the p-th pair, with each six-bit group unpacked to eight bits
    position = 8 * (p // 6) + p % 6
    for n in range(1, MAX_N + 1):
        bits, m = _pair_bits(n), n * (n - 1) // 2
        assert bits.shape == (n, n) and (bits == bits.T).all()
        assert (bits[vs[:m], us[:m]] == position[:m]).all()
        assert (bits.diagonal() == -1).all()
    # int32 holds the largest entry
    assert _pair_bits(MAX_N).dtype == np.int32 and _pair_bits(MAX_N).max() == 44202
    with pytest.raises(ValueError, match="read-only"):
        _pair_bits(5)[1, 0] = 0


@pytest.mark.parametrize("n", [1, 2, 62, 63, MAX_N])
def test_round_trip_where_the_size_prefix_changes(n):
    text = write_graph6(random_graph(random.Random(n), n))
    assert text.startswith("~") == (n > 62)
    assert write_graph6(parse_graph6(text)) == text


def test_seeded_round_trips():
    rng = random.Random(7)
    graphs = []
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 40))
        assert parse_graph6(write_graph6(g)) == g
        graphs.append(g)
    # the batch forms over mixed orders, each prefix length among them:
    # one stack per order, the results in input order
    graphs += [random_graph(rng, n) for n in (1, 2, 62, 63, MAX_N, 63, 1, MAX_N)]
    rng.shuffle(graphs)
    texts = write_graph6s(graphs)
    assert texts == [write_graph6(g) for g in graphs]
    assert parse_graph6s(texts) == graphs


def test_a_batch_raises_its_first_bad_lines_error():
    first, second = "A" + chr(32), "C"
    with pytest.raises(Graph6Error) as single:
        parse_graph6(first)
    with pytest.raises(Graph6Error) as batch:
        parse_graph6s(["C~", "A_", first, "@", second])
    assert str(batch.value) == str(single.value) == (
        "character 32 out of graph6 range (byte offset 1)"
    )
    assert batch.value.offset == single.value.offset == 1
    with pytest.raises(Graph6Error, match="need 1 adjacency bytes") as batch:
        parse_graph6s(["C~", second, first])
    assert batch.value.offset == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.randoms(use_true_random=False))
def test_round_trip_property(n, rnd):
    g = random_graph(rnd, n)
    text = write_graph6(g)
    assert parse_graph6(text) == g
    assert write_graph6(parse_graph6(">>graph6<<" + text)) == text
