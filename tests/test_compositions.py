"""A property of analyze: catalogue members composed with graph operators,
up to the graph6 cap, report no inconsistency, and a relabelled copy
reports what the graph reports, apart from the fields tied to vertex
labels (both reports take the default source)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dezakit import families
from dezakit.graph6 import MAX_N
from dezakit.graphs import (
    Graph,
    bipartite_double,
    complement,
    disjoint_union,
    distance_data,
    line_graph,
)
from dezakit.report import build_report, report_inconsistencies

#: small arguments of each catalogue family
_ARGS = {
    "complete": st.tuples(st.integers(1, 12)),
    "cycle": st.tuples(st.integers(3, 30)),
    "cliques": st.tuples(st.integers(1, 5), st.integers(2, 5)),
    "multipartite": st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple),
    "kneser": st.integers(4, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n // 2))),
    "petersen": st.just(()),
    "johnson": st.integers(3, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n // 2))),
    "icosahedron": st.just(()),
    "paley": st.tuples(st.sampled_from([5, 9, 13, 17, 25, 29])),
    "taylor-paley": st.tuples(st.sampled_from([5, 9, 13])),
    "heawood": st.just(()),
    "biplane11": st.just(()),
    "trivial-design": st.tuples(st.integers(2, 6)),
    "octahedron-line-graph": st.just(()),
    "klein24": st.just(()),
}

_members = st.sampled_from(sorted(_ARGS)).flatmap(
    lambda name: _ARGS[name].map(lambda args: families.construct(name, [str(a) for a in args])))


def _relabelled(g, perm):
    """g with vertex i of the copy being vertex perm[i] of g."""
    perm = np.asarray(perm)
    return Graph(g.adj[np.ix_(perm, perm)])


def _taylor(g):
    """The Taylor double cover of g, or g where it does not apply."""
    try:
        return families.taylor_double_cover(g)
    except ValueError:  # not strongly regular with k = 2 mu
        return g


_OPERATORS = ("complement", "union", "line graph", "bipartite double", "taylor", "relabel")


@st.composite
def _compositions(draw):
    """A catalogue member with operators applied: up to three of them while
    the order is at most 48, or up to six while it is at most 128 or 258,
    the caps of one draw in eight each; a result past the cap is dropped."""
    cap = draw(st.sampled_from((48,) * 6 + (128, MAX_N)))
    g = draw(_members.filter(lambda h: h.n <= cap))
    for op in draw(st.lists(st.sampled_from(_OPERATORS), max_size=3 if cap == 48 else 6)):
        if op == "complement":
            new = complement(g)
        elif op == "union":
            new = disjoint_union([g, draw(_members)])
        elif op == "line graph":
            new = line_graph(g) if g.edge_count() else g
        elif op == "bipartite double":
            new = bipartite_double(g)
        elif op == "taylor":
            new = _taylor(g)
        else:
            new = _relabelled(g, draw(st.permutations(range(g.n))))
        if 1 <= new.n <= cap:
            g = new
    return g


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_compositions_are_consistent_and_label_free(data):
    g = data.draw(_compositions())
    perm = data.draw(st.permutations(range(g.n)))
    copy = _relabelled(g, perm)
    report, relabelled = build_report(g), build_report(copy)
    assert report_inconsistencies(report) == []
    assert report_inconsistencies(relabelled) == []
    # the first distance at which distance-regularity fails does not depend
    # on the labels; the pair that shows it does
    dr, dr_copy = report["distance_regular"], relabelled["distance_regular"]
    if dr is not None and "witness_pair" in dr:
        dist = distance_data(g).dist
        u, v = dr.pop("witness_pair")
        x, y = dr_copy.pop("witness_pair")
        assert dist[perm[x], perm[y]] == dist[u, v]
    # half 0 is the one that holds vertex 0
    witness, witness_copy = report["theorems"].get("witness"), relabelled["theorems"].get("witness")
    if witness is not None and witness.get("halved") is not None:
        witness["halved"] = sorted(witness["halved"])
        witness_copy["halved"] = sorted(witness_copy["halved"])
    assert relabelled == report


def test_every_catalogue_family_is_drawn():
    assert set(_ARGS) == set(families.CATALOG)
