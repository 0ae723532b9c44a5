"""Distance-regularity, intersection arrays, and the related classifications.

Distance-regularity is decided by brute force over all ordered vertex pairs
(O(n^2 k) via the counting kernels), never by spectral shortcuts, so a
positive answer is a certificate at these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .deza import (
    DezaParams,
    SrgParams,
    children,
    detect_deza,
    is_divisible_design,
    is_strongly_deza,
)
from .errors import ContradictionError, SpectrumShapeError
from .eigenvalues import Eigenvalue
from .families import prime_power
from .graphs import (
    Graph,
    components,
    distance_data,
    distance_i_graph,
    is_bipartite,
    is_disjoint_clique_union,
    per_graph,
    triangle_count,
)
from .spectra import exact_spectrum
from .theorems import TheoremCase


@dataclass(frozen=True)
class IntersectionArray:
    """{b0..b_{d-1}; c1..c_d} plus the derived a_i and distance counts k_i."""

    d: int
    b: tuple[int, ...]
    c: tuple[int, ...]
    a: tuple[int, ...]
    k_i: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.b) != self.d or len(self.c) != self.d or len(self.a) != self.d:
            raise ValueError("array lengths must match the diameter")
        k = self.k
        if self.d and self.c[0] != 1:
            raise ValueError("c1 must be 1")
        for i in range(1, self.d + 1):
            bi = self.b[i] if i < self.d else 0
            if self.a[i - 1] + bi + self.c[i - 1] != k:
                raise ValueError(f"a_{i} + b_{i} + c_{i} must equal k")
        if len(self.k_i) != self.d + 1 or self.k_i[0] != 1:
            raise ValueError("k_i must start at k_0 = 1")
        for i in range(self.d):
            if self.k_i[i] * self.b[i] != self.k_i[i + 1] * self.c[i]:
                raise ValueError("k_{i+1} = k_i b_i / c_{i+1} must be integral")

    @property
    def n(self) -> int:
        return sum(self.k_i)

    @property
    def k(self) -> int:
        # K1 is distance-regular of diameter 0, with empty b, c and a
        return self.b[0] if self.d else 0

    def __str__(self) -> str:
        bs = ",".join(map(str, self.b))
        cs = ",".join(map(str, self.c))
        return "{" + bs + ";" + cs + "}"


@per_graph
def intersection_numbers(
    g: Graph,
) -> tuple[IntersectionArray | None, tuple[int, int] | None]:
    """(array, None) for a distance-regular graph, else (None, witness pair)."""
    dd = distance_data(g)
    if not dd.connected:
        raise ValueError("intersection numbers need a connected graph")
    counts, witness = _kernels.intersection_counts(g.adj, dd.dist, dd.diameter)
    if counts is None:
        return None, witness
    b, c, a = counts
    d = dd.diameter
    # a distance-regular graph's k_i are the distance-class sizes of any vertex
    k_i = tuple(np.bincount(dd.dist[0]).tolist())
    return IntersectionArray(d, tuple(b[:d]), tuple(c[1:]), tuple(a[1:]), k_i), None


def intersection_array(g: Graph) -> IntersectionArray | None:
    """Intersection array, or None when g is not distance-regular."""
    array, _ = intersection_numbers(g)
    return array


def is_antipodal(g: Graph) -> bool:
    """The distance-d graph of a connected graph of diameter d is a disjoint
    union of equal cliques: every class {v} ∪ {u : d(u, v) = d} is closed
    and all have one size."""
    dd = distance_data(g)
    if not dd.connected:
        raise ValueError("antipodality needs a connected graph")
    related = (dd.dist == dd.diameter) | np.eye(g.n, dtype=bool)
    # the classes are closed when u and v are related exactly if their
    # classes have the same least member
    least = related.argmax(axis=1)
    sizes = related.sum(axis=1)
    closed = (related == (least[:, None] == least[None, :])).all()
    return bool(closed and (sizes == sizes[0]).all())


def drg_deza_classification(g: Graph) -> TheoremCase:
    """Deza-ness of a distance-regular graph with d >= 3 reduces to a1 = 0
    or a1 = c2; cross-checked against the common-neighbour detector and the
    construction of the children."""
    ia = intersection_array(g)
    if ia is None:
        raise ValueError("not distance-regular")
    if ia.d < 3:
        raise ValueError("diameter-2 graphs are the strongly regular case")
    a1 = ia.a[0]
    c2 = ia.c[1]
    params = detect_deza(g)
    if a1 != 0 and a1 != c2:
        if params is not None:
            raise ContradictionError("Deza detector disagrees with a1/c2 criterion")
        return TheoremCase("not-deza", {"a1": a1, "c2": c2})
    expected = DezaParams(g.n, ia.k, c2, 0)
    if params != expected:
        raise ContradictionError(
            f"expected Deza parameters {expected.as_tuple()}, detector says "
            f"{None if params is None else params.as_tuple()}"
        )
    pair = children(g)
    dd = distance_data(g)
    if a1 == 0:
        case = "deza-a1-zero"
        want_b = (dd.dist == 2).astype("uint8")
    else:
        case = "deza-a1-eq-c2"
        want_b = ((dd.dist == 1) | (dd.dist == 2)).astype("uint8")
    if pair.child_b != Graph(want_b):
        raise ContradictionError("b-child is not the predicted distance graph")
    return TheoremCase(case, {"a1": a1, "c2": c2, "params": list(expected.as_tuple())})


def ddg_drg_classification(g: Graph) -> TheoremCase:
    """Distance-regular divisible design graphs are complete multipartite,
    symmetric-design incidence graphs, or antipodal of diameter 3 with
    a1 = c2.  A divisible design graph that is not distance-regular falls
    outside the classification and is labelled as such."""
    ddg = is_divisible_design(g)
    if ddg is None:
        raise ValueError("classification needs a divisible design graph")
    comp = components(g)
    if len(comp) > 1:
        raise ValueError("classification needs a connected graph")
    ia = intersection_array(g)
    if ia is None:
        return TheoremCase("not-distance-regular", {"ddg": list(ddg.as_tuple())})
    if ia.d == 2:
        shape = is_disjoint_clique_union(distance_i_graph(g, 2))
        if shape is None:
            raise ContradictionError("diameter-2 divisible design graph must be multipartite")
        return TheoremCase("complete-multipartite", {"parts": shape[0], "part_size": shape[1]})
    if ia.d == 3 and is_bipartite(g):
        return TheoremCase("incidence-symmetric-design", {"array": str(ia)})
    if ia.d == 3 and is_antipodal(g) and ia.a[0] == ia.c[1]:
        return TheoremCase("antipodal-d3-a1-eq-c2", {"array": str(ia), "a1": ia.a[0]})
    raise ContradictionError("distance-regular divisible design graph outside all cases")


@dataclass(frozen=True)
class AntipodalCheck:
    divides: bool
    a1c2: int | None
    array: IntersectionArray | None


def antipodal_from_spectrum(g: Graph) -> AntipodalCheck:
    """Divisible design graph with spectrum {k, sqrt(k)^m, (-1)^k, (-sqrt(k))^m}:
    if n divides k^2 - 1 the graph must be distance-regular with d = 3 and
    a1 = c2 = (k^2-1)/n."""
    if is_divisible_design(g) is None:
        raise ValueError("needs a divisible design graph")
    spec = exact_spectrum(g)
    k_ev = spec.principal()
    if not k_ev.is_integer:
        raise SpectrumShapeError("principal eigenvalue must be an integer")
    k = k_ev.as_int()
    plus, minus = Eigenvalue.sqrt_pair(k)
    m = spec.multiplicity(plus)
    shape_ok = (
        spec.multiplicity(k_ev) == 1
        and spec.multiplicity(Eigenvalue.integer(-1)) == k
        and m > 0
        and spec.multiplicity(minus) == m
        and 1 + 2 * m + k == spec.n
    )
    if not shape_ok:
        raise SpectrumShapeError("spectrum is not {k, sqrt(k)^m, (-1)^k, (-sqrt(k))^m}")
    if (k * k - 1) % g.n:
        return AntipodalCheck(False, None, None)
    value = (k * k - 1) // g.n
    ia = intersection_array(g)
    if ia is None or ia.d != 3 or ia.a[0] != value or ia.c[1] != value:
        raise ContradictionError(
            f"graph must be distance-regular with a1 = c2 = {value}"
        )
    return AntipodalCheck(True, value, ia)


def distance3_counts(g: Graph) -> tuple[tuple[int, ...], bool]:
    """Per-vertex counts of vertices at distance 3, plus a constancy flag."""
    dd = distance_data(g)
    if not dd.connected:
        raise ValueError("needs a connected graph")
    counts = tuple(int((row == 3).sum()) for row in dd.dist)
    return counts, len(set(counts)) == 1


def cosp_deza_check(g1: Graph, g2: Graph) -> TheoremCase:
    """A Deza graph cospectral with a distance-regular strongly Deza graph
    (d = 3, a1 = c2) either shares its intersection numbers or has different
    Deza parameters.

    The matching-parameters branch re-runs the triangle-count argument:
    n*k*b/6 triangles force the a-children to be the distance-3 graphs,
    hence equal distance-3 counts, hence (by the cospectral rigidity of
    diameter-3 graphs with fixed distance-3 counts) the same array.
    """
    ia1 = intersection_array(g1)
    if ia1 is None or ia1.d != 3 or ia1.a[0] != ia1.c[1]:
        raise ValueError("g1 must be distance-regular with d = 3 and a1 = c2")
    if not is_strongly_deza(g1).verdict:
        raise ValueError("g1 must be strongly Deza")
    if exact_spectrum(g1) != exact_spectrum(g2):
        raise ValueError("graphs are not cospectral")
    p1 = detect_deza(g1)
    p2 = detect_deza(g2)
    if p2 is None:
        raise ValueError("g2 must be a Deza graph")
    if p1 != p2:
        return TheoremCase(
            "different-deza-parameters",
            {"params1": list(p1.as_tuple()), "params2": list(p2.as_tuple())},
        )
    n, k, b, _ = p1.as_tuple()
    expected_triangles = Fraction(n * k * b, 6)
    if expected_triangles.denominator != 1 or triangle_count(g2) != int(expected_triangles):
        raise ContradictionError("triangle count differs from n*k*b/6")
    counts2, constant2 = distance3_counts(g2)
    if not constant2 or counts2[0] != ia1.k_i[3]:
        raise ContradictionError("distance-3 counts do not match")
    ia2 = intersection_array(g2)
    if ia2 != ia1:
        raise ContradictionError("cospectral Deza mate has a different array")
    return TheoremCase(
        "same-intersection-numbers", {"array": str(ia1), "triangles": int(expected_triangles)}
    )


# ---------------------------------------------------------------------------
# arithmetic-only entries for graphs that are out of construction scope


@dataclass(frozen=True)
class UnitaryFamilyCheck:
    """Parameter and spectrum arithmetic of the unitary nonisotropics family
    (the graphs themselves are not constructed)."""

    n: int
    k: int
    mult_plus: int
    mult_minus: int
    child: tuple[int, int, int, int]


def unitary_nonisotropics_check(q: int) -> UnitaryFamilyCheck:
    """For prime powers q > 2: positive multiplicities summing to q^2(q^2-q+1)
    with a vanishing trace, identically in q, and the distance-3 child
    parameters, which pass SRG feasibility."""
    if q <= 2 or prime_power(q) is None:
        raise ValueError("q must be a prime power greater than 2")
    n = q * q * (q * q - q + 1)
    k = q * (q - 1)
    mult_plus = (q**4 - q) // 2 - q**3 + q * q
    mult_minus = (q**4 - q) // 2 - q**3 + q - 1
    child = SrgParams(n, (q - 1) * (q + 1) ** 2, 2 * q * q - 2, (q + 1) ** 2)
    return UnitaryFamilyCheck(n, k, mult_plus, mult_minus, child.as_tuple())


#: feasible intersection data (n, k, k2, c2) with a1 = 0 for which no graph
#: is known; recorded with their arithmetic consistency only
FEASIBLE_UNBUILT = ((210, 11, 110, 1), (320, 22, 231, 2))


def feasible_tuple_check(n: int, k: int, k2: int, c2: int) -> bool:
    """k2 = k(k-1)/c2 for a triangle-free (a1 = 0) candidate, with room for
    a nonempty third distance class."""
    return k * (k - 1) == k2 * c2 and n - 1 - k - k2 > 0
