"""Deza parameters, children, and the child-spectrum formulas.

A Deza graph is regular, neither complete nor edgeless, and its pairwise
common-neighbour counts take at most two values b >= a.  Its children join
the pairs with exactly a (child A) respectively exactly b (child B) common
neighbours; a strongly Deza graph is one whose children are both strongly
regular.  Child spectra can be produced two independent ways: directly from
the constructed children, or through the closed-form transfer of the parent
spectrum; both routes are kept and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .eigenvalues import Eigenvalue, Spectrum
from .graphs import (
    Graph,
    adjacency_stack,
    batched,
    by_order,
    common_neighbour_matrix,
    degree_vector,
    is_disjoint_clique_union,
    per_graph,
    square_stack,
)
from .spectra import exact_spectrum, spectrum_from_pairs


@dataclass(frozen=True)
class DezaParams:
    n: int
    k: int
    b: int
    a: int

    def __post_init__(self) -> None:
        if not 0 <= self.a <= self.b <= self.k < self.n:
            raise ValueError(f"infeasible Deza parameters {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.b, self.a)


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        # standard double count of paths of length two from an edge
        if self.k * (self.k - self.lam - 1) != (self.n - self.k - 1) * self.mu:
            raise ValueError(f"infeasible SRG parameters {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)


@dataclass(frozen=True)
class DdgParams:
    """Divisible-design parameters: m classes of n vertices, v = m*n."""

    v: int
    k: int
    lam1: int
    lam2: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.v != self.m * self.n:
            raise ValueError("class structure does not cover the vertex set")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.v, self.k, self.lam1, self.lam2, self.m, self.n)


@dataclass(frozen=True)
class ChildPair:
    child_a: Graph
    child_b: Graph


@dataclass(frozen=True)
class StronglyDezaResult:
    verdict: bool
    params: DezaParams | None
    child_a_srg: SrgParams | None
    child_b_srg: SrgParams | None


@batched
def _class_values(graphs) -> list[tuple[list[int], list[int]]]:
    """Distinct common-neighbour counts over adjacent and over non-adjacent
    pairs, each ascending: the one scan of M^2's values per graph, by one
    kernel call per stack."""
    return by_order(
        lambda gs: _kernels.class_values(adjacency_stack(gs), square_stack(gs)), graphs)


def _may_be_deza(g: Graph) -> bool:
    """Regular and neither complete nor edgeless: the graphs whose M^2
    values detect_deza reads."""
    k = g.regular_degree()
    return k is not None and 0 < k < g.n - 1


def fill_class_values(graphs) -> None:
    """Store on each graph its degrees, and on each that detect_deza reads
    them for (_may_be_deza) its class values, by one row sum, one M^2
    product and one kernel call per stack."""
    degree_vector.fill(graphs)
    _class_values.fill([g for g in graphs if _may_be_deza(g)])


@per_graph
def detect_deza(g: Graph) -> DezaParams | None:
    """Deza parameters (n, k, b, a), or None.

    Not-Deza is an ordinary outcome: irregular, complete, edgeless, or more
    than two distinct common-neighbour counts.
    """
    if not _may_be_deza(g):
        return None
    values = sorted(set().union(*_class_values(g)))
    if len(values) > 2:
        return None
    return DezaParams(g.n, g.regular_degree(), values[-1], values[0])


def children(g: Graph) -> ChildPair:
    """Children of a Deza graph (A joins the a-pairs, B the b-pairs).

    For b = a the convention is child A = complete, child B = edgeless; a
    child equal to g is g itself (an SRG with lambda != mu is one of its
    own children).  M^2 = a*A + b*B + k*I holds, as detect_deza found M^2's
    diagonal to be k and its other entries in {a, b}.
    """
    return ChildPair(*(g if child is None else child for child in _children(g)))


@per_graph
def _children(g: Graph) -> tuple[Graph | None, Graph | None]:
    """The children of g, None for a child equal to g: g's memo holds no
    reference to g, so no cycle keeps g and its facts alive after its last
    reference goes."""
    params = detect_deza(g)
    if params is None:
        raise ValueError("children need a Deza graph")
    n, _, b, a = params.as_tuple()
    m2 = common_neighbour_matrix(g)
    offdiag = ~np.eye(n, dtype=bool)
    if b == a:
        adj_a = offdiag.astype(np.uint8)
        adj_b = np.zeros((n, n), dtype=np.uint8)
    else:
        adj_a = ((m2 == a) & offdiag).astype(np.uint8)
        adj_b = ((m2 == b) & offdiag).astype(np.uint8)
    return tuple(None if np.array_equal(adj, g.adj) else Graph(adj) for adj in (adj_a, adj_b))


@per_graph
def detect_srg(g: Graph) -> SrgParams | None:
    """SRG parameters (n, k, lambda, mu), or None.

    A strongly regular graph is a Deza graph whose common-neighbour count
    is constant on edges (lambda) and on non-edges (mu), so this refines
    detect_deza; complete and edgeless graphs never qualify.  Connectivity
    is not required: a disjoint union with class-constant counts (for
    instance m.K_n or a union of equal SRGs) qualifies, which is exactly
    the sense needed for Deza children.
    """
    params = detect_deza(g)
    if params is None:
        return None
    lams, mus = _class_values(g)
    if len(lams) != 1 or len(mus) != 1:
        return None
    return SrgParams(g.n, params.k, lams[0], mus[0])


@per_graph
def is_strongly_deza(g: Graph) -> StronglyDezaResult:
    """Deza with b > a and both children strongly regular.

    b = a graphs (strongly regular with lambda = mu) are rejected: their
    children are the complete and the edgeless graph.
    """
    params = detect_deza(g)
    if params is None or params.b == params.a:
        return StronglyDezaResult(False, params, None, None)
    pair = children(g)
    child_a_srg = detect_srg(pair.child_a)
    child_b_srg = detect_srg(pair.child_b)
    verdict = child_a_srg is not None and child_b_srg is not None
    return StronglyDezaResult(verdict, params, child_a_srg, child_b_srg)


@per_graph
def is_divisible_design(g: Graph) -> DdgParams | None:
    """Divisible-design parameters when one child is m >= 2 disjoint cliques
    of equal size >= 2 (the other child is then complete multipartite)."""
    params = detect_deza(g)
    if params is None or params.b == params.a:
        return None
    pair = children(g)
    for child, within, cross in (
        (pair.child_a, params.a, params.b),
        (pair.child_b, params.b, params.a),
    ):
        shape = is_disjoint_clique_union(child)
        if shape is None:
            continue
        m, size = shape
        if m >= 2 and size >= 2:
            return DdgParams(g.n, params.k, within, cross, m, size)
    return None


def _transfer_value(theta: Eigenvalue, num_const: int, den: int) -> Eigenvalue:
    """(num_const - theta^2) / den as an exact eigenvalue."""
    if theta.is_integer:
        num = num_const - theta.as_int() ** 2
        value, rem = divmod(num, den)
        if rem:
            raise ValueError(f"child eigenvalue {Fraction(num, den)} is not an integer")
        return Eigenvalue.integer(value)
    p, u, d, q = theta.p, theta.u, theta.d, theta.q
    return Eigenvalue.quadratic(
        num_const * q * q - p * p - u * u * d, -2 * p * u, d, den * q * q
    )


def child_spectra_formula(spec: Spectrum, params: DezaParams) -> tuple[Spectrum, Spectrum]:
    """Child spectra computed from the parent spectrum alone.

    Every non-principal parent eigenvalue theta contributes its multiplicity
    to the child value (k-b-theta^2)/(b-a) (child A) respectively
    (k-a-theta^2)/(a-b) (child B); one principal copy of k is replaced by
    the child degrees.  Opposite parent eigenvalues therefore merge, while a
    bipartite -k keeps its own multiplicity-1 class since the +k copy is
    principal.
    """
    n, k, b, a = params.as_tuple()
    if b == a:
        raise ValueError("child spectrum formula needs b > a")
    principal = Eigenvalue.integer(k)
    if spec.multiplicity(principal) < 1 or spec.n != n:
        raise ValueError("spectrum does not belong to a Deza graph with these parameters")
    alpha, rem_a = divmod(b * (n - 1) - k * (k - 1), b - a)
    beta, rem_b = divmod(a * (n - 1) - k * (k - 1), a - b)
    if rem_a or rem_b:
        raise ValueError("child degrees are not integers")
    pairs_a: list[tuple[Eigenvalue, int]] = [(Eigenvalue.integer(alpha), 1)]
    pairs_b: list[tuple[Eigenvalue, int]] = [(Eigenvalue.integer(beta), 1)]
    for theta, mult in spec:
        if theta == principal:
            mult -= 1
            if mult == 0:
                continue
        pairs_a.append((_transfer_value(theta, k - b, b - a), mult))
        pairs_b.append((_transfer_value(theta, k - a, a - b), mult))
    return spectrum_from_pairs(pairs_a), spectrum_from_pairs(pairs_b)


def verify_child_formula(g: Graph) -> bool:
    """Formula route against construction route, exactly.

    True iff child_spectra_formula applied to the parent spectrum equals the
    exact spectra of the constructed children.
    """
    params = detect_deza(g)
    if params is None or params.b == params.a:
        raise ValueError("needs a Deza graph with b > a")
    spec = exact_spectrum(g)
    formula_a, formula_b = child_spectra_formula(spec, params)
    pair = children(g)
    direct_a = exact_spectrum(pair.child_a)
    direct_b = exact_spectrum(pair.child_b)
    return formula_a == direct_a and formula_b == direct_b
