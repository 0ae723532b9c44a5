"""Closed-form spectral relationships and instance classifiers.

Everything here evaluates exact formulas on concrete graphs or spectra and
either returns a structured witness record (substituted values, both sides
of each equality) or raises.  Each classifier takes what it needs (the
graph, whose spectrum, Deza parameters and children are memoised on it, or
a spectrum) and checks its own hypotheses first: an input outside them
raises ValueError, InfeasibleError or SpectrumShapeError naming the failed
hypothesis, which a report records as ``skipped``.  ContradictionError is
raised only when an instance inside the hypotheses falsifies a verified
relationship, which would mean a bug, not a property of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .deza import (
    DdgParams,
    SrgParams,
    children,
    detect_deza,
    detect_srg,
    is_strongly_deza,
)
from .errors import ContradictionError, InfeasibleError, SpectrumShapeError
from .eigenvalues import Eigenvalue, Spectrum, is_perfect_square, sums_to_zero
from .graphs import (
    Graph,
    components,
    halved_graphs,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_disjoint_clique_union,
)
from .families import prime_power
from .spectra import exact_spectrum, spectrum_from_pairs


@dataclass(frozen=True)
class SrgEigen:
    """Restricted eigenvalues r > s of an SRG with multiplicities f, g."""

    r: Eigenvalue
    s: Eigenvalue
    f: int
    g: int


@dataclass(frozen=True)
class TheoremCase:
    """Outcome of one classifier: a label from its closed enumeration plus
    the substituted witness values."""

    case: str
    witness: dict = field(default_factory=dict)


def srg_eigen(params: SrgParams) -> SrgEigen:
    """Eigenvalues and multiplicities determined by SRG parameters.

    Integer case: r, s = ((lam-mu) +- sqrt(disc))/2 with disc the usual
    discriminant and multiplicity formulas; otherwise the conference case
    r, s = (-1 +- sqrt(n))/2 with equal multiplicities (n-1)/2.
    """
    n, k, lam, mu = params.as_tuple()
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc <= 0:
        raise InfeasibleError(f"discriminant {disc} of {params.as_tuple()} not positive")
    if is_perfect_square(disc):
        t = math.isqrt(disc)
        r = (lam - mu + t) // 2
        s = (lam - mu - t) // 2
        corr = Fraction((r + s) * (n - 1) + 2 * k, r - s)
        f2 = Fraction(n - 1) - corr
        g2 = Fraction(n - 1) + corr
        if f2.denominator == 1 and int(f2) % 2 == 0 and g2.denominator == 1:
            f = int(f2) // 2
            g = int(g2) // 2
            if f >= 0 and g >= 0:
                return SrgEigen(Eigenvalue.integer(r), Eigenvalue.integer(s), f, g)
    # conference case: non-integral restricted eigenvalues force these values
    if mu - lam == 1 and disc == n and n % 2 == 1 and 2 * k == n - 1:
        r = Eigenvalue.quadratic(-1, 1, n, 2)
        s = Eigenvalue.quadratic(-1, -1, n, 2)
        return SrgEigen(r, s, (n - 1) // 2, (n - 1) // 2)
    raise InfeasibleError(
        f"SRG parameters {params.as_tuple()} admit no integral or conference spectrum"
    )


def srg_spectrum(params: SrgParams) -> Spectrum:
    """Full spectrum {k^1, r^f, s^g} implied by SRG parameters."""
    eigen = srg_eigen(params)
    return spectrum_from_pairs(
        [
            (Eigenvalue.integer(params.k), 1),
            (eigen.r, eigen.f),
            (eigen.s, eigen.g),
        ]
    )


def srg_params_from_spectrum(spec: Spectrum) -> SrgParams:
    """Invert srg_eigen: recover (n, k, lam, mu) from an SRG spectrum.

    Uses r + s and r*s of the restricted pair (mu = k + rs and
    lam = mu + r + s).  Disconnected unions are fine: extra copies of the
    degree count as the restricted eigenvalue r = k.
    """
    principal = spec.principal()
    if not principal.is_integer:
        raise SpectrumShapeError("degree must be an integer")
    k = principal.as_int()
    restricted = [
        (ev, m - 1 if ev == principal else m) for ev, m in spec
    ]
    restricted = [(ev, m) for ev, m in restricted if m > 0]
    if len(restricted) != 2:
        raise SpectrumShapeError("an SRG has exactly two restricted eigenvalues")
    (r, _), (s, _) = restricted
    # Spectrum balances conjugates: both are integers, or s is r's conjugate
    if r.is_integer:
        rs_sum = r.as_int() + s.as_int()
        rs_prod = r.as_int() * s.as_int()
    else:
        c0, c1, _ = r.minimal_poly_coeffs()  # x^2 - (r+s)x + rs
        rs_prod = c0
        rs_sum = -c1
    mu = k + rs_prod
    lam = mu + rs_sum
    if mu < 0 or lam < 0:
        raise SpectrumShapeError("negative parameters from the restricted pair")
    return SrgParams(spec.n, k, lam, mu)


# ---------------------------------------------------------------------------
# trace identity of the five-slot spectrum


@dataclass(frozen=True)
class TracePairing:
    """The +-pair layout used to check k + (m2-m5) th2 + (m3-m4) th3 = 0."""

    holds: bool
    theta2: Eigenvalue
    m2: int
    m5: int
    theta3: Eigenvalue
    m3: int
    m4: int


def check_trace_identity(spec: Spectrum) -> TracePairing:
    """Verify the trace identity on a spectrum shaped {k, +-th2, +-th3}.

    One copy of the principal (largest) eigenvalue is set aside; the rest
    must split into at most two opposite-value classes (a zero class is its
    own opposite).  A missing partner gets multiplicity 0; more than one
    missing partner does not fit the shape.  The pairing is returned with
    the verdict; the integer pair is listed first when there is a choice.
    """
    if spec.distinct_count() > 5:
        raise SpectrumShapeError("more than five distinct eigenvalues")
    if spec.distinct_abs_count() > 3:
        raise SpectrumShapeError("more than three distinct absolute values")
    principal = spec.principal()
    if not principal.is_integer:
        raise SpectrumShapeError("principal eigenvalue must be an integer degree")

    remaining: dict[Eigenvalue, int] = {ev: m for ev, m in spec}
    remaining[principal] -= 1
    if remaining[principal] == 0:
        del remaining[principal]

    zero = Eigenvalue.integer(0)
    classes: dict[Eigenvalue, tuple[int, int]] = {}
    for ev, m in remaining.items():
        mag = abs(ev)
        plus, minus = classes.get(mag, (0, 0))
        if ev.sign() >= 0:
            classes[mag] = (m, minus) if ev != zero else (m, 0)
        else:
            classes[mag] = (plus, m)
    if len(classes) > 2:
        raise SpectrumShapeError("eigenvalues do not form two opposite pairs")

    absent = sum(
        (plus == 0) + (minus == 0)
        for mag, (plus, minus) in classes.items()
        if mag != zero
    )
    if absent > 1:
        raise SpectrumShapeError(
            "more than one multiplicity would be zero in the pairing"
        )

    # integer pair first (when one exists), larger magnitude breaking ties
    integer_classes = sorted(
        (item for item in classes.items() if item[0].is_integer),
        key=lambda item: item[0],
        reverse=True,
    )
    irrational_classes = sorted(
        (item for item in classes.items() if not item[0].is_integer),
        key=lambda item: item[0],
        reverse=True,
    )
    ordered = integer_classes + irrational_classes
    while len(ordered) < 2:
        ordered.append((zero, (0, 0)))
    (mag2, (m2, m5)), (mag3, (m3, m4)) = ordered[0], ordered[1]

    holds = sums_to_zero([(principal, 1), (mag2, m2 - m5), (mag3, m3 - m4)])
    return TracePairing(holds, mag2, m2, m5, mag3, m3, m4)


# ---------------------------------------------------------------------------
# eigenvalue-count classification


def classify_eigenvalue_count(g: Graph) -> TheoremCase:
    """At most five distinct eigenvalues; two- and three-value structure.

    The bound is about strongly Deza graphs, so a Deza graph with more
    than five distinct eigenvalues lies outside it.  Two distinct values:
    disjoint cliques of order k+1 with a = 0, b = k-1.  Three distinct
    values: a strongly regular graph with {lam, mu} = {a, b}, or a union of
    complete bipartite K_{k,k}, or a disconnected union of strongly regular
    components with one parameter set (v, k, lam, mu) and {lam, mu}
    contained in {a, b}.  Pairs in different components have no common
    neighbour, so a = 0 there and a component may be, for instance, a
    pentagon or a Petersen graph.
    """
    params = detect_deza(g)
    if params is None:
        raise ValueError("classification needs a Deza graph")
    spec = exact_spectrum(g)
    distinct = spec.distinct_count()
    if distinct > 5:
        raise ValueError(f"{distinct} distinct eigenvalues")
    n, k, b, a = params.as_tuple()
    if distinct == 2:
        shape = is_disjoint_clique_union(g)
        if shape is None or shape[1] != k + 1 or a != 0 or b != k - 1:
            raise ContradictionError("two-eigenvalue graph is not a clique union")
        return TheoremCase(
            "prop3-2eig", {"cliques": shape[0], "order": shape[1], "a": a, "b": b}
        )
    if distinct == 3:
        srg = detect_srg(g)
        if is_connected(g):
            if srg is None or {srg.lam, srg.mu} != {a, b}:
                raise ContradictionError("connected three-eigenvalue graph is not an SRG")
            return TheoremCase("prop3-3eig-srg", {"srg": list(srg.as_tuple())})
        comps = [induced_subgraph(g, c) for c in components(g)]
        comp_srgs = [detect_srg(c) for c in comps]
        if all(
            c.n == 2 * k and srg == SrgParams(2 * k, k, 0, k)
            for c, srg in zip(comps, comp_srgs)
        ):
            kind = "union-kkk"
        elif (
            comp_srgs[0] is not None
            and all(srg == comp_srgs[0] for srg in comp_srgs)
            and {comp_srgs[0].lam, comp_srgs[0].mu} <= {a, b}
        ):
            kind = "union-srg"
        else:
            raise ContradictionError("disconnected three-eigenvalue structure unexpected")
        return TheoremCase(
            "prop3-3eig-disconn",
            {"components": len(comps), "component_order": comps[0].n, "kind": kind},
        )
    return TheoremCase(f"prop3-{distinct}eig", {"distinct": distinct})


# ---------------------------------------------------------------------------
# strongly-Deza witness (connected Deza graphs with <= 3 absolute values)


@dataclass(frozen=True)
class DezaWitness:
    branch: str  # "strongly-deza" | "halved-strongly-deza" | "degenerate"
    bipartite: bool
    child_b_components: int | None
    halved: tuple[str, str] | None  # per half: "strongly-deza" | "complete"


def strongly_deza_witness(g: Graph) -> DezaWitness:
    """Either the graph itself or (bipartite case) its halved graphs must be
    strongly Deza; completeness degenerations are reported, not forced."""
    params = detect_deza(g)
    if params is None or params.b == params.a:
        raise ValueError("witness needs a Deza graph with b > a")
    if not is_connected(g):
        raise ValueError("witness needs a connected graph")
    spec = exact_spectrum(g)
    if spec.distinct_abs_count() > 3:
        raise ValueError("witness needs at most three distinct absolute eigenvalues")
    bip = is_bipartite(g)
    result = is_strongly_deza(g)
    if not bip:
        if not result.verdict:
            raise ContradictionError("connected non-bipartite case must be strongly Deza")
        return DezaWitness("strongly-deza", False, None, None)
    pair = children(g)
    b_components = len(components(pair.child_b))
    halves = halved_graphs(g)
    labels = []
    for half in halves:
        if half.is_complete():
            labels.append("complete")
        elif is_strongly_deza(half).verdict:
            labels.append("strongly-deza")
        else:
            labels.append("neither")
    labels = tuple(labels)
    if result.verdict:
        return DezaWitness("strongly-deza", True, b_components, labels)
    if all(lab == "strongly-deza" for lab in labels):
        return DezaWitness("halved-strongly-deza", True, b_components, labels)
    if all(lab in ("strongly-deza", "complete") for lab in labels):
        return DezaWitness("degenerate", True, b_components, labels)
    raise ContradictionError("bipartite case: neither graph nor halves strongly Deza")


# ---------------------------------------------------------------------------
# square/non-square trichotomy


def classify_square_case(g: Graph) -> TheoremCase:
    """Which of theta2^2 = k-b-s(b-a), theta3^2 = k-b-r(b-a) is a square.

    Needs a strongly Deza graph with at least four distinct eigenvalues;
    with fewer it is a strongly regular degeneration, outside the
    paired-eigenvalue regime.  r and s are the restricted eigenvalues of
    its a-pairs child.  Case i: both are squares and the graph is integral.
    Case ii: theta2^2 is not a square, theta3^2 is a nonzero square, and
    the +-theta2 multiplicities equal half the child multiplicity of its
    paired eigenvalue s; case iii is the mirror image.
    """
    sd = is_strongly_deza(g)
    if not sd.verdict:
        raise ValueError("not strongly Deza")
    spec = exact_spectrum(g)
    if spec.distinct_count() < 4:
        raise ValueError("fewer than four distinct eigenvalues")
    eigen = srg_eigen(sd.child_a_srg)
    if not (eigen.r.is_integer and eigen.s.is_integer):
        raise ContradictionError("a strongly Deza child must be integral")
    n, k, b, a = sd.params.as_tuple()
    r = eigen.r.as_int()
    s = eigen.s.as_int()
    t_s = k - b - s * (b - a)  # theta2^2, paired with child eigenvalue s
    t_r = k - b - r * (b - a)  # theta3^2, paired with child eigenvalue r
    if t_s < 0 or t_r < 0:
        raise ContradictionError("negative squared eigenvalue")
    for ev, m in spec:
        if ev == spec.principal() and m == 1:
            continue
        sq = ev.square_parts()
        if sq[1] != 0 or sq[0] not in (t_s, t_r, Fraction(k * k)):
            raise ContradictionError(f"eigenvalue {ev} matches neither formula value")
    square_s = is_perfect_square(t_s)
    square_r = is_perfect_square(t_r)
    witness = {
        "theta2_sq": t_s,
        "theta3_sq": t_r,
        "child_r": r,
        "child_s": s,
        "child_mult_r": eigen.f,
        "child_mult_s": eigen.g,
    }
    if square_s and square_r:
        if not spec.is_integral():
            raise ContradictionError("both squares yet the spectrum is not integral")
        return TheoremCase("square-i", witness)
    if not square_s and not square_r:
        raise ContradictionError("both formula values are non-squares")
    if not square_s:
        irr, other, case, child_mult = t_s, t_r, "square-ii", eigen.g
    else:
        irr, other, case, child_mult = t_r, t_s, "square-iii", eigen.f
    if other == 0 or not is_perfect_square(other):
        raise ContradictionError("partner value must be a nonzero square")
    plus, minus = Eigenvalue.sqrt_pair(irr)
    m_plus = spec.multiplicity(plus)
    m_minus = spec.multiplicity(minus)
    if m_plus != m_minus or 2 * m_plus != child_mult:
        raise ContradictionError(
            f"irrational pair multiplicities {m_plus},{m_minus} "
            f"must both equal half of {child_mult}"
        )
    witness.update({"pair_mult": m_plus, "half_child_mult": child_mult // 2})
    return TheoremCase(case, witness)


# ---------------------------------------------------------------------------
# eigenvalue relations for five and four distinct eigenvalues


def _pair_from_radicand(value: Fraction) -> tuple[Eigenvalue, Eigenvalue]:
    if value < 0:
        raise InfeasibleError(f"negative radicand {value}")
    if value.denominator != 1:
        raise InfeasibleError(
            f"radicand {value} does not yield an algebraic integer of degree <= 2"
        )
    return Eigenvalue.sqrt_pair(int(value))


def remaining_pair_five_eig(
    n: int, k: int, theta2: Eigenvalue | int, m2: int, m5: int
) -> tuple[Eigenvalue, Eigenvalue]:
    """The +-theta3 pair from the integer pair theta2 = -theta5 and its
    multiplicities: +-sqrt((k(n-k) - (m2+m5) theta2^2) / (n-m2-m5-1))."""
    theta2 = Eigenvalue.integer(theta2) if isinstance(theta2, int) else theta2
    if not theta2.is_integer:
        raise InfeasibleError("theta2 must be one of the two opposite integer eigenvalues")
    if n - m2 - m5 - 1 <= 0:
        raise InfeasibleError("no room left for the remaining pair")
    z = theta2.as_int()
    radicand = Fraction(k * (n - k) - (m2 + m5) * z * z, n - m2 - m5 - 1)
    return _pair_from_radicand(radicand)


def remaining_pair_four_eig(
    n: int, k: int, theta2: Eigenvalue | int, m2: int
) -> tuple[Eigenvalue, Eigenvalue]:
    """Four distinct eigenvalues with m3 = m4: theta2 = -k/m2 <= -1 and
    +-sqrt(k (1 + (theta2+1)(m2+1)/(n-m2-1)))."""
    theta2 = Eigenvalue.integer(theta2) if isinstance(theta2, int) else theta2
    if not theta2.is_integer:
        raise InfeasibleError("theta2 must be an integer")
    z = theta2.as_int()
    if z > -1:
        raise InfeasibleError("theta2 must be at most -1")
    if m2 * z != -k:
        raise InfeasibleError(f"m2*theta2 = {m2 * z} must equal -k = {-k}")
    radicand = k * (1 + Fraction((z + 1) * (m2 + 1), n - m2 - 1))
    return _pair_from_radicand(radicand)


# ---------------------------------------------------------------------------
# singular spectra


@dataclass(frozen=True)
class SingularCheck:
    singular: bool
    integral: bool | None
    distinct: int
    four_distinct: bool | None


def singular_check(g: Graph) -> SingularCheck:
    """On a strongly Deza graph, zero in the spectrum forces integrality
    (and, away from the degenerate strongly-regular shapes, exactly four
    distinct values)."""
    if not is_strongly_deza(g).verdict:
        raise ValueError("not strongly Deza")
    spec = exact_spectrum(g)
    if not spec.contains_value(0):
        return SingularCheck(False, None, spec.distinct_count(), None)
    if not spec.is_integral():
        raise ContradictionError("singular strongly Deza spectra must be integral")
    distinct = spec.distinct_count()
    return SingularCheck(True, True, distinct, distinct == 4)


# ---------------------------------------------------------------------------
# the affine divisible-design family


@dataclass(frozen=True)
class AffineFamily:
    params: DdgParams
    theta: int  # the +- eigenvalue q^(t-1); 0 completes the spectrum
    k_minus_lam1: int
    k_squared: int
    lam2_v: int


def affine_family_params(q: int, t: int) -> AffineFamily:
    """Divisible-design parameters of the affine family and its predicted
    eigenvalues +-q^(t-1) and 0, with both sides of its two closure
    identities (which hold identically in q and t)."""
    if t < 2:
        raise InfeasibleError("t must be at least 2")
    if prime_power(q) is None:
        raise InfeasibleError(f"{q} is not a prime power")
    v = q**t * (q**t - 1) // (q - 1)
    k = q ** (t - 1) * (q**t - 1)
    lam1 = q ** (t - 1) * (q**t - q ** (t - 1) - 1)
    lam2 = q ** (t - 2) * (q - 1) * (q**t - 1)
    m = (q**t - 1) // (q - 1)
    n = q**t
    params = DdgParams(v, k, lam1, lam2, m, n)
    return AffineFamily(params, q ** (t - 1), k - lam1, k * k, lam2 * v)


# ---------------------------------------------------------------------------
# final four-eigenvalue classification


def classify_last_case(g: Graph) -> TheoremCase:
    """Deza graph with b > a and spectrum {k, theta2^m2, +-theta3^m3},
    m3 = m4 and m2 theta2 = -k: either theta2 = -k (bipartite incidence
    shape), theta2 = -1 (the +-sqrt(k) shape), or the intermediate case
    1 < m2 < k."""
    params = detect_deza(g)
    if params is None or params.b == params.a:
        raise ValueError("needs a Deza graph with b > a")
    spec = exact_spectrum(g)
    n, k = params.n, params.k
    if spec.distinct_count() != 4:
        raise SpectrumShapeError("needs exactly four distinct eigenvalues")
    principal = spec.principal()  # k, as a Deza graph is k-regular
    rest = {ev: m for ev, m in spec if ev != principal}
    pair = None
    for ev, m in rest.items():
        if ev.sign() > 0 and rest.get(-ev) == m:
            pair = (ev, m)
    if pair is None:
        raise SpectrumShapeError("no opposite pair with equal multiplicities")
    theta3, m3 = pair
    leftovers = [(ev, m) for ev, m in rest.items() if ev not in (theta3, -theta3)]
    if len(leftovers) != 1 or not leftovers[0][0].is_integer:
        raise SpectrumShapeError("no single integer eigenvalue left for theta2")
    theta2, m2 = leftovers[0]
    z = theta2.as_int()
    if m2 * z != -k:
        raise InfeasibleError(f"m2*theta2 = {m2 * z} must equal -k = {-k}")
    expected = remaining_pair_four_eig(n, k, theta2, m2)
    if expected[0] != theta3:
        raise ContradictionError("remaining pair does not match the formula")
    witness = {
        "theta2": str(theta2),
        "m2": m2,
        "theta3": str(theta3),
        "m3": m3,
    }
    if m2 == 1 and z == -k:
        if m3 != (n - 2) // 2 or 2 * m3 != n - 2:
            raise ContradictionError("bipartite case multiplicities must be (n-2)/2")
        return TheoremCase("last-i", witness)
    if m2 == k and z == -1:
        if 2 * m3 != n - k - 1:
            raise ContradictionError("multiplicities must be (n-k-1)/2")
        return TheoremCase("last-ii", witness)
    if 1 < m2 < k and z < -1:
        return TheoremCase("last-iii", witness)
    raise ContradictionError("four-eigenvalue case outside the trichotomy")
