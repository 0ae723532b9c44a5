"""Exact spectra: frozen examples, invariants, numeric cross-validation."""

import math
import random
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    float_spectrum_or_residual,
    mul_mod,
    powmod,
    random_graph,
    random_regular_graph,
    rem_mod,
)
from dezakit import deza, families, report, spectra
from dezakit.charpoly import MAX_ORDER, CharPoly, char_poly, char_poly_mod, modular_primes, poly_mul
from dezakit.eigenvalues import Eigenvalue, Spectrum
from dezakit.graphs import Graph, disjoint_union
from dezakit.spectra import NonQuadraticSpectrumError, exact_spectrum, spectrum_from_pairs
from dezakit.verify import corpus


def _spec(pairs):
    return Spectrum([(ev, m) for ev, m in pairs])


def test_c5_golden_ratio(c5):
    golden_plus = Eigenvalue.quadratic(-1, 1, 5, 2)
    assert exact_spectrum(c5) == _spec(
        [(Eigenvalue.integer(2), 1), (golden_plus, 2), (golden_plus.conjugate(), 2)]
    )


def test_petersen(petersen):
    assert exact_spectrum(petersen) == _spec(
        [(Eigenvalue.integer(3), 1), (Eigenvalue.integer(1), 5), (Eigenvalue.integer(-2), 4)]
    )


def test_icosahedron(icosahedron):
    root5 = Eigenvalue.sqrt_pair(5)[0]
    assert exact_spectrum(icosahedron) == _spec(
        [(Eigenvalue.integer(5), 1), (root5, 3), (Eigenvalue.integer(-1), 5), (-root5, 3)]
    )


def test_bipartite_examples(heawood, c6):
    root2 = Eigenvalue.sqrt_pair(2)[0]
    assert exact_spectrum(heawood) == _spec(
        [(Eigenvalue.integer(3), 1), (root2, 6), (-root2, 6), (Eigenvalue.integer(-3), 1)]
    )
    assert exact_spectrum(families.complete_multipartite([3, 3])) == _spec(
        [(Eigenvalue.integer(3), 1), (Eigenvalue.integer(0), 4), (Eigenvalue.integer(-3), 1)]
    )
    assert exact_spectrum(c6) == _spec(
        [(Eigenvalue.integer(2), 1), (Eigenvalue.integer(1), 2),
         (Eigenvalue.integer(-1), 2), (Eigenvalue.integer(-2), 1)]
    )


def test_disconnected_multiplicity_of_degree():
    g = families.disjoint_cliques(3, 4)
    spec = exact_spectrum(g)
    assert spec.multiplicity(Eigenvalue.integer(3)) == 3
    assert spec.multiplicity(Eigenvalue.integer(-1)) == 9


def test_mixed_radicals():
    # P3 has eigenvalues 0, +-sqrt(2); P4 has +-(1+-sqrt(5))/2
    from dezakit.graphs import Graph

    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    union = disjoint_union([path3, path4])
    spec = exact_spectrum(union)
    assert spec.n == 7
    assert spec.multiplicity(Eigenvalue.sqrt_pair(2)[0]) == 1
    assert spec.multiplicity(Eigenvalue.quadratic(1, 1, 5, 2)) == 1
    assert spec.sum_of_squares() == 2 * union.edge_count()


def test_c7_non_quadratic(c7):
    with pytest.raises(NonQuadraticSpectrumError) as info:
        exact_spectrum(c7)
    assert info.value.degree == 6


def test_numeric_cross_validation(petersen, heawood, icosahedron, johnson63, taylor13, klein24):
    for g in (petersen, heawood, icosahedron, johnson63, taylor13, klein24):
        numeric = np.linalg.eigvalsh(g.adj.astype(float))
        exact = sorted(
            float(ev) for ev, m in exact_spectrum(g) for _ in range(m)
        )
        assert np.allclose(numeric, exact, atol=1e-9)


def test_random_graphs_reconstruct():
    rng = random.Random(41)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 12))
        try:
            spec = exact_spectrum(g)
        except NonQuadraticSpectrumError:
            continue
        assert spec.n == g.n
        assert spec.sum_of_squares() == 2 * g.edge_count()


def test_larger_johnson_instance():
    # J(9,3): the four Johnson eigenvalues (3-j)(6-j) - j at binomial
    # multiplicities; exercises the integer scan at n = 84
    spec = exact_spectrum(families.johnson(9, 3))
    assert spec.to_json() == [
        {"value": "18", "mult": 1},
        {"value": "9", "mult": 8},
        {"value": "2", "mult": 27},
        {"value": "-3", "mult": 48},
    ]


def test_conference_paley_61():
    spec = exact_spectrum(families.paley(61))
    assert spec.multiplicity(Eigenvalue.quadratic(-1, 1, 61, 2)) == 30


def test_distinct_abs_values(petersen):
    spec = _spec([(Eigenvalue.integer(6), 1), (Eigenvalue.integer(2), 3),
                  (Eigenvalue.integer(0), 2), (Eigenvalue.integer(-2), 6)])
    assert spec.distinct_abs_count() == 3
    assert exact_spectrum(petersen).distinct_abs_count() == 3
    assert exact_spectrum(families.complete(2)).distinct_abs_count() == 1


def test_is_cospectral(icosahedron, c6):
    assert exact_spectrum(icosahedron) == exact_spectrum(Graph(icosahedron.adj))
    k33 = families.complete_multipartite([3, 3])
    assert exact_spectrum(k33) != exact_spectrum(c6)
    # same multiplicity multisets {1,5,4} vs {1,4,5}, different eigenvalues
    pet = exact_spectrum(families.petersen())
    k2x5 = exact_spectrum(families.complete_multipartite([2] * 5))
    assert sorted(m for _, m in pet) == sorted(m for _, m in k2x5)
    assert pet != k2x5


def test_spectrum_lives_on_its_graph(monkeypatch):
    calls = []
    monkeypatch.setattr(spectra, "char_poly", lambda g: calls.append(g) or char_poly(g))
    g = families.petersen()
    spec = exact_spectrum(g)
    assert exact_spectrum(g) is spec and len(calls) == 1
    # an equal graph is a new analysis: its char_poly is computed again, and
    # only the factor table of that polynomial is shared
    assert exact_spectrum(Graph(g.adj)) == spec and len(calls) == 2
    # a failure raises on every call, from the table stored on the graph:
    # C7's char_poly is read once
    c7 = families.cycle(7)
    for _ in range(2):
        with pytest.raises(NonQuadraticSpectrumError):
            exact_spectrum(c7)
    assert len(calls) == 3


def test_spectrum_from_pairs_merges():
    spec = spectrum_from_pairs(
        [(Eigenvalue.integer(1), 1), (Eigenvalue.integer(1), 2),
         (Eigenvalue.integer(-1), 3), (Eigenvalue.integer(5), 0)]
    )
    assert spec.multiplicity(Eigenvalue.integer(1)) == 3
    assert spec.multiplicity(Eigenvalue.integer(5)) == 0


# -- the exact quadratic step over GF(p) ------------------------------------


#: a large prime = 3 (mod 4) and 2 (mod 3) for the synthetic residuals;
#: exact_spectrum itself runs the step at the least admissible prime
P = modular_primes()[0]
#: the largest prime the step can ask for, at the largest order char_poly
#: accepts
P_MAX = spectra._step_prime(MAX_ORDER - 1, MAX_ORDER)


@pytest.fixture
def no_eigensolver(monkeypatch):
    """Make every numpy eigensolver raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)


def _product(*factors):
    out = (1,)
    for factor in factors:
        out = poly_mul(out, factor)
    return out


def _power(factor, e):
    return _product(*[factor] * e)


def _legendre(d):
    return pow(d, (P - 1) // 2, P)


def _split_nonsquares():
    """Non-squares d > 1 for which x^2 - d splits mod P."""
    return [d for d in range(2, 50) if math.isqrt(d) ** 2 != d and _legendre(d) == 1]


def _step(rem, bound, p):
    """The factors the GF(p) step proposes for the one row (rem, bound, p)."""
    (factors,) = spectra._gfp_step([(rem, bound, p)])
    return factors


def _quadratics(rem, bound, p):
    """The (b, c) of each x^2 - b x + c the GF(p) step proposes for rem."""
    return [(-f[1], f[0]) for f in _step(rem, bound, p) if len(f) == 3]


def _spy(monkeypatch, name):
    """Record the arguments of every call to spectra.<name>."""
    calls, fn = [], getattr(spectra, name)
    monkeypatch.setattr(spectra, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def _step_rows(calls):
    """The rows of every recorded _gfp_step call, in order."""
    return [row for (rows,) in calls for row in rows]


def _pow_one(c, e, f, p):
    """(x + c)^e mod f over GF(p) as a trimmed list, from a stack of one."""
    return spectra._trim(spectra._pow_x_plus([c], [e], [f], [p])[0].tolist())


def test_pow_x_plus_matches_list_oracle():
    rng = random.Random(7)
    # the step prime of a survey-size graph (k = 11, n = 14), and a large one
    for p in (spectra._step_prime(11, 14), P):
        for d in range(1, 41):
            f = [rng.randrange(p) for _ in range(d)] + [1]
            c = rng.randrange(p) if d % 2 else 0
            for e in (p, p * p, (p - 1) // 2, (p * p - 1) // 2):
                assert _pow_one(c, e, f, p) == powmod([c, 1], e, f, p)
    # the int64 worst case: degree MAX_ORDER, every coefficient p - 1 at the
    # largest step prime; the last square has 2 MAX_ORDER - 1 coefficients,
    # each a sum of up to MAX_ORDER products below p^2
    p = P_MAX
    assert MAX_ORDER * (p - 1) ** 2 < 2**63
    f = [p - 1] * MAX_ORDER + [1]
    e = 2 * MAX_ORDER
    assert _pow_one(p - 1, e, f, p) == powmod([p - 1, 1], e, f, p)


def _stacked_step_rows():
    """GF(p) step rows (rem, bound, p): seeded residuals of every degree from
    1 to 13 at primes 43 to 971, the residuals of Paley(13) and C7, C258's
    degree-252 residual at p = 263, and a row of degree 258 at P_MAX, every
    coefficient but the leading one p - 1."""
    rng = random.Random(22)
    rows = []
    for d in range(1, 14):
        bound = rng.randint(2, 11)
        rem = (1,)
        while len(rem) - 1 < d:
            left, kind = d - (len(rem) - 1), rng.randrange(3)
            if kind == 0 or left == 1:
                factor = (-rng.randint(-bound, bound), 1)
            elif kind == 1:
                factor = (rng.randint(-bound * bound, bound * bound),
                          rng.randint(-2 * bound, 2 * bound), 1)
            else:  # what is left, as one random monic factor
                factor = tuple(rng.randint(-5, 5) for _ in range(left)) + (1,)
            rem = poly_mul(rem, factor)
        rows.append((rem, bound, spectra._step_prime(bound, d)))
    for g, roots in ((families.paley(13), (6,)), (families.cycle(7), (2,)),
                     (families.cycle(258), range(-2, 3))):
        bound = int(g.degrees().max())
        rem = spectra._divide_out(char_poly(g).coeffs, [(-z, 1) for z in roots], {})
        rows.append((rem, bound, spectra._step_prime(bound, g.n)))
    rows.append(((P_MAX - 1,) * 258 + (1,), 1, P_MAX))
    return rows


def test_a_stack_steps_as_its_rows_alone():
    rows = _stacked_step_rows()
    primes = sorted({p for _, _, p in rows})
    assert primes[0] == 43 and 971 in primes and primes[-1] == P_MAX
    assert {len(rem) - 1 for rem, _, _ in rows} >= set(range(1, 14)) | {252, 258}
    assert rows[-2][2] == 263 and len(rows[-2][0]) - 1 == 252
    assert spectra._gfp_step(rows) == [_step(*row) for row in rows]


def test_a_stack_powers_as_its_rows_alone():
    # per degree, rows of mixed primes, exponents of unequal length and
    # shifts; the list oracle checks the small degrees and the short
    # exponents, among them a power mod the degree-258 row at P_MAX
    rows = _stacked_step_rows()
    for d in sorted({len(rem) - 1 for rem, _, _ in rows}):
        stack = [([c % p for c in rem], p) for rem, _, p in rows if len(rem) - 1 == d]
        stack += [([(c + k) % p for c in f[:-1]] + [1], p) for f, p in stack for k in (1, 2)]
        f = [f for f, _ in stack]
        p = [p for _, p in stack]
        e = [(q * q - 1) // 2 if i % 3 == 0 else q if i % 3 == 1 else 2 * d + 1
             for i, q in enumerate(p)]
        c = [i * 7 % q for i, q in enumerate(p)]
        stacked = spectra._pow_x_plus(c, e, f, p)
        assert stacked.shape == (len(stack), d)
        for row, args in zip(stacked.tolist(), zip(c, e, f, p)):
            assert spectra._trim(row) == _pow_one(*args)
            if d <= 13 or args[1] < 1000:
                assert spectra._trim(row) == powmod([args[0], 1], args[1], args[2], args[3])


def test_quadratic_candidates_on_synthetic_residuals(monkeypatch):
    cands = _quadratics
    # one quadratic per distinct factor, whatever the multiplicities
    rem = _product((-3, 0, 1), _power((-1, 1, 1), 2), _power((-2, 0, 1), 3))
    assert cands(rem, 3, P) == [(-1, -1), (0, -3), (0, -2)]
    # two quadratics of equal multiplicity are both proposed
    assert cands(_product(_power((-3, 0, 1), 2), _power((-2, 0, 1), 2)), 3, P) == [
        (0, -3), (0, -2)]
    # the bounds filter: x^2 - 3 cannot divide det(xI - M) when k = 1
    assert cands(_power((-3, 0, 1), 4), 1, P) == []
    # the cubic of C7 has no quadratic factor
    assert cands(_power((-1, -2, 1, 1), 2), 2, P) == []

    # a linear part L of degree 2, 3 or 4: its roots are +-sqrt(s) for a
    # split x^2 - s, and the one cube root of 2 (p = 2 mod 3) for x^3 - 2
    assert P % 3 == 2
    s1, s2 = _split_nonsquares()[:2]
    powers = _spy(monkeypatch, "_pow_x_plus")
    splits = _spy(monkeypatch, "_split_quadratic")
    # degree 2: split in closed form, with no splitting power at all
    assert cands((-s1, 0, 1), 7, P) == [(0, -s1)]
    assert len(splits) == 1 and [e for _, es, _, _ in powers for e in es] == [P]
    # degree 3 and 4: Cantor-Zassenhaus leaves a piece of degree 2
    for rem, pairs in [(_product((-s1, 0, 1), (-2, 0, 0, 1)), [(0, -s1)]),
                       (_product((-s1, 0, 1), (-s2, 0, 1)), [(0, -s1), (0, -s2)])]:
        powers.clear()
        splits.clear()
        assert cands(rem, 7, P) == sorted(pairs)
        assert splits and (P - 1) // 2 in [e for _, es, _, _ in powers for e in es]


def test_split_and_irreducible_quadratics_are_both_proposed():
    # x^2 - d splits mod p when d is a square mod p, else stays irreducible
    split = _split_nonsquares()[0]
    inert = next(d for d in range(2, 50) if _legendre(d) == P - 1)
    rem = _product((-split, 0, 1), (-inert, 0, 1), (-1, -2, 1, 1))
    assert _quadratics(rem, 7, P) == sorted([(0, -split), (0, -inert)])


def test_quartic_with_quadratic_roots_is_left_over(monkeypatch):
    # x^4 - 10x^2 + 1 has roots +-sqrt(2) +- sqrt(3) but no quadratic factor
    # over the integers, though it splits into quadratics mod every prime
    quartic = (1, 0, -10, 0, 1)
    rem = poly_mul(quartic, (-2, 0, 1))
    assert _quadratics(rem, 4, P) == [(0, -2)]
    # dividing out what the step proposes at the CRT route's prime leaves it
    p = spectra._step_prime(4, 6)
    mults = {}
    assert spectra._divide_out(rem, _step(rem, 4, p), mults) == quartic
    assert mults == {(-2, 0, 1): 1}
    # a 4-regular graph on six vertices, whose det(xI - M) is replaced by rem
    g = families.complete_multipartite([2, 2, 2])
    monkeypatch.setattr(spectra, "char_poly", lambda g: CharPoly(rem))
    with pytest.raises(NonQuadraticSpectrumError) as info:
        exact_spectrum(g)
    assert info.value.degree == 4


def test_prime_covers_max_order():
    # the largest prime the step can ask for: every quadratic factor is
    # squarefree mod it and lifts back exactly, and int64 holds the powers
    k, p = MAX_ORDER - 1, P_MAX
    assert all(p % q for q in range(2, math.isqrt(p) + 1)) and p % 4 == 3
    assert p > 8 * k * k and p > MAX_ORDER
    assert p < 2**26 and MAX_ORDER * (p - 1) ** 2 < 2**63
    assert 2 * k < p // 2 and k * k < p // 2


def test_step_prime_is_least_admissible():
    # a sieve up to past the largest prime asked for below
    top = 2 * 8 * 257**2 + 2000
    sieve = np.ones(top, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(top) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    admissible = np.flatnonzero(sieve & (np.arange(top) % 4 == 3))

    def least(m):
        """The least prime = 3 (mod 4) above m, by the sieve."""
        return int(admissible[np.searchsorted(admissible, m, side="right")])

    for k in range(258):
        floor = 8 * k * k
        # degrees that do not dominate 8 k^2 and degrees that do, one of
        # them itself an admissible prime
        for deg in {0, 1, floor // 2, floor, floor + 1, least(floor), 2 * floor + 1000}:
            p = spectra._step_prime(k, deg)
            assert p == least(max(floor, deg)), (k, deg)
            assert sieve[p] and p % 4 == 3 and p > max(floor, deg)


def test_unlucky_prime_is_refused(monkeypatch):
    g = families.paley(61)
    rem = spectra._divide_out(char_poly(g).coeffs, [(-30, 1)], {})
    assert _quadratics(rem, 30, P) == [(-1, -15)]
    # x^2 + x - 15 has discriminant 61, so mod 61 it is (x + 31)^2: the
    # factor would be lost, and the step refuses the prime
    assert [c % 61 for c in rem] == [c % 61 for c in _power((31, 1), 60)]
    with pytest.raises(ArithmeticError, match="too small"):
        _quadratics(rem, 30, 61)
    with pytest.raises(ArithmeticError, match="too small"):
        _quadratics(_power((-2, 0, 1), 6), 1, 11)
    # the closed-form square root needs p = 3 (mod 4); 67108837 is 1 mod 4
    with pytest.raises(ArithmeticError, match="3 mod 4"):
        _quadratics(rem, 30, 67108837)
    # int64 holds the powers up to degree MAX_ORDER only
    with pytest.raises(ArithmeticError, match="exceeds"):
        _quadratics((1,) + (0,) * MAX_ORDER + (1,), 1, P)
    # a closed-form root is checked, s^2 = disc, before it is used
    inert = next(d for d in range(2, 50) if _legendre(d) == P - 1)
    with pytest.raises(ArithmeticError, match="no roots"):
        spectra._split_quadratic([-inert % P, 0, 1], P)
    monkeypatch.setattr(spectra, "_step_prime", lambda bound, deg: 61)
    with pytest.raises(ArithmeticError, match="too small"):
        exact_spectrum(g)


@pytest.mark.parametrize("make, text", [
    pytest.param(lambda: families.paley(61),
                 "{30^1, ((-1+√61)/2)^30, ((-1-√61)/2)^30}", id="paley-61"),
    pytest.param(lambda: families.paley(101),
                 "{50^1, ((-1+√101)/2)^50, ((-1-√101)/2)^50}", id="paley-101"),
    pytest.param(lambda: families.cycle(5),
                 "{2^1, ((-1+√5)/2)^2, ((-1-√5)/2)^2}", id="c5"),
    pytest.param(families.icosahedron, "{5^1, (√5)^3, (-1)^5, (-√5)^3}", id="icosahedron"),
    pytest.param(lambda: families.bundled_graph("klein24"),
                 "{7^1, (√7)^8, (-1)^7, (-√7)^8}", id="klein24"),
    pytest.param(lambda: families.taylor_double_cover(families.paley(13)),
                 "{13^1, (√13)^7, (-1)^13, (-√13)^7}", id="taylor-13"),
    pytest.param(lambda: families.paley(257),
                 "{128^1, ((-1+√257)/2)^128, ((-1-√257)/2)^128}", id="paley-257"),
])
def test_exact_step_needs_no_eigensolver(make, text, no_eigensolver):
    assert str(exact_spectrum(make())) == text


def test_mixed_quadratics_are_proposed_exactly(no_eigensolver):
    # P3 + P4 + C5: the residual (x^2 + x - 1)^3 (x^2 - x - 1)(x^2 - 2)
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    union = disjoint_union([path3, path4, families.cycle(5)])
    assert str(exact_spectrum(union)) == (
        "{2^1, ((1+√5)/2)^1, (√2)^1, ((-1+√5)/2)^3, 0^1,"
        " ((1-√5)/2)^1, (-√2)^1, ((-1-√5)/2)^3}"
    )


def _spectrum_or_residual(g):
    """The exact spectrum of a fresh copy of g (so no spectrum memoised on g
    is reused), or the degree of its non-quadratic residual."""
    try:
        return exact_spectrum(Graph(g.adj))
    except NonQuadraticSpectrumError as exc:
        return exc.degree


def _float_spectrum_or_degree(g):
    """conftest's float oracle, with its residual read as its degree."""
    oracle = float_spectrum_or_residual(g)
    return oracle if isinstance(oracle, Spectrum) else len(oracle) - 1


def test_agrees_with_float_oracle():
    rng = random.Random(4)
    graphs = list(corpus().values())
    while len(graphs) < 225:
        n = rng.randint(8, 14)
        k = rng.randint(1, n - 1)
        if n * k % 2 == 0:
            graphs.append(random_regular_graph(rng, n, k))
    # n = 251: the powers run mod a radical of degree about 190
    graphs.append(disjoint_union([families.paley(61), random_regular_graph(rng, 190, 6)]))
    exact = [_spectrum_or_residual(g) for g in graphs]
    assert exact == [_float_spectrum_or_degree(g) for g in graphs]
    assert isinstance(exact[-1], int) and exact[-1] > 179
    # both outcomes occur: spectra with quadratic eigenvalues and residuals
    assert any(isinstance(r, int) for r in exact)
    assert any(isinstance(r, Spectrum) and any(not ev.is_integer for ev, _ in r)
               for r in exact)


# -- the step at small primes -------------------------------------------------


@pytest.mark.parametrize("make, prime, residual_degree", [
    # k = 2: the order dominates 8 k^2 = 32; both take 13 CRT primes, so
    # the step runs once, on det(xI - M) mod the certificate's prime, and
    # when the certificate declines (C250), its factors divide char_poly
    pytest.param(lambda: disjoint_union([families.cycle(5)] * 50), 251, None, id="50xC5"),
    pytest.param(lambda: families.cycle(250), 251, 240, id="C250"),
])
def test_small_step_prime_end_to_end(monkeypatch, make, prime, residual_degree):
    g = make()
    calls = _spy(monkeypatch, "_gfp_step")
    exact = _spectrum_or_residual(g)
    assert [p for _, _, p in _step_rows(calls)] == [prime]
    assert exact == _float_spectrum_or_degree(g)
    if residual_degree is None:
        assert isinstance(exact, Spectrum) and len(exact.to_json()) == 3
    else:
        assert exact == residual_degree


def test_every_admissible_quadratic_is_proposed_at_small_primes():
    bound = 2
    quads = [(b, c) for b in range(-4, 5) for c in range(-4, 5)
             if spectra._admissible(b, c, bound)]
    assert len(quads) == 34

    def check(chosen, p):
        rem = _product(*[(c, -b, 1) for b, c in chosen])
        assert spectra._step_prime(bound, len(rem) - 1) == p
        # split mod p (through L) and inert mod p (through Q) both occur
        legendre = {pow((b * b - 4 * c) % p, (p - 1) // 2, p) for b, c in chosen}
        assert legendre == {1, p - 1}
        factors = _step(rem, bound, p)
        assert {(c, -b, 1) for b, c in chosen} <= set(factors)
        mults = {}
        assert spectra._divide_out(rem, factors, mults) == (1,)
        assert mults == {(c, -b, 1): 1 for b, c in chosen}

    # all 34: degree 68 > 8 k^2, so p = 71
    check(quads, 71)
    # a few, of total degree below 8 k^2 = 32, so p = 43
    check(quads[::5], 43)
    check(quads[1:12], 43)


# -- the one-prime certificate ------------------------------------------------


def _certificate(g):
    """The certificate's table for g, or None when it declines; called
    directly, whatever primes_for(n, k) is."""
    k = int(g.degrees().max(initial=0))
    p = spectra._step_prime(k, g.n)
    fp = char_poly_mod([g.adj], (p,))[0].tolist()
    return spectra._certificate(g, fp, p, _step(fp, k, p))


def _certified(g):
    """The certificate's spectrum of g, trace-checked, or None when it
    declines."""
    spec = _certificate(g)
    assert spec is None or spec.sum_of_squares() == 2 * g.edge_count()
    return spec


def _crt_route(monkeypatch, g):
    """exact_spectrum of a fresh copy of g with the certificate switched off."""
    with monkeypatch.context() as m:
        m.setattr(spectra, "primes_for", lambda n, k: modular_primes()[:1])
        return _spectrum_or_residual(g)


def test_certificate_equals_the_crt_route(monkeypatch):
    from test_sweep import CATALOGUE, _sweep

    graphs = [g for _, g in _sweep()]
    for family, args in CATALOGUE:
        try:
            pair = deza.children(families.construct(family, args.split()))
        except ValueError:  # not a Deza graph
            continue
        graphs += [pair.child_a, pair.child_b]
    certified = 0
    for g in graphs:
        crt = _crt_route(monkeypatch, g)
        cert = _certified(g)
        if isinstance(crt, Spectrum):
            # every quadratic spectrum here is certified, none declines
            assert cert == crt and str(cert) == str(crt)
            certified += 1
        else:
            assert cert is None
    assert (certified, len(graphs)) == (165, 269)


def test_multiplicity_mod_matches_repeated_division():
    def by_division(f, factor, p):
        e, power = 0, factor
        while not rem_mod(f, power, p):
            e, power = e + 1, mul_mod(power, factor, p)
        return e

    p = 43
    split, inert = (-6, 0, 1), (-3, 0, 1)  # 6 is a square mod 43, 3 is not
    assert pow(6, (p - 1) // 2, p) == 1 and pow(3, (p - 1) // 2, p) == p - 1
    root = next(r for r in range(p) if (r * r - 6) % p == 0)
    factors = [(-5, 1), (7, 1), split, inert, (-root, 1)]
    rng = random.Random(5)
    for _ in range(40):
        f = [1]
        for factor in factors:
            for _ in range(rng.randrange(4)):
                f = mul_mod(f, [c % p for c in factor], p)
        # x - root alone raises the multiplicity of one root of the split
        # quadratic only: its count is the smaller one
        for factor in factors:
            assert spectra._multiplicity_mod(f, factor, p) == by_division(
                f, [c % p for c in factor], p)


def test_certificate_declines_when_a_split_quadratic_meets_two_others():
    # t1 K_s1 joined to t2 K_s2 has one quadratic factor, x^2 - b x + c with
    # b = s1 + s2 - 2, c = (s1 - 1)(s2 - 1) - s1 t1 s2 t2, and integer
    # eigenvalues otherwise.  Mod p = 1367 the roots of x^2 - 4x - 93 are
    # one of x^2 - 2x - 30 and one of x^2 - 6x - 22, so its multiplicity mod
    # p is 2 where the true one is 1, and the count exceeds n.
    def join_of_cliques(s1, t1, s2, t2):
        side = np.repeat([0, 1], [s1 * t1, s2 * t2])
        clique = np.concatenate([np.arange(s1 * t1) // s1, np.arange(s2 * t2) // s2])
        adj = (side[:, None] != side) | (clique[:, None] == clique)
        np.fill_diagonal(adj, False)
        return Graph(adj.astype(np.uint8))

    g = disjoint_union([join_of_cliques(2, 4, 4, 3), join_of_cliques(3, 2, 5, 1),
                        join_of_cliques(1, 5, 3, 2)])
    k, p = 13, 1367
    assert int(g.degrees().max()) == k and spectra._step_prime(k, g.n) == p
    fp = char_poly_mod([g.adj], (p,))[0].tolist()
    quadratics = [f for f in _step(fp, k, p) if len(f) == 3]
    assert quadratics == [(-30, -2, 1), (-93, -4, 1), (-22, -6, 1)]
    assert [spectra._multiplicity_mod(fp, f, p) for f in quadratics] == [1, 2, 1]
    assert _certificate(g) is None
    spec = exact_spectrum(g)
    assert spec == float_spectrum_or_residual(g)
    assert [m for ev, m in spec if not ev.is_integer] == [1] * 6


def test_certificate_declines_at_the_entry_bound():
    # five conference graphs: ten candidates, all true factors, whose
    # maximum row sums multiply to 2^62 or more, so int64 might not hold P
    parts = [families.paley(q) for q in (5, 13, 17, 29, 37)]
    g = disjoint_union(parts)
    k = 18
    p = spectra._step_prime(k, g.n)
    factors = _step(char_poly_mod([g.adj], (p,))[0].tolist(), k, p)
    assert factors[:5] == [(-z, 1) for z in (2, 6, 8, 14, 18)]
    a = g.adj.astype(np.int64)
    powers = (np.eye(g.n, dtype=np.int64), a, a @ a)
    mats = [sum(c * m for c, m in zip(f, powers)) for f in factors]
    assert len(mats) == 10
    assert math.prod(int(np.abs(m).sum(axis=1).max()) for m in mats) >= 2**62
    assert _certificate(g) is None
    assert exact_spectrum(g) == spectrum_from_pairs(
        pair for part in parts for pair in exact_spectrum(part))


def test_c7_certificate_declines_at_membership(c7, monkeypatch):
    # the step mod 43 proposes x - 2 alone, and the certificate declines at
    # P != 0
    fp = char_poly_mod([c7.adj], (43,))[0].tolist()
    assert spectra._step_prime(2, 7) == 43 and _step(fp, 2, 43) == [(-2, 1)]
    assert _certified(c7) is None
    # membership alone declines it: a count forced to n changes nothing
    with monkeypatch.context() as m:
        m.setattr(spectra, "_multiplicity_mod",
                  lambda f, factor, p: 7 if factor == (-2, 1) else 0)
        assert _certified(c7) is None


@pytest.mark.parametrize("n, primes, certificate_runs", [
    # two CRT primes: the CRT route alone
    pytest.param(29, 2, False, id="C29"),
    # four: the certificate declines at membership
    pytest.param(67, 4, True, id="C67"),
])
def test_non_quadratic_cycles_keep_their_error(n, primes, certificate_runs, monkeypatch):
    assert len(spectra.primes_for(n, 2)) == primes
    p = spectra._step_prime(2, n)
    calls, steps = _spy(monkeypatch, "_certificate"), _spy(monkeypatch, "_gfp_step")
    primes = _spy(monkeypatch, "_step_prime")
    with pytest.raises(NonQuadraticSpectrumError) as info:
        exact_spectrum(families.cycle(n))
    assert bool(calls) == certificate_runs
    # one step per graph: the certificate's, when it runs, whose factors
    # then divide its char_poly; else the CRT route's
    assert primes == [(2, n)] and [q for _, _, q in _step_rows(steps)] == [p]
    assert info.value.degree == n - 1 and str(info.value) == (
        "spectrum contains non-quadratic eigenvalues; unfactored residual has degree "
        f"{n - 1}")


def _has_factor_of_degree_three_or_more(f, p):
    """Whether the monic f has an irreducible factor of degree >= 3 over
    GF(p), p > deg f: the product of the distinct irreducible factors of
    degree 1 and 2 of its radical R is gcd(R, x^(p^2) - x), a proper divisor
    of R when it has one."""
    radical = spectra._divmod_mod(
        f, spectra._monic_gcd_mod(f, spectra._derivative_mod(f, p), p), p)[0]
    power = powmod([0, 1], p * p, radical, p)
    small = spectra._monic_gcd_mod(radical, spectra._sub_mod(power, [0, 1], p), p)
    return len(small) < len(radical)


@pytest.mark.parametrize("make, primes, p, candidates", [
    # linear candidates only
    pytest.param(lambda: families.cycle(67), 4, 71, [(-2, 1)], id="C67"),
    # n = 80, k = 6: a quadratic candidate, so the certificate forms M^2
    pytest.param(lambda: disjoint_union([families.cycle(67), families.paley(13)]), 6, 307,
                 [(-2, 1), (-6, 1), (-3, 1, 1)], id="C67+paley-13"),
])
def test_an_incomplete_step_declines_at_membership(make, primes, p, candidates, monkeypatch):
    # f mod p has an irreducible factor of degree >= 3, so f has one over
    # the integers: its roots are eigenvalues of degree >= 3, roots of no
    # candidate, and P != 0 declines the graph
    g = make()
    assert isinstance(float_spectrum_or_residual(g), tuple)
    k = int(g.degrees().max())
    assert len(spectra.primes_for(g.n, k)) == primes and spectra._step_prime(k, g.n) == p
    fp = char_poly_mod([g.adj], (p,))[0].tolist()
    assert _has_factor_of_degree_three_or_more(fp, p)
    assert _step(fp, k, p) == candidates
    squares = _spy(monkeypatch, "common_neighbour_matrix")
    assert _certificate(g) is None
    assert bool(squares) == any(len(f) == 3 for f in candidates)
    with pytest.raises(NonQuadraticSpectrumError) as info:
        exact_spectrum(g)
    assert info.value.degree == _crt_route(monkeypatch, g) == 66


# -- the CRT route's factor tables, shared across graphs ------------------------


def _relabelled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    return Graph(g.adj[np.ix_(perm, perm)])


def test_relabelled_copy_reuses_the_table(monkeypatch):
    steps, computed = _spy(monkeypatch, "_gfp_step"), _spy(monkeypatch, "_crt_tables")
    g = families.paley(13)
    copy = _relabelled(g, 1)
    assert not np.array_equal(g.adj, copy.adj)
    spec = exact_spectrum(g)
    assert len(_step_rows(steps)) == 1
    # no second GF(p) step, and an equal spectrum
    assert exact_spectrum(copy) == spec and str(exact_spectrum(copy)) == str(spec)
    assert len(_step_rows(steps)) == 1
    # each graph looks its table up once: g's misses and is computed, the
    # copy's hits
    assert [len(keys) for (keys,) in computed] == [1] and len(spectra._TABLES) == 1


def test_relabelled_copies_share_one_spectrum_object():
    g = families.paley(13)
    copy = _relabelled(g, 3)
    assert char_poly(g) == char_poly(copy)
    assert exact_spectrum(copy) is exact_spectrum(g)
    assert spectra._spectrum_table(copy) is spectra._spectrum_table(g)


def test_a_shared_spectrum_still_checks_each_graphs_trace(monkeypatch):
    g = families.paley(13)
    copy = _relabelled(g, 4)
    spec = exact_spectrum(g)  # the table's spectrum, read by another graph
    edge_count = Graph.edge_count
    monkeypatch.setattr(Graph, "edge_count", lambda h: edge_count(h) + (h is copy))
    with pytest.raises(ArithmeticError, match=r"not 2\|E\|"):
        exact_spectrum(copy)
    assert spectra._spectrum_table(copy) is spectra._spectrum_table(g)
    assert exact_spectrum(g) is spec


def _spectrum_builds(monkeypatch):
    """Record each Spectrum that _spectrum_of builds."""
    builds, init = [], Spectrum.__init__

    def counted(self, entries):
        if sys._getframe(1).f_code is spectra._spectrum_of.__code__:
            builds.append(self)
        init(self, entries)

    monkeypatch.setattr(Spectrum, "__init__", counted)
    return builds


def test_a_stream_builds_one_spectrum_per_table(monkeypatch):
    # seeded relabellings of regular graphs, Deza graphs whose children the
    # reports compare with the formula, and C7, as analyze reads them
    rng = random.Random(25)
    pool = [random_regular_graph(rng, n, k) for n, k in ((8, 3), (10, 3), (9, 4), (12, 5))]
    pool += [families.complete_multipartite([3, 3, 3]), families.disjoint_cliques(3, 3),
             families.taylor_double_cover(families.paley(5)), families.petersen(),
             families.cycle(7)]
    stream = [_relabelled(g, rng.randrange(1 << 30)) for g in rng.choices(pool, k=60)]
    builds = _spectrum_builds(monkeypatch)
    report.prefill_reports(stream)
    for i, g in enumerate(stream):
        report.build_report(g, str(i))
    # the children whose spectra the reports read: those of the b > a graphs
    # with a quadratic spectrum
    read = stream + [c for g in stream
                     if (params := deza.detect_deza(g)) is not None and params.b > params.a
                     and isinstance(spectra._spectrum_table(g), Spectrum)
                     for c in (deza.children(g).child_a, deza.children(g).child_b)]
    quadratic = [g for g in read if isinstance(spectra._spectrum_table(g), Spectrum)]
    tables = {id(spectra._spectrum_table(g)) for g in quadratic}
    assert len(builds) == len(tables) < len(quadratic) // 4
    assert {id(exact_spectrum(g)) for g in quadratic} == {id(spec) for spec in builds}


def test_a_cached_residual_still_raises(c7, monkeypatch):
    steps = _spy(monkeypatch, "_gfp_step")
    errors = []
    for g in (c7, _relabelled(c7, 2), c7):
        with pytest.raises(NonQuadraticSpectrumError) as info:
            exact_spectrum(g)
        errors.append(info.value)
    # the residual (x^3 + x^2 - 2x - 1)^2, by its degree; each call raises
    # an error of its own
    assert [exc.degree for exc in errors] == [6, 6, 6]
    assert len({id(exc) for exc in errors}) == 3
    assert len(_step_rows(steps)) == 1


def test_cospectral_graphs_of_unequal_degree_take_two_entries(monkeypatch):
    # K_{1,4} and C4 + K1: both det(xI - M) = x^5 - 4x^3, maximum degrees 4, 2
    computed = _spy(monkeypatch, "_crt_tables")
    star = families.complete_multipartite([1, 4])
    square = disjoint_union([families.cycle(4), families.complete(1)])
    assert char_poly(star) == char_poly(square)
    assert exact_spectrum(star) == exact_spectrum(square)
    assert exact_spectrum(star) is not exact_spectrum(square)
    assert str(exact_spectrum(star)) == "{2^1, 0^3, (-2)^1}"
    # each graph looks its table up once, and both miss: two tables
    # computed, one key each, and both kept
    assert [len(keys) for (keys,) in computed] == [1, 1] and len(spectra._TABLES) == 2


def _lookup(*polys):
    """_crt_route_tables on bare polynomials, each key's bound 2: it reads
    only a graph's maximum degree and a polynomial's coefficients."""
    triangle = families.cycle(3)
    return spectra._crt_route_tables([triangle] * len(polys),
                                     [SimpleNamespace(coeffs=f) for f in polys])


def test_factor_tables_are_bounded(monkeypatch):
    # (x - 1)^a (x + 1)^a (x - 2)^b (x + 2)^b x^c: integer roots alone, so no
    # GF(p) step runs, and traceless, so each table is a Spectrum
    size = spectra.FACTOR_TABLES
    polys = [_product(*[(-1, 1), (1, 1)] * a, *[(-2, 1), (2, 1)] * b, *[(0, 1)] * c)
             for a in range(1, 11) for b in range(10) for c in range(10)]
    assert len(set(polys)) > size + 2
    computed = _spy(monkeypatch, "_crt_tables")
    for i, f in enumerate(polys[:size]):
        (table,) = _lookup(f)
        assert isinstance(table, Spectrum) and table.n == len(f) - 1
        assert len(spectra._TABLES) == i + 1
    # a new table past the cap clears the dict first, then is added
    (table,) = _lookup(polys[size])
    assert len(spectra._TABLES) == 1 and spectra._TABLES[(polys[size], 2)] is table
    assert len(computed) == size + 1
    # so the first polynomial is computed again, and the last one read
    assert _lookup(polys[size], polys[0])[0] is table
    assert len(computed) == size + 2 and computed[-1] == ([(polys[0], 2)],)
    assert len(spectra._TABLES) == 2
    # one call's new tables are kept together, even past the cap
    spectra._TABLES.clear()
    _lookup(*polys[: size + 2])
    assert len(spectra._TABLES) == size + 2 and len(computed) == size + 3


def test_a_chunk_and_its_children_fit_the_store(monkeypatch):
    # the prefill stores each table on its graph, so a chunk and the children
    # its reports compare fit whatever the store keeps: here one table
    monkeypatch.setattr(spectra, "FACTOR_TABLES", 1)
    monkeypatch.setattr(spectra, "_TABLES", {})
    computed = _spy(monkeypatch, "_crt_tables")
    chunk = [families.complete_multipartite([3, 3, 3]), families.disjoint_cliques(3, 3),
             families.taylor_double_cover(families.paley(5))]
    report.prefill_reports(chunk)
    pairs = [deza.children(g) for g in chunk]
    graphs = chunk + [c for pair in pairs for c in (pair.child_a, pair.child_b)]
    assert all(spectra._spectrum_table.memo_key in g._facts for g in graphs)
    # the prefill's one call keeps its tables; the next new table clears them
    ((keys,),) = computed
    assert len(spectra._TABLES) == len(keys) > 1
    c11 = families.cycle(11)
    assert (char_poly(c11).coeffs, 2) not in keys
    spectra._spectrum_table(c11)
    assert len(spectra._TABLES) == 1 and len(computed) == 2
    read = [exact_spectrum(g) for g in graphs]
    assert len(computed) == 2
    assert read == [exact_spectrum(Graph(g.adj)) for g in graphs]


def test_a_cached_table_cannot_be_changed():
    g = families.petersen()
    (table,) = spectra._crt_route_tables([g], [char_poly(g)])
    assert isinstance(table, Spectrum) and isinstance(table.entries, tuple)
    with pytest.raises(TypeError):
        table.entries[0] = (Eigenvalue.integer(3), 2)
    with pytest.raises(TypeError):
        del table.entries[0]
    with pytest.raises(AttributeError):
        table.entries.clear()
    assert str(table) == "{3^1, 1^5, (-2)^4}"
    assert spectra._crt_route_tables([g], [char_poly(g)])[0] is table


def test_threads_share_the_tables_without_a_lock():
    # more threads than cores, switching often, over relabelled copies
    bases = [families.paley(13), families.cycle(7), families.complete_multipartite([1, 4]),
             disjoint_union([families.cycle(4), families.complete(1)])]
    expected = [str(_spectrum_or_residual(g)) for g in bases]
    spectra._TABLES.clear()
    results, errors = [], []

    def work(seed):
        try:
            for i in range(40):
                j = (seed + i) % len(bases)
                copy = _relabelled(bases[j], seed * 40 + i)
                results.append((j, str(_spectrum_or_residual(copy))))
        except Exception as exc:  # noqa: BLE001 - asserted empty by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(results) == 240 and all(text == expected[j] for j, text in results)
    assert len(spectra._TABLES) == len(bases)


@pytest.mark.parametrize("make, text", [
    pytest.param(lambda: families.paley(257),
                 "{128^1, ((-1+√257)/2)^128, ((-1-√257)/2)^128}", id="paley-257"),
    pytest.param(lambda: families.johnson(12, 3),
                 "{27^1, 15^11, 5^54, (-3)^154}", id="johnson-12-3"),
    pytest.param(lambda: families.johnson(10, 3),
                 "{21^1, 11^9, 3^35, (-3)^75}", id="johnson-10-3"),
])
def test_quadratic_spectra_need_no_char_poly(make, text, monkeypatch):
    def refuse(g):
        raise AssertionError("char_poly ran")

    monkeypatch.setattr(spectra, "char_poly", refuse)
    assert str(exact_spectrum(make())) == text
