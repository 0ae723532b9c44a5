"""Exact eigenvalue arithmetic: canonical forms, ordering, spectra."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dezakit.eigenvalues import (
    Eigenvalue,
    Spectrum,
    is_perfect_square,
    sign_radical,
    squarefree_decompose,
    sums_to_zero,
)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_perfect_square():
    squares = {x * x for x in range(50)}
    for m in range(2500):
        assert is_perfect_square(m) == (m in squares)
    assert not is_perfect_square(-4)


def test_integer_constructor():
    z = Eigenvalue.integer(-7)
    assert z.is_integer and z.as_int() == -7 and str(z) == "-7"
    assert z.minimal_poly_coeffs() == (7, 1)


def test_quadratic_normalisation():
    # (2 + 2*sqrt(12)) / 4 = (1 + 2*sqrt(3)) / 2: not an algebraic integer
    with pytest.raises(ValueError, match="algebraic integer"):
        Eigenvalue.quadratic(2, 2, 12, 4)
    # (2 + 2*sqrt(9)) / 4 = 2: integer after folding the square radicand
    assert Eigenvalue.quadratic(2, 2, 9, 4) == Eigenvalue.integer(2)
    golden = Eigenvalue.quadratic(-2, 2, 5, 4)
    assert (golden.p, golden.u, golden.d, golden.q) == (-1, 1, 5, 2)
    assert golden.minimal_poly_coeffs() == (-1, 1, 1)
    # negative q is flipped into the numerator
    assert Eigenvalue.quadratic(1, 1, 5, -2) == Eigenvalue.quadratic(-1, -1, 5, 2)
    with pytest.raises(ValueError, match="not an integer"):
        Eigenvalue.quadratic(1, 0, 5, 3)


def test_direct_construction_rejects_noncanonical():
    with pytest.raises(ValueError):
        Eigenvalue(2, 2, 5, 2)  # gcd not 1
    with pytest.raises(ValueError):
        Eigenvalue(0, 1, 12, 1)  # d not squarefree
    with pytest.raises(ValueError):
        Eigenvalue(1, 0, 1, 2)  # integers must be (z, 0, 1, 1)
    with pytest.raises(ValueError):
        Eigenvalue(1, 1, 5, 3)  # minimal polynomial not integral


def test_sqrt_pair_and_quadratic_roots():
    plus, minus = Eigenvalue.sqrt_pair(8)
    assert (plus.u, plus.d) == (2, 2) and minus == -plus
    plus, minus = Eigenvalue.sqrt_pair(9)
    assert plus == Eigenvalue.integer(3) and minus == Eigenvalue.integer(-3)
    zero, zero2 = Eigenvalue.sqrt_pair(0)
    assert zero == zero2 == Eigenvalue.integer(0)
    r1, r2 = Eigenvalue.quadratic_roots(-1, -1)  # x^2 + x - 1
    assert r1 == Eigenvalue.quadratic(-1, 1, 5, 2) and r2 == r1.conjugate()
    with pytest.raises(ValueError):
        Eigenvalue.quadratic_roots(2, 1)  # (x-1)^2 has rational roots


def test_square_parts():
    root2 = Eigenvalue.sqrt_pair(2)[0]
    assert root2.square_parts() == (Fraction(2), Fraction(0))
    golden = Eigenvalue.quadratic(1, 1, 5, 2)
    assert golden.square_parts() == (Fraction(3, 2), Fraction(1, 2))


def test_ordering_examples():
    values = [
        Eigenvalue.integer(-3),
        Eigenvalue.quadratic(-1, -1, 5, 2),
        Eigenvalue.integer(0),
        Eigenvalue.quadratic(-1, 1, 5, 2),
        Eigenvalue.sqrt_pair(2)[0],
        Eigenvalue.integer(2),
        Eigenvalue.sqrt_pair(5)[0],
    ]
    assert sorted(values) == values
    # mixed radicals: sqrt(2) + 1 > sqrt(5) requires the two-radical branch
    a = Eigenvalue.quadratic(2, 2, 2, 2)  # 1 + sqrt(2)
    b = Eigenvalue.sqrt_pair(5)[0]
    assert b < a


def test_sign_radical():
    assert sign_radical(0, 0, 5) == 0
    assert sign_radical(-3, 2, 2) == -1  # 2*sqrt(2) = 2.83 < 3
    assert sign_radical(-2, 2, 2) == 1
    assert sign_radical(5, -3, 3) == -1  # 3*sqrt(3) = 5.196 > 5
    assert sign_radical(6, -3, 3) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-30, 30), st.integers(-10, 10), st.integers(2, 40), st.integers(1, 4),
    st.integers(-30, 30), st.integers(-10, 10), st.integers(2, 40), st.integers(1, 4),
)
def test_ordering_matches_floats(p1, u1, d1, q1, p2, u2, d2, q2):
    def make(p, u, d, q):
        try:
            return Eigenvalue.quadratic(p, u, d, q)
        except ValueError:
            return None

    x = make(p1, u1, d1, q1)
    y = make(p2, u2, d2, q2)
    if x is None or y is None:
        return
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)
    else:
        assert (x == y) == (abs(fx - fy) < 1e-12)


def test_float_and_str():
    golden = Eigenvalue.quadratic(-1, 1, 5, 2)
    assert math.isclose(float(golden), (-1 + math.sqrt(5)) / 2)
    assert str(golden) == "(-1+√5)/2"
    assert str(Eigenvalue.sqrt_pair(2)[1]) == "-√2"
    assert str(Eigenvalue.quadratic(0, 3, 2, 1)) == "3√2"
    # denominator 1: no "/1"
    assert str(Eigenvalue.quadratic(-1, 1, 2, 1)) == "-1+√2"
    assert str(Eigenvalue.quadratic(2, -3, 97, 1)) == "2-3√97"
    pairs = [(ev, 1) for ev in (Eigenvalue.integer(2), *Eigenvalue.quadratic_roots(-2, -1))]
    assert str(Spectrum(pairs)) == "{2^1, (-1+√2)^1, (-1-√2)^1}"


def test_json_round_trip():
    for ev in (Eigenvalue.integer(12), Eigenvalue.quadratic(-1, 2, 3, 1)):
        back, mult = Eigenvalue.from_json(ev.to_json(5))
        assert back == ev and mult == 5


def test_spectrum_invariants():
    with pytest.raises(ValueError, match="trace"):
        Spectrum([(Eigenvalue.integer(1), 2)])
    with pytest.raises(ValueError, match="conjugate"):
        Spectrum([(Eigenvalue.sqrt_pair(2)[0], 1), (Eigenvalue.sqrt_pair(2)[1], 2),
                  (Eigenvalue.integer(0), 1)])
    with pytest.raises(ValueError, match="positive"):
        Spectrum([(Eigenvalue.integer(0), 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Spectrum([(Eigenvalue.integer(0), 1), (Eigenvalue.integer(0), 1)])


def test_spectrum_accessors():
    root5 = Eigenvalue.sqrt_pair(5)[0]
    spec = Spectrum([
        (Eigenvalue.integer(5), 1), (root5, 3), (Eigenvalue.integer(-1), 5), (-root5, 3),
    ])
    assert spec.n == 12
    assert spec.principal() == Eigenvalue.integer(5)
    assert spec.distinct_count() == 4
    assert spec.distinct_abs_count() == 3
    assert not spec.is_integral()
    assert spec.multiplicity(root5) == 3
    assert spec.sum_of_squares() == 25 + 15 + 5 + 15
    assert str(spec) == "{5^1, (√5)^3, (-1)^5, (-√5)^3}"
    assert Spectrum.from_json(spec.to_json()) == spec


def test_quadratic_denominators_are_one_or_two():
    seen = set()
    for p in range(-8, 9):
        for u in range(-4, 5):
            for d in range(1, 13):
                for q in range(-8, 9):
                    try:
                        ev = Eigenvalue.quadratic(p, u, d, q)
                    except ValueError:  # q = 0, or not an algebraic integer
                        continue
                    seen.add(ev.q)
    assert seen == {1, 2}


def _fraction_sum(terms):
    """sum of c * theta over (theta, c): its rational part and its
    coefficient of each sqrt(d), in Fractions."""
    acc = {1: Fraction(0)}
    for ev, c in terms:
        acc[1] += Fraction(ev.p * c, ev.q)
        if not ev.is_integer:
            acc[ev.d] = acc.get(ev.d, 0) + Fraction(ev.u * c, ev.q)
    return acc


# conjugate pairs with q = 2 (the golden ratio, Paley(13)) and q = 1
_PAIRS = [Eigenvalue.quadratic_roots(b, c) for b, c in ((-1, -1), (-1, -3), (1, -1), (2, -2))]
_PAIRS += [Eigenvalue.sqrt_pair(m) for m in (2, 5)]


def test_integer_sums_match_a_fraction_oracle():
    assert {ev.q for pair in _PAIRS for ev in pair} == {1, 2}
    rng = random.Random(25)
    zero = 0
    for _ in range(300):
        terms = [(ev, rng.randrange(-4, 5)) for pair in rng.sample(_PAIRS, 3) for ev in pair]
        terms += [(Eigenvalue.integer(rng.randrange(-6, 7)), rng.randrange(-4, 5))]
        if rng.random() < 0.5:  # a sum that vanishes
            terms += [(-ev, c) for ev, c in terms]
        rng.shuffle(terms)
        expected = not any(_fraction_sum(terms).values())
        zero += expected
        assert sums_to_zero(terms) is expected

        # a spectrum: balanced conjugates, the trace made zero by an integer
        pairs = [(ev, m) for pair in rng.sample(_PAIRS, 2)
                 for m in [rng.randrange(1, 5)] for ev in pair]
        trace = _fraction_sum(pairs)[1]
        spec = Spectrum(pairs + [(Eigenvalue.integer(-int(trace)), 1)])
        squares = sum(m * Fraction(ev.p * ev.p + ev.u * ev.u * ev.d, ev.q * ev.q)
                      for ev, m in spec)
        assert squares.denominator == 1 and spec.sum_of_squares() == squares
    assert 100 < zero < 300
