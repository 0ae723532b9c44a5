"""Exact spectra of adjacency matrices.

Strategy: compute the exact characteristic polynomial, strip every integer
root in [-k, k] by exact synthetic division (k = maximum degree, a hard
bound on the spectral radius), then factor what remains into monic integer
quadratics.  Quadratic candidates are proposed in two steps and every one
is verified by exact polynomial division, so nothing ever depends on a
proposal being right.

Exact proposals come first.  Yun's squarefree decomposition (Yun 1976; von
zur Gathen & Gerhard, Modern Computer Algebra, sec. 14.6) of the residual
over GF(p), p = modular_primes()[0] (about 6.7e7), writes it as a product
of a_i^i with each a_i squarefree; every monic a_i of degree two is lifted
to the symmetric range as a candidate x^2 - b x + c.  A quadratic factor
has both roots in [-k, k], so |b| <= 2k and |c| <= k^2 < p/2, and when p
is lucky (p > deg, and p divides no discriminant or resultant of the
factors) the lift is the integer factor itself.  The graphs this package
is about have few distinct eigenvalues with large multiplicities, so their
residual is usually a power of one quadratic, such as (x^2 + x - 15)^30
for Paley(61), and this step settles it in O(d^2) word operations.

The numeric step runs only on what the exact step leaves: a high-precision
symmetric eigensolver (128 working bits) proposes every pair of eigenvalues
whose sum and product round to integers.  These proposals are complete:
both roots of every quadratic factor of det(xI - M) are eigenvalues, every
two computed eigenvalues are paired, and at 128 bits their error is far
below the 1e-6 window in which the sum and product are rounded.

An unlucky prime cannot give a wrong answer.  It can merge or split Yun
factors mod p, so a degree-two factor may go unproposed or a lifted
candidate may be no factor at all; the former is supplied by the numeric
step, the latter fails exact division.  Exact division, the reconstruction
of the characteristic polynomial and the trace check decide the result,
so a missed factor could only raise NonQuadraticSpectrumError; it could
never produce a wrong spectrum.  Any residual of degree >= 3 is reported as
a non-quadratic spectrum.
"""

from __future__ import annotations

import mpmath

from .charpoly import char_poly, modular_primes, poly_eval, poly_mul, poly_try_divide
from .eigenvalues import Eigenvalue, Spectrum, is_perfect_square
from .graphs import Graph, per_graph

#: working precision (bits) of the assisting eigensolver
ASSIST_PREC_BITS = 128


class NonQuadraticSpectrumError(ValueError):
    """Raised when some eigenvalue has algebraic degree three or more."""

    def __init__(self, residual) -> None:
        self.residual = tuple(residual)
        super().__init__(
            "spectrum contains non-quadratic eigenvalues; "
            f"unfactored residual has degree {len(self.residual) - 1}"
        )


def _extract_integer_roots(coeffs, bound: int):
    mults: dict[int, int] = {}
    rem = tuple(coeffs)
    for z in range(bound, -bound - 1, -1):
        while len(rem) > 1 and poly_eval(rem, z) == 0:
            quotient = poly_try_divide(rem, (-z, 1))
            assert quotient is not None
            rem = quotient
            mults[z] = mults.get(z, 0) + 1
    return mults, rem


def _numeric_assist(g: Graph):
    with mpmath.workprec(ASSIST_PREC_BITS):
        m = mpmath.matrix(g.adj.tolist())
        return list(mpmath.eigsy(m, eigvals_only=True))


def _admissible(b: int, c: int, bound: int) -> bool:
    """x^2 - b x + c can be an irreducible factor of det(xI - M) when the
    maximum degree is bound."""
    if abs(b) > 2 * bound or abs(c) > bound * bound:
        return False
    disc = b * b - 4 * c
    return disc > 0 and not is_perfect_square(disc)


def _candidate_quadratics(values, bound: int):
    cands = set()
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            b = values[i] + values[j]
            c = values[i] * values[j]
            bi = int(mpmath.nint(b))
            ci = int(mpmath.nint(c))
            if abs(b - bi) > 1e-6 or abs(c - ci) > 1e-6:
                continue
            if _admissible(bi, ci, bound):
                cands.add((bi, ci))
    return sorted(cands)


# -- polynomials over GF(p): ascending coefficient lists, no trailing zeros


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _derivative_mod(a: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _sub_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _divmod_mod(a: list[int], b: list[int], p: int):
    """Quotient and remainder of a by a nonzero b over GF(p)."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        q = rem[i + db] * inv % p
        quot[i] = q
        if q:
            for j in range(db):
                rem[i + j] = (rem[i + j] - q * b[j]) % p
    return quot, _trim(rem[:db])


def _monic_gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _yun_quadratics(rem, bound: int, p: int):
    """Candidates (b, c), by multiplicity, from the monic degree-two
    factors of Yun's squarefree decomposition of the monic integer
    polynomial rem over GF(p), lifted to the symmetric range.  Exact when
    p is lucky; see the module docstring for why an unlucky p is harmless."""
    f = [c % p for c in rem]
    df = _derivative_mod(f, p)
    g = _monic_gcd_mod(f, df, p)
    c = _divmod_mod(f, g, p)[0]
    d = _sub_mod(_divmod_mod(df, g, p)[0], _derivative_mod(c, p), p)
    half = p // 2
    cands = []
    # every multiplicity is at most deg f; the cap only matters when p <= deg f
    for _ in range(len(f)):
        if len(c) <= 1:
            break
        a = _monic_gcd_mod(c, d, p)
        if len(a) == 3:
            c0, c1 = (v - p if v > half else v for v in a[:2])
            if _admissible(-c1, c0, bound):
                cands.append((-c1, c0))
        c = _divmod_mod(c, a, p)[0]
        d = _sub_mod(_divmod_mod(d, a, p)[0], _derivative_mod(c, p), p)
    return cands


def _divide_out_quadratics(rem, candidates):
    powers: dict[tuple[int, int], int] = {}
    for b, c in candidates:
        factor = (c, -b, 1)
        while len(rem) > 2:
            quotient = poly_try_divide(rem, factor)
            if quotient is None:
                break
            rem = quotient
            powers[(b, c)] = powers.get((b, c), 0) + 1
    return powers, rem


def _reconstruct(n, int_mults, quad_powers):
    poly = (1,)
    for z, m in sorted(int_mults.items()):
        for _ in range(m):
            poly = poly_mul(poly, (-z, 1))
    for (b, c), m in sorted(quad_powers.items()):
        for _ in range(m):
            poly = poly_mul(poly, (c, -b, 1))
    return poly


@per_graph
def exact_spectrum(g: Graph) -> Spectrum:
    """Exact eigenvalues with certified multiplicities.

    Raises NonQuadraticSpectrumError when an eigenvalue of algebraic degree
    three or more is present (e.g. the 7-cycle).
    """
    cp = char_poly(g)
    bound = int(g.degrees().max(initial=0))
    int_mults, rem = _extract_integer_roots(cp.coeffs, bound)

    quad_powers: dict[tuple[int, int], int] = {}
    if len(rem) > 1:
        quad_powers, rem = _divide_out_quadratics(
            rem, _yun_quadratics(rem, bound, modular_primes()[0])
        )
    if len(rem) > 1:
        numeric_powers, rem = _divide_out_quadratics(
            rem, _candidate_quadratics(_numeric_assist(g), bound)
        )
        quad_powers.update(numeric_powers)
    if len(rem) > 1:
        raise NonQuadraticSpectrumError(rem)

    if _reconstruct(g.n, int_mults, quad_powers) != cp.coeffs:
        raise ArithmeticError("factor reconstruction mismatch")

    entries = [(Eigenvalue.integer(z), m) for z, m in int_mults.items()]
    for (b, c), m in quad_powers.items():
        root, conj = Eigenvalue.quadratic_roots(b, c)
        entries.append((root, m))
        entries.append((conj, m))
    spec = Spectrum(entries)
    if spec.n != g.n:
        raise ArithmeticError("multiplicities do not sum to n")
    if spec.sum_of_squares() != 2 * g.edge_count():
        raise ArithmeticError("sum of squared eigenvalues is not 2|E|")
    return spec


def spectrum_from_pairs(pairs) -> Spectrum:
    """Build a Spectrum from (Eigenvalue, multiplicity) pairs, merging
    repeats; pairs with zero multiplicity are dropped."""
    acc: dict[Eigenvalue, int] = {}
    for ev, m in pairs:
        if m:
            acc[ev] = acc.get(ev, 0) + m
    return Spectrum(acc.items())
