"""Exact spectra of adjacency matrices.

Strategy: compute the exact characteristic polynomial, strip every integer
root in [-k, k] by exact synthetic division (k = maximum degree, a hard
bound on the spectral radius), then factor what remains into monic integer
quadratics.  Quadratic candidates are proposed by a high-precision numeric
symmetric eigensolver (128 working bits) and verified by exact polynomial
division, so nothing ever depends on floating arithmetic.

The proposals are complete: both roots of every quadratic factor of
det(xI - M) are eigenvalues, every two computed eigenvalues are paired,
and at 128 bits their error is far below the 1e-6 window in which the sum
and product are rounded to integers.  Exact division, the reconstruction
of the characteristic polynomial and the trace check still decide the
result, so a missed factor could only raise NonQuadraticSpectrumError; it
could never produce a wrong spectrum.  Any residual of degree >= 3 is
reported as a non-quadratic spectrum.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath

from .charpoly import char_poly, poly_eval, poly_mul, poly_try_divide
from .eigenvalues import Eigenvalue, Spectrum, is_perfect_square
from .graphs import Graph

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
            if abs(bi) > 2 * bound or abs(ci) > bound * bound:
                continue
            disc = bi * bi - 4 * ci
            if disc > 0 and not is_perfect_square(disc):
                cands.add((bi, ci))
    return sorted(cands)


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


@lru_cache(maxsize=None)
def _spectrum_cached(g: Graph) -> Spectrum:
    cp = char_poly(g)
    bound = int(g.degrees().max(initial=0))
    int_mults, rem = _extract_integer_roots(cp.coeffs, bound)

    quad_powers: dict[tuple[int, int], int] = {}
    if len(rem) > 1:
        quad_powers, rem = _divide_out_quadratics(
            rem, _candidate_quadratics(_numeric_assist(g), bound)
        )
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


def exact_spectrum(g: Graph) -> Spectrum:
    """Exact eigenvalues with certified multiplicities.

    Raises NonQuadraticSpectrumError when an eigenvalue of algebraic degree
    three or more is present (e.g. the 7-cycle).
    """
    return _spectrum_cached(g)


def distinct_abs_values(spec: Spectrum) -> int:
    """Number of distinct absolute values among the eigenvalues."""
    return spec.distinct_abs_count()


def is_cospectral(s1: Spectrum, s2: Spectrum) -> bool:
    """Exact equality of eigenvalue/multiplicity multisets."""
    return s1 == s2


def spectrum_from_pairs(pairs) -> Spectrum:
    """Build a Spectrum from (Eigenvalue, multiplicity) pairs, merging
    repeats; pairs with zero multiplicity are dropped."""
    acc: dict[Eigenvalue, int] = {}
    for ev, m in pairs:
        if m:
            acc[ev] = acc.get(ev, 0) + m
    return Spectrum(acc.items())
