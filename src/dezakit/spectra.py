"""Exact spectra of adjacency matrices.

Strategy: compute the exact characteristic polynomial, strip every integer
root in [-k, k] by exact synthetic division (k = maximum degree, a hard
bound on the spectral radius), then factor what remains into monic integer
quadratics.  Quadratic candidates are proposed by one exact step over
GF(p), at the least prime p = 3 (mod 4) above max(8 k^2, deg f) for the
residual f, and every one is verified by exact polynomial division over
the integers.  No floating point is used.

The step works on f, the residual reduced mod p (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 14; Cantor & Zassenhaus, Math. Comp. 36,
1981).  Its radical R = f / gcd(f, f') is squarefree because p > deg f.
L = gcd(R, x^p - x) is the product of R's linear factors and
Q = gcd(R / L, x^(p^2) - x) that of its irreducible quadratic factors.
Equal-degree splitting with the shifts x + a, a = 1, 2, ..., in that
order, breaks L into roots and Q into quadratics, so a run is
reproducible.  Each irreducible quadratic of Q and each pair (r + s, r s)
of distinct roots of L is lifted to the symmetric range and kept when it
is admissible.

All the powers, x^p mod R, x^(p^2) mod R / L and the splitting powers
(x + a)^((p^d - 1) / 2), are one primitive: (x + c)^e mod a monic f of
degree d, by repeated squaring on int64 vectors.  A square is one
convolution, and its coefficients at x^d and above are folded back by one
product with a d x (d - 1) reduction matrix whose columns x^(d + j) mod f
are built once per power.  A power costs one squaring per bit of e: x^p
takes about log2 p of them and x^(p^2) twice as many, so 10 and 20 at
p = 971 (k = 11), 18 and 35 at Paley(257)'s p = 131111, and at most 25
and 50 at the largest prime an order up to MAX_ORDER asks for,
33488947 < 3.4e7.  Residues are below p, so every sum is of at most d
products below p^2, at most d (p - 1)^2 < 2^63 for d <= MAX_ORDER, and
int64 is exact; deg f > MAX_ORDER is refused.  A piece of L of degree
2 needs no power: as p = 3 (mod 4), s = disc^((p + 1) / 4) is a square
root of its discriminant (both are checked), and its roots are
(-c1 +- s) / 2.

Why every quadratic factor is proposed, at this prime.  Let
x^2 - b x + c be a factor of the residual.  Its roots are irrational
eigenvalues in [-k, k], so |b| <= 2k, |c| <= k^2 and its discriminant
satisfies 0 < b^2 - 4c <= 8 k^2 < p.  Mod p it is therefore squarefree:
either an irreducible factor of Q, or (x - r)(x - s) with r != s both
roots of L.  Both |b| and |c| are below p / 2, so the symmetric lift gives
back the integer factor exactly.  The step takes the least such prime,
_step_prime(k, deg f), and checks p > max(8 k^2, deg f) on each call.
When L and Q are both 1 nothing is proposed, which proves at once that
the residual has no quadratic factor.

A proposal is never trusted.  Exact division, the reconstruction of the
characteristic polynomial and the trace check decide the result; a
candidate that is no factor fails exact division.  Any residual of degree
>= 3 that is left is reported as a non-quadratic spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .charpoly import MAX_ORDER, char_poly, poly_eval, poly_mul, poly_try_divide
from .eigenvalues import Eigenvalue, Spectrum, is_perfect_square
from .graphs import Graph, per_graph


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


def _admissible(b: int, c: int, bound: int) -> bool:
    """x^2 - b x + c can be an irreducible factor of det(xI - M) when the
    maximum degree is bound."""
    if abs(b) > 2 * bound or abs(c) > bound * bound:
        return False
    disc = b * b - 4 * c
    return disc > 0 and not is_perfect_square(disc)


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


def _pow_x_plus(c: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + c)^e mod the monic f of degree d >= 1 over GF(p), by repeated
    squaring on int64 vectors of d coefficients (see the module docstring
    for the reduction matrix and why int64 is exact)."""
    d = len(f) - 1
    xd = np.array([-a % p for a in f[:-1]], dtype=np.int64)  # x^d mod f
    red = np.empty((d, d - 1), dtype=np.int64)  # column j: x^(d + j) mod f
    col = xd
    for j in range(d - 1):
        red[:, j] = col
        col = col[-1] * xd
        col[1:] += red[:-1, j]
        col %= p
    r = np.zeros(d, dtype=np.int64)
    r[0] = 1
    for bit in bin(e)[2:]:
        sq = np.convolve(r, r) % p
        r = (sq[:d] + red @ sq[d:]) % p
        if bit == "1":  # times x + c
            shifted = c * r + r[-1] * xd
            shifted[1:] += r[:-1]
            r = shifted % p
    return _trim(r.tolist())


def _split_quadratic(g: list[int], p: int) -> list[list[int]]:
    """The linear factors of a monic squarefree x^2 + c1 x + c0 that splits
    over GF(p), p = 3 (mod 4): its roots are (-c1 +- s) / 2, where
    s = disc^((p + 1) / 4) is a square root of the discriminant disc."""
    c0, c1, _ = g
    disc = (c1 * c1 - 4 * c0) % p
    s = pow(disc, (p + 1) // 4, p)
    if s * s % p != disc:
        raise ArithmeticError(f"x^2 + {c1} x + {c0} has no roots mod {p}")
    half = (p + 1) // 2
    return [[(c1 - s) * half % p, 1], [(c1 + s) * half % p, 1]]


def _equal_degree_factors(f: list[int], d: int, p: int) -> list[list[int]]:
    """The monic irreducible factors of a monic squarefree f over GF(p)
    whose irreducible factors all have degree d (Cantor-Zassenhaus, with
    the shifts x + a, a = 1, 2, ... in turn instead of random elements; a
    quadratic piece of a product of linear factors is split in closed
    form)."""
    e = (p**d - 1) // 2
    done, todo = [], [f]
    a = 0
    while todo:
        a += 1
        pending = []
        for g in todo:
            if len(g) - 1 == d:
                done.append(g)
                continue
            if d == 1 and len(g) == 3:
                done += _split_quadratic(g, p)
                continue
            s = _monic_gcd_mod(g, _sub_mod(_pow_x_plus(a, e, g, p), [1], p), p)
            if 1 < len(s) < len(g):
                pending += [s, _divmod_mod(g, s, p)[0]]
            else:
                pending.append(g)
        todo = pending
    return done


def _step_prime(bound: int, deg: int) -> int:
    """The least prime p = 3 (mod 4) with p > max(8 bound^2, deg): the
    smallest prime at which the GF(p) step proposes every quadratic factor
    of a residual of degree deg (module docstring), by trial division."""
    p = max(8 * bound * bound, deg) + 1
    p += (3 - p) % 4
    while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
        p += 4
    return p


def _quadratic_candidates(rem, bound: int, p: int):
    """Every admissible (b, c) whose x^2 - b x + c divides the monic integer
    polynomial rem is among the returned candidates; see the module
    docstring for why this holds at the prime p."""
    if p <= max(8 * bound * bound, len(rem) - 1):
        raise ArithmeticError(f"prime {p} too small for degree {len(rem) - 1}, bound {bound}")
    if p % 4 != 3:
        raise ArithmeticError(f"prime {p} is not 3 mod 4")
    if len(rem) - 1 > MAX_ORDER:
        raise ArithmeticError(f"degree {len(rem) - 1} exceeds {MAX_ORDER}")
    f = [c % p for c in rem]
    radical = _divmod_mod(f, _monic_gcd_mod(f, _derivative_mod(f, p), p), p)[0]
    x = [0, 1]
    linear = _monic_gcd_mod(radical, _sub_mod(_pow_x_plus(0, p, radical, p), x, p), p)
    rest = _divmod_mod(radical, linear, p)[0]
    quadratic = [1]
    if len(rest) > 1:
        xpp = _pow_x_plus(0, p * p, rest, p)
        quadratic = _monic_gcd_mod(rest, _sub_mod(xpp, x, p), p)

    # x^2 - b x + c, with b and c lifted to the symmetric range
    pairs = set()
    if len(quadratic) > 1:
        for c0, c1, _ in _equal_degree_factors(quadratic, 2, p):
            pairs.add((-c1 % p, c0))
    if len(linear) > 2:
        roots = [-c0 % p for c0, _ in _equal_degree_factors(linear, 1, p)]
        for i, r in enumerate(roots):
            for s in roots[i + 1 :]:
                pairs.add(((r + s) % p, r * s % p))
    half = p // 2
    cands = {(b - p if b > half else b, c - p if c > half else c) for b, c in pairs}
    return sorted(bc for bc in cands if _admissible(*bc, bound))


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


def _reconstruct(int_mults, quad_powers):
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
            rem, _quadratic_candidates(rem, bound, _step_prime(bound, len(rem) - 1))
        )
    if len(rem) > 1:
        raise NonQuadraticSpectrumError(rem)

    if _reconstruct(int_mults, quad_powers) != cp.coeffs:
        raise ArithmeticError("factor reconstruction mismatch")

    entries = [(Eigenvalue.integer(z), m) for z, m in int_mults.items()]
    for (b, c), m in quad_powers.items():
        root, conj = Eigenvalue.quadratic_roots(b, c)
        entries.append((root, m))
        entries.append((conj, m))
    spec = Spectrum(entries)  # multiplicities sum to n: the reconstruction has degree n
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
