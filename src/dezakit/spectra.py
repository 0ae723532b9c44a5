"""Exact spectra of adjacency matrices.

Two exact routes decide a spectrum, and each spectrum comes from one of
them.  No floating point is used in either.

The CRT route computes the exact characteristic polynomial f = det(xI - M)
(charpoly.char_poly), strips every integer root in [-k, k] by exact
synthetic division (k = maximum degree, a hard bound on the spectral
radius), then divides out every factor the GF(p) step proposes exactly.  Any
residual of degree >= 3 that is left is reported as a non-quadratic
spectrum.

The certificate (_certificate) settles a spectrum whose eigenvalues are all
integers or quadratic irrationals at one prime, with no Chinese
remaindering.  It runs when char_poly would need more than
CERTIFY_ABOVE_PRIMES primes (primes_for(n, k)).  With no more, the graph is
small (n <= 80 unless it has no edge), and the verbs run its char_poly as a
few rows of one stacked Hessenberg pass per order and chunk of their input
(prefill_spectra), which shares the pass's per-column overhead among the
graphs.  The certificate would then save nothing when it succeeds and cost
a pass of its own when it declines.  Above the gate the certificate costs
no more than a stacked pass on a quadratic spectrum, the kind the graphs of
the paper have, and less as n grows; a non-quadratic spectrum pays for the
decline.  When it declines, the CRT route decides, so a non-quadratic
spectrum still reports the degree of its residual.

The GF(p) step.  Both routes propose factors by one exact step over GF(p),
at one prime per graph: p = _step_prime(k, n), the least prime
p = 3 (mod 4) above max(8 k^2, n) (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 14; Cantor & Zassenhaus, Math. Comp. 36, 1981).  The step runs
on f_p = det(xI - M) mod p when the certificate runs, else on the CRT
route's residual; either way on a monic divisor f of det(xI - M).  Its
radical R = f / gcd(f, f') is squarefree because p > deg f.
L = gcd(R, x^p - x) is the product of R's linear factors and
Q = gcd(R / L, x^(p^2) - x) that of its irreducible quadratic factors.
Equal-degree splitting with the shifts x + a, a = 1, 2, ..., in that order,
breaks L into roots and Q into quadratics, so a run is reproducible.  It
proposes monic integer factors: x - z for each root of L whose lift to the
symmetric range lies in [-k, k], then x^2 - b x + c for each irreducible
quadratic of Q and each pair (r + s, r s) of distinct roots of L whose
lifted (b, c) is admissible.

The step runs on a stack of rows (_gfp_step), each row a polynomial with its
own bound k and its own prime, in phases over all rows: the radicals, then
x^p, L, x^(p^2) mod R / L and Q, then the splitting rounds.  Round a tries
x + a on every piece of every row not yet split, so each row meets the
shifts in the order it would meet them alone.  The CRT route runs the step
once per distinct residual per chunk of the verbs' input (prefill_spectra),
as one stack; the certificate runs it on one row.

All the powers, x^p mod R, x^(p^2) mod R / L and the splitting powers
(x + a)^((p^d - 1) / 2), are one primitive (_pow_x_plus): (x + c_s)^(e_s)
mod a monic f_s of degree d, for a stack of rows of one degree d, each row
with its own shift c_s, exponent e_s and prime p_s, by repeated squaring on
int64 arrays.  A row whose exponent is shorter than the longest meets
leading zero bits first, and stays 1 through them: 1^2 = 1, and its product
with x + c is masked off.  A square is one batched product of each row's
Toeplitz matrix, gathered as the windows of a strided view of the row
between zeros (no copy), with the row reversed.  Its coefficients at x^d
and above are folded back by one batched product with [I | R_s], R_s the
row's d x (d - 1) reduction matrix, whose columns x^(d + j) mod f_s are
built once per power; so no temporary exceeds rows x (2d - 1) x d int64,
and _powers splits a stack at graphs.STACK_ELEMENTS of them, by the
splitter of the Hessenberg stacks (graphs.stacked).  A power costs one
squaring per bit of e: x^p takes about log2 p of them and x^(p^2) twice as
many, so 10 and 20 at p = 971 (k = 11), 18 and 35 at Paley(257)'s
p = 131111, and at most 25 and 50 at the largest prime an order up to
MAX_ORDER asks for, 33488947 < 3.4e7.  Residues are below p, so every sum
(a window times the reversed row, a row of the fold times the square) is
of at most d products below p^2, at most d (p - 1)^2 < 2^63 for
d <= MAX_ORDER, and int64 is exact; deg f > MAX_ORDER is refused.  No float enters.  A piece of
L of degree 2 needs no power: as p = 3 (mod 4), s = disc^((p + 1) / 4) is a
square root of its discriminant (both are checked), and its roots are
(-c1 +- s) / 2.

Why every factor is proposed, at this prime.  Let x^2 - b x + c be an
irreducible factor of f.  Its roots are irrational eigenvalues in [-k, k],
so |b| <= 2k, |c| <= k^2 and its discriminant satisfies
0 < b^2 - 4c <= 8 k^2 < p.  Mod p it is therefore squarefree: either an
irreducible factor of Q, or (x - r)(x - s) with r != s both roots of L.
Both |b| and |c| are below p / 2, so the symmetric lift gives back the
integer factor exactly.  Likewise an integer eigenvalue z has |z| <= k <
p / 2, so it is a root of L that lifts back to z.  The step checks
p > max(8 k^2, deg f) on each call.

A proposal is never trusted.  In the CRT route exact division decides the
result: a candidate that is no factor fails it, and as every division is
exact, the factors divided out and the residual multiply back to f.

Why the CRT route's table is a function of (f, k) alone.  The route reads
nothing of the graph but f = char_poly(g) and its maximum degree k: it
tries the integers in [-k, k] as roots, runs the GF(p) step at
p = _step_prime(k, deg f) on what is left, and divides out what the step
proposes; every division is exact.  So the table {factor: multiplicity}
and the residual it leaves depend on (f, k) and on nothing else, and
graphs with equal (f, k) share one: relabelled copies, cospectral mates of
equal maximum degree, the children that many Deza graphs have in common.
One store (_TableStore) keeps the last FACTOR_TABLES tables by (f, k); a
lookup computes every table it lacks at once (_crt_tables), with one
stacked step.  The Spectrum is a function of the table too, so the table
builds it and its sum of squared eigenvalues once, on first read
(FactorTable.spectrum), and every graph that holds the table reads that
one object; it lives as long as the table, in the store or on a graph.
The trace check stays per graph: exact_spectrum compares the table's sum
of squares with twice the edge count of each graph that reads it.  A
graph's table, from either route, is a per-graph fact (_spectrum_table), so a
non-quadratic residual is found once per graph, and exact_spectrum raises
it on every call.  One batch function gives the CRT route's tables
(_crt_route_tables): _spectrum_table calls it on one graph and its
char_poly, prefill_spectra on a chunk and their char_poly.fill, and the
prefill stores each table on its graph.  So exact_spectrum reads the graph,
not the store, and the store only saves recomputing a table: its size
decides how much is computed again, never what a spectrum reads.  The
certificate reads M itself and shares nothing; when it declines, the CRT
route runs on the graph's char_poly past the store (_crt_tables), its step
on the residual, so a declined table, which can weigh kilobytes, takes no
place in the store.

The certificate, and why it is a proof.  Let f_p = det(xI - M) mod p
(charpoly.char_poly_mod, one Hessenberg pass), and run the GF(p) step on it.
- If the spectrum is quadratic, f is a product of linear and quadratic
  integer factors, and so f_p is a product of linear and quadratic factors
  mod p: R = L Q.  When deg L + deg Q < deg R, the route declines at once.
- Membership.  M is symmetric, so its minimal polynomial mu is the product
  of the distinct irreducible factors of f.  The candidates c are distinct
  monic irreducibles over the integers (x - z, or a quadratic with a
  positive non-square discriminant), so pairwise coprime.  If the product
  P of the c(M) over all candidates is the zero matrix, mu divides the
  product of the candidates: every eigenvalue is a root of a candidate,
  and mu is the product of the true factors, the candidates dividing f.
  A candidate c is then a true factor iff the product P_c of the others
  is nonzero.  P_c e_v != 0 for one of a few vertices v (a matrix-vector
  chain) proves it; only when all those chains vanish is P_c formed.  If
  P != 0, some eigenvalue is a root of no candidate; as the step proposes
  every integer eigenvalue and every quadratic factor, the spectrum is not
  quadratic, and the route declines.
- Exactness.  The product of the maximum row sums of |X| and |Y| bounds
  every entry of X Y, every partial sum met in forming it, and the
  maximum row sum of |X Y|.  So every int64 product above is exact while
  the product of the candidates' maximum row sums of |c(M)|, each taken
  as at least 1, is below 2^62; at or above it the route declines.
- Multiplicities.  f is the product of c^(m_c) over the true factors, so
  sum deg(c) m_c = n, and c^(m_c) divides f_p: m_c <= u_c, the
  multiplicity of c mod p in f_p (_multiplicity_mod).  Then
  sum deg(c) u_c = n proves m_c = u_c for every c.  u_c > m_c needs every
  root of c mod p to be a root of another true factor.  An integer z meets
  no other true factor mod p (|z - z'| <= 2k < p, and 0 < |q(z)| <= 4 k^2
  < p for a quadratic q), nor does a quadratic that is irreducible mod p.
  But the two roots of a quadratic that splits mod p can be roots of two
  other quadratics, as resultants can exceed p; then the sum exceeds n,
  and the route declines.
Either route ends with the trace check: the sum of the squared
eigenvalues is 2|E|.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .charpoly import (
    MAX_ORDER,
    char_poly,
    char_poly_mod,
    poly_eval,
    poly_try_divide,
    primes_for,
)
from .eigenvalues import Eigenvalue, Spectrum, is_perfect_square
from .graphs import Graph, common_neighbour_matrix, fill_facts, per_graph, stacked


#: the certificate runs when char_poly would need more primes than this; the
#: module docstring says why it does not run below
CERTIFY_ABOVE_PRIMES = 3

#: how many factor tables the CRT route keeps across graphs (least recently
#: used first out): more than a 1001-graph stream of small random regular
#: graphs makes (523-541 with their children), so such a stream computes
#: each table once; README gives the memory this bounds
FACTOR_TABLES = 768


class NonQuadraticSpectrumError(ValueError):
    """Raised when some eigenvalue has algebraic degree three or more."""

    def __init__(self, residual) -> None:
        self.residual = tuple(residual)
        super().__init__(
            "spectrum contains non-quadratic eigenvalues; "
            f"unfactored residual has degree {len(self.residual) - 1}"
        )


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


def _pow_x_plus(c, e, f, p) -> np.ndarray:
    """(x + c_s)^(e_s) mod f_s over GF(p_s) for a stack of monic f_s of one
    degree d >= 1, the rows of f (ascending, d + 1 coefficients each); c, e
    and p are int64 broadcasts over the rows.  Row s of the result holds the
    d coefficients of its power.  The module docstring gives the square, the
    fold and why int64 is exact."""
    f = np.asarray(f, dtype=np.int64)
    rows, d = f.shape[0], f.shape[1] - 1
    p = np.asarray(p, dtype=np.int64).reshape(-1, 1, 1)
    e = np.asarray(e, dtype=np.int64).reshape(-1, 1)
    # fold[s] = [I | R_s], column d + j of R_s being x^(d + j) mod f_s, so
    # fold[s] @ square is the square mod f_s
    fold = np.zeros((rows, d, 2 * d - 1), dtype=np.int64)
    fold[:, :, :d] = np.eye(d, dtype=np.int64)
    xd = -f[:, :d] % p[:, 0]  # x^d mod f
    col = xd
    for j in range(d, 2 * d - 1):
        fold[:, :, j] = col
        col = col[:, -1:] * xd
        col[:, 1:] += fold[:, :-1, j]
        col %= p[:, 0]
    # times[s] = c_s I + the companion matrix of f_s: the product by x + c_s
    times = np.zeros((rows, d, d), dtype=np.int64)
    times[:, np.arange(d), np.arange(d)] = np.asarray(c, dtype=np.int64).reshape(-1, 1) % p[:, 0]
    times[:, np.arange(1, d), np.arange(d - 1)] = 1
    times[:, :, -1] += xd
    # the power r sits between d - 1 zeros on each side, so the windows of
    # d entries are the rows of its Toeplitz matrix, and square[k] is the
    # k-th window times r reversed
    padded = np.zeros((rows, 3 * d - 2, 1), dtype=np.int64)
    r = padded[:, d - 1 : 2 * d - 1]
    r[:, 0] = 1
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded[:, :, 0], d, axis=1)
    reversed_r = r[:, ::-1]
    bits = (e >> np.arange(int(e.max()).bit_length() - 1, -1, -1)) & 1 == 1
    for bit, anyset, allset in zip(bits.T, bits.any(axis=0).tolist(), bits.all(axis=0).tolist()):
        r[:] = np.matmul(fold, np.matmul(toeplitz, reversed_r) % p) % p
        if anyset:  # times x + c, on the rows whose bit is set
            shifted = np.matmul(times, r) % p
            r[:] = shifted if allset else np.where(bit[:, None, None], shifted, r)
    return r[:, :, 0]


def _powers(rows) -> list[list[int]]:
    """(x + c)^e mod f over GF(p) for each row (c, e, f, p), f a monic list of
    degree d >= 1: the rows of one degree run as stacks of _pow_x_plus,
    split by the d x (2d - 1) fold matrix of a row (graphs.stacked)."""
    return stacked(lambda stack: [_trim(power) for power in _pow_x_plus(*zip(*stack)).tolist()],
                   rows, lambda row: (len(row[2]) - 1, 2 * len(row[2]) - 3))


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


def _equal_degree_factors(jobs) -> list[list[list[int]]]:
    """For each job (f, d, p): the monic irreducible factors of a monic
    squarefree f over GF(p) whose irreducible factors all have degree d
    (Cantor-Zassenhaus, with the shifts x + a, a = 1, 2, ... in turn instead
    of random elements; a quadratic piece of a product of linear factors is
    split in closed form).  Round a tries x + a on every piece of every job
    not yet split, as one _powers call, so each job meets the shifts as it
    would alone; a job with f = 1 has no factor."""
    done: list[list[list[int]]] = [[] for _ in jobs]
    todo = [(j, f) for j, (f, _, _) in enumerate(jobs) if len(f) > 1]
    a = 0
    while todo:
        a += 1
        pending = []
        for j, g in todo:
            _, d, p = jobs[j]
            if len(g) - 1 == d:
                done[j].append(g)
            elif d == 1 and len(g) == 3:
                done[j] += _split_quadratic(g, p)
            else:
                pending.append((j, g))
        todo = []
        powers = _powers([(a, (jobs[j][2] ** jobs[j][1] - 1) // 2, g, jobs[j][2])
                          for j, g in pending])
        for (j, g), power in zip(pending, powers):
            p = jobs[j][2]
            s = _monic_gcd_mod(g, _sub_mod(power, [1], p), p)
            if 1 < len(s) < len(g):
                todo += [(j, s), (j, _divmod_mod(g, s, p)[0])]
            else:
                todo.append((j, g))
    return done


def _step_prime(bound: int, deg: int) -> int:
    """The least prime p = 3 (mod 4) with p > max(8 bound^2, deg): the
    smallest prime at which the GF(p) step proposes every factor of a
    polynomial of degree at most deg (module docstring), by trial division."""
    p = max(8 * bound * bound, deg) + 1
    p += (3 - p) % 4
    while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
        p += 4
    return p


class Proposal(NamedTuple):
    """What the GF(p) step proposes for a monic integer polynomial f: monic
    integer factors, each a tuple of ascending coefficients."""

    #: x - z for each root z of L lifted into [-bound, bound], ascending in z;
    #: then x^2 - b x + c for each admissible (b, c), ascending in (b, c)
    factors: list[tuple[int, ...]]
    #: deg L + deg Q == deg R: f mod p has no irreducible factor of degree >= 3
    complete: bool


def _gfp_step(rows) -> list[Proposal]:
    """The GF(p) step on each row (rem, bound, p), rem a monic integer
    polynomial (or its residues mod p).  Every x - z with z in
    [-bound, bound] and every admissible x^2 - b x + c that divides rem is
    proposed; see the module docstring for why this holds at the prime p,
    and for the phases in which the rows run together."""
    radicals = []
    for rem, bound, p in rows:
        if p <= max(8 * bound * bound, len(rem) - 1):
            raise ArithmeticError(f"prime {p} too small for degree {len(rem) - 1}, bound {bound}")
        if p % 4 != 3:
            raise ArithmeticError(f"prime {p} is not 3 mod 4")
        if len(rem) - 1 > MAX_ORDER:
            raise ArithmeticError(f"degree {len(rem) - 1} exceeds {MAX_ORDER}")
        f = [c % p for c in rem]
        radicals.append(_divmod_mod(f, _monic_gcd_mod(f, _derivative_mod(f, p), p), p)[0])
    primes = [p for _, _, p in rows]
    x = [0, 1]
    xp = _powers([(0, p, r, p) for r, p in zip(radicals, primes)])
    linears = [_monic_gcd_mod(r, _sub_mod(w, x, p), p) for r, w, p in zip(radicals, xp, primes)]
    rests = [_divmod_mod(r, lin, p)[0] for r, lin, p in zip(radicals, linears, primes)]
    deep = [i for i, rest in enumerate(rests) if len(rest) > 1]
    quadratics = [[1]] * len(rows)
    for i, w in zip(deep, _powers([(0, primes[i] ** 2, rests[i], primes[i]) for i in deep])):
        quadratics[i] = _monic_gcd_mod(rests[i], _sub_mod(w, x, primes[i]), primes[i])
    pieces = _equal_degree_factors([(q, 2, p) for q, p in zip(quadratics, primes)]
                                   + [(lin, 1, p) for lin, p in zip(linears, primes)])

    proposals = []
    for i, (_, bound, p) in enumerate(rows):
        # x^2 - b x + c, with b and c lifted to the symmetric range
        pairs = {(-c1 % p, c0) for c0, c1, _ in pieces[i]}
        roots = [-c0 % p for c0, _ in pieces[len(rows) + i]]
        for j, r in enumerate(roots):
            for s in roots[j + 1 :]:
                pairs.add(((r + s) % p, r * s % p))
        half = p // 2

        def lift(v: int) -> int:
            return v - p if v > half else v

        cands = {(lift(b), lift(c)) for b, c in pairs}
        proposals.append(Proposal(
            [(-z, 1) for z in sorted(z for z in map(lift, roots) if abs(z) <= bound)]
            + [(c, -b, 1) for b, c in sorted(bc for bc in cands if _admissible(*bc, bound))],
            len(linears[i]) + len(quadratics[i]) == len(radicals[i]) + 1,
        ))
    return proposals


def _multiplicity_mod(f: list[int], factor, p: int) -> int:
    """The largest e with factor^e dividing the monic f over GF(p), p > deg f,
    for a monic factor of degree 1 or 2 that is squarefree mod p.

    That is the least j at which the j-th Hasse derivative of f,
    sum_i C(i, j) f_i x^(i - j), is nonzero at a root t of factor, taken in
    GF(p)[t] / (factor): a field, or two copies of GF(p) when factor splits.
    As p > deg f, C(i, j) = i! / (j! (i - j)!) mod p, so up to the unit
    1 / j! these values are the correlation of f_i i! with t^s / s!: sums of
    at most deg f + 1 <= 2^11 products of residues below p < 2^25, exact in
    int64."""
    n = len(f) - 1
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i % p)
    inv = [pow(fact[-1], -1, p)]
    for i in range(n, 0, -1):
        inv.append(inv[-1] * i % p)
    low = [c % p for c in factor[:-1]]
    power = [1] + [0] * (len(low) - 1)  # t^s, ascending in t
    powers = [power]
    for _ in range(n):
        top = power[-1]
        power = [(x - top * c) % p for x, c in zip([0] + power[:-1], low)]
        powers.append(power)
    a = np.array(f, dtype=np.int64) * np.array(fact, dtype=np.int64) % p
    b = np.array(powers, dtype=np.int64) * np.array(inv[::-1], dtype=np.int64)[:, None] % p
    derivatives = [np.correlate(a, column, "full")[n:] % p for column in b.T]
    return int(np.any(derivatives, axis=0).argmax())


def _product(mats: list[np.ndarray]) -> np.ndarray:
    """mats[0] @ mats[1] @ ..., formed from the right, so that a thin last
    factor keeps every product thin."""
    out = mats[-1]
    for m in reversed(mats[:-1]):
        out = m @ out
    return out


def _nonzero_product(mats: list[np.ndarray], probe: np.ndarray) -> bool:
    """Whether mats[0] @ mats[1] @ ... is nonzero (the empty product is I).
    The product is applied to the columns of probe first, as matrix-vector
    chains, and formed in full only when those all vanish."""
    return not mats or _product(mats + [probe]).any() or _product(mats).any()


def _certificate(g: Graph, fp: list[int], p: int, step: Proposal):
    """The spectrum of g certified at the prime p, from f_p = det(xI - M)
    mod p and the GF(p) step on it, as {factor: multiplicity}, or None when
    the certificate declines.  The module docstring gives the proof and
    each reason to decline."""
    if not step.complete:
        return None
    n = g.n
    eye = np.eye(n, dtype=np.int64)
    powers = [eye, g.adj.astype(np.int64)]  # I, M and, for a quadratic, M^2
    if any(len(f) == 3 for f in step.factors):
        powers.append(common_neighbour_matrix(g))
    mats = [sum(c * m for c, m in zip(f, powers)) for f in step.factors]
    if math.prod(max(int(np.abs(m).sum(axis=1).max()), 1) for m in mats) >= 1 << 62:
        return None
    probe = eye[:, sorted({v * (n - 1) // 3 for v in range(4)})]  # four vertices
    if _nonzero_product(mats, probe):
        return None  # P != 0

    mults = {
        f: _multiplicity_mod(fp, f, p)
        for i, f in enumerate(step.factors)
        if _nonzero_product(mats[:i] + mats[i + 1 :], probe)  # else P_c = 0: no factor
    }
    # the sum is n, or above it when factors collide mod p
    return mults if sum((len(f) - 1) * u for f, u in mults.items()) == n else None


def _divide_out(rem, factors, mults):
    """rem with each factor divided out as often as it divides exactly, each
    division counted in mults."""
    for f in factors:
        while (quotient := poly_try_divide(rem, f)) is not None:
            rem = quotient
            mults[f] = mults.get(f, 0) + 1
    return rem


def crt_route(n: int, bound: int) -> bool:
    """Whether the CRT route decides the spectrum of a graph with n vertices
    and maximum degree bound, with no certificate tried first."""
    return len(primes_for(n, bound)) <= CERTIFY_ABOVE_PRIMES


class FactorTable:
    """What a route makes of a characteristic polynomial, and the Spectrum
    that gives, built on first read and then shared by every graph that
    holds the table."""

    __slots__ = ("factors", "residual", "_spectrum")

    def __init__(self, factors, residual) -> None:
        #: read-only {monic factor: multiplicity}
        self.factors = MappingProxyType(factors)
        #: what no factor divides: (1,), or a non-quadratic residual
        self.residual = tuple(residual)
        self._spectrum = None

    def spectrum(self) -> tuple[Spectrum, int]:
        """The table's Spectrum and its sum of squared eigenvalues, built
        once (a race between threads can only build equal ones twice).
        Raises NonQuadraticSpectrumError when a residual is left."""
        if len(self.residual) > 1:
            raise NonQuadraticSpectrumError(self.residual)
        if self._spectrum is None:
            entries = []
            for f, m in self.factors.items():
                if len(f) == 2:
                    entries.append((Eigenvalue.integer(-f[0]), m))
                else:
                    entries += [(root, m) for root in Eigenvalue.quadratic_roots(-f[1], f[0])]
            spec = Spectrum(entries)
            self._spectrum = (spec, spec.sum_of_squares())
        return self._spectrum


def _crt_tables(keys) -> list[FactorTable]:
    """The CRT route on each key (coeffs, bound), coeffs a monic integer
    polynomial and bound its graph's maximum degree: strip every integer
    root in [-bound, bound], then divide out what the GF(p) step proposes
    for the rest, at p = _step_prime(bound, deg coeffs).  The steps run as
    one stacked call."""
    rems, mults = [], []
    for coeffs, bound in keys:
        rem, found = coeffs, {}
        for z in range(bound, -bound - 1, -1):
            if poly_eval(rem, z) == 0:
                rem = _divide_out(rem, [(-z, 1)], found)
        rems.append(rem)
        mults.append(found)
    need = [i for i, rem in enumerate(rems) if len(rem) > 1]
    rows = [(rems[i], keys[i][1], _step_prime(keys[i][1], len(keys[i][0]) - 1)) for i in need]
    if rows:
        for i, step in zip(need, _gfp_step(rows)):
            rems[i] = _divide_out(rems[i], step.factors, mults[i])
    return [FactorTable(found, rem) for found, rem in zip(mults, rems)]


class TableInfo(NamedTuple):
    """A table store's counts, as functools.lru_cache reports its own."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _TableStore:
    """The CRT route's tables by (coeffs, bound), the maxsize most recently
    used kept.  One lock guards the tables and the counts, so threads need
    none of their own; a table is computed outside it, and two threads that
    both miss a key compute equal tables."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._tables: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def lookup(self, keys) -> list[FactorTable]:
        """The table of each key, in order.  The keys the store lacks are
        computed by one _crt_tables call, each once, and stored."""
        with self._lock:
            found = {key: self._tables[key] for key in keys if key in self._tables}
            for key in found:
                self._tables.move_to_end(key)
        missing = [key for key in dict.fromkeys(keys) if key not in found]
        if missing:
            found.update(zip(missing, _crt_tables(missing)))
        with self._lock:
            for key in missing:
                self._tables[key] = found[key]
                self._tables.move_to_end(key)
            while len(self._tables) > self.maxsize:
                self._tables.popitem(last=False)
            self._misses += len(missing)
            self._hits += len(keys) - len(missing)
        return [found[key] for key in keys]

    def info(self) -> TableInfo:
        with self._lock:
            return TableInfo(self._hits, self._misses, self.maxsize, len(self._tables))

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self._hits = self._misses = 0


_TABLES = _TableStore(FACTOR_TABLES)


def _crt_route_tables(graphs, polys) -> list[FactorTable]:
    """The CRT route's table of each graph, polys[i] being its char_poly: the
    store's table of (char_poly, maximum degree), the tables it lacks
    computed with one stacked GF(p) step."""
    return _TABLES.lookup([(poly.coeffs, int(g.degrees().max(initial=0)))
                           for g, poly in zip(graphs, polys)])


def prefill_spectra(graphs) -> None:
    """Store on each graph that takes the CRT route and lacks it the table
    exact_spectrum reads (_spectrum_table): their char_poly as one stacked
    Hessenberg pass per order (char_poly.fill), then their tables by
    one _crt_route_tables call.  Certificate-route graphs are left alone,
    so no graph runs a pass or a step that exact_spectrum would not run."""
    crt = [g for g in graphs if crt_route(g.n, int(g.degrees().max(initial=0)))]
    fill_facts(_spectrum_table, crt, lambda gs: _crt_route_tables(gs, char_poly.fill(gs)))


@per_graph
def _spectrum_table(g: Graph) -> FactorTable:
    """The table of g's spectrum, from the route that decides it: the CRT
    route's (_crt_route_tables), or the certificate's, or on a decline the
    CRT route's past the store (_crt_tables)."""
    bound = int(g.degrees().max(initial=0))
    if crt_route(g.n, bound):
        return _crt_route_tables([g], [char_poly(g)])[0]
    p = _step_prime(bound, g.n)
    fp = char_poly_mod([g.adj], (p,))[0].tolist()
    (step,) = _gfp_step([(fp, bound, p)])
    certified = _certificate(g, fp, p, step)
    if certified is not None:
        return FactorTable(certified, (1,))
    return _crt_tables([(char_poly(g).coeffs, bound)])[0]


@per_graph
def exact_spectrum(g: Graph) -> Spectrum:
    """Exact eigenvalues with certified multiplicities.

    Raises NonQuadraticSpectrumError when an eigenvalue of algebraic degree
    three or more is present (e.g. the 7-cycle).
    """
    spec, squares = _spectrum_table(g).spectrum()
    # the trace of M^2, checked per graph: the table may be another graph's
    if squares != 2 * g.edge_count():
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
