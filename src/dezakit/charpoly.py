"""Exact integer characteristic polynomials and polynomial helpers.

char_poly is multi-modular: a Hessenberg reduction modulo word-size primes
(Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9)
followed by Chinese remaindering with a symmetric lift (von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 5).  The number of primes comes from
a Hadamard bound on the coefficients, so the result is certified, not
guessed; see char_poly.  Polynomials are ascending coefficient tuples.

char_poly_mod is the one Hessenberg kernel: det(xI - M_s) mod p_s for a
stack of adjacency matrices M_s of one order, one prime p_s per row.
char_poly runs it on graphs, each filling one row per prime of
primes_for(n, k), and spectra's one-prime certificate on one graph at a
single prime.  char_poly.fill runs many graphs at once: one stack per
order, so a stream of small graphs pays the kernel's per-column overhead
once per order instead of once per graph.  A stack is split into passes of
at most graphs.STACK_ELEMENTS entries, which bounds its memory whatever the
stream; graphs.stacked groups and splits rows so, for these passes, for the
stacked powers of spectra's GF(p) step and for the structural kernels.

char_poly serves the spectra the certificate declines or that need few
primes anyway (spectra.exact_spectrum), and the check of verify-paper's
criterion 14 against exact determinants.  char_poly is a per-graph fact
declared by its batch (graphs.batched): it is memoised on the graph, so
criterion 14 reads the polynomial that exact_spectrum already computed
instead of running a second pass, and char_poly.fill stores its results in
that memo, so a graph it has served runs no pass of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .graphs import batched, stacked

# -- integer polynomial helpers (ascending coefficients) -------------------


def poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def poly_divmod_monic(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide by a monic divisor over the integers."""
    if b[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] -= c * b[j]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def poly_try_divide(a, b) -> tuple[int, ...] | None:
    """Quotient a/b when b (monic) divides a exactly, else None."""
    if len(b) > len(a):
        return None
    quot, rem = poly_divmod_monic(a, b)
    if any(rem):
        return None
    return quot


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial of an adjacency matrix."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2 or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")
        if self.coeffs[-2] != 0:
            raise ValueError("adjacency matrices are traceless")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        return poly_eval(self.coeffs, x)

    def __str__(self) -> str:
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            mag = abs(c)
            piece = "x" if e == 1 else f"x^{e}" if e else ""
            if e and mag == 1:
                body = piece
            elif e:
                body = f"{mag}{piece}"
            else:
                body = str(mag)
            terms.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(terms)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


# -- multi-modular characteristic polynomial -------------------------------

#: every prime is below this; two residues multiply to less than 2^52
PRIME_LIMIT = 1 << 26
#: the primes are those in [PRIME_LIMIT - _PRIME_WINDOW, PRIME_LIMIT), enough
#: for the coefficient bound of every graph with n <= MAX_ORDER
_PRIME_WINDOW = 1 << 14
#: int64 holds a sum of fewer than 2^11 products of two residues
MAX_ORDER = (1 << 11) - 1


@cache
def modular_primes() -> tuple[int, ...]:
    """The fixed descending list of primes char_poly draws from."""
    lo = PRIME_LIMIT - _PRIME_WINDOW
    root = math.isqrt(PRIME_LIMIT)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for d in range(2, math.isqrt(root) + 1):
        if small[d]:
            small[d * d :: d] = False
    window = np.ones(_PRIME_WINDOW, dtype=bool)
    for d in np.flatnonzero(small).tolist():
        window[-lo % d :: d] = False
    return tuple(lo + i for i in np.flatnonzero(window)[::-1].tolist())


def coefficient_bound(n: int, k: int) -> int:
    """Largest C(n, i) * ceil(k^(i/2)): bounds every |coefficient| of the
    characteristic polynomial of an n-vertex graph of maximum degree k."""
    best = 1
    power = 1
    for i in range(1, n + 1):
        power *= k
        root = math.isqrt(power)
        best = max(best, math.comb(n, i) * (root + (root * root != power)))
    return best


@cache
def primes_for(n: int, k: int) -> tuple[int, ...]:
    """The shortest prefix of modular_primes() whose product exceeds twice
    coefficient_bound(n, k); computed once per (n, k), which under the
    graph6 cap is at most 258^2 cached entries."""
    need = 2 * coefficient_bound(n, k)
    product = 1
    primes = modular_primes()
    for count, p in enumerate(primes, 1):
        product *= p
        if product > need:
            return primes[:count]
    raise ValueError(f"the prime list does not cover n = {n}, k = {k}")


def _hessenberg(h: np.ndarray, p: np.ndarray) -> None:
    """Reduce each h[s] to upper Hessenberg form by a similarity over
    GF(p[s]), in place.  h has shape (primes, n, n), entries in [0, p)."""
    stack, n, _ = h.shape
    plist = p.tolist()
    rows = np.arange(stack)
    pv = p[:, None]
    pm = p[:, None, None]
    for j in range(n - 2):
        below = h[:, j + 1 :, j]
        if not below[:, 1:].any():
            continue
        piv = j + 1 + (below != 0).argmax(axis=1)
        swap = piv != j + 1
        if swap.any():
            r, s = rows[swap], piv[swap]
            h[r, j + 1], h[r, s] = h[r, s], h[r, j + 1].copy()
            h[r, :, j + 1], h[r, :, s] = h[r, :, s], h[r, :, j + 1].copy()
        pivots = h[:, j + 1, j].tolist()
        inv = np.array([pow(t, -1, q) if t else 0 for t, q in zip(pivots, plist)])
        u = h[:, j + 2 :, j] * inv[:, None] % pv
        # rows r > j+1 lose u_r * row j+1 (columns < j are already zero) ...
        block = h[:, j + 2 :, j:]
        block -= u[:, :, None] * h[:, None, j + 1, j:]
        block %= pm
        # ... and column j+1 gains u_r * column r, keeping the similarity
        col = h[:, :, j + 1]
        col += np.matmul(h[:, :, j + 2 :], u[:, :, None])[:, :, 0]
        col %= pv


def _hessenberg_charpoly(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(xI - h[s]) mod p[s] for upper
    Hessenberg h[s]: p_m = (x - h_mm) p_{m-1}
    - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1} (1-based)."""
    stack, n, _ = h.shape
    pv = p[:, None]
    polys = np.zeros((stack, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    # sub[:, i] = h_{i+1,i} ... h_{m-1,m-2} (0-based) for the current m
    sub = np.zeros((stack, n), dtype=np.int64)
    for m in range(1, n + 1):
        prev = polys[:, m - 1, :m]
        cur = polys[:, m, : m + 1]
        cur[:, 1:] = prev
        cur[:, :m] -= h[:, m - 1, m - 1, None] * prev % pv
        if m > 1:
            sub[:, : m - 2] = sub[:, : m - 2] * h[:, m - 1, m - 2, None] % pv
            sub[:, m - 2] = h[:, m - 1, m - 2]
            weights = h[:, : m - 1, m - 1] * sub[:, : m - 1] % pv
            lower = np.matmul(weights[:, None, :], polys[:, : m - 1, : m - 1])[:, 0]
            cur[:, : m - 1] -= lower % pv
        cur %= pv
    return polys[:, n]


def char_poly_mod(adjs, primes) -> np.ndarray:
    """det(xI - adjs[s]) mod primes[s] for a stack of adjacency matrices of
    one order and one prime below 2^26 per matrix, by one stacked Hessenberg
    pass: row s holds the ascending coefficients mod primes[s]."""
    if len({a.shape for a in adjs}) != 1:
        raise ValueError("a stack holds matrices of one order")
    n = adjs[0].shape[0]
    if n > MAX_ORDER:
        raise ValueError(f"char_poly supports n <= {MAX_ORDER}, got {n}")
    p = np.array(primes, dtype=np.int64)
    h = np.array(adjs, dtype=np.int64)
    _hessenberg(h, p)
    return _hessenberg_charpoly(h, p)


def _lift(residues: list[list[int]], primes) -> CharPoly:
    """The integer polynomial with the given residues mod each prime (one
    row per prime), by the Chinese remainder theorem and the symmetric lift."""
    modulus = math.prod(primes)
    weights = []
    for q in primes:
        rest = modulus // q
        weights.append(rest * pow(rest, -1, q))
    half = modulus // 2
    coeffs = []
    for column in zip(*residues):
        c = sum(r * w for r, w in zip(column, weights)) % modulus
        coeffs.append(c - modulus if c > half else c)
    return CharPoly(tuple(coeffs))


@batched
def char_poly(graphs) -> list[CharPoly]:
    """det(xI - M) of each graph, computed exactly by multi-modular
    arithmetic; a per-graph fact, so each graph runs its Hessenberg pass
    once.

    Algorithm.  For every prime p of a prefix of modular_primes() (a fixed
    descending list of primes below 2^26) M is reduced to upper Hessenberg
    form by a similarity over GF(p), and det(xI - M) mod p is read off the
    Hessenberg recurrence.  Each graph fills one (M, prime) row per prime,
    and the rows of one order run together as stacks of int64 matrices,
    split into passes of at most graphs.STACK_ELEMENTS entries (stacked).
    Each graph's residues are combined by the Chinese remainder theorem and
    lifted to the symmetric range (-P/2, P/2], P the product of its primes.

    Bound.  The coefficient of x^(n-i) is, up to sign, the sum of the
    C(n, i) principal i x i minors of M.  A row of such a minor holds at
    most k ones (k the maximum degree), so Hadamard's inequality bounds the
    minor by k^(i/2), and the coefficient by C(n, i) * ceil(k^(i/2)).
    Primes are taken until P exceeds twice the largest of these bounds
    (primes_for), so the symmetric lift is every coefficient exactly.

    No unlucky primes.  A Hessenberg similarity exists over every field, and
    det(xI - M) commutes with reduction mod p, so each prime yields the true
    residue whatever pivots it meets; nothing is randomised or retried.

    Overflow.  Residues are below 2^26, so a product of two is below 2^52
    and a sum of n such products fits int64 while n <= MAX_ORDER (it stays
    below 2^61 at the graph6 cap of n = 258).
    """
    primes = [primes_for(g.n, int(g.degrees().max(initial=0))) for g in graphs]
    rows = [(g.adj, p) for g, ps in zip(graphs, primes) for p in ps]
    residues = stacked(lambda stack: char_poly_mod(*zip(*stack)).tolist(), rows,
                       lambda row: row[0].shape)
    rest = iter(residues)
    return [_lift([next(rest) for _ in ps], ps) for ps in primes]
