"""Exact eigenvalues and spectra.

An eigenvalue is either an integer or a quadratic irrational
(p + u*sqrt(d))/q kept in a canonical form: d squarefree and > 1, q > 0,
gcd(p, u, q) = 1, and the minimal polynomial x^2 - (2p/q) x + (p^2 - u^2 d)/q^2
must have integer coefficients (adjacency eigenvalues are algebraic
integers).  Comparisons and all identity checks are exact; floats never
decide anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m > 0 as t*t*d with d squarefree; returns (t, d)."""
    if m <= 0:
        raise ValueError("squarefree decomposition needs a positive integer")
    t = 1
    d = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            t *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return t, d * m


def is_perfect_square(m: int) -> bool:
    return m >= 0 and math.isqrt(m) ** 2 == m


def _sign_int(x: int) -> int:
    return (x > 0) - (x < 0)


def sign_radical(a: int, b: int, m: int) -> int:
    """Exact sign of a + b*sqrt(m) for integers a, b and squarefree m >= 1."""
    if m == 1:
        return _sign_int(a + b)
    if b == 0:
        return _sign_int(a)
    if a == 0:
        return _sign_int(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs; m squarefree > 1 rules out a*a == b*b*m
    if a > 0:
        return _sign_int(a * a - b * b * m)
    return _sign_int(b * b * m - a * a)


def _sign_two_radicals(a: int, b: int, m: int, c: int, n: int) -> int:
    """Exact sign of a + b*sqrt(m) + c*sqrt(n) for nonzero b, c and squarefree
    m != n, both > 1: then neither a + b*sqrt(m) nor the sum is zero."""
    left = sign_radical(a, b, m)
    if left > 0 and c > 0:
        return 1
    if left < 0 and c < 0:
        return -1
    # compare (a + b*sqrt(m))^2 against c^2 n
    t = sign_radical(a * a + b * b * m - c * c * n, 2 * a * b, m)
    return t if left > 0 else -t


@total_ordering
@dataclass(frozen=True)
class Eigenvalue:
    """Canonical integer or quadratic irrational (p + u*sqrt(d))/q."""

    p: int
    u: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ValueError("q must be positive")
        if self.u == 0 or self.d == 1:
            if not (self.u == 0 and self.d == 1 and self.q == 1):
                raise ValueError("integers must be stored as (z, 0, 1, 1)")
            return
        if self.d <= 1 or squarefree_decompose(self.d)[0] != 1:
            raise ValueError("d must be squarefree and > 1")
        if math.gcd(self.p, self.u, self.q) != 1:
            raise ValueError("(p, u, q) must be coprime")
        if (2 * self.p) % self.q or (self.p * self.p - self.u * self.u * self.d) % (
            self.q * self.q
        ):
            raise ValueError(
                f"({self.p}+{self.u}√{self.d})/{self.q} is not an algebraic integer"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def integer(cls, z: int) -> "Eigenvalue":
        return cls(int(z), 0, 1, 1)

    @classmethod
    def quadratic(cls, p: int, u: int, d: int, q: int) -> "Eigenvalue":
        """Normalising constructor; folds rational degenerations to integers."""
        if q == 0:
            raise ValueError("q must be nonzero")
        if q < 0:
            p, u, q = -p, -u, -q
        if d <= 0:
            raise ValueError("d must be positive (real eigenvalues only)")
        t, d0 = squarefree_decompose(d)
        u *= t
        if u == 0 or d0 == 1:
            num = p + u  # u absorbs sqrt(1)
            if num % q:
                raise ValueError(f"rational eigenvalue {num}/{q} is not an integer")
            return cls.integer(num // q)
        g = math.gcd(math.gcd(p, u), q)
        return cls(p // g, u // g, d0, q // g)

    @classmethod
    def sqrt_pair(cls, m: int) -> tuple["Eigenvalue", "Eigenvalue"]:
        """(+sqrt(m), -sqrt(m)) for a non-negative integer radicand."""
        if m < 0:
            raise ValueError("negative radicand")
        t, d0 = squarefree_decompose(m) if m else (0, 1)
        if d0 == 1:
            root = cls.integer(t if m else 0)
            return root, cls.integer(-root.p)
        return cls(0, t, d0, 1), cls(0, -t, d0, 1)

    @classmethod
    def quadratic_roots(cls, b: int, c: int) -> tuple["Eigenvalue", "Eigenvalue"]:
        """Roots of x^2 - b x + c with a positive non-square discriminant."""
        disc = b * b - 4 * c
        if disc <= 0:
            raise ValueError("discriminant must be positive")
        t, d0 = squarefree_decompose(disc)
        if d0 == 1:
            raise ValueError("rational roots: use the integer constructor")
        return cls.quadratic(b, t, d0, 2), cls.quadratic(b, -t, d0, 2)

    # -- structure ----------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.u == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is irrational")
        return self.p

    def conjugate(self) -> "Eigenvalue":
        if self.is_integer:
            return self
        return Eigenvalue(self.p, -self.u, self.d, self.q)

    def minimal_poly_coeffs(self) -> tuple[int, ...]:
        """Ascending integer coefficients of the minimal polynomial."""
        if self.is_integer:
            return (-self.p, 1)
        b = (2 * self.p) // self.q
        c = (self.p * self.p - self.u * self.u * self.d) // (self.q * self.q)
        return (c, -b, 1)

    def square_parts(self) -> tuple[Fraction, Fraction]:
        """value^2 written as r + s*sqrt(d) with exact rationals r, s."""
        qq = self.q * self.q
        return (
            Fraction(self.p * self.p + self.u * self.u * self.d, qq),
            Fraction(2 * self.p * self.u, qq),
        )

    def __neg__(self) -> "Eigenvalue":
        if self.is_integer:
            return Eigenvalue.integer(-self.p)
        return Eigenvalue(-self.p, -self.u, self.d, self.q)

    def __abs__(self) -> "Eigenvalue":
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        return sign_radical(self.p, self.u, self.d)

    def compare(self, other: "Eigenvalue") -> int:
        """Exact sign of self - other."""
        a = self.p * other.q - other.p * self.q
        b = self.u * other.q
        c = -other.u * self.q
        if self.d == other.d:
            return sign_radical(a, b + c, self.d)
        if b == 0:
            return sign_radical(a, c, other.d)
        if c == 0:
            return sign_radical(a, b, self.d)
        return _sign_two_radicals(a, b, self.d, c, other.d)

    def __lt__(self, other: "Eigenvalue") -> bool:
        if not isinstance(other, Eigenvalue):
            return NotImplemented
        return self.compare(other) < 0

    def __float__(self) -> float:
        return (self.p + self.u * math.sqrt(self.d)) / self.q

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.p)
        root = f"√{self.d}"
        if self.p == 0 and self.q == 1:
            if self.u == 1:
                return root
            if self.u == -1:
                return f"-{root}"
            return f"{self.u}{root}"
        sign = "+" if self.u > 0 else "-"
        mag = abs(self.u)
        coef = "" if mag == 1 else str(mag)
        return f"({self.p}{sign}{coef}{root})/{self.q}"

    def __repr__(self) -> str:
        return f"Eigenvalue({self})"

    def to_json(self, mult: int) -> dict:
        """Integers serialise as decimal strings, irrationals structurally."""
        if self.is_integer:
            return {"value": str(self.p), "mult": mult}
        return {"p": self.p, "u": self.u, "d": self.d, "q": self.q, "mult": mult}

    @classmethod
    def from_json(cls, item: dict) -> tuple["Eigenvalue", int]:
        mult = int(item["mult"])
        if "value" in item:
            return cls.integer(int(item["value"])), mult
        return (
            cls.quadratic(
                int(item["p"]), int(item["u"]), int(item["d"]), int(item["q"])
            ),
            mult,
        )


def sums_to_zero(terms) -> bool:
    """Whether the sum of c * theta over (theta, c) pairs is exactly zero:
    its rational part and its coefficient of each sqrt(d) all vanish."""
    acc: dict[int, Fraction] = {}
    for ev, c in terms:
        acc[1] = acc.get(1, 0) + Fraction(ev.p * c, ev.q)
        if not ev.is_integer:
            acc[ev.d] = acc.get(ev.d, 0) + Fraction(ev.u * c, ev.q)
    return not any(acc.values())


class Spectrum:
    """Eigenvalues with multiplicities, sorted by decreasing value.

    Construction verifies canonical ordering, that algebraic conjugates
    occur with equal multiplicities, and that the trace (sum of value
    times multiplicity) is exactly zero.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        items = [(ev, int(m)) for ev, m in entries]
        for ev, m in items:
            if m <= 0:
                raise ValueError("multiplicities must be positive")
        items.sort(key=lambda em: em[0], reverse=True)
        for (e1, _), (e2, _) in zip(items, items[1:]):
            if e1 == e2:
                raise ValueError(f"duplicate eigenvalue {e1}")
        mults = {ev: m for ev, m in items}
        for ev, m in items:
            if not ev.is_integer and mults.get(ev.conjugate()) != m:
                raise ValueError(f"conjugate of {ev} missing or unbalanced")
        if not sums_to_zero(items):
            raise ValueError("spectrum trace is not zero")
        self.entries = tuple(items)

    @property
    def n(self) -> int:
        return sum(m for _, m in self.entries)

    def multiplicity(self, ev: Eigenvalue) -> int:
        for e, m in self.entries:
            if e == ev:
                return m
        return 0

    def distinct_count(self) -> int:
        return len(self.entries)

    def distinct_abs_count(self) -> int:
        return len({abs(ev) for ev, _ in self.entries})

    def is_integral(self) -> bool:
        return all(ev.is_integer for ev, _ in self.entries)

    def contains_value(self, z: int) -> bool:
        return self.multiplicity(Eigenvalue.integer(z)) > 0

    def principal(self) -> Eigenvalue:
        return self.entries[0][0]

    def sum_of_squares(self) -> int:
        """Exact sum of m * value^2; equals twice the edge count.  The sqrt(d)
        parts of balanced conjugates cancel, and a pair adds b^2 - 2c."""
        return int(sum(m * ev.square_parts()[0] for ev, m in self.entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        parts = []
        for ev, m in self.entries:
            base = str(ev)
            if not ev.is_integer or ev.p < 0:
                base = f"({base})"
            parts.append(f"{base}^{m}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"Spectrum({self})"

    def to_json(self) -> list[dict]:
        return [ev.to_json(m) for ev, m in self.entries]

    @classmethod
    def from_json(cls, data) -> "Spectrum":
        pairs = []
        for item in data:
            ev, m = Eigenvalue.from_json(item)
            pairs.append((ev, m))
        return cls(pairs)
