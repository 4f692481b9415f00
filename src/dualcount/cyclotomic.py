"""Exact arithmetic in cyclotomic fields.

A `Cyc` is an element of Q(zeta_N) stored as integer numerators over one
shared positive denominator: the numerators are the coordinates, in the power
basis 1, zeta_N, ..., zeta_N^(phi(N) - 1), of the element times the
denominator.  Numerators and denominator are kept coprime, so the stored form
is canonical for a fixed conductor.  The N-th cyclotomic polynomial Phi_N is
monic with integer coefficients, so products reduce modulo it without any
division; every power of zeta_N has integer coordinates, so the Galois action
and promotion to a larger conductor are integer row sums; and an inverse is
the product of the non-trivial Galois conjugates divided by the norm.  All
arithmetic is exact; `complex_value` is the only lossy operation.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InvariantError

# conductors whose zeta power table stays cached; each table holds
# N x phi(N) integers, and a process touches a handful of conductors
POWER_BASIS_CACHE = 64

_new = object.__new__
_set = object.__setattr__

# operands taken as rationals; both carry .numerator and .denominator
_RATIONAL = (int, Fraction)


def _reduce_monic(p: list[int], n: int) -> list[int]:
    """p modulo Phi_n, in place; returns its phi(n) low coefficients."""
    deg, tail = _phi_tail(n)
    for i in range(len(p) - 1, deg - 1, -1):
        c = p[i]
        if c:
            base = i - deg
            for j, f in tail:
                p[base + j] -= c * f
    del p[deg:]
    return p


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    # x^n - 1 divided by Phi_d for every proper divisor d of n; every Phi_d is
    # monic, so the long division stays in the integers
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = cyclotomic_poly(d)
            deg = len(phi) - 1
            q = [0] * (len(p) - deg)
            for i in range(len(q) - 1, -1, -1):
                c = q[i] = p[i + deg]
                if c:
                    for j, f in enumerate(phi):
                        p[i + j] -= c * f
            if any(p[:deg]):
                raise InvariantError(f"Phi_{d} must divide x^{n} - 1")
            p = q
    return tuple(p)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero (j, coefficient) pairs of Phi_n below its leading term."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    return deg, tuple((j, f) for j, f in enumerate(phi[:deg]) if f)


@lru_cache(maxsize=POWER_BASIS_CACHE)
def _zeta_power_basis(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^j for j in 0..n-1, as integer coordinates in the power basis."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        # multiply by x, reduce mod Phi_n (monic)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for k in range(deg):
                cur[k] -= top * phi[k]
    return tuple(rows)


def _row_sum(nums, rows, step: int, n: int, deg: int) -> list[int]:
    """sum_j nums[j] * rows[j * step mod n], the integer image of zeta^j -> zeta^(j*step)."""
    out = [0] * deg
    for j, c in enumerate(nums):
        if c:
            for t, r in enumerate(rows[j * step % n]):
                if r:
                    out[t] += c * r
    return out


class Cyc:
    """An element of Q(zeta_n), immutable and hashable.

    The stored form (numerators, denominator) is canonical for a fixed
    conductor n, so equality and hashing are consistent within one conductor.
    Equality across conductors promotes both sides, but hashes are only
    guaranteed to agree across conductors for rational values; keep any
    hashed collection of Cyc values at a single conductor.
    """

    __slots__ = ("n", "nums", "den", "_hash")

    def __init__(self, n: int, coeffs):
        """The element sum_j coeffs[j] * zeta_n^j, for rational coeffs[j]
        with at most phi(n) entries."""
        deg = len(cyclotomic_poly(n)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError("coefficient vector longer than field degree")
        den = lcm(1, *(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        self._fill(n, nums + [0] * (deg - len(cs)), den)

    def _fill(self, n: int, nums, den: int) -> None:
        if den != 1:
            if den < 0:
                nums, den = [-x for x in nums], -den
            g = gcd(den, *nums)
            if g != 1:
                nums, den = [x // g for x in nums], den // g
        _set(self, "n", n)
        _set(self, "nums", tuple(nums))
        _set(self, "den", den)

    @staticmethod
    def _make(n: int, nums, den: int = 1) -> "Cyc":
        """sum_j nums[j] * zeta_n^j / den, from integer numerators of full length."""
        out = _new(Cyc)
        out._fill(n, nums, den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        """zeta_n^k."""
        return Cyc._make(n, _zeta_power_basis(n)[k % n])

    @staticmethod
    def from_rational(value, n: int = 1) -> "Cyc":
        deg = len(cyclotomic_poly(n)) - 1
        if not isinstance(value, int):
            value = Fraction(value)
        return Cyc._make(n, [value.numerator] + [0] * (deg - 1),
                         value.denominator)

    def promoted(self, m: int) -> "Cyc":
        """The same element viewed in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot promote conductor {self.n} to {m}")
        deg = len(cyclotomic_poly(m)) - 1
        out = _row_sum(self.nums, _zeta_power_basis(m), m // self.n, m, deg)
        return Cyc._make(m, out, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational power-basis coordinates."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: "Cyc"):
        if other.n == self.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self.promoted(m), other.promoted(m)

    def _scaled(self, num: int, den: int) -> "Cyc":
        return Cyc._make(self.n, [x * num for x in self.nums], self.den * den)

    def _plus(self, other, sign: int):
        """self + sign * other for a Cyc, int or Fraction other."""
        if not isinstance(other, Cyc):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = Cyc.from_rational(other, self.n)
        a, b = self._coerce(other)
        ad, bd = a.den, b.den
        g = gcd(ad, bd)
        fa, fb = bd // g, sign * (ad // g)
        nums = [x * fa + y * fb for x, y in zip(a.nums, b.nums)]
        return Cyc._make(a.n, nums, ad * fa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyc._make(self.n, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if isinstance(other, _RATIONAL):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        a, b = self._coerce(other)
        an, bn = a.nums, b.nums
        deg = len(an)
        prod = [0] * (2 * deg - 1)
        right = [(j, y) for j, y in enumerate(bn) if y]
        for i, x in enumerate(an):
            if x:
                for j, y in right:
                    prod[i + j] += x * y
        return Cyc._make(a.n, _reduce_monic(prod, a.n), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse: the product of the non-trivial Galois
        conjugates of the numerator, over its norm, times the denominator."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.n
        num = Cyc._make(n, self.nums)
        others = Cyc.from_rational(1, n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                others = others * num.galois(k)
        norm = num * others
        if not norm.is_rational() or norm.den != 1:
            raise InvariantError(f"norm of {num!r} is not a rational integer")
        return Cyc._make(n, [x * self.den for x in others.nums],
                         others.den * norm.nums[0])

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self._scaled(other.denominator, other.numerator)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.from_rational(1, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- Galois action -----------------------------------------------------

    def galois(self, k: int) -> "Cyc":
        """Apply zeta -> zeta^k; requires gcd(k, n) = 1."""
        n = self.n
        if gcd(k % n, n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        out = _row_sum(self.nums, _zeta_power_basis(n), k, n, len(self.nums))
        return Cyc._make(n, out, self.den)

    def conjugate(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(self.n - 1) if self.n > 1 else self

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def integer(self) -> int:
        if not self.is_rational() or self.den != 1:
            raise ValueError(f"{self!r} is not an integer")
        return self.nums[0]

    def complex_value(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        den = self.den
        return sum((x / den) * z**j for j, x in enumerate(self.nums))

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Cyc):
            if isinstance(other, _RATIONAL):
                return (self.den == other.denominator
                        and self.nums[0] == other.numerator
                        and self.is_rational())
            return NotImplemented
        a, b = self._coerce(other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # hash in a conductor-independent way: rational elements must hash
        # like their Fraction value
        if not self.is_rational():
            h = hash((self.n, self.nums, self.den))
        elif self.den == 1:
            h = hash(self.nums[0])
        else:
            h = hash(Fraction(self.nums[0], self.den))
        _set(self, "_hash", h)
        return h

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mag = f"z{self.n}" + (f"^{j}" if j > 1 else "")
                terms.append(mag if c == 1 else f"{c}*{mag}")
        return " + ".join(terms) if terms else "0"
