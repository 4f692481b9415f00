"""Exact arithmetic in cyclotomic fields, for the exact character tables.

A `Cyc` is an element of Q(zeta_N) stored as integer numerators over one
shared positive denominator: the numerators are the coordinates, in the power
basis 1, zeta_N, ..., zeta_N^(phi(N) - 1), of the element times the
denominator.  Numerators and denominator are kept coprime, so the stored form
is canonical for a fixed conductor.  The N-th cyclotomic polynomial Phi_N is
monic with integer coefficients, so products reduce modulo it without any
division, and every power of zeta_N has integer coordinates, so the Galois
action is an integer row sum.  Phi_N and the table of powers of zeta_N live
in `abgroup`, whose `character_sum` gives the refined character tables'
entries in the same coordinates without this module.  The two operands of
an operation must share their conductor.  Only `chartable`'s tables, which
no command reads, and the tests' oracles use `Cyc`.  All arithmetic is
exact; `complex_value` is the only lossy operation.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .abgroup import _zeta_power_basis, cyclotomic_poly

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
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero (j, coefficient) pairs of Phi_n below its leading term."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    return deg, tuple((j, f) for j, f in enumerate(phi[:deg]) if f)


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
    conductor n, so equality and hashing agree.  Adding, multiplying or
    comparing two elements of different conductors raises ValueError; an
    int or Fraction operand is taken at the element's own conductor.
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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational power-basis coordinates."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- arithmetic --------------------------------------------------------

    def _same_field(self, other: "Cyc") -> None:
        if other.n != self.n:
            raise ValueError(
                f"conductors {self.n} and {other.n} differ; Cyc does not promote")

    def _scaled(self, num: int, den: int) -> "Cyc":
        return Cyc._make(self.n, [x * num for x in self.nums], self.den * den)

    def _plus(self, other, sign: int):
        """self + sign * other for a Cyc, int or Fraction other."""
        if not isinstance(other, Cyc):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = Cyc.from_rational(other, self.n)
        self._same_field(other)
        ad, bd = self.den, other.den
        g = gcd(ad, bd)
        fa, fb = bd // g, sign * (ad // g)
        nums = [x * fa + y * fb for x, y in zip(self.nums, other.nums)]
        return Cyc._make(self.n, nums, ad * fa)

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
        self._same_field(other)
        an, bn = self.nums, other.nums
        deg = len(an)
        prod = [0] * (2 * deg - 1)
        right = [(j, y) for j, y in enumerate(bn) if y]
        for i, x in enumerate(an):
            if x:
                for j, y in right:
                    prod[i + j] += x * y
        return Cyc._make(self.n, _reduce_monic(prod, self.n),
                         self.den * other.den)

    __rmul__ = __mul__

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
        self._same_field(other)
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # a rational element equals its int or Fraction value, so it must
        # hash like that value
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
