"""Exact arithmetic in cyclotomic fields.

A `Cyc` is an element of Q(zeta_N) stored as a Fraction-coefficient polynomial
in zeta_N, reduced modulo the N-th cyclotomic polynomial.  All arithmetic is
exact; `complex_value` is the only lossy operation.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InvariantError


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Exact division with remainder in Q[x]; den need not be monic."""
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / lead
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return _poly_trim(q), _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    # x^n - 1 divided by Phi_d for every proper divisor d of n
    p = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            p, rem = _poly_divmod(p, list(cyclotomic_poly(d)))
            if rem:
                raise InvariantError(f"Phi_{d} must divide x^{n} - 1")
    return tuple(p)


@lru_cache(maxsize=None)
def _zeta_power_basis(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_n^j for j in 0..n-1, each reduced to the power basis of Q(zeta_n)."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(n):
        rows.append(tuple(cur))
        # multiply by x, reduce mod Phi_n (monic)
        nxt = [Fraction(0)] + cur
        if len(nxt) > deg:
            c = nxt.pop()
            for k in range(deg):
                nxt[k] -= c * phi[k]
        cur = nxt + [Fraction(0)] * (deg - len(nxt))
    return tuple(rows)


class Cyc:
    """An element of Q(zeta_n), immutable and hashable.

    The coefficient vector is canonical for a fixed conductor n, so equality
    and hashing are consistent within one conductor.  Equality across
    conductors promotes both sides, but hashes are only guaranteed to agree
    across conductors for rational values; keep any hashed collection of Cyc
    values at a single conductor.
    """

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, n: int, coeffs):
        deg = len(cyclotomic_poly(n)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError("coefficient vector longer than field degree")
        cs += [Fraction(0)] * (deg - len(cs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        """zeta_n^k."""
        row = _zeta_power_basis(n)[k % n]
        return Cyc(n, row)

    @staticmethod
    def from_rational(value, n: int = 1) -> "Cyc":
        return Cyc(n, [Fraction(value)])

    def promoted(self, m: int) -> "Cyc":
        """The same element viewed in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot promote conductor {self.n} to {m}")
        step = m // self.n
        out = Cyc(m, [0])
        for j, c in enumerate(self.coeffs):
            if c:
                out = out + Cyc.zeta(m, j * step)._scaled(c)
        return out

    def _scaled(self, f: Fraction) -> "Cyc":
        return Cyc(self.n, [c * f for c in self.coeffs])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.n == self.n:
                return self, other
            m = self.n * other.n // gcd(self.n, other.n)
            return self.promoted(m), other.promoted(m)
        if isinstance(other, (int, Fraction)):
            return self, Cyc(self.n, [Fraction(other)])
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Cyc(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(Fraction(-1))

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Cyc(a.n, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        deg = len(a.coeffs)
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        # reduce mod Phi_n
        phi = list(cyclotomic_poly(a.n))
        _, rem = _poly_divmod(prod, phi)
        return Cyc(a.n, rem)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # gcd(self, Phi_n) = 1 in Q[x]; track the Bezout coefficient of self
        r0, r1 = list(cyclotomic_poly(self.n)), _poly_trim(list(self.coeffs))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qc in enumerate(q):
                for j, sc in enumerate(s1):
                    s[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        c = r1[0]
        return Cyc(self.n, [x / c for x in s1])

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc(self.n, [1])
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
        if gcd(k % self.n, self.n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        powers = _zeta_power_basis(self.n)
        out = [Fraction(0)] * len(self.coeffs)
        for j, c in enumerate(self.coeffs):
            if c:
                row = powers[(j * k) % self.n]
                for t, r in enumerate(row):
                    out[t] += c * r
        return Cyc(self.n, out)

    def conjugate(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(self.n - 1) if self.n > 1 else self

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def integer(self) -> int:
        r = self.rational()
        if r.denominator != 1:
            raise ValueError(f"{self!r} is not an integer")
        return r.numerator

    def complex_value(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(float(c) * z**j for j, c in enumerate(self.coeffs))

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc(self.n, [Fraction(other)])
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._coerce(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self._hash is None:
            # hash in a conductor-independent way: rational elements must hash
            # like their Fraction value
            if self.is_rational():
                h = hash(self.coeffs[0])
            else:
                h = hash((self.n, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return self._hash

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
