"""Finite abelian groups presented as products of cyclic factors.

Elements are integer tuples, one residue per cyclic factor.  Used for
abelianizations, centers and grading groups throughout the package.

A character of A takes its values in the e-th roots of unity, e the
exponent, so `pairing` gives each value as its power of zeta_e, and
`character_sum` gives a sum of counts weighted by one character's values as
integer coordinates in the power basis 1, zeta_e, ..., zeta_e^(phi(e) - 1):
the sum reduced modulo the cyclotomic polynomial Phi_e.  Those coordinates
are canonical, so two sums are equal exactly when their coordinates are, and
no cyclotomic field arithmetic is needed to compare them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, prod

from .errors import InvariantError
from .record import Record

# conductors whose zeta power table stays cached; each table holds
# N x phi(N) integers, and a process touches a handful of conductors
POWER_BASIS_CACHE = 64


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


class AbGroup(Record):
    """Z_{d1} x ... x Z_{dk}; moduli () gives the trivial group."""

    __slots__ = ("moduli",)

    def __init__(self, moduli: tuple[int, ...]):
        if any(d < 1 for d in moduli):
            raise ValueError("moduli must be positive")
        super().__init__(moduli)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    @property
    def exponent(self) -> int:
        e = 1
        for d in self.moduli:
            e = e * d // gcd(e, d)
        return e

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(*(range(d) for d in self.moduli)))

    def reduce(self, x) -> tuple[int, ...]:
        return tuple(v % d for v, d in zip(x, self.moduli))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.moduli))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(x, self.moduli))

    # -- characters ----------------------------------------------------------

    def pairing(self, chi, x) -> int:
        """The exponent k in 0..e-1 with chi(x) = zeta_e^k, e the exponent,
        for the character indexed by chi.

        chi lives in the dual group, identified with A itself via the
        standard coordinates: chi(x) = prod_i zeta_{d_i}^{chi_i * x_i}.
        """
        e = self.exponent
        return sum(c * a % d * (e // d)
                   for c, a, d in zip(chi, x, self.moduli)) % e

    def character_sum(self, chi, counts: dict) -> tuple[int, ...]:
        """sum_w chi(w) * counts[w], for integer counts per element w, as its
        integer coordinates in the power basis of Q(zeta_e) modulo Phi_e."""
        rows = _zeta_power_basis(self.exponent)
        out = [0] * len(rows[0])
        for w, c in counts.items():
            if c:
                for t, r in enumerate(rows[self.pairing(chi, w)]):
                    out[t] += c * r
        return tuple(out)

    # -- actions -------------------------------------------------------------

    def action(self, generator_perms, size: int) -> dict:
        """Permutation of range(size) for every element, from an action whose
        generators (one per cyclic factor) act by generator_perms: each
        element's permutation is composed from the generators' powers."""
        table = {}
        for x in self.elements():
            perm = tuple(range(size))
            for gen, power in zip(generator_perms, x):
                for _ in range(power):
                    perm = tuple(gen[j] for j in perm)
            table[x] = perm
        return table
