"""Finite abelian groups presented as products of cyclic factors.

Elements are integer tuples, one residue per cyclic factor.  Used for
abelianizations, centers and grading groups throughout the package.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod

from . import cyclotomic
from .record import Record


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

    def scale(self, k: int, x) -> tuple[int, ...]:
        return tuple((k * a) % d for a, d in zip(x, self.moduli))

    # -- subgroups and quotients under multiplication by an integer ---------

    def kernel_of_scaling(self, r: int) -> list[tuple[int, ...]]:
        """Elements x with r*x = 0, i.e. H^1-style kernel of r: A -> A."""
        axes = []
        for d in self.moduli:
            g = gcd(r, d)
            axes.append([(d // g) * j % d for j in range(g)])
        return [tuple(v) for v in product(*axes)]

    def quotient_by_scaling(self, r: int):
        """The quotient A / rA.

        Returns (moduli, reps, class_of) where reps are canonical coset
        representatives (componentwise smallest) and class_of maps every
        element of A to its representative.
        """
        qmod = tuple(gcd(r, d) for d in self.moduli)
        reps = [tuple(v) for v in product(*(range(g) for g in qmod))]
        class_of = {}
        for x in self.elements():
            class_of[x] = tuple(a % g for a, g in zip(x, qmod))
        return qmod, reps, class_of

    # -- characters ----------------------------------------------------------

    def pairing(self, chi, x):
        """Value of the character indexed by chi on x, as a root of unity
        (a cyclotomic.Cyc).

        chi lives in the dual group, identified with A itself via the
        standard coordinates: chi(x) = prod_i zeta_{d_i}^{chi_i * x_i}, one
        power of zeta_e for e the exponent.
        """
        e = self.exponent
        return cyclotomic.Cyc.zeta(e, sum(
            c * a % d * (e // d) for c, a, d in zip(chi, x, self.moduli)))

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

    # -- homomorphisms -------------------------------------------------------

    def homomorphisms_to(self, other: "AbGroup") -> list[dict]:
        """All group homomorphisms A -> B, each as an element map."""
        gens = []
        for i, d in enumerate(self.moduli):
            e = [0] * len(self.moduli)
            e[i] = 1
            gens.append((tuple(e), d))
        homs = []
        targets = other.elements()
        for images in product(targets, repeat=len(gens)):
            if any(other.scale(d, y) != other.identity for (_, d), y in zip(gens, images)):
                continue
            table = {}
            for x in self.elements():
                acc = other.identity
                for xi, y in zip(x, images):
                    acc = other.add(acc, other.scale(xi, y))
                table[x] = acc
            homs.append(table)
        return homs

    def isomorphisms_to(self, other: "AbGroup") -> list[dict]:
        if self.order != other.order:
            return []
        out = []
        for h in self.homomorphisms_to(other):
            if len(set(h.values())) == self.order:
                out.append(h)
        return out
