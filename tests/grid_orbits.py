"""The grid oracle: Weyl orbits on the torus grid, listed point by point.

The library counts Weyl orbits on (1/n)M*/M* from Kac coordinates, one
Burnside kernel table per side (dualcount.lattice.weyl_orbit_count and
_fixed_orbits), and never walks a grid.  Here the n**rank points of the
grid are split into orbits by breadth-first closure under the reflections,
or the fixed points of an explicitly enumerated Weyl group are averaged,
and the tests compare those counts with the Kac route.
"""

from itertools import product

from dualcount.abgroup import AbGroup
from dualcount.errors import InvariantError
from dualcount.lattice import (LatticeQuotient, _center_grading, _lattice_basis,
                               _mat_mul, cartan_data, lattice_quotient)
from dualcount.record import Record
from dualcount.rootdata import _identity_matrix, _smith_normal_form
from rep_routes import kernel_of_scaling


def _mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def orbits(generators, moduli, order=None):
    """Orbits on the grid as sorted point lists, by breadth-first closure.

    order optionally permutes the seed sequence; the partition (and hence
    everything derived from it) must not depend on it.
    """
    pts = list(product(*[range(m) for m in moduli]))
    if order is not None:
        pts = [pts[i] for i in order]
    r = len(moduli)
    seen = set()
    out = []
    for p in pts:
        if p in seen:
            continue
        seen.add(p)
        stack = [p]
        orbit = [p]
        while stack:
            q = stack.pop()
            for S in generators:
                im = tuple(
                    sum(S[j][k] * q[k] for k in range(r)) % moduli[j]
                    for j in range(r))
                if im not in seen:
                    seen.add(im)
                    stack.append(im)
                    orbit.append(im)
        out.append(tuple(sorted(orbit)))
    return sorted(out)


def grid_count(c, choice: str, n: int) -> int:
    """Number of Weyl orbits on the grid (1/n)M*/M*."""
    q = lattice_quotient(c, choice, n)
    return len(orbits(q.generators, q.moduli))


def weyl_orbit_count_burnside(c, choice: str, n: int) -> int:
    """Average fixed points over the explicit Weyl group."""
    if c.rank > 3:
        raise ValueError("explicit Weyl enumeration is limited to rank <= 3")
    q = lattice_quotient(c, choice, n)
    group = {tuple(map(tuple, _identity_matrix(c.rank)))}
    frontier = list(group)
    while frontier:
        nxt = []
        for w in frontier:
            for S in q.generators:
                prod_ = tuple(
                    tuple(sum(S[i][k] * w[k][j] for k in range(c.rank)) % n
                          for j in range(c.rank))
                    for i in range(c.rank))
                if prod_ not in group:
                    group.add(prod_)
                    nxt.append(prod_)
        frontier = nxt
    total = 0
    points = list(q.points())
    for w in group:
        total += sum(
            1 for p in points
            if all(
                sum(w[j][k] * p[k] for k in range(c.rank)) % n == p[j]
                for j in range(c.rank)))
    if total % len(group):
        raise InvariantError("the fixed points must average to a whole number")
    return total // len(group)


def symmetric_orbit_count(k: int, n: int) -> int:
    """Orbits of coordinate permutations on (Z/n)^k: the U(k) count."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    gens = []
    for i in range(k - 1):
        S = _identity_matrix(k)
        S[i], S[i + 1] = S[i + 1], S[i]
        gens.append(tuple(tuple(row) for row in S))
    return len(orbits(tuple(gens), (n,) * k))


class GradedOrbitSet(Record):
    """Grid Weyl orbits, their N*/M*-grades and the translations of the
    n-torsion of N*/M*, keyed by its elements."""

    __slots__ = ("quotient", "orbits", "grades", "translations")


def graded_orbits(letter: str, rank: int, sublattice: str, n: int,
                  order=None) -> GradedOrbitSet:
    """Weyl orbits on the grid (1/n)N*/M*, as N*/nM* in Smith coordinates,
    each graded by its class in Z = N*/M*."""
    if n < 1:
        raise ValueError("modulus must be positive")
    c = cartan_data(letter, rank)
    zmods, zrows, zgens, _ = _center_grading(c, sublattice)
    scaled = [[n * x for x in row] for row in _lattice_basis(c, sublattice)]
    U2, D2, u2inv = _smith_normal_form(scaled)
    xmods = tuple(D2[i][i] for i in range(rank))
    gens = []
    for S in c.reflections:
        M = _mat_mul(_mat_mul(U2, S), u2inv)
        if any(M[j][k] * xmods[k] % xmods[j]
               for j in range(rank) for k in range(rank)):
            raise InvariantError("the Weyl group must act on the grid")
        gens.append(tuple(tuple(row) for row in M))
    found = orbits(gens, xmods, order=order)
    grade_rows = _mat_mul(zrows, u2inv)
    grades = []
    for orbit in found:
        gs = {tuple(x % d for x, d in zip(_mat_vec(grade_rows, p), zmods))
              for p in orbit}
        if len(gs) != 1:
            raise InvariantError("the grading must be Weyl-invariant")
        grades.append(gs.pop())
    translations = {}
    for a in kernel_of_scaling(AbGroup(zmods), n):
        # a lifts to the coweight sum_i a_i * gen_i
        lift = [sum(x * gen[j] for x, gen in zip(a, zgens)) for j in range(rank)]
        translations[a] = tuple(
            v % m for v, m in zip(_mat_vec(U2, [n * x for x in lift]), xmods))
    quotient = LatticeQuotient(c.type, sublattice, n, xmods, tuple(gens))
    return GradedOrbitSet(quotient, tuple(found), tuple(grades), translations)


def grid_refined_counts(c, sublattice: str, n: int) -> dict:
    """For each n-torsion element a of Z = N*/M*, the grid's Weyl orbits of
    each grade that the translation by a fixes: what
    `lattice.refined_zn_characters` reads from the Kac route."""
    graded = graded_orbits(c.type[0], c.rank, sublattice, n)
    orbit_of = {p: idx for idx, orbit in enumerate(graded.orbits) for p in orbit}
    zgroup = AbGroup(_center_grading(c, sublattice)[0])
    counts = {}
    for a, t in graded.translations.items():
        counts[a] = dict.fromkeys(zgroup.elements(), 0)
        for idx, orbit in enumerate(graded.orbits):
            moved = tuple((a + b) % m
                          for a, b, m in zip(orbit[0], t, graded.quotient.moduli))
            counts[a][graded.grades[idx]] += orbit_of[moved] == idx
    return counts
