"""Root-system lattices, Weyl orbits modulo n, and refined center gradings.

Each simple type is realized on the fundamental-coweight basis of
`rootdata`, and the lattices M* between the coroots Q and the coweights P
are given by integer basis matrices.  The Weyl orbits on (1/n)M*/M* are the
points of the alcove at level n, compositions of n weighted by the marks of
the extended diagram with grade in M*/Q, up to the diagram symmetries of
M*/Q (Djokovic, Proc. AMS 80 (1980)); the counts of every level up to n are one
`counting.orbit_composition_rows` table, the Burnside average over M*/Q
acting on the extended diagram's nodes, so a sweep over the modulus builds
one table per side.  The refined variant grades (1/n)P/M* by Z = P/M* and
packages the result with `refined.FRepCharacter.at_size`, the one
constructor of every size-n table, which checks that the counts repeat
along the nZ-cosets; it is the character-table type of the direct
constraint enumeration, so the two routes can be compared point for point.
The orbits on the torus grids of n**rank points are the tests' oracle; of
the grid, only `lattice_quotient` and what it builds stay here, because the
benchmark's tracer wraps it by name.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from math import prod

from . import refined
from .abgroup import AbGroup
from .counting import orbit_composition_rows
from .errors import InvariantError
from .record import Record
from .rootdata import (CartanData, _adjugate, _identity_matrix, _kac_data,
                       _smith_normal_form, cartan_data)

__all__ = [
    "MAX_ZN_CELLS",
    "CartanData",
    "LatticeQuotient",
    "cartan_data",
    "lattice_quotient",
    "weyl_orbit_count",
    "refined_zn_characters",
    "dual_pairs",
    "zn_duality_row",
    "zn_sweep_cells",
]

# Bound on one zn-lattice sweep, checked before any orbit is counted; see
# zn_sweep_cells.  The bound admits the default rank 4 up to the --max-n
# bound cli.MAX_N (3.0e10 estimated cells) and rank 100 up to n = 143, and
# refuses a sweep that grows past both, such as rank 100 to n = 10000
# (1.9e14 cells).  The estimate is quadratic in the modulus, but a sweep
# builds one table per side, so its cost is linear: on a 2-CPU machine
# `verify zn-lattice --max-n 10000` takes 2.0 s, SU(101)/PU(101) to
# n = 1979, the largest the bound admits, 1.4 s, and --max-rank 8 to
# n = 2000 1.2 s.  The Kac data of each pair come on top, once per pair;
# bounds.MAX_RANK gives their cost.
MAX_ZN_CELLS = 4 * 10 ** 10


# -- integer matrix utilities --------------------------------------------------


def _mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


# -- lattice choices --------------------------------------------------------------


def _lattice_basis(c: CartanData, choice: str):
    """Basis of the chosen intermediate lattice, columns in coweight coords.

    "adj" is the full coweight lattice, "sc" the coroot lattice; for type D,
    "so" adds the vector class and "hs+"/"hs-" the two spinor classes.
    """
    r = c.rank
    if choice == "adj":
        return _identity_matrix(r)
    if choice == "sc":
        return [list(row) for row in c.cartan]
    letter = c.type[0]
    if letter == "D" and choice in ("so", "hs+", "hs-"):
        if choice == "so":
            extra = [int(j == 0) for j in range(r)]
        else:
            if r % 2:
                raise ValueError(
                    f"half-spin lattices need even rank, got {c.type}")
            node = r - 1 if choice == "hs+" else r - 2
            extra = [int(j == node) for j in range(r)]
        span = [list(row) + [extra[i]] for i, row in enumerate(c.cartan)]
        _, D, Uinv = _smith_normal_form(span)
        return _mat_mul(Uinv, [row[:r] for row in D])
    raise ValueError(f"unknown lattice choice {choice!r} for type {c.type}")


def _basis_reflections(c: CartanData, basis):
    adj, det = _adjugate(basis)
    out = []
    for S in c.reflections:
        M = _mat_mul(_mat_mul(adj, S), basis)
        if any(x % det for row in M for x in row):
            raise InvariantError("the Weyl group must preserve the lattice")
        out.append(tuple(tuple(x // det for x in row) for row in M))
    return out


class LatticeQuotient(Record):
    """(Z/moduli)^rank with the Weyl generators reduced to integer matrices."""

    __slots__ = ("type", "lattice", "n", "moduli", "generators")

    def points(self):
        return product(*[range(m) for m in self.moduli])

    def size(self) -> int:
        return prod(self.moduli)


def lattice_quotient(c: CartanData, choice: str, n: int) -> LatticeQuotient:
    """The grid (1/n)M*/M* with its Weyl generators; the tests' oracle."""
    if n < 1:
        raise ValueError("modulus must be positive")
    gens = _basis_reflections(c, _lattice_basis(c, choice))
    reduced = tuple(
        tuple(tuple(x % n for x in row) for row in S) for S in gens)
    return LatticeQuotient(c.type, choice, n, (n,) * c.rank, reduced)


# -- orbit counting ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _center_grading(c: CartanData, choice: str):
    """Z = P/M*: its moduli, the rows reading the class in Z of a coweight,
    lifts of its generators, and M*/Q as the classes in P/Q over 0 in Z."""
    U, D, Uinv = _smith_normal_form(_lattice_basis(c, choice))
    keep = [i for i in range(c.rank) if D[i][i] != 1]
    zmods = tuple(D[i][i] for i in keep)
    zrows = [U[i] for i in keep]
    sub = [g for g in AbGroup(c.center_moduli).elements()
           if not any(sum(x * row[j] * gen[j] for x, gen in zip(g, c.center_gens)
                          for j in range(c.rank)) % d
                      for row, d in zip(zrows, zmods))]
    return zmods, zrows, [[row[i] for row in Uinv] for i in keep], sub


def _fixed_orbit_rows(c: CartanData, n: int, choice: str, shift,
                      start: int) -> list:
    """Rows start..n, each listing per grade in Z = P/M* (in the order of
    its elements, grade 0 first) the Weyl orbits on (1/k)P/M* at level k
    fixed by the translation by a coweight of class shift in P/Q: the
    level-k Kac points up to the symmetries of H = M*/Q, on which the
    translation is the symmetry of shift, so Burnside on the coset shift + H
    averages the points fixed by shift + h, the compositions constant on its
    cycles."""
    if n < 1:
        raise ValueError("modulus must be positive")
    zmods, zrows, _, sub = _center_grading(c, choice)
    marks, omega = _kac_data(c.type[0], c.rank)
    zgroup = AbGroup(zmods)
    # node 0 is the affine node, of grade 0; node i > 0 is simple root i - 1
    slots = [(marks[0], zgroup.identity)] + [
        (a, tuple(row[i] % d for row, d in zip(zrows, zmods)))
        for i, a in enumerate(marks[1:])]
    center = AbGroup(c.center_moduli)
    perms = [omega[center.add(shift, h)] for h in sub]
    return orbit_composition_rows(slots, zgroup, n, perms, len(sub), start)


def _fixed_orbits(c: CartanData, n: int, choice: str, shift) -> dict:
    """Row n of `_fixed_orbit_rows`, as a map from each grade to its count."""
    row, = _fixed_orbit_rows(c, n, choice, shift, n)
    return dict(zip(AbGroup(_center_grading(c, choice)[0]).elements(), row))


# Grade-0 orbit counts per (type, lattice) for every modulus 0..top, top the
# largest modulus asked so far.  A table to n holds every smaller modulus, so
# a sweep that asks its largest modulus first runs the kernel once per side;
# a larger modulus builds the table again.
_ORBIT_COUNTS: dict = {}


def weyl_orbit_count(c: CartanData, lattice: str, n: int) -> int:
    """Number of Weyl orbits on (1/n)M*/M* for the chosen lattice M*: the
    level-n Kac points of grade in M*/Q, up to the symmetries of M*/Q."""
    if n < 1:
        raise ValueError("modulus must be positive")
    counts = _ORBIT_COUNTS.get((c.type, lattice), ())
    if n >= len(counts):
        rows = _fixed_orbit_rows(c, n, lattice, (0,) * len(c.center_moduli), 0)
        counts = _ORBIT_COUNTS[(c.type, lattice)] = [row[0] for row in rows]
    return counts[n]


# -- refined center grading ----------------------------------------------------------


def refined_zn_characters(letter: str, rank: int, sublattice: str, n: int):
    """Character table of the translation/grading action on Weyl orbit sums,
    as a `refined.FRepCharacter`.

    Z = N*/M* (N* the coweight lattice) grades the points of (1/n)N*/M*;
    elements of Ker(n: Z -> Z) act by translation, characters of Z/nZ by the
    pairing scalar on the grade.  `refined.FRepCharacter.at_size` lays the
    table out and checks that the counts repeat along the nZ-cosets.
    """
    c = cartan_data(letter, rank)
    zmods, _, zgens, _ = _center_grading(c, sublattice)

    def fixed(a):
        # the translation by a coweight lift of a, read as its class in P/Q
        lift = [sum(x * gen[j] for x, gen in zip(a, zgens))
                for j in range(c.rank)]
        return _fixed_orbits(c, n, sublattice, tuple(
            sum(x * y for x, y in zip(row, lift)) % d
            for row, d in zip(c.center_rows, c.center_moduli)))

    return refined.FRepCharacter.at_size(zmods, n, fixed)


# -- dual-pair catalog ---------------------------------------------------------------


_FIXED_LABELS = {
    "G2": ("G", 2, "sc"),
    "F4": ("F", 4, "sc"),
    "E6": ("E", 6, "sc"),
    "E6adj": ("E", 6, "adj"),
    "E7": ("E", 7, "sc"),
    "E7adj": ("E", 7, "adj"),
    "E8": ("E", 8, "sc"),
}

_LABEL_RE = re.compile(r"(SU|PU|Sp|PSp|SO|Spin|PSO|Ss'|Ss)\((\d+)\)")


def _parse_group_label(label: str):
    label = label.strip()
    if label in _FIXED_LABELS:
        return _FIXED_LABELS[label]
    m = _LABEL_RE.fullmatch(label)
    if not m:
        raise ValueError(f"unrecognized group label {label!r}")
    kind, size = m.group(1), int(m.group(2))
    if kind == "SU" and size >= 2:
        return ("A", size - 1, "sc")
    if kind == "PU" and size >= 2:
        return ("A", size - 1, "adj")
    if kind == "Sp" and size >= 1:
        return ("C", size, "sc")
    if kind == "PSp" and size >= 1:
        return ("C", size, "adj")
    if kind == "SO" and size % 2 and size >= 3:
        return ("B", (size - 1) // 2, "adj")
    if kind == "Spin" and size % 2 and size >= 3:
        return ("B", (size - 1) // 2, "sc")
    if kind == "SO" and size % 2 == 0 and size >= 6:
        return ("D", size // 2, "so")
    if kind == "Spin" and size % 2 == 0 and size >= 6:
        return ("D", size // 2, "sc")
    if kind == "PSO" and size % 2 == 0 and size >= 6:
        return ("D", size // 2, "adj")
    if kind in ("Ss", "Ss'") and size % 4 == 0 and size >= 8:
        return ("D", size // 2, "hs+" if kind == "Ss" else "hs-")
    raise ValueError(f"unrecognized group label {label!r}")


def _dual_descriptor(side):
    letter, rank, choice = side
    if letter == "A":
        return ("A", rank, "adj" if choice == "sc" else "sc")
    if letter == "B":
        return ("C", rank, "adj" if choice == "sc" else "sc")
    if letter == "C":
        return ("B", rank, "adj" if choice == "sc" else "sc")
    if letter == "D":
        if choice in ("sc", "adj"):
            return ("D", rank, "adj" if choice == "sc" else "sc")
        if choice == "so":
            return side
        if choice in ("hs+", "hs-"):
            if rank % 4 == 0:
                return side
            return ("D", rank, "hs-" if choice == "hs+" else "hs+")
    if letter in ("G", "F") or (letter == "E" and rank == 8):
        return side
    if letter == "E":
        return ("E", rank, "adj" if choice == "sc" else "sc")
    raise ValueError(f"no dual known for {side}")


def dual_pairs(max_rank: int = 8) -> tuple:
    """Catalog of Langlands dual pairs up to the given rank, as name strings."""
    names = []
    for rank in range(1, max_rank + 1):
        names.append(f"SU({rank + 1})/PU({rank + 1})")
        names.append(f"Sp({rank})/SO({2 * rank + 1})")
        names.append(f"Spin({2 * rank + 1})/PSp({rank})")
    for rank in range(3, max_rank + 1):
        names.append(f"SO({2 * rank})/SO({2 * rank})")
        names.append(f"Spin({2 * rank})/PSO({2 * rank})")
        if rank % 2 == 0:
            if rank % 4 == 0:
                names.append(f"Ss({2 * rank})/Ss({2 * rank})")
            else:
                names.append(f"Ss({2 * rank})/Ss'({2 * rank})")
    for name, (_, rank, _) in _FIXED_LABELS.items():
        if rank <= max_rank and name in ("G2", "F4", "E8"):
            names.append(name)
    if max_rank >= 6:
        names.append("E6/E6adj")
    if max_rank >= 7:
        names.append("E7/E7adj")
    return tuple(names)


def zn_sweep(pair: str | None, max_rank: int | None) -> tuple:
    """The pairs of a zn-lattice run: the one pair given, or else every dual
    pair to max_rank, 4 when it is None."""
    return (pair,) if pair else dual_pairs(max_rank if max_rank is not None else 4)


def _pair_sides(pair):
    if isinstance(pair, str):
        labels = pair.split("/") if "/" in pair else [pair, pair]
    else:
        labels = list(pair)
    if len(labels) != 2:
        raise ValueError(f"cannot read dual pair from {pair!r}")
    left = _parse_group_label(labels[0])
    right = _parse_group_label(labels[1])
    if _dual_descriptor(left) != right:
        raise ValueError(f"{labels[0]} and {labels[1]} are not Langlands dual")
    return left, right


def zn_sweep_cells(pairs, max_n: int) -> int:
    """Estimated kernel cells of zn_duality_row for each pair at n = 1..max_n,
    counted as if each modulus built its own tables.

    Each side of a rank-r pair at modulus n runs the composition kernel on at
    most r + 1 slots over n rows, and its fixed-point sectors and grades
    number at most r + 1 together, so it costs at most (r + 1)**2 * n cells.
    A sweep builds each side's table once, to max_n, so this sum over n
    overstates its cost by about a factor max_n / 2; MAX_ZN_CELLS is still
    set against it.
    """
    ranks = [_pair_sides(pair)[0][1] for pair in pairs]
    return sum((r + 1) ** 2 for r in ranks) * max_n * (max_n + 1)


def zn_duality_row(pair, n: int) -> dict:
    left, right = _pair_sides(pair)
    cl = weyl_orbit_count(cartan_data(left[0], left[1]), left[2], n)
    cr = (cl if right == left
          else weyl_orbit_count(cartan_data(right[0], right[1]), right[2], n))
    name = pair if isinstance(pair, str) else "/".join(pair)
    return {"pair": name, "n": n, "left": cl, "right": cr, "equal": cl == cr}
