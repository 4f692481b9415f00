"""Root data of the simple types: Cartan matrices, centers and Kac data.

Each simple type is realized on the fundamental-coweight basis.  Its center
P/Q comes from the Smith normal form of the Cartan matrix, and the extended
diagram's marks and symmetries (Kac, Infinite-dimensional Lie algebras,
ch. 6) from the highest root.  These data are the package's one statement
of each Dynkin diagram: the Weyl-orbit counts of `lattice`, the McKay graphs
of `mckay` and the S-matrices of `affine` all read them here.
Matrices are inverted exactly over the integers, as an adjugate and a
determinant.
"""

from __future__ import annotations

from functools import lru_cache

from .abgroup import AbGroup
from .bounds import MAX_RANK
from .errors import InvariantError
from .record import Record

# -- integer matrix utilities --------------------------------------------------


def _identity_matrix(r):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def _adjugate(mat):
    """(adj, det) of a nonsingular integer matrix, so that
    mat^-1 == adj / det, by fraction-free Gauss-Jordan elimination: each
    step divides by the previous pivot exactly (Bareiss), and the augmented
    block ends as det(P mat) * mat^-1 for the row swaps P."""
    r = len(mat)
    work = [list(row) + [int(i == j) for j in range(r)]
            for i, row in enumerate(mat)]
    prev, sign = 1, 1
    for col in range(r):
        pivot = next((i for i in range(col, r) if work[i][col]), None)
        if pivot is None:
            raise ValueError("the matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        top = work[col]
        p = top[col]
        for i in range(r):
            if i != col:
                row = work[i]
                f = row[col]
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return [[sign * x for x in row[r:]] for row in work], sign * prev


def _smith_normal_form(mat):
    """(U, D, U**-1) with U @ mat @ V == D in divisibility order for some V."""
    a = [list(row) for row in mat]
    r, m = len(a), len(a[0])
    U = _identity_matrix(r)
    Uinv = _identity_matrix(r)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + k * y for x, y in zip(U[dst], U[src])]
        for row in Uinv:
            row[src] -= k * row[dst]

    def add_col(src, dst, k):
        for row in a:
            row[dst] += k * row[src]

    for t in range(min(r, m)):
        while True:
            # the first entry of least absolute value, in row order
            pivot = min(((abs(a[i][j]), i, j) for i in range(t, r)
                         for j in range(t, m) if a[i][j]), default=None)
            if pivot is None:
                break
            swap_rows(t, pivot[1])
            swap_cols(t, pivot[2])
            clean = True
            for i in range(t + 1, r):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, m):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            # a unit pivot divides everything
            offender = abs(a[t][t]) > 1 and next(
                ((i, j) for i in range(t + 1, r) for j in range(t + 1, m)
                 if a[i][j] % a[t][t]),
                None)
            if not offender:
                break
            add_row(offender[0], t, 1)
        if t < min(r, m) and a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
            for row in Uinv:
                row[t] = -row[t]
    return U, a, Uinv


# -- Cartan data ----------------------------------------------------------------


class CartanData(Record):
    """A simple type on the fundamental-coweight basis.

    cartan[i][j] is the pairing of simple root i with simple coroot j.
    center_moduli/center_gens present the quotient of the coweight lattice
    by the coroot lattice with explicit lifts, and center_rows[k] reads
    coordinate k of the class of a coweight.
    """

    __slots__ = ("type", "rank", "cartan", "center_moduli", "center_gens",
                 "center_rows")

    @property
    def reflections(self) -> tuple:
        """reflections[i]: the i-th simple reflection on coweight coordinates."""
        r, C = self.rank, self.cartan
        return tuple(
            tuple(tuple(int(j == k) - (k == i) * C[j][i] for k in range(r))
                  for j in range(r))
            for i in range(r))


_EXCEPTIONAL_LINKS = {
    ("E", 6): ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5)),
    ("E", 7): ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)),
    ("E", 8): ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)),
}


def _build_cartan(letter, rank):
    C = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

    def link(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if letter in ("A", "B", "C"):
        for i in range(rank - 1):
            link(i, i + 1)
        if rank >= 2 and letter == "B":
            link(rank - 2, rank - 1, -2, -1)
        if rank >= 2 and letter == "C":
            link(rank - 2, rank - 1, -1, -2)
    elif letter == "D":
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif letter == "E":
        for i, j in _EXCEPTIONAL_LINKS[("E", rank)]:
            link(i, j)
    elif letter == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif letter == "G":
        link(0, 1, -1, -3)
    return C


_RANK_RANGES = {"A": (1, None), "B": (1, None), "C": (1, None),
                "D": (3, None), "E": (6, 8), "F": (4, 4), "G": (2, 2)}


@lru_cache(maxsize=None)
def cartan_data(letter: str, rank: int) -> CartanData:
    if letter not in _RANK_RANGES:
        raise ValueError(f"unknown type letter {letter!r}")
    lo, hi = _RANK_RANGES[letter]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"rank {rank} out of range for type {letter}")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds the largest supported rank {MAX_RANK}")
    C = _build_cartan(letter, rank)
    U, D, Uinv = _smith_normal_form(C)
    keep = [i for i in range(rank) if D[i][i] != 1]
    return CartanData(
        f"{letter}{rank}",
        rank,
        tuple(tuple(row) for row in C),
        tuple(D[i][i] for i in keep),  # center_moduli
        tuple(tuple(row[i] for row in Uinv) for i in keep),  # center_gens
        tuple(tuple(U[i]) for i in keep),  # center_rows
    )


# -- Kac coordinates -------------------------------------------------------------


@lru_cache(maxsize=None)
def _kac_data(letter: str, rank: int):
    """(marks, omega) of the extended diagram, node i > 0 being simple root
    i - 1: marks 1 and the highest root's coefficients, and omega[z][i] the
    node that the diagram symmetry of z in P/Q sends node i to."""
    c = cartan_data(letter, rank)
    C = c.cartan
    # raise a long simple root (its row has an entry below -1 at a multiple
    # bond) by simple reflections; a short one ends at the highest short root
    start = next((i for i, row in enumerate(C) if min(row) < -1), 0)
    theta = [int(j == start) for j in range(rank)]
    co = [row[start] for row in C]  # its coroot, in coweight coordinates
    while min(co) < 0:
        j = co.index(min(co))
        theta[j] -= sum(t * row[j] for t, row in zip(theta, C))
        co = [y - co[j] * row[j] for y, row in zip(co, C)]
    marks = (1, *theta)
    # a generator's symmetry moves the Kac coordinates 1..rank+1 (scaled to
    # integers) of a generic point translated by its lift and walked back
    # into the alcove by the simple reflections and the affine one
    level = sum(a * (i + 1) for i, a in enumerate(marks))
    gens = []
    for lift in c.center_gens:
        x = [i + 2 + level * g for i, g in enumerate(lift)]
        while True:
            i = x.index(min(x))
            if x[i] < 0:
                x = [y - row[i] * x[i] for y, row in zip(x, C)]
                continue
            excess = sum(a * v for a, v in zip(theta, x)) - level
            if excess <= 0:
                break
            x = [y - excess * t for y, t in zip(x, co)]
        kac = [-excess, *x]
        if sorted(kac) != list(range(1, rank + 2)):
            raise InvariantError("a diagram symmetry must permute the Kac coordinates")
        gens.append(tuple(kac.index(i + 1) for i in range(rank + 1)))
    return marks, AbGroup(c.center_moduli).action(gens, rank + 1)
