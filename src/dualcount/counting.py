"""Exact counting of homomorphism classes into compact classical targets.

A homomorphism from a finite subgroup of SU(2) into U(n), SU(n), Sp(n),
O(2n+1), ... is a direct sum of irreducibles, so its class is a multiplicity
vector subject to target-specific constraints: nothing for U; trivial
determinant for SU; even multiplicity on strictly real summands and matched
conjugate pairs for Sp; even multiplicity on pseudoreal summands for O; the
determinant condition again for SO.  Each constraint set is a list of free
slots, each with a dimension weight w and a grade g in a finite abelian group
(the determinant, or a sector congruence), so every count is one coefficient
of prod_i 1/(1 - t^(w_i) x^(g_i)).  The dynamic-programming kernel
`composition_rows` fills the coefficients of every size up to a bound in
slots x size x |grading group| steps without listing a single vector, so one
table serves every n up to it: `count_table` gives N(g, family(n)) for
n = 0..max_n from one kernel table per group and family, and `count_homs`
reads its last entry.  Counts up to a symmetry (PU here, the Ohat sectors
and finite character tables of `refined`, the Weyl orbits of `lattice`) run
the same kernel on collapsed slots: a composition that a permutation of the
slots fixes is constant on each cycle, so `_fixed_slots` makes each cycle
one slot, and
`orbit_composition_rows` averages those fixed counts over a group of slot
permutations (Burnside), checking every size.  Only character data enters,
no Lie-theoretic input; closed-form series live in a separate module
precisely so the two routes stay independent checks of each other.

Spin(2n+1) and PSp(n) counts read the two-torsion refinement: for Ohat its
sectors, one list per family with both sectors per n, which `refined` holds
with the finite character tables (each size-n table built and checked by
`refined.FRepCharacter.at_size`) and the swap report, and for Z:m the Weyl
orbits of `lattice`.
"""

from __future__ import annotations

from math import gcd, prod

from . import lattice, refined
from .abgroup import AbGroup
from .errors import InvariantError, NotCoveredError
from .grouprep import (
    COMPLEX,
    CYCLIC,
    ICOSAHEDRAL,
    OCTAHEDRAL,
    PSEUDOREAL,
    REAL,
    TETRAHEDRAL,
    GroupSpec,
    abelianization,
    irreps,
    onedim_permutations,
)
from .record import Record

TARGET_FAMILIES = ("U", "SU", "PU", "Sp", "O_odd", "SO_odd", "Spin_odd", "PSp")

# the Langlands dual pairs of target families whose counts verify duality
# compares, by the name of its --pair
DUALITY_PAIRS = {
    "sp-so": ("Sp", "SO_odd"),
    "su-pu": ("SU", "PU"),
    "psp-spin": ("PSp", "Spin_odd"),
}


class Target(Record):
    """A target group family with its size parameter.

    For the odd orthogonal families the matrix size is 2n + 1; for the
    unitary families it is n; for Sp and PSp, n is the quaternionic rank.
    """

    __slots__ = ("family", "n")

    def __init__(self, family: str, n: int):
        if family not in TARGET_FAMILIES:
            raise ValueError(
                f"unknown target family {family!r}; choose from {TARGET_FAMILIES}")
        if not isinstance(n, int) or n < 0:
            raise ValueError("target size must be a nonnegative integer")
        super().__init__(family, n)


def composition_rows(slots, group: AbGroup, total: int) -> list:
    """Coefficients of t**0 .. t**total in prod_i 1/(1 - t**w_i * x**g_i).

    slots is a sequence of (w_i, g_i) pairs: a positive integer weight and
    an element of the finite abelian group.  Row t lists, for every element
    of group.elements() in that order (the identity first), the number of
    nonnegative integer vectors v with sum(v_i * w_i) == t and
    sum(v_i * g_i) equal to that element.  Every slot is one forward pass
    over the rows, so the cost is len(slots) * total * group.order cells,
    and a table to total holds the table to every smaller total as its
    prefix.
    """
    els = group.elements()
    index = {e: k for k, e in enumerate(els)}
    rows = [[0] * len(els) for _ in range(total + 1)]
    rows[0][index[group.identity]] = 1
    for weight, grade in slots:
        minus = group.neg(grade)
        source = [index[group.add(e, minus)] for e in els]
        for t in range(weight, total + 1):
            prev = rows[t - weight]
            rows[t] = [x + prev[j] for x, j in zip(rows[t], source)]
    return rows


_UNGRADED = AbGroup(())


def _weight_rows(weights, total) -> list:
    """Per t = 0..total, the nonnegative integer vectors v with
    sum(v[i] * weights[i]) == t."""
    rows = composition_rows([(w, ()) for w in weights], _UNGRADED, total)
    return [row[0] for row in rows]


def _fixed_slots(slots, perm, group: AbGroup) -> list:
    """Slots whose compositions are those of slots that perm fixes.

    A fixed composition is constant on each cycle of perm, so each cycle
    becomes one slot carrying the cycle's summed weight and grade; a 1-cycle
    keeps its slot unchanged.
    """
    out = []
    seen = [False] * len(slots)
    for start, slot in enumerate(slots):
        if seen[start]:
            continue
        seen[start] = True
        j = perm[start]
        if j == start:
            out.append(slot)
            continue
        weight, grades = slot[0], [slot[1]]
        while not seen[j]:
            seen[j] = True
            weight += slots[j][0]
            grades.append(slots[j][1])
            j = perm[j]
        out.append((weight, group.reduce(map(sum, zip(*grades)))))
    return out


def orbit_composition_rows(slots, group: AbGroup, total: int, perms,
                           order: int, start: int = 0) -> list:
    """Rows start..total of `composition_rows`, counted up to a group of slot
    permutations that keep every weight and grade.

    perms lists the group's permutations of range(len(slots)), one per
    element, and order is the group's order, which the caller knows: by
    Burnside the orbits are the fixed counts summed over the group, divided
    by its order.  A sum that order does not divide, in any returned row,
    raises InvariantError.
    """
    sums = [[0] * group.order for _ in range(start, total + 1)]
    for perm in perms:
        fixed = composition_rows(_fixed_slots(slots, perm, group), group, total)
        sums = [[a + b for a, b in zip(acc, row)]
                for acc, row in zip(sums, fixed[start:])]
    for row in sums:
        if any(v % order for v in row):
            raise InvariantError(f"a Burnside sum in {sorted(row)} is not a "
                                 f"multiple of the group order {order}")
    return [[v // order for v in row] for row in sums]


# -- constraint slots ----------------------------------------------------------
#
# A "slot" is one free coordinate of the constrained solution set: a strictly
# real irreducible counted in steps of two for symplectic targets, a matched
# conjugate pair counted once, and so on.  Building symplectic and orthogonal
# slots from the (dim, reality, partner) data keeps one rule serving both the
# standard and the twisted irreducibles, and `_slot_grade` is the one rule
# that grades a slot, by the determinant or by a sector congruence.


class _Slot(Record):
    # names: the irreps it raises; step: the multiplicity it adds to each
    # per unit; weight: the dimension it adds per unit
    __slots__ = ("names", "step", "weight")


def _slot_grade(slot: _Slot, grade_of, group: AbGroup):
    """The grade in group that one unit of slot adds: step times the sum of
    grade_of[name] over the irreps it raises."""
    summed = map(sum, zip(*(grade_of[name] for name in slot.names)))
    return group.reduce(slot.step * x for x in summed)


def _build_slots(infos, even_reality: str):
    """Slots for one quadratic structure, standard or twisted irreps alike.

    even_reality is the reality type forced to even multiplicity (REAL for
    symplectic targets, PSEUDOREAL for orthogonal ones); the opposite type is
    free and conjugate pairs are matched.  A slot carries no grade: a caller
    that grades it reads `_slot_grade`.
    """
    slots = []
    seen = set()
    for info in infos:
        if info.name in seen:
            continue
        if info.reality == COMPLEX:
            partner = next(i for i in infos if i.name == info.partner)
            seen.add(partner.name)
            slots.append(_Slot((info.name, partner.name), 1,
                               info.dim + partner.dim))
        elif info.reality == even_reality:
            slots.append(_Slot((info.name,), 2, 2 * info.dim))
        else:
            slots.append(_Slot((info.name,), 1, info.dim))
    return tuple(slots)


def _symplectic_slots(g: GroupSpec):
    return _build_slots(irreps(g), REAL)


def _orthogonal_slots(g: GroupSpec):
    return _build_slots(irreps(g), PSEUDOREAL)


def _pu_rows(g: GroupSpec, max_n: int) -> list:
    # Burnside over the character group acting on unitary solutions by
    # tensoring, which permutes the irreps
    slots = [(info.dim, ()) for info in irreps(g)]
    rows = orbit_composition_rows(slots, _UNGRADED, max_n,
                                  onedim_permutations(g).values(),
                                  abelianization(g).group.order)
    return [row[0] for row in rows]


# -- main counting entry -----------------------------------------------------------


class SizeTable:
    """One value per size n = 0..max_n, read as table[n]: N(g, family(n))
    for `count_table`, a swap report for `refined.swap_equivalence_table`.

    The kernel tables behind the values are made once, to max_n.  What
    grows with n in another way, such as the Kac route of cyclic PSp and
    Spin whose rank is n, is computed when its size is read, and a size
    that no route covers raises NotCoveredError when it is read, so a sweep
    can skip that size and go on.
    """

    def __init__(self, max_n: int, entry):
        self.max_n = max_n
        self._entry = entry

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.max_n:
            raise IndexError(f"size {n} is outside the table's 0..{self.max_n}")
        return self._entry(n)


def count_table(g: GroupSpec, family: str, max_n: int) -> SizeTable:
    """Numbers of conjugacy classes of homomorphisms from g into the target
    family at every size n = 0..max_n."""
    Target(family, max_n)  # refuses an unknown family or a bad size
    if family in ("Spin_odd", "PSp"):
        return SizeTable(max_n, _cover_entry(g, family, max_n))
    return SizeTable(max_n, _kernel_rows(g, family, max_n).__getitem__)


def _kernel_rows(g: GroupSpec, family: str, max_n: int) -> list:
    """N(g, family(n)) for n = 0..max_n, each family one kernel table."""
    if family == "U":
        return _weight_rows([info.dim for info in irreps(g)], max_n)
    if family == "PU":
        return _pu_rows(g, max_n)
    if family == "Sp":
        return _weight_rows([s.weight for s in _symplectic_slots(g)],
                            2 * max_n)[::2]
    if family == "O_odd":
        return _weight_rows([s.weight for s in _orthogonal_slots(g)],
                            2 * max_n + 1)[1::2]
    # the special families read the determinant's identity, each row's first
    # grade
    group = abelianization(g).group
    if family == "SU":
        slots = [(info.dim, info.det_element) for info in irreps(g)]
        rows = composition_rows(slots, group, max_n)
    elif family == "SO_odd":
        det = {info.name: info.det_element for info in irreps(g)}
        slots = [(s.weight, _slot_grade(s, det, group))
                 for s in _orthogonal_slots(g)]
        rows = composition_rows(slots, group, 2 * max_n + 1)[1::2]
    else:
        raise InvariantError(f"no counting route for the family {family!r}")
    return [row[0] for row in rows]


def _cover_entry(g: GroupSpec, family: str, max_n: int):
    """n -> N(g, family(n)) for Spin_odd and PSp, n <= max_n."""
    # at n = 0, Spin(1) is the two-element group, so Spin_odd counts
    # |Hom(A, Z_2)|, and PSp(0) counts |H^2(g, Z_2)| = |A/2A|; for
    # A = prod_i Z_(d_i) both are prod_i gcd(2, d_i)
    at_zero = prod(gcd(2, d) for d in abelianization(g).group.moduli)
    if family == "Spin_odd":
        letter, choice, cover = "B", "sc", "Spin"
    else:
        letter, choice, cover = "C", "adj", "PSp"
    if g.family == CYCLIC:
        def rest(n):
            return lattice.weyl_orbit_count(
                lattice.cartan_data(letter, n), choice, g.param)
    elif g.family in (TETRAHEDRAL, ICOSAHEDRAL):
        # no two-torsion obstruction: covers add nothing
        rest = _kernel_rows(g, "SO_odd" if family == "Spin_odd" else "Sp",
                            max_n).__getitem__
    elif g.family == OCTAHEDRAL:
        if family == "Spin_odd":
            rest = [s[0].fixed + s[0].moved
                    for s in refined._oct_spin_sector_rows(max_n)].__getitem__
        else:
            rest = [s[0].dim_v0 + s[1].dim_v0
                    for s in refined._oct_sp_sector_rows(max_n)].__getitem__
    else:
        def rest(n):
            raise NotCoveredError(
                f"not covered: {cover} counts for {g.label} need the dihedral "
                "refinement, which is out of scope")
    return lambda n: at_zero if n == 0 else rest(n)


def count_homs(g: GroupSpec, t: Target) -> int:
    """Number of conjugacy classes of homomorphisms from g into the target:
    the last entry of its count_table."""
    return count_table(g, t.family, t.n)[t.n]


def verify_swap_equivalence(g: GroupSpec, pair, n: int) -> dict:
    """Compare the two sides' finite character tables under the swap.

    pair is ("SU", "PU") for the unitary story or ("Sp", "Spin_odd") for the
    two-torsion one.  The report carries the identification that matched
    (see `refined._identifications`: "standard", its inverse "inv", or
    "cross", the swap of a Klein four-group's two coordinates; "trivial"
    where there is no two-torsion grading), or None on failure.
    """
    return refined.swap_equivalence_table(g, pair, n)[n]


# -- JSON-friendly rows -------------------------------------------------------------


def count_rows(g: GroupSpec, family: str, ns) -> list[dict]:
    """One row per size in ns, all read from one count_table."""
    table = count_table(g, family, max(ns))
    return [{"gamma": g.label, "target": family, "n": n, "count": table[n]}
            for n in ns]


