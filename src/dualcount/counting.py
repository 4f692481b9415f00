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
reads its last entry; `f_rep_table` and `swap_equivalence_table` give the
finite character tables and swap reports of every n the same way.  Counts
up to a symmetry (PU, the classes an involution fixes, the finite character
tables) run the same kernel on collapsed slots: a composition that a
permutation of the slots fixes is constant on each cycle, so `_fixed_slots`
makes each cycle one slot, and
`orbit_composition_rows` averages those fixed counts over a group of slot
permutations (Burnside), checking every size; `FRepCharacter.from_counts`
pairs them, per grade, with the characters of the grading group.  Only
character data enters, no Lie-theoretic input; closed-form series live in a
separate module precisely so the two routes stay independent checks of each
other.

The binary octahedral group is the one exceptional case with a nontrivial
two-torsion refinement: its symplectic and orthogonal counts split into
sectors with a relabeling involution acting, and those sector dimensions
(fixed/moved counts) drive the Spin(2n+1) and PSp(n) counts as well as the
finite character tables used by the swap-equivalence report.
"""

from __future__ import annotations

from math import gcd

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
    twisted_irreps,
    twisted_x_action,
)
from .record import Record

TARGET_FAMILIES = ("U", "SU", "PU", "Sp", "O_odd", "SO_odd", "Spin_odd", "PSp")


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


def graded_compositions(slots, group: AbGroup, total: int) -> dict:
    """Row total of `composition_rows`, as a map from each grade to its count."""
    row = composition_rows(slots, group, total)[total]
    return dict(zip(group.elements(), row))


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


def iter_vectors(weights, total):
    """Nonnegative integer vectors v with sum(v[i] * weights[i]) == total.

    Lists what `graded_compositions` counts: affine weights, and the tests.
    """
    n = len(weights)
    if n == 0:
        if total == 0:
            yield ()
        return
    v = [0] * n

    def rec(i, rem):
        w = weights[i]
        if i == n - 1:
            if rem % w == 0:
                v[i] = rem // w
                yield tuple(v)
            return
        for c in range(rem // w + 1):
            v[i] = c
            yield from rec(i + 1, rem - c * w)

    yield from rec(0, total)


# -- constraint slots ----------------------------------------------------------
#
# A "slot" is one free coordinate of the constrained solution set: a strictly
# real irreducible counted in steps of two for symplectic targets, a matched
# conjugate pair counted once, and so on.  Building symplectic and orthogonal
# slots from the (dim, reality, partner) data keeps one rule serving both the
# standard and the twisted irreducibles.


class _Slot(Record):
    # names: the irreps it raises; step: the multiplicity it adds to each
    # per unit; weight: the dimension it adds per unit; det: its determinant
    # per unit, None for twisted irreps
    __slots__ = ("names", "step", "weight", "det")


def _slot_det(group_ab, info, copies: int):
    el = getattr(info, "det_element", None)
    if el is None:
        return None
    return group_ab.scale(copies, el)


def _pair_det(group_ab, a, b):
    ea = getattr(a, "det_element", None)
    eb = getattr(b, "det_element", None)
    if ea is None or eb is None:
        return None
    return group_ab.add(ea, eb)


def _build_slots(infos, group_ab, even_reality: str):
    """Slots for one quadratic structure.

    even_reality is the reality type forced to even multiplicity (REAL for
    symplectic targets, PSEUDOREAL for orthogonal ones); the opposite type is
    free and conjugate pairs are matched.
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
                               info.dim + partner.dim,
                               _pair_det(group_ab, info, partner)))
        elif info.reality == even_reality:
            slots.append(_Slot((info.name,), 2, 2 * info.dim,
                               _slot_det(group_ab, info, 2)))
        else:
            slots.append(_Slot((info.name,), 1, info.dim,
                               _slot_det(group_ab, info, 1)))
    return tuple(slots)


def _symplectic_slots(g: GroupSpec):
    return _build_slots(irreps(g), abelianization(g).group, REAL)


def _orthogonal_slots(g: GroupSpec):
    return _build_slots(irreps(g), abelianization(g).group, PSEUDOREAL)


def _pu_rows(g: GroupSpec, max_n: int) -> list:
    # Burnside over the character group acting on unitary solutions by
    # tensoring, which permutes the irreps
    slots = [(info.dim, ()) for info in irreps(g)]
    rows = orbit_composition_rows(slots, _UNGRADED, max_n,
                                  onedim_permutations(g).values(),
                                  abelianization(g).group.order)
    return [row[0] for row in rows]


# -- octahedral sector machinery -------------------------------------------------


class SectorCount(Record):
    """Solution counts in one two-torsion sector.

    fixed counts classes fixed by the relabeling involution, moved counts the
    rest (always even: they come in swapped pairs on the symplectic side and
    in double covers' class pairs on the orthogonal side).
    """

    __slots__ = ("w", "fixed", "moved")

    def __init__(self, w: int, fixed: int, moved: int):
        if moved % 2:
            raise InvariantError("moved classes must pair up")
        super().__init__(w, fixed, moved)

    @property
    def dim_v0(self) -> int:
        return self.fixed + self.moved // 2

    @property
    def dim_v1(self) -> int:
        return self.moved // 2


def _require_octahedral(g: GroupSpec, what: str):
    if g.family != OCTAHEDRAL:
        raise NotCoveredError(f"not covered: {what} requires Ohat, got {g.label}")


def _oct_sp_sector_rows(max_n: int, w: int) -> list[SectorCount]:
    """Sector w of the symplectic Ohat count for n = 0..max_n."""
    g = GroupSpec.binary_octahedral()
    if w == 1:
        # twisted solutions; the involution relabels within matched pairs,
        # so it fixes every solution
        slots = _build_slots(twisted_irreps(g), abelianization(g).group, REAL)
        action = twisted_x_action(g)
        for slot in slots:
            if {action[nm] for nm in slot.names} != set(slot.names):
                raise InvariantError(
                    f"the twist does not preserve the slot {slot.names}")
        counts = _weight_rows([s.weight for s in slots], 2 * max_n)
        return [SectorCount(1, c, 0) for c in counts[::2]]
    # the involution tensors with 1', which permutes the slots
    sp_slots = _symplectic_slots(g)
    names = [info.name for info in irreps(g)]
    irrep_perm = onedim_permutations(g)[abelianization(g).element_of["1'"]]
    tensored = {names[i]: names[j] for i, j in enumerate(irrep_perm)}
    slot_of = {nm: k for k, s in enumerate(sp_slots) for nm in s.names}
    perm = [slot_of[tensored[s.names[0]]] for s in sp_slots]
    weights = [s.weight for s in sp_slots]
    cycles = _fixed_slots([(weight, ()) for weight in weights], perm, _UNGRADED)
    total = _weight_rows(weights, 2 * max_n)
    fixed = _weight_rows([weight for weight, _ in cycles], 2 * max_n)
    return [SectorCount(0, f, t - f) for t, f in zip(total[::2], fixed[::2])]


# coefficients of the mod-4 congruence c = m(1') - m(3') + m(2'') whose half
# is the two-torsion sector of a special orthogonal Ohat vector; the tests
# check it against the second Stiefel-Whitney class of the vector
_OCT_CONGRUENCE = {"1'": 1, "3'": -1, "2''": 1}


def _oct_spin_sector_rows(max_n: int) -> list[dict[int, SectorCount]]:
    """Both sectors of the special orthogonal Ohat count for n = 0..max_n."""
    # Orthogonal solutions graded by (determinant, c) in A x Z4.  A solution
    # is moved (its class splits in pairs) exactly when it avoids 2'' and one
    # of {1, 3} and {1', 3'}; inclusion-exclusion over the slot sets that
    # avoid those irreps counts the moved ones.
    g = GroupSpec.binary_octahedral()
    A = abelianization(g).group
    graded = AbGroup(A.moduli + (4,))
    index = {e: k for k, e in enumerate(graded.elements())}
    slots = []
    for s in _orthogonal_slots(g):
        c = s.step * sum(_OCT_CONGRUENCE.get(nm, 0) for nm in s.names)
        slots.append((set(s.names), (s.weight, s.det + (c % 4,))))

    def count(avoided):
        kept = [slot for names, slot in slots if not names & avoided]
        # the odd totals 2n + 1 are the orthogonal dimensions
        return composition_rows(kept, graded, 2 * max_n + 1)[1::2]

    avoiding = [count(set()), count({"2''", "1", "3"}),
                count({"2''", "1'", "3'"}), count({"2''", "1", "3", "1'", "3'"})]
    odd = [index[A.identity + (c,)] for c in (1, 3)]
    keys = [index[A.identity + (2 * w,)] for w in (0, 1)]
    out = []
    for total, avoid_13, avoid_13p, avoid_both in zip(*avoiding):
        if any(total[k] for k in odd):
            raise InvariantError(
                "a special orthogonal Ohat vector has an odd congruence class")
        sectors = {}
        for w, key in enumerate(keys):
            moved = avoid_13[key] + avoid_13p[key] - avoid_both[key]
            sectors[w] = SectorCount(w, total[key] - moved, 2 * moved)
        out.append(sectors)
    return out


def count_twisted(g: GroupSpec, family: str, n: int, w: int) -> SectorCount:
    """Fixed/moved class counts of one sector of the refined count."""
    if family not in ("Sp", "Spin_odd"):
        raise ValueError("sector counts exist for the Sp and Spin_odd families")
    _require_octahedral(g, "sector counting")
    if w not in (0, 1):
        raise ValueError("sector label must be 0 or 1")
    if n < 0:
        raise ValueError("size must be nonnegative")
    if family == "Sp":
        return _oct_sp_sector_rows(n, w)[n]
    return _oct_spin_sector_rows(n)[n][w]


# -- main counting entry -----------------------------------------------------------


class SizeTable:
    """One value per size n = 0..max_n, read as table[n]: N(g, family(n))
    for `count_table`, a finite character table for `f_rep_table`, a swap
    report for `swap_equivalence_table`.

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
        slots = [(s.weight, s.det) for s in _orthogonal_slots(g)]
        rows = composition_rows(slots, group, 2 * max_n + 1)[1::2]
    else:
        raise InvariantError(f"no counting route for the family {family!r}")
    return [row[0] for row in rows]


def _cover_entry(g: GroupSpec, family: str, max_n: int):
    """n -> N(g, family(n)) for Spin_odd and PSp, n <= max_n."""
    group = abelianization(g).group
    if family == "Spin_odd":
        # Spin(1) is the two-element group
        at_zero = len(group.kernel_of_scaling(2))
        letter, choice, cover = "B", "sc", "Spin"
    else:
        at_zero = len(group.quotient_by_scaling(2)[1])
        letter, choice, cover = "C", "adj", "PSp"
    if g.family == CYCLIC:
        def rest(n):
            from . import lattice

            return lattice.weyl_orbit_count(
                lattice.cartan_data(letter, n), choice, g.param)
    elif g.family in (TETRAHEDRAL, ICOSAHEDRAL):
        # no two-torsion obstruction: covers add nothing
        rest = _kernel_rows(g, "SO_odd" if family == "Spin_odd" else "Sp",
                            max_n).__getitem__
    elif g.family == OCTAHEDRAL and family == "Spin_odd":
        rest = [s[0].fixed + s[0].moved
                for s in _oct_spin_sector_rows(max_n)].__getitem__
    elif g.family == OCTAHEDRAL:
        rest = [a.fixed + a.moved // 2 + b.fixed + b.moved // 2
                for a, b in zip(_oct_sp_sector_rows(max_n, 0),
                                _oct_sp_sector_rows(max_n, 1))].__getitem__
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


# -- finite character tables and the swap report -----------------------------------


class FRepCharacter(Record):
    """Character table of the finite grading symmetries on a counting space.

    Rows are twisting elements z (kernel of n-scaling on the relevant
    character group), columns are sector characters w-hat; both are indexed
    by the elements of AbGroup(grading_moduli) in canonical order, and the
    isomorphism types of the two gradings coincide for every covered case.
    values[z][w-hat] is a cyclotomic.Cyc, so only these tables load that
    module.
    """

    __slots__ = ("label", "center_moduli", "grading_moduli", "values")

    @classmethod
    def from_counts(cls, label: str, center_moduli: tuple[int, ...],
                    grading_moduli: tuple[int, ...],
                    counts: dict) -> "FRepCharacter":
        """The table whose entry (z, w-hat) is sum_w w-hat(w) * counts[z][w].

        counts maps each element z of AbGroup(grading_moduli) to the
        solutions that z fixes, counted per grade w of that same group.
        """
        from .cyclotomic import Cyc

        group = AbGroup(grading_moduli)
        els = group.elements()
        chars = {what: {w: group.pairing(what, w) for w in els} for what in els}
        # the characters' values live in Q(zeta_e), e the exponent; summing
        # there scales by integers and promotes nothing
        zero = Cyc.from_rational(0, group.exponent)
        values = tuple(
            tuple(
                sum((chars[what][w] * c for w, c in counts[z].items() if c),
                    zero)
                for what in els)
            for z in els)
        return cls(label, center_moduli, grading_moduli, values)


def _su_f_rep_entry(g: GroupSpec, max_n: int):
    """n -> the "su" table at n, for n = 1..max_n.

    Its counts at z are the unitary solutions fixed by tensoring with the
    element a of the abelianization A that z embeds as, graded by the
    determinant: one kernel table to max_n per a, made when the first size n
    with n * a = 0 reads it.
    """
    A = abelianization(g).group
    els = A.elements()
    perms = onedim_permutations(g)
    slots = [(info.dim, info.det_element) for info in irreps(g)]
    fixed = {}

    def entry(n):
        if n < 1:
            raise ValueError("size out of range")
        gcds = tuple(gcd(d, n) for d in A.moduli)
        qmod, reps, _ = A.quotient_by_scaling(n)
        if qmod != gcds:
            raise InvariantError(f"A/nA has moduli {qmod}, expected {gcds}")
        counts = {}
        for z in AbGroup(gcds).elements():
            a = tuple(zi * (d // gi) for zi, d, gi in zip(z, A.moduli, gcds))
            if a not in fixed:
                fixed[a] = composition_rows(_fixed_slots(slots, perms[a], A),
                                            A, max_n)
            by_det = dict(zip(els, fixed[a][n]))
            counts[z] = {w: by_det[w] for w in reps}
        return FRepCharacter.from_counts("su", (n,), gcds, counts)

    return entry


def _two_torsion_f_rep(label: str, sectors: dict[int, SectorCount]) -> FRepCharacter:
    # the identity fixes every solution of a sector, the involution its fixed
    # ones
    counts = {(eps,): {(w,): s.fixed if eps else s.fixed + s.moved
                       for w, s in sectors.items()}
              for eps in (0, 1)}
    return FRepCharacter.from_counts(label, (2,), (2,), counts)


def f_rep_table(g: GroupSpec, side: str, max_n: int) -> SizeTable:
    """The finite character table acting on the graded counting space, for
    n = 0..max_n, read as table[n].

    side "su": any group, center Z_n gauged inside U(n), for n >= 1; side
    "sp" and "spin": the octahedral two-torsion refinement of Sp(n) and
    Spin(2n+1).
    """
    if max_n < 0:
        raise ValueError("size out of range")
    if side == "su":
        return SizeTable(max_n, _su_f_rep_entry(g, max_n))
    if side == "sp":
        _require_octahedral(g, "the symplectic-side table")
        sp = [_oct_sp_sector_rows(max_n, w) for w in (0, 1)]
        return SizeTable(max_n, lambda n: _two_torsion_f_rep(
            "sp", {w: rows[n] for w, rows in enumerate(sp)}))
    if side == "spin":
        _require_octahedral(g, "the orthogonal-side table")
        spin = _oct_spin_sector_rows(max_n)
        return SizeTable(max_n, lambda n: _two_torsion_f_rep("spin", spin[n]))
    raise ValueError("side must be 'su', 'sp' or 'spin'")


def _matrix_map(mat, moduli):
    def apply(e):
        return tuple(
            sum(mat[i][j] * e[j] for j in range(len(e))) % m
            for i, m in enumerate(moduli))

    return apply


def _identifications(moduli):
    """Candidate (name, row-map, column-map) pairings between K and its dual.

    The duality pairing is only pinned down up to convention: the default is
    the coordinatewise one, and composing with inversion gives an equivalent
    action.  When K is the Klein four-group the coordinatewise choice is
    itself arbitrary, so the remaining nonsingular symmetric pairings are
    tried as well.
    """
    G = AbGroup(moduli)
    out = [
        ("standard", lambda e: e, lambda e: e),
        ("inv", G.neg, G.neg),
    ]
    if moduli == (2, 2):
        cross = ((0, 1), (1, 0))
        shear = ((1, 1), (1, 0))
        shear_inv = ((0, 1), (1, 1))
        out.append(("cross", _matrix_map(cross, moduli),
                    _matrix_map(cross, moduli)))
        out.append(("cross-shear", _matrix_map(shear_inv, moduli),
                    _matrix_map(shear, moduli)))
        out.append(("shear-cross", _matrix_map(shear, moduli),
                    _matrix_map(shear_inv, moduli)))
    return out


def tables_swap_equivalent(t1: FRepCharacter, t2: FRepCharacter):
    """First identification under which t1(z, w) == t2(s(w), s'(z)), or None."""
    if t1.grading_moduli != t2.grading_moduli:
        return None
    els = AbGroup(t1.grading_moduli).elements()
    index = {e: k for k, e in enumerate(els)}
    for name, row_map, col_map in _identifications(t1.grading_moduli):
        ok = all(
            t1.values[i][j] == t2.values[index[row_map(what)]][index[col_map(z)]]
            for i, z in enumerate(els)
            for j, what in enumerate(els))
        if ok:
            return name
    return None


def swap_equivalence_table(g: GroupSpec, pair, max_n: int) -> SizeTable:
    """`verify_swap_equivalence(g, pair, n)` for n = 0..max_n, read as
    table[n].

    Each side's kernel tables are made once, to max_n: for (SU, PU) one per
    element of the abelianization, for Ohat the sector rows, for That and
    Ihat one count_table per family.  A cyclic group's (Sp, Spin_odd) tables
    are Weyl orbits of rank n, counted when their size is read.
    """
    pair = tuple(pair)
    if max_n < 0:
        raise ValueError("size out of range")
    if pair == ("SU", "PU"):
        su = f_rep_table(g, "su", max_n)

        def identify(n):
            return tables_swap_equivalent(su[n], su[n])
    elif pair != ("Sp", "Spin_odd"):
        raise ValueError("pair must be (SU, PU) or (Sp, Spin_odd)")
    elif g.family == OCTAHEDRAL:
        sp, spin = f_rep_table(g, "sp", max_n), f_rep_table(g, "spin", max_n)

        def identify(n):
            return tables_swap_equivalent(sp[n], spin[n])
    elif g.family in (TETRAHEDRAL, ICOSAHEDRAL):
        # no two-torsion grading: the tables are the single numbers
        # N(Sp(n)) and N(Spin(2n+1))
        sp, spin, psp, so = (count_table(g, family, max_n)
                             for family in ("Sp", "Spin_odd", "PSp", "SO_odd"))

        def identify(n):
            return "trivial" if sp[n] == spin[n] and psp[n] == so[n] else None
    elif g.family == CYCLIC:
        def identify(n):
            if n == 0:
                raise NotCoveredError(
                    "not covered: rank-zero targets have no lattice model")
            from . import lattice

            return tables_swap_equivalent(
                lattice.refined_zn_characters("C", n, "sc", g.param),
                lattice.refined_zn_characters("B", n, "sc", g.param))
    else:
        def identify(n):
            raise NotCoveredError(
                "not covered: the dihedral two-torsion refinement is out of scope")

    def report(n):
        ident = identify(n)
        return {"gamma": g.label, "pair": "/".join(pair), "n": n,
                "equivalent": ident is not None, "identification": ident}

    return SizeTable(max_n, report)


def verify_swap_equivalence(g: GroupSpec, pair, n: int) -> dict:
    """Compare the two sides' finite character tables under the swap.

    pair is ("SU", "PU") for the unitary story or ("Sp", "Spin_odd") for the
    two-torsion one.  The report carries the identification that matched
    ("standard", the inv-composed variant, or an alternative Klein-four
    pairing), or None on failure.
    """
    return swap_equivalence_table(g, pair, n)[n]


# -- JSON-friendly rows -------------------------------------------------------------


def count_rows(g: GroupSpec, family: str, ns) -> list[dict]:
    """One row per size in ns, all read from one count_table."""
    table = count_table(g, family, max(ns))
    return [{"gamma": g.label, "target": family, "n": n, "count": table[n]}
            for n in ns]


def sector_row(g: GroupSpec, family: str, n: int, w: int) -> dict:
    s = count_twisted(g, family, n, w)
    return {"gamma": g.label, "n": n, "w": s.w, "fixed": s.fixed,
            "moved": s.moved, "dimV0": s.dim_v0, "dimV1": s.dim_v1}
