"""The two-torsion refinement of the counts, and the finite character tables
that the swap report compares.

The binary octahedral group is the one exceptional case with a nontrivial
two-torsion refinement: its symplectic and orthogonal counts split into
sectors with a relabeling involution acting, and those sector dimensions
(fixed/moved counts) drive the Spin(2n+1) and PSp(n) counts as well as the
finite character tables used by the swap-equivalence report.  The twisted
(double cover) irreducibles of Ohat, which only the sectors read, are
literal data here.

`f_rep_table` and `swap_equivalence_table` give the finite character tables
and swap reports of every n up to a bound from one set of kernel tables,
counted up to a symmetry as `counting` counts PU: `counting._fixed_slots`
collapses each cycle of a slot permutation into one slot, and
`FRepCharacter.from_counts` pairs the fixed counts, per grade, with the
characters of the grading group.
"""

from __future__ import annotations

from math import gcd

from . import cyclotomic, lattice
from .abgroup import AbGroup
from .counting import (_UNGRADED, SizeTable, _build_slots, _fixed_slots,
                       _orthogonal_slots, _symplectic_slots, _weight_rows,
                       composition_rows, count_table)
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


# -- binary octahedral extras: twisted irreps -----------------------------------


class TwistedIrrepInfo(Record):
    """Irreducible of the nontrivial Z2-twisted (double cover) type.

    These carry no determinant character; reality and partners follow the
    same conventions as IrrepInfo.
    """

    __slots__ = ("name", "dim", "reality", "partner", "node")


_TWISTED_OCT = (
    TwistedIrrepInfo("1t", 1, COMPLEX, "1t'", 0),
    TwistedIrrepInfo("2t", 2, COMPLEX, "2t'", 1),
    TwistedIrrepInfo("3t", 3, COMPLEX, "3t'", 2),
    TwistedIrrepInfo("4t", 4, REAL, None, 3),
    TwistedIrrepInfo("3t'", 3, COMPLEX, "3t", 4),
    TwistedIrrepInfo("2t'", 2, COMPLEX, "2t", 5),
    TwistedIrrepInfo("1t'", 1, COMPLEX, "1t", 6),
    TwistedIrrepInfo("2t''", 2, PSEUDOREAL, None, 7),
)


def twisted_irreps(g: GroupSpec) -> tuple[TwistedIrrepInfo, ...]:
    if g.family != OCTAHEDRAL:
        raise NotCoveredError(
            "not covered: twisted irreducibles are only available for Ohat")
    return _TWISTED_OCT


def twisted_x_action(g: GroupSpec) -> dict[str, str]:
    """The outer 1-dim twist on twisted irreps: swaps primed/unprimed pairs."""
    twisted_irreps(g)  # raises off-family
    return {"1t": "1t'", "1t'": "1t", "2t": "2t'", "2t'": "2t",
            "3t": "3t'", "3t'": "3t", "4t": "4t", "2t''": "2t''"}


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
        group = AbGroup(grading_moduli)
        els = group.elements()
        chars = {what: {w: group.pairing(what, w) for w in els} for what in els}
        # the characters' values live in Q(zeta_e), e the exponent; summing
        # there scales by integers and promotes nothing
        zero = cyclotomic.Cyc.from_rational(0, group.exponent)
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
        # the classes of A/nA, each as its componentwise smallest element
        reps = AbGroup(gcds).elements()
        counts = {}
        for z in reps:
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


# -- JSON-friendly rows -------------------------------------------------------------


def sector_row(g: GroupSpec, family: str, n: int, w: int) -> dict:
    s = count_twisted(g, family, n, w)
    return {"gamma": g.label, "n": n, "w": s.w, "fixed": s.fixed,
            "moved": s.moved, "dimV0": s.dim_v0, "dimV1": s.dim_v1}
