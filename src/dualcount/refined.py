"""The two-torsion refinement of the counts, and the finite character tables
that the swap report compares.

The binary octahedral group is the one exceptional case with a nontrivial
two-torsion refinement: its symplectic and orthogonal counts split into
sectors with a relabeling involution acting, and those sector dimensions
(fixed/moved counts) drive the Spin(2n+1) and PSp(n) counts as well as the
finite character tables used by the swap-equivalence report.  The twisted
(double cover) irreducibles of Ohat, which only the sectors read, are
literal data here.

`swap_equivalence_table` gives the finite character tables and swap
reports of every n up to a bound from one set of kernel tables, counted up
to a symmetry as `counting` counts PU: `counting._fixed_slots` collapses
each cycle of a slot permutation into one slot, and
`FRepCharacter.from_counts` pairs the fixed counts, per grade, with the
characters of the grading group.  Every table at a size n over the
n-torsion of a grading group A, the unitary tables here and the Weyl-orbit
tables of `lattice`, comes from `FRepCharacter.at_size`, which lays out the
rows and columns and checks that the counts repeat along the nA-cosets.
The Ohat sector rows of each family list both sectors per n.  Each entry
is a sum of e-th roots of unity with integer coefficients, e the grading
group's exponent, held as its canonical integer coordinates
(`AbGroup.character_sum`), so the swap compares integer tuples and no
cyclotomic field is built.
"""

from __future__ import annotations

from math import gcd

from . import lattice
from .abgroup import AbGroup
from .counting import (_UNGRADED, SizeTable, _build_slots, _fixed_slots,
                       _orthogonal_slots, _slot_grade, _symplectic_slots,
                       _weight_rows, composition_rows, count_table)
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

    __slots__ = ("name", "dim", "reality", "partner")


_TWISTED_OCT = (
    TwistedIrrepInfo("1t", 1, COMPLEX, "1t'"),
    TwistedIrrepInfo("2t", 2, COMPLEX, "2t'"),
    TwistedIrrepInfo("3t", 3, COMPLEX, "3t'"),
    TwistedIrrepInfo("4t", 4, REAL, None),
    TwistedIrrepInfo("3t'", 3, COMPLEX, "3t"),
    TwistedIrrepInfo("2t'", 2, COMPLEX, "2t"),
    TwistedIrrepInfo("1t'", 1, COMPLEX, "1t"),
    TwistedIrrepInfo("2t''", 2, PSEUDOREAL, None),
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


def _oct_sp_sector_rows(max_n: int) -> list[dict[int, SectorCount]]:
    """Both sectors of the symplectic Ohat count for n = 0..max_n."""
    g = GroupSpec.binary_octahedral()
    # sector 0: the involution tensors with 1', which permutes the slots
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
    # sector 1: twisted solutions; the involution relabels within matched
    # pairs, so it fixes every solution
    twisted = _build_slots(twisted_irreps(g), REAL)
    action = twisted_x_action(g)
    for slot in twisted:
        if {action[nm] for nm in slot.names} != set(slot.names):
            raise InvariantError(
                f"the twist does not preserve the slot {slot.names}")
    counts = _weight_rows([s.weight for s in twisted], 2 * max_n)
    return [{0: SectorCount(0, f, t - f), 1: SectorCount(1, c, 0)}
            for t, f, c in zip(total[::2], fixed[::2], counts[::2])]


# coefficients of the mod-4 congruence c = m(1') - m(3') + m(2'') whose half
# is the two-torsion sector of a special orthogonal Ohat vector; the tests
# check it against the second Stiefel-Whitney class of the vector
_OCT_CONGRUENCE = {"1'": 1, "3'": -1, "2''": 1}


def _oct_spin_sector_rows(max_n: int) -> list[dict[int, SectorCount]]:
    """Both sectors of the special orthogonal Ohat count for n = 0..max_n."""
    # Orthogonal solutions graded by (determinant, c) in A x Z4.  A solution
    # is moved (its class splits in pairs) exactly when it avoids 2'' and one
    # of {1, 3} and {1', 3'}; inclusion-exclusion over the slot sets that
    # avoid those irreps counts the moved ones.  Its fourth term, the
    # solutions that avoid 2'' and both pairs, is 0 at every odd size when
    # the slots left then all have even weight (2, 4 and 2', weighing 4, 8
    # and 4), which is checked here instead of counted.
    g = GroupSpec.binary_octahedral()
    A = abelianization(g).group
    graded = AbGroup(A.moduli + (4,))
    index = {e: k for k, e in enumerate(graded.elements())}
    o_slots = _orthogonal_slots(g)
    avoid_all = {"2''", "1", "3", "1'", "3'"}
    odd_left = [s.names for s in o_slots
                if s.weight % 2 and not avoid_all & set(s.names)]
    if odd_left:
        raise InvariantError(
            f"the Ohat orthogonal slots {odd_left} avoid 2'', 1, 3, 1' and 3' "
            "but have odd weight")
    grade_of = {info.name: info.det_element + (_OCT_CONGRUENCE.get(info.name, 0),)
                for info in irreps(g)}
    slots = [(set(s.names), (s.weight, _slot_grade(s, grade_of, graded)))
             for s in o_slots]

    def count(avoided):
        kept = [slot for names, slot in slots if not names & avoided]
        # the odd totals 2n + 1 are the orthogonal dimensions
        return composition_rows(kept, graded, 2 * max_n + 1)[1::2]

    avoiding = [count(set()), count({"2''", "1", "3"}), count({"2''", "1'", "3'"})]
    odd = [index[A.identity + (c,)] for c in (1, 3)]
    keys = [index[A.identity + (2 * w,)] for w in (0, 1)]
    out = []
    for total, avoid_13, avoid_13p in zip(*avoiding):
        if any(total[k] for k in odd):
            raise InvariantError(
                "a special orthogonal Ohat vector has an odd congruence class")
        sectors = {}
        for w, key in enumerate(keys):
            moved = avoid_13[key] + avoid_13p[key]
            sectors[w] = SectorCount(w, total[key] - moved, 2 * moved)
        out.append(sectors)
    return out


def sector_counts(g: GroupSpec, family: str,
                  n: int) -> tuple[SectorCount, SectorCount]:
    """Fixed/moved class counts of both sectors, w = 0 and 1, of the refined
    count; the two Spin_odd sectors come from one build."""
    if family not in ("Sp", "Spin_odd"):
        raise ValueError("sector counts exist for the Sp and Spin_odd families")
    _require_octahedral(g, "sector counting")
    if n < 0:
        raise ValueError("size must be nonnegative")
    rows = _oct_sp_sector_rows if family == "Sp" else _oct_spin_sector_rows
    sectors = rows(n)[n]
    return sectors[0], sectors[1]


# -- finite character tables and the swap report -----------------------------------


class FRepCharacter(Record):
    """Character table of the finite grading symmetries on a counting space.

    Rows are twisting elements z (kernel of n-scaling on the relevant
    character group), columns are sector characters w-hat; both are indexed
    by the elements of AbGroup(grading_moduli) in canonical order, and the
    isomorphism types of the two gradings coincide for every covered case.
    values[z][w-hat] is the entry's tuple of integer coordinates in the power
    basis of Q(zeta_e), e the exponent of the grading group.
    """

    __slots__ = ("grading_moduli", "values")

    @classmethod
    def from_counts(cls, grading_moduli: tuple[int, ...],
                    counts: dict) -> "FRepCharacter":
        """The table whose entry (z, w-hat) is sum_w w-hat(w) * counts[z][w].

        counts maps each element z of AbGroup(grading_moduli) to the
        solutions that z fixes, counted per grade w of that same group.
        """
        group = AbGroup(grading_moduli)
        els = group.elements()
        values = tuple(tuple(group.character_sum(what, counts[z]) for what in els)
                       for z in els)
        return cls(grading_moduli, values)

    @classmethod
    def at_size(cls, moduli: tuple[int, ...], n: int,
                fixed) -> "FRepCharacter":
        """The table at size n of solutions graded by A = AbGroup(moduli),
        on which the n-torsion of A acts.

        Row z, for z in AbGroup(gcd(d, n)), is the n-torsion element a with
        a_i = z_i * d_i / gcd(d_i, n); the columns are the classes of A/nA,
        each given by its componentwise smallest element.  fixed(a) maps
        every grade in A to the solutions that a fixes.  Those counts must
        repeat along the nA-cosets, which is checked here, so a transversal
        holds them all.
        """
        gcds = tuple(gcd(d, n) for d in moduli)
        reps = AbGroup(gcds).elements()
        counts = {}
        for z in reps:
            per_grade = fixed(tuple(zi * (d // gi)
                                    for zi, d, gi in zip(z, moduli, gcds)))
            if any(v != per_grade[tuple(wi % gi for wi, gi in zip(w, gcds))]
                   for w, v in per_grade.items()):
                raise InvariantError(
                    "the grade counts must repeat along nA-cosets")
            counts[z] = {w: per_grade[w] for w in reps}
        return cls.from_counts(gcds, counts)


def _su_f_rep_entry(g: GroupSpec, max_n: int):
    """n -> the unitary table at n, for n = 1..max_n.

    Its fixed(a) counts, per determinant, the unitary solutions that
    tensoring with the element a of the abelianization A fixes: one kernel
    table to max_n per a, made when the first size n with n * a = 0 reads
    it.
    """
    A = abelianization(g).group
    els = A.elements()
    perms = onedim_permutations(g)
    slots = [(info.dim, info.det_element) for info in irreps(g)]
    tables = {}

    def entry(n):
        if n < 1:
            raise ValueError("size out of range")

        def fixed(a):
            if a not in tables:
                tables[a] = composition_rows(_fixed_slots(slots, perms[a], A),
                                             A, max_n)
            return dict(zip(els, tables[a][n]))

        return FRepCharacter.at_size(A.moduli, n, fixed)

    return entry


def _two_torsion_f_rep(sectors: dict[int, SectorCount]) -> FRepCharacter:
    # the identity fixes every solution of a sector, the involution its fixed
    # ones
    counts = {(eps,): {(w,): s.fixed if eps else s.fixed + s.moved
                       for w, s in sectors.items()}
              for eps in (0, 1)}
    return FRepCharacter.from_counts((2,), counts)


def _identifications(moduli):
    """Candidate (name, row-map, column-map) pairings between K and its dual.

    The duality pairing is only pinned down up to convention: the default,
    "standard", is the coordinatewise one, and composing with inversion,
    "inv", gives an equivalent action.  When K is the Klein four-group the
    coordinatewise choice is itself arbitrary, so "cross", which swaps the
    two coordinates, is tried as well: at even n the unitary tables of
    Dhat:m, m even and at least 4, match it and not "standard".
    """
    G = AbGroup(moduli)
    out = [
        ("standard", lambda e: e, lambda e: e),
        ("inv", G.neg, G.neg),
    ]
    if moduli == (2, 2):
        out.append(("cross", lambda e: e[::-1], lambda e: e[::-1]))
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
        su = _su_f_rep_entry(g, max_n)

        def identify(n):
            table = su(n)
            return tables_swap_equivalent(table, table)
    elif pair != ("Sp", "Spin_odd"):
        raise ValueError("pair must be (SU, PU) or (Sp, Spin_odd)")
    elif g.family == OCTAHEDRAL:
        sp, spin = _oct_sp_sector_rows(max_n), _oct_spin_sector_rows(max_n)

        def identify(n):
            return tables_swap_equivalent(_two_torsion_f_rep(sp[n]),
                                          _two_torsion_f_rep(spin[n]))
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


def sector_rows(g: GroupSpec, family: str, n: int) -> list[dict]:
    return [{"gamma": g.label, "n": n, "w": s.w, "fixed": s.fixed,
             "moved": s.moved, "dimV0": s.dim_v0, "dimV1": s.dim_v1}
            for s in sector_counts(g, family, n)]
