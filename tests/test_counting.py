"""Tests for constraint enumeration, sector counts, and swap reports."""

from math import comb, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcount.abgroup import AbGroup
from dualcount import lattice, series
from dualcount.affine import iter_vectors
from dualcount.counting import (
    TARGET_FAMILIES,
    Target,
    count_homs,
    count_rows,
    count_table,
    composition_rows,
    orbit_composition_rows,
    verify_swap_equivalence,
)
from dualcount.cyclotomic import Cyc
from dualcount.errors import InvariantError, NotCoveredError
from dualcount.grouprep import (
    DIHEDRAL,
    PSEUDOREAL,
    REAL,
    GroupSpec,
    abelianization,
    irreps,
)
from dualcount.refined import (
    FRepCharacter,
    SectorCount,
    f_rep_table,
    sector_rows,
    swap_equivalence_table,
    tables_swap_equivalent,
)
from dualcount.suites import DEFAULT_GAMMAS, ORACLE_GENFUN_GAMMAS
from enumeration import (enumerated_count, enumerated_sector,
                         multiplicity_vectors, unitary_orbits)
import per_n_routes
from per_n_routes import count_twisted, graded_compositions
from rep_routes import sector_of_so_rep

Z = GroupSpec.cyclic
DH = GroupSpec.binary_dihedral
TET = GroupSpec.binary_tetrahedral()
OCT = GroupSpec.binary_octahedral()
ICO = GroupSpec.binary_icosahedral()

SMALL_GROUPS = [Z(1), Z(2), Z(3), Z(4), Z(6), DH(2), DH(3), DH(5), TET, OCT, ICO]
CATALOGUE = [GroupSpec.from_label(label) for label in DEFAULT_GAMMAS]


def _orbit_counts(slots, group, total, perms, order) -> dict:
    """The orbit counts at one total, as a map from each grade to its count."""
    row, = orbit_composition_rows(slots, group, total, perms, order, start=total)
    return dict(zip(group.elements(), row))


def _case_id(v):
    # a Target reads as its matrix group, e.g. SO(7) for SO_odd at n = 3
    if isinstance(v, Target):
        odd = {"O_odd": "O", "SO_odd": "SO", "Spin_odd": "Spin"}
        size = 2 * v.n + 1 if v.family in odd else v.n
        return f"{odd.get(v.family, v.family)}({size})"
    return getattr(v, "label", v)


# -- targets -------------------------------------------------------------------


def test_target_validation_and_labels():
    with pytest.raises(ValueError):
        Target("SO", 3)
    with pytest.raises(ValueError):
        Target("Sp", -1)


# -- frozen counts -------------------------------------------------------------


FROZEN_COUNTS = [
    (TET, Target("Sp", 1), 3),
    (Z(4), Target("Sp", 1), 3),
    (OCT, Target("Sp", 1), 4),
    (OCT, Target("SO_odd", 1), 4),
    (OCT, Target("Spin_odd", 1), 4),
    (OCT, Target("PSp", 1), 4),
    (OCT, Target("Spin_odd", 0), 2),
    (OCT, Target("PSp", 0), 2),
    (TET, Target("Spin_odd", 1), 3),
    (TET, Target("Sp", 2), 7),
    (Z(3), Target("SO_odd", 1), 2),
    (Z(2), Target("SU", 2), 2),
    (Z(2), Target("PU", 2), 2),
    (Z(4), Target("PU", 2), 3),
    (Z(1), Target("U", 5), 1),
]


@pytest.mark.parametrize("g,t,expected", FROZEN_COUNTS, ids=_case_id)
def test_frozen_counts(g, t, expected):
    assert count_homs(g, t) == expected


def test_size_zero_targets_are_trivial():
    for g in SMALL_GROUPS:
        for fam in ("U", "SU", "PU", "Sp"):
            assert count_homs(g, Target(fam, 0)) == 1
        # the one-element orthogonal group still has sign characters
        a = abelianization(g).group
        assert count_homs(g, Target("O_odd", 0)) == len(a.kernel_of_scaling(2))
        # and the projective one counts H^2(g, Z_2) = A/2A
        assert count_homs(g, Target("PSp", 0)) == prod(gcd(2, d) for d in a.moduli)
        assert count_homs(g, Target("SO_odd", 0)) == 1


def test_unitary_count_matches_compositions_for_cyclic():
    # N(Z_m, U(n)) is a binomial coefficient: independent arithmetic route
    for m in (1, 2, 3, 5, 8):
        for n in range(0, 7):
            assert count_homs(Z(m), Target("U", n)) == comb(n + m - 1, m - 1)


def test_graded_compositions_small_case():
    # v1 + 2 v2 = 3 has the solutions (3, 0) and (1, 1), both of grade 1
    A = AbGroup((2,))
    assert graded_compositions([(1, (1,)), (2, (0,))], A, 3) == {(0,): 0, (1,): 2}
    assert graded_compositions([(1, (1,))], A, 0) == {(0,): 1, (1,): 0}
    assert graded_compositions([], A, 2) == {(0,): 0, (1,): 0}


@st.composite
def _symmetric_slots(draw):
    """(m, slots graded in Z_m, a generator permuting them, its order).

    Each block of slots shares one weight and grade, and the generator
    rotates every block; the slots are then relabelled at random."""
    m = draw(st.integers(1, 4))
    blocks = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, m - 1)),
        min_size=1, max_size=4).filter(lambda bs: sum(b[0] for b in bs) <= 6))
    slots, gen = [], []
    for length, weight, grade in blocks:
        start = len(slots)
        slots += [(weight, (grade,))] * length
        gen += [start + (j + 1) % length for j in range(length)]
    label = draw(st.permutations(range(len(slots))))
    new_slots, new_gen = [None] * len(slots), [None] * len(slots)
    for i, j in enumerate(label):
        new_slots[j] = slots[i]
        new_gen[j] = label[gen[i]]
    return m, new_slots, tuple(new_gen), lcm(*(b[0] for b in blocks))


@given(_symmetric_slots(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_orbit_compositions_match_listed_orbits(case, total):
    m, slots, gen, order = case
    perms, perm = [], tuple(range(len(slots)))
    for _ in range(order):
        perms.append(perm)
        perm = tuple(gen[j] for j in perm)
    assert list(AbGroup((order,)).action([gen], len(slots)).values()) == perms
    group = AbGroup((m,))
    expected = dict.fromkeys(group.elements(), 0)
    seen = set()
    for vec in iter_vectors([w for w, _ in slots], total):
        if vec not in seen:
            seen |= {tuple(vec[j] for j in p) for p in perms}
            expected[(sum(c * g for c, (_, (g,)) in zip(vec, slots)) % m,)] += 1
    assert _orbit_counts(slots, group, total, perms, order) == expected


def test_orbit_compositions_refuse_a_partial_group():
    # the swap of two unit slots has two orbits on the compositions of 2, but
    # the identity alone fixes all three, which two does not divide
    slots, ungraded = [(1, ()), (1, ())], AbGroup(())
    assert _orbit_counts(slots, ungraded, 2, [(0, 1), (1, 0)], 2) == {(): 2}
    with pytest.raises(InvariantError):
        _orbit_counts(slots, ungraded, 2, [(0, 1)], 2)


@given(st.integers(1, 4), st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)),
                                   max_size=5), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_every_kernel_row_is_the_count_at_its_total(m, drawn, total):
    # a table to total holds the table to every smaller total as its prefix,
    # and each row counts what iter_vectors lists at that total
    group = AbGroup((m,))
    slots = [(w, (g % m,)) for w, g in drawn]
    rows = composition_rows(slots, group, total)
    assert len(rows) == total + 1
    for t, row in enumerate(rows):
        assert dict(zip(group.elements(), row)) == graded_compositions(
            slots, group, t)
        listed = dict.fromkeys(group.elements(), 0)
        for vec in iter_vectors([w for w, _ in slots], t):
            listed[(sum(c * g for c, (_, (g,)) in zip(vec, slots)) % m,)] += 1
        assert dict(zip(group.elements(), row)) == listed


@given(_symmetric_slots(), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_every_orbit_row_is_the_orbit_count_at_its_total(case, total):
    m, slots, gen, order = case
    perms = list(AbGroup((order,)).action([gen], len(slots)).values())
    group = AbGroup((m,))
    rows = orbit_composition_rows(slots, group, total, perms, order)
    for t, row in enumerate(rows):
        assert dict(zip(group.elements(), row)) == _orbit_counts(
            slots, group, t, perms, order)
    assert orbit_composition_rows(slots, group, total, perms, order,
                                  start=total) == rows[-1:]


def test_burnside_prefix_checks_every_total():
    # the identity alone is half of the swap group: at total 1 its two fixed
    # compositions are divisible by 2, but the one at total 0 is not
    slots, ungraded = [(1, ()), (1, ())], AbGroup(())
    with pytest.raises(InvariantError):
        orbit_composition_rows(slots, ungraded, 1, [(0, 1)], 2)
    assert orbit_composition_rows(slots, ungraded, 1, [(0, 1)], 2,
                                  start=1) == [[1]]


@pytest.mark.parametrize("family", TARGET_FAMILIES)
@pytest.mark.parametrize("g", CATALOGUE, ids=lambda g: g.label)
def test_count_table_matches_enumeration(g, family):
    table = count_table(g, family, 4)
    assert table.max_n == 4
    for n in range(5):
        try:
            expected = enumerated_count(g, family, n)
        except NotCoveredError:
            with pytest.raises(NotCoveredError):
                table[n]
            continue
        assert table[n] == expected == count_homs(g, Target(family, n)), n
    with pytest.raises(IndexError):
        table[5]


@pytest.mark.parametrize("glabel", ORACLE_GENFUN_GAMMAS)
def test_count_table_matches_the_series_to_n_60(glabel):
    # the built-in generating functions are the independent closed-form route
    g = GroupSpec.from_label(glabel)
    top = 60
    sp = series.expand(series.builtin_genfun(g, "Sp"), 2 * top).integer_coeffs()
    so = series.expand(series.builtin_genfun(g, "SO_odd"),
                       2 * top + 1).integer_coeffs()
    sp_table, so_table = count_table(g, "Sp", top), count_table(g, "SO_odd", top)
    assert [sp_table[n] for n in range(top + 1)] == list(sp[::2])
    assert [so_table[n] for n in range(top + 1)] == list(so[1::2])


def test_cyclic_cover_tables_count_only_the_sizes_read():
    # the Kac route's rank grows with n, so it counts a size when it is read:
    # a table far past bounds.MAX_RANK still reads its small sizes
    for family in ("PSp", "Spin_odd"):
        table = count_table(Z(3), family, 10 ** 6)
        assert [table[n] for n in range(3)] == [
            count_homs(Z(3), Target(family, n)) for n in range(3)]


def test_count_table_refuses_bad_requests():
    with pytest.raises(ValueError):
        count_table(Z(2), "Bogus", 3)
    with pytest.raises(ValueError):
        count_table(Z(2), "Sp", -1)


@pytest.mark.parametrize("g", CATALOGUE, ids=lambda g: g.label)
def test_kernel_counts_match_enumeration(g):
    # the kernel counts what multiplicity_vectors lists, over the whole
    # catalogue and every family of plain multiplicity vectors
    for family in ("U", "SU", "Sp", "O_odd", "SO_odd"):
        for n in range(0, 7):
            t = Target(family, n)
            assert count_homs(g, t) == len(list(multiplicity_vectors(g, t))), (
                family, n)


def test_multiplicity_vector_enumeration_frozen():
    vecs = list(multiplicity_vectors(OCT, Target("SO_odd", 1)))
    as_sets = {tuple(sorted(v.items())) for v in vecs}
    assert as_sets == {
        (("3", 1),),
        (("1", 3),),
        (("1", 1), ("1'", 2)),
        (("1'", 1), ("2''", 1)),
    }


def test_multiplicity_vectors_not_defined_for_quotient_families():
    with pytest.raises(NotCoveredError):
        next(multiplicity_vectors(OCT, Target("PU", 2)))
    with pytest.raises(NotCoveredError):
        next(multiplicity_vectors(OCT, Target("Spin_odd", 2)))


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.label)
def test_symplectic_vectors_satisfy_constraints(g):
    info = {i.name: i for i in irreps(g)}
    for mv in multiplicity_vectors(g, Target("Sp", 3)):
        assert sum(info[k].dim * v for k, v in mv.items()) == 6
        for name, mult in mv.items():
            if info[name].reality == REAL:
                assert mult % 2 == 0
            if info[name].partner:
                assert mult == mv.get(info[name].partner, 0)


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.label)
def test_orthogonal_vectors_satisfy_constraints(g):
    info = {i.name: i for i in irreps(g)}
    a = abelianization(g)
    for mv in multiplicity_vectors(g, Target("SO_odd", 2)):
        assert sum(info[k].dim * v for k, v in mv.items()) == 5
        det = a.group.identity
        for name, mult in mv.items():
            if info[name].reality == PSEUDOREAL:
                assert mult % 2 == 0
            det = a.group.add(det, a.group.scale(mult, info[name].det_element))
        assert det == a.group.identity


def test_pu_count_agrees_with_explicit_orbit_count():
    # independent route: group enumerated unitary vectors into orbits under
    # tensoring by all 1-dim characters
    for g, n in [(Z(4), 3), (Z(6), 2), (DH(3), 3), (TET, 4), (OCT, 3)]:
        assert count_homs(g, Target("PU", n)) == len(unitary_orbits(g, n))


# -- dualities at unit-test scale ------------------------------------------------


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.label)
def test_symplectic_orthogonal_duality_small(g):
    for n in range(0, 5):
        assert count_homs(g, Target("Sp", n)) == count_homs(g, Target("SO_odd", n))


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.label)
def test_unitary_duality_small(g):
    for n in range(0, 5):
        assert count_homs(g, Target("SU", n)) == count_homs(g, Target("PU", n))


@pytest.mark.parametrize("g", [TET, OCT, ICO], ids=lambda g: g.label)
def test_adjoint_cover_duality_small(g):
    for n in range(0, 5):
        assert count_homs(g, Target("PSp", n)) == count_homs(
            g, Target("Spin_odd", n))


@pytest.mark.parametrize("g", [TET, ICO], ids=lambda g: g.label)
def test_no_two_torsion_means_no_refinement(g):
    for n in range(0, 5):
        assert count_homs(g, Target("Sp", n)) == count_homs(g, Target("PSp", n))
        assert count_homs(g, Target("SO_odd", n)) == count_homs(
            g, Target("Spin_odd", n))


def test_dihedral_covers_not_covered():
    with pytest.raises(NotCoveredError):
        count_homs(DH(3), Target("Spin_odd", 2))
    with pytest.raises(NotCoveredError):
        count_homs(DH(4), Target("PSp", 1))
    # size zero needs no refinement: Spin(1) is just the sign group
    assert count_homs(DH(3), Target("Spin_odd", 0)) == 2
    assert count_homs(DH(4), Target("Spin_odd", 0)) == 4


# -- sectors ---------------------------------------------------------------------


def test_sector_count_anchors():
    assert count_twisted(OCT, "Sp", 1, 0) == SectorCount(0, 0, 4)
    assert count_twisted(OCT, "Sp", 1, 1) == SectorCount(1, 2, 0)
    assert count_twisted(OCT, "Sp", 0, 0) == SectorCount(0, 1, 0)
    assert count_twisted(OCT, "Spin_odd", 1, 0) == SectorCount(0, 0, 4)
    assert count_twisted(OCT, "Spin_odd", 1, 1) == SectorCount(1, 2, 0)


@pytest.mark.parametrize("family", ["Sp", "Spin_odd"])
def test_sector_counts_match_enumeration(family):
    for n in range(0, 9):
        for w in (0, 1):
            assert count_twisted(OCT, family, n, w) == enumerated_sector(
                family, n, w), (n, w)


def test_sector_count_validation():
    with pytest.raises(NotCoveredError):
        count_twisted(TET, "Sp", 1, 0)
    with pytest.raises(ValueError):
        count_twisted(OCT, "SU", 1, 0)
    with pytest.raises(ValueError):
        count_twisted(OCT, "Sp", 1, 2)
    with pytest.raises(InvariantError):
        SectorCount(0, 1, 3)


@given(st.integers(0, 9), st.sampled_from(["Sp", "Spin_odd"]))
@settings(max_examples=30, deadline=None)
def test_moved_is_always_even_and_dims_consistent(n, family):
    for w in (0, 1):
        s = count_twisted(OCT, family, n, w)
        assert s.moved % 2 == 0
        assert s.dim_v0 + s.dim_v1 == s.fixed + s.moved


@given(st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_sector_sums_reproduce_counts(n):
    sp = [count_twisted(OCT, "Sp", n, w) for w in (0, 1)]
    spin = [count_twisted(OCT, "Spin_odd", n, w) for w in (0, 1)]
    assert count_homs(OCT, Target("Sp", n)) == sp[0].fixed + sp[0].moved
    assert count_homs(OCT, Target("PSp", n)) == sum(s.dim_v0 for s in sp)
    assert count_homs(OCT, Target("Spin_odd", n)) == spin[0].fixed + spin[0].moved
    assert count_homs(OCT, Target("SO_odd", n)) == sum(s.dim_v0 for s in spin)


def test_refined_duality_grid_small():
    # dim V^e_m on the symplectic side equals dim V^m_e on the orthogonal side
    for n in range(0, 6):
        sp = {w: count_twisted(OCT, "Sp", n, w) for w in (0, 1)}
        spin = {w: count_twisted(OCT, "Spin_odd", n, w) for w in (0, 1)}
        for e in (0, 1):
            for m in (0, 1):
                lhs = (sp[m].dim_v0, sp[m].dim_v1)[e]
                rhs = (spin[e].dim_v0, spin[e].dim_v1)[m]
                assert lhs == rhs, (n, e, m)


def test_sector_of_so_rep_anchors():
    assert sector_of_so_rep({"3": 1}) == 0
    assert sector_of_so_rep({"1": 3}) == 0
    assert sector_of_so_rep({"1'": 2, "1": 1}) == 1
    assert sector_of_so_rep({"2''": 1, "1'": 1}) == 1
    assert sector_of_so_rep({"3'": 1, "1'": 1, "1": 1}) == 0


def test_sector_of_so_rep_rejects_bad_vectors():
    with pytest.raises(ValueError):
        sector_of_so_rep({"1'": 1})  # nontrivial determinant
    with pytest.raises(ValueError):
        sector_of_so_rep({"2": 1, "1": 1})  # odd pseudoreal multiplicity
    with pytest.raises(ValueError):
        sector_of_so_rep({"9": 1})
    with pytest.raises(ValueError):
        sector_of_so_rep({"1": -1})


def test_sector_routes_agree_exhaustively_to_dim_13():
    total = 0
    for dim in range(1, 14, 2):
        n = (dim - 1) // 2
        for mv in multiplicity_vectors(OCT, Target("SO_odd", n)):
            sector_of_so_rep(mv)  # raises if the two routes disagree
            total += 1
    assert total > 50


# -- character tables -------------------------------------------------------------


def test_sp_side_table_anchor():
    # a Z_2 grading has exponent 2 and Phi_2 degree 1: one coordinate each
    table = f_rep_table(OCT, "sp", 1)[1]
    assert table.values == (((6,), (2,)), ((2,), (-2,)))
    assert table.grading_moduli == (2,)


def test_su_side_table_anchor():
    table = f_rep_table(Z(2), "su", 2)[2]
    assert table.values == (((3,), (1,)), ((1,), (-1,)))
    assert table.grading_moduli == (2,)


def _column_sum(entries):
    """The coordinatewise sum of integer-coordinate entries."""
    return [sum(c) for c in zip(*entries)]


def test_su_table_gauging_identities():
    # averaging over the columns recovers N(SU); over the rows, N(PU).  Both
    # sums are rational: their coordinates past the first vanish
    for g, n in [(Z(2), 2), (Z(4), 2), (Z(6), 3), (DH(3), 2), (TET, 3)]:
        table = f_rep_table(g, "su", n)[n]
        k = len(table.values)
        col_sum = _column_sum(table.values[0])
        row_sum = _column_sum(row[0] for row in table.values)
        zeros = [0] * (len(col_sum) - 1)
        assert col_sum == [k * count_homs(g, Target("SU", n))] + zeros
        assert row_sum == [k * count_homs(g, Target("PU", n))] + zeros


def test_two_torsion_table_gauging_identities():
    for n in range(0, 5):
        sp = f_rep_table(OCT, "sp", n)[n]
        v = [[x for x, in row] for row in sp.values]
        assert (v[0][0] + v[0][1]) / 2 == count_homs(OCT, Target("Sp", n))
        assert (v[0][0] + v[1][0]) / 2 == count_homs(OCT, Target("PSp", n))
        spin = f_rep_table(OCT, "spin", n)[n]
        u = [[x for x, in row] for row in spin.values]
        assert (u[0][0] + u[0][1]) / 2 == count_homs(OCT, Target("Spin_odd", n))
        assert (u[0][0] + u[1][0]) / 2 == count_homs(OCT, Target("SO_odd", n))


def _cyc_table(grading_moduli, counts) -> FRepCharacter:
    """The table of FRepCharacter.from_counts with every entry summed in
    Q(zeta_e) as a Cyc, the character values computed here."""
    group = AbGroup(grading_moduli)
    e = group.exponent
    els = group.elements()

    def value(what, w):
        return Cyc.zeta(e, sum(c * a * (e // d)
                               for c, a, d in zip(what, w, grading_moduli)))

    return FRepCharacter(grading_moduli, tuple(
        tuple(sum((value(what, w) * c for w, c in counts[z].items()),
                  Cyc.from_rational(0, e))
              for what in els)
        for z in els))


@pytest.fixture
def tables_with_cyc_oracles(monkeypatch):
    """Every table that from_counts makes while the test runs, each beside
    its Cyc oracle from the same counts."""
    made = []
    build = FRepCharacter.from_counts.__func__

    def recording(cls, grading_moduli, counts):
        table = build(cls, grading_moduli, counts)
        made.append((table, _cyc_table(grading_moduli, counts)))
        return table

    monkeypatch.setattr(FRepCharacter, "from_counts", classmethod(recording))
    return made


ORACLE_LATTICE_TYPES = [("A", r) for r in range(1, 6)] + [
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]


def test_integer_entries_are_the_numerators_of_their_cyc_sums(
        tables_with_cyc_oracles):
    for g in (Z(12), Z(7), DH(4), DH(5), TET, OCT):
        su = f_rep_table(g, "su", 40)
        for n in range(1, 41):
            su[n]
    for letter, rank in ORACLE_LATTICE_TYPES:
        for m in range(1, 13):
            lattice.refined_zn_characters(letter, rank, "sc", m)
    made = tables_with_cyc_oracles
    assert len(made) == 6 * 40 + len(ORACLE_LATTICE_TYPES) * 12
    for table, oracle in made:
        assert table.grading_moduli == oracle.grading_moduli
        for row, oracle_row in zip(table.values, oracle.values, strict=True):
            for entry, cyc in zip(row, oracle_row, strict=True):
                assert cyc.den == 1 and entry == cyc.nums
    # every swap between two of these tables of one grading gets the same
    # answer from the integer entries as from the Cyc entries
    by_grading = {}
    for table, oracle in made:
        by_grading.setdefault(table.grading_moduli, []).append((table, oracle))
    answers = []
    for pairs in by_grading.values():
        for t1, o1 in pairs:
            for t2, o2 in pairs:
                answer = tables_swap_equivalent(t1, t2)
                assert answer == tables_swap_equivalent(o1, o2)
                answers.append(answer)
    # 54734 pairs: most are not equivalent, and both kinds of match occur
    assert len(answers) > 50000
    assert {None, "standard", "cross"} <= set(answers)


def test_a_vanishing_sum_of_roots_of_unity_gives_equal_entries():
    # adding 1 to every grade of a column adds sum_w w-hat(w) to its entries,
    # which vanishes for every nontrivial w-hat; the summed powers of zeta_e
    # differ, so the entries agree only after reduction modulo Phi_e
    for moduli in [(2,), (3,), (4,), (2, 2), (6,)]:
        group = AbGroup(moduli)
        els = group.elements()
        base = {z: {w: 7 * i + 3 * j for j, w in enumerate(els)}
                for i, z in enumerate(els)}
        shifted = dict(base)
        shifted[els[-1]] = {w: c + 1 for w, c in base[els[-1]].items()}
        t1 = FRepCharacter.from_counts(moduli, base)
        t2 = FRepCharacter.from_counts(moduli, shifted)
        assert t1.values[:-1] == t2.values[:-1]
        assert t1.values[-1][1:] == t2.values[-1][1:]
        first, *rest = t1.values[-1][0]
        assert t2.values[-1][0] == (first + group.order, *rest)
        assert tables_swap_equivalent(t1, t1) == tables_swap_equivalent(
            _cyc_table(moduli, base), _cyc_table(moduli, base))


def test_at_size_reads_the_n_torsion_and_checks_the_cosets():
    # A = Z_4 x Z_3 at n = 2: the rows are the 2-torsion a = (2 z_0, 0), the
    # columns the classes of A/2A, each by its smallest element
    moduli = (4, 3)
    asked = []

    def fixed(a):
        asked.append(a)
        return {w: 5 + a[0] + w[0] % 2 for w in AbGroup(moduli).elements()}

    table = FRepCharacter.at_size(moduli, 2, fixed)
    assert asked == [(0, 0), (2, 0)]
    assert table == FRepCharacter.from_counts((2, 1), {
        (0, 0): {(0, 0): 5, (1, 0): 6}, (1, 0): {(0, 0): 7, (1, 0): 8}})

    def broken(a):
        # one grade that no longer repeats its coset's smallest element
        counts = fixed(a)
        counts[(3, 2)] += 1
        return counts

    with pytest.raises(InvariantError, match="repeat along nA-cosets"):
        FRepCharacter.at_size(moduli, 2, broken)


def test_f_rep_character_validation():
    with pytest.raises(NotCoveredError):
        f_rep_table(TET, "sp", 1)[1]
    with pytest.raises(ValueError):
        f_rep_table(OCT, "so", 1)[1]
    with pytest.raises(ValueError):
        f_rep_table(Z(3), "su", 0)[0]


# -- swap equivalence --------------------------------------------------------------


@pytest.mark.parametrize(
    "g,n",
    [(Z(2), 2), (Z(3), 3), (Z(4), 2), (Z(6), 4), (DH(3), 2), (DH(4), 2),
     (DH(4), 3), (DH(6), 4), (TET, 3), (OCT, 2), (ICO, 2)],
    ids=lambda v: getattr(v, "label", v),
)
def test_unitary_swap_equivalence(g, n):
    report = verify_swap_equivalence(g, ("SU", "PU"), n)
    assert report["equivalent"]
    assert report["identification"] is not None


def test_klein_four_grading_uses_cross_pairing():
    # even dihedral groups at even n grade by the Klein four-group, where the
    # coordinatewise pairing is the wrong convention and the crossed one wins
    report = verify_swap_equivalence(DH(4), ("SU", "PU"), 2)
    assert report["equivalent"]
    assert report["identification"] == "cross"


@pytest.mark.parametrize(
    "g", [DH(m) for m in range(2, 13)] + [Z(m) for m in range(1, 13)]
    + [TET, OCT, ICO], ids=lambda g: g.label)
def test_which_identification_matches(g):
    # the unitary tables of Dhat:m, m even and at least 4, match "cross" at
    # even n and "standard" at odd n; every other unitary table, and every
    # graded two-torsion table, matches "standard", and That and Ihat have
    # no two-torsion grading.  "inv" is tried after "standard" and is never
    # the one that matches
    crossed = g.family == DIHEDRAL and g.param % 2 == 0 and g.param > 2
    su = swap_equivalence_table(g, ("SU", "PU"), 16)
    assert [su[n]["identification"] for n in range(1, 17)] == [
        "cross" if crossed and n % 2 == 0 else "standard" for n in range(1, 17)]
    if g.family != DIHEDRAL:
        sp = swap_equivalence_table(g, ("Sp", "Spin_odd"), 16)
        expected = "trivial" if g in (TET, ICO) else "standard"
        assert [sp[n]["identification"] for n in range(1, 17)] == [expected] * 16


@pytest.mark.parametrize("n", range(0, 5))
def test_octahedral_swap_equivalence(n):
    report = verify_swap_equivalence(OCT, ("Sp", "Spin_odd"), n)
    assert report["equivalent"]
    assert report["identification"] == "standard"


@pytest.mark.parametrize("g", [TET, ICO], ids=lambda g: g.label)
def test_trivial_swap_equivalence(g):
    report = verify_swap_equivalence(g, ("Sp", "Spin_odd"), 3)
    assert report == {
        "gamma": g.label,
        "pair": "Sp/Spin_odd",
        "n": 3,
        "equivalent": True,
        "identification": "trivial",
    }


def test_swap_equivalence_validation():
    with pytest.raises(ValueError):
        verify_swap_equivalence(OCT, ("Sp", "SO_odd"), 1)
    with pytest.raises(NotCoveredError):
        verify_swap_equivalence(DH(3), ("Sp", "Spin_odd"), 1)


def test_tables_swap_equivalent_detects_mismatch():
    t1 = f_rep_table(OCT, "sp", 1)[1]
    t2 = f_rep_table(OCT, "sp", 2)[2]
    assert tables_swap_equivalent(t1, t2) is None
    t3 = f_rep_table(Z(2), "su", 2)[2]
    assert tables_swap_equivalent(t1, t3) is None or t1.values != t3.values


@pytest.mark.parametrize("g", CATALOGUE, ids=lambda g: g.label)
def test_sweep_tables_match_the_per_n_routes(g):
    # a sweep reads every size from tables made once, to its largest size;
    # the per-n routes make them again at each size
    sides = ("su", "sp", "spin") if g == OCT else ("su",)
    for side in sides:
        table = f_rep_table(g, side, 30)
        for n in range(31):
            assert (per_n_routes.outcome(table.__getitem__, n)
                    == per_n_routes.outcome(
                        lambda k: per_n_routes.f_rep_character(g, side, k), n)), (side, n)
    for pair in (("SU", "PU"), ("Sp", "Spin_odd")):
        table = swap_equivalence_table(g, pair, 30)
        for n in range(31):
            assert (per_n_routes.outcome(table.__getitem__, n)
                    == per_n_routes.outcome(
                        lambda k: per_n_routes.verify_swap_equivalence(g, pair, k), n)), (pair, n)


# -- rows --------------------------------------------------------------------------


def test_count_row_shape():
    rows = count_rows(OCT, "Sp", [1])
    assert rows == [{"gamma": "Ohat", "target": "Sp", "n": 1, "count": 4}]


def test_sector_row_shape():
    row = sector_rows(OCT, "Sp", 1)[0]
    assert row == {"gamma": "Ohat", "n": 1, "w": 0, "fixed": 0, "moved": 4,
                   "dimV0": 2, "dimV1": 2}
