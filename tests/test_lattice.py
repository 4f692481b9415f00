"""Tests for Cartan data, Weyl orbit counting, and the dual-pair catalog."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcount import lattice as L
from dualcount.abgroup import AbGroup
from dualcount.bounds import MAX_RANK
from dualcount.counting import Target, count_homs
from dualcount.grouprep import GroupSpec
from dualcount.refined import tables_swap_equivalent
import grid_orbits
import per_n_routes


# -- cartan data -----------------------------------------------------------------


def test_rank_validation():
    with pytest.raises(ValueError):
        L.cartan_data("H", 4)
    with pytest.raises(ValueError):
        L.cartan_data("A", 0)
    with pytest.raises(ValueError):
        L.cartan_data("D", 2)
    with pytest.raises(ValueError):
        L.cartan_data("E", 5)
    with pytest.raises(ValueError):
        L.cartan_data("F", 3)
    with pytest.raises(ValueError):
        L.cartan_data("G", 3)


ALL_TYPES = [("A", 1), ("A", 3), ("A", 5), ("B", 1), ("B", 2), ("B", 4),
             ("C", 1), ("C", 3), ("C", 5), ("D", 3), ("D", 4), ("D", 5),
             ("D", 6), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("letter,rank", ALL_TYPES, ids=lambda v: str(v))
def test_reflections_are_involutions_and_satisfy_braids(letter, rank):
    c = L.cartan_data(letter, rank)
    eye = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(rank))
                  for j in range(rank))
            for i in range(rank))

    orders = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(rank):
        assert mul(c.reflections[i], c.reflections[i]) == eye
        for j in range(i + 1, rank):
            m = orders[c.cartan[i][j] * c.cartan[j][i]]
            prod_ = eye
            for _ in range(m):
                prod_ = mul(prod_, mul(c.reflections[i], c.reflections[j]))
            assert prod_ == eye, (i, j, m)


CENTERS = [("A", 4, (5,)), ("A", 7, (8,)), ("B", 3, (2,)), ("C", 4, (2,)),
           ("D", 4, (2, 2)), ("D", 6, (2, 2)), ("D", 5, (4,)),
           ("E", 6, (3,)), ("E", 7, (2,)), ("E", 8, ()), ("F", 4, ()),
           ("G", 2, ())]


@pytest.mark.parametrize("letter,rank,moduli", CENTERS, ids=lambda v: str(v))
def test_center_structure(letter, rank, moduli):
    c = L.cartan_data(letter, rank)
    assert c.center_moduli == moduli
    assert len(c.center_gens) == len(moduli)


def test_lattice_choices_validated():
    c = L.cartan_data("B", 3)
    with pytest.raises(ValueError):
        L._lattice_basis(c, "so")
    with pytest.raises(ValueError):
        L._lattice_basis(c, "half")
    with pytest.raises(ValueError):
        L._lattice_basis(L.cartan_data("D", 5), "hs+")
    # valid choices give bases of the right index
    for letter, rank, choice, index in [
            ("A", 3, "sc", 4), ("A", 3, "adj", 1), ("D", 4, "sc", 4),
            ("D", 4, "so", 2), ("D", 4, "hs+", 2), ("D", 4, "hs-", 2),
            ("D", 5, "so", 2), ("E", 8, "sc", 1)]:
        basis = L._lattice_basis(L.cartan_data(letter, rank), choice)
        _, diag, _ = L._smith_normal_form(basis)
        det = 1
        for i in range(rank):
            det *= diag[i][i]
        assert det == index, (letter, rank, choice)


# -- orbit counting ----------------------------------------------------------------


def test_frozen_orbit_counts():
    assert L.weyl_orbit_count(L.cartan_data("A", 1), "sc", 2) == 2
    assert L.weyl_orbit_count(L.cartan_data("C", 2), "sc", 2) == 3
    assert L.weyl_orbit_count(L.cartan_data("B", 2), "adj", 2) == 3
    assert L.weyl_orbit_count(L.cartan_data("A", 2), "sc", 1) == 1


def test_modulus_validation():
    with pytest.raises(ValueError):
        L.weyl_orbit_count(L.cartan_data("A", 2), "sc", 0)
    with pytest.raises(ValueError):
        grid_orbits.symmetric_orbit_count(3, 0)


@given(st.integers(1, 5), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_symmetric_orbit_count_is_multiset_count(k, n):
    assert grid_orbits.symmetric_orbit_count(k, n) == comb(n + k - 1, k)


BURNSIDE_CASES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                  ("C", 3), ("D", 3), ("G", 2)]


@pytest.mark.parametrize("letter,rank", BURNSIDE_CASES, ids=lambda v: str(v))
def test_burnside_agrees_with_component_count(letter, rank):
    c = L.cartan_data(letter, rank)
    for choice in ("sc", "adj"):
        for n in range(1, 5):
            assert (L.weyl_orbit_count(c, choice, n)
                    == grid_orbits.weyl_orbit_count_burnside(c, choice, n))


def test_burnside_guard():
    with pytest.raises(ValueError):
        grid_orbits.weyl_orbit_count_burnside(L.cartan_data("F", 4), "sc", 2)


def test_orbit_partition_independent_of_seed_order():
    c = L.cartan_data("B", 2)
    q = L.lattice_quotient(c, "sc", 4)
    base = grid_orbits.orbits(q.generators, q.moduli)
    rng = random.Random(7)
    size = q.size()
    for _ in range(5):
        order = list(range(size))
        rng.shuffle(order)
        assert grid_orbits.orbits(q.generators, q.moduli, order=order) == base
    assert L.weyl_orbit_count(c, "sc", 4) == len(base)


def test_d3_matches_a3():
    # the two presentations of the same algebra must count identically
    d3, a3 = L.cartan_data("D", 3), L.cartan_data("A", 3)
    for choice in ("sc", "adj"):
        for n in range(1, 5):
            assert (L.weyl_orbit_count(d3, choice, n)
                    == L.weyl_orbit_count(a3, choice, n))


def test_quotient_size_invariant():
    for letter, rank in [("A", 2), ("C", 2), ("D", 4)]:
        c = L.cartan_data(letter, rank)
        for choice in ("sc", "adj"):
            q = L.lattice_quotient(c, choice, 3)
            assert q.size() == 3 ** rank
            assert len(list(q.points())) == q.size()


# -- cross-oracle against direct enumeration ------------------------------------------


def test_unitary_cross_oracle():
    for k in range(2, 5):
        c = L.cartan_data("A", k - 1)
        for n in range(1, 5):
            g = GroupSpec.cyclic(n)
            assert L.weyl_orbit_count(c, "sc", n) == count_homs(g, Target("SU", k))
            assert L.weyl_orbit_count(c, "adj", n) == count_homs(g, Target("PU", k))
            assert grid_orbits.symmetric_orbit_count(k, n) == count_homs(
                g, Target("U", k))


def test_two_torsion_cross_oracle():
    for rank in range(1, 4):
        b = L.cartan_data("B", rank)
        cc = L.cartan_data("C", rank)
        for m in range(1, 7):
            g = GroupSpec.cyclic(m)
            assert (L.weyl_orbit_count(cc, "sc", m)
                    == count_homs(g, Target("Sp", rank)))
            assert (L.weyl_orbit_count(b, "adj", m)
                    == count_homs(g, Target("SO_odd", rank)))


# -- dual pairs -------------------------------------------------------------------


def test_anchor_duality_examples():
    assert L.zn_duality_row(("SU(3)", "PU(3)"), 2)["equal"]
    assert L.zn_duality_row(("Sp(2)", "SO(5)"), 3)["equal"]
    assert L.zn_duality_row("G2", 4)["equal"]


def test_non_dual_pairs_rejected():
    with pytest.raises(ValueError):
        L.zn_duality_row(("SU(3)", "SU(3)"), 2)
    with pytest.raises(ValueError):
        L.zn_duality_row(("Sp(2)", "SO(7)"), 2)
    with pytest.raises(ValueError):
        L.zn_duality_row(("Ss(12)", "Ss(12)"), 2)
    with pytest.raises(ValueError):
        L.zn_duality_row("nonsense", 2)


def test_half_spin_duality_rule():
    # self-dual when the half dimension is divisible by four, crossed otherwise
    assert L._dual_descriptor(("D", 4, "hs+")) == ("D", 4, "hs+")
    assert L._dual_descriptor(("D", 6, "hs+")) == ("D", 6, "hs-")
    assert L.zn_duality_row(("Ss(12)", "Ss'(12)"), 3)["equal"]
    assert L.zn_duality_row(("Ss(8)", "Ss(8)"), 3)["equal"]


@pytest.mark.parametrize("rank", [4, 6, 8, 10])
def test_so_and_half_spin_lattices_are_the_three_order_two_subgroups(rank):
    # M*/Q, the classes of the center over 0 in P/M*, tells the SO and the
    # two half-spin lattices apart: they must be the three distinct order-2
    # subgroups of the center Z_2 x Z_2
    c = L.cartan_data("D", rank)
    center = AbGroup(c.center_moduli)
    assert c.center_moduli == (2, 2)
    order_two = {frozenset({center.identity, x})
                 for x in center.elements() if x != center.identity}
    assert {frozenset(L._center_grading(c, choice)[3])
            for choice in ("so", "hs+", "hs-")} == order_two


def test_catalog_contents():
    names = L.dual_pairs(8)
    for expected in ["SU(9)/PU(9)", "Sp(8)/SO(17)", "Spin(17)/PSp(8)",
                     "SO(16)/SO(16)", "Spin(8)/PSO(8)", "Ss(8)/Ss(8)",
                     "Ss(12)/Ss'(12)", "G2", "F4", "E6/E6adj", "E7/E7adj",
                     "E8"]:
        assert expected in names
    assert "E8" not in L.dual_pairs(7)
    for name in names:
        L._pair_sides(name)  # every catalog entry parses and is dual


def test_catalog_duality_small_n():
    for name in L.dual_pairs(4):
        for n in range(1, 4):
            assert L.zn_duality_row(name, n)["equal"], (name, n)


def test_zn_duality_row_shape():
    row = L.zn_duality_row("Sp(2)/SO(5)", 3)
    assert row == {"pair": "Sp(2)/SO(5)", "n": 3, "left": row["left"],
                   "right": row["right"], "equal": True}
    assert row["left"] == row["right"] > 0


# -- refined characters ----------------------------------------------------------------


def test_refined_anchor_su2():
    # a Z_2 grading has exponent 2 and Phi_2 degree 1: one coordinate each
    t = L.refined_zn_characters("A", 1, "sc", 2)
    assert t.values == (((3,), (1,)), ((1,), (-1,)))
    assert t.grading_moduli == (2,)


def test_refined_trivial_center_degenerates_to_count():
    t = L.refined_zn_characters("G", 2, "sc", 4)
    assert t.grading_moduli == ()
    assert t.values == (((L.weyl_orbit_count(L.cartan_data("G", 2), "sc", 4),),),)
    # adjoint choice makes Z trivial for any type
    t2 = L.refined_zn_characters("A", 2, "adj", 3)
    assert t2.values == (((L.weyl_orbit_count(L.cartan_data("A", 2), "adj", 3),),),)


def test_refined_rank1_mod3_tables_coincide():
    sp = L.refined_zn_characters("C", 1, "sc", 3)
    spin = L.refined_zn_characters("B", 1, "sc", 3)
    assert sp.values == spin.values
    assert tables_swap_equivalent(sp, spin) is not None


def test_refined_gauging_recovers_orbit_counts():
    # row/column averages of the refined table are the two plain orbit
    # counts; both sums are rational, so their coordinates past the first
    # vanish
    for letter, rank, m_range in [("C", 2, range(1, 6)), ("B", 3, range(1, 5)),
                                  ("D", 4, range(1, 5)), ("A", 3, range(1, 5))]:
        c = L.cartan_data(letter, rank)
        for m in m_range:
            t = L.refined_zn_characters(letter, rank, "sc", m)
            k = len(t.values)
            col_sum = [sum(x) for x in zip(*t.values[0])]
            row_sum = [sum(x) for x in zip(*(row[0] for row in t.values))]
            zeros = [0] * (len(col_sum) - 1)
            assert col_sum == [k * L.weyl_orbit_count(c, "sc", m)] + zeros, (letter, rank, m)
            assert row_sum == [k * L.weyl_orbit_count(c, "adj", m)] + zeros, (letter, rank, m)


def test_refined_klein_four_grading():
    # D4 sc has Z = Z2 x Z2; at even m the full four-by-four table appears
    t = L.refined_zn_characters("D", 4, "sc", 2)
    assert t.grading_moduli == (2, 2)
    assert len(t.values) == 4
    assert t.values[0][0] == (11,)


def test_graded_orbits_structure():
    g = grid_orbits.graded_orbits("A", 1, "sc", 2)
    assert sorted(g.grades) == [(0,), (0,), (1,)]
    assert sum(len(o) for o in g.orbits) == g.quotient.size()
    rng = random.Random(3)
    order = list(range(g.quotient.size()))
    rng.shuffle(order)
    assert grid_orbits.graded_orbits("A", 1, "sc", 2,
                                     order=order).orbits == g.orbits


# -- the Kac-coordinate route against the grid oracle ---------------------------------


def _catalogue_sides(max_rank):
    sides = set()
    for pair in L.dual_pairs(max_rank):
        sides.update(L._pair_sides(pair))
    return sorted(sides)


KAC_CASES = (
    [(side, n) for side in _catalogue_sides(5) for n in range(1, 6)]
    + [((letter, rank, choice), n)
       for letter, rank, choices in [("E", 6, ("sc", "adj")), ("E", 7, ("sc", "adj")),
                                     ("E", 8, ("sc",)), ("F", 4, ("sc",)),
                                     ("G", 2, ("sc",))]
       for choice in choices for n in range(1, 4)]
    + [(("D", rank, choice), n) for rank in (6, 8)
       for choice in ("hs+", "hs-", "so") for n in range(1, 4)])


def test_kac_route_matches_the_grid():
    for (letter, rank, choice), n in KAC_CASES:
        c = L.cartan_data(letter, rank)
        assert L.weyl_orbit_count(c, choice, n) == grid_orbits.grid_count(
            c, choice, n), (
            letter, rank, choice, n)


def test_orbit_tables_match_the_per_n_route(monkeypatch):
    # every modulus of a side is read from one table to the largest modulus
    # asked so far, whether a sweep asks for its largest modulus first (one
    # table) or last (a larger table each time)
    for letter, rank, choice in _catalogue_sides(6):
        c = L.cartan_data(letter, rank)
        want = [per_n_routes.weyl_orbit_count(c, choice, n) for n in range(1, 31)]
        monkeypatch.setattr(L, "_ORBIT_COUNTS", {})
        down = [L.weyl_orbit_count(c, choice, n) for n in range(30, 0, -1)]
        assert down[::-1] == want, (letter, rank, choice)
        monkeypatch.setattr(L, "_ORBIT_COUNTS", {})
        up = [L.weyl_orbit_count(c, choice, n) for n in range(1, 31)]
        assert up == want, (letter, rank, choice)


REFINED_CASES = (
    [(letter, rank, choice, m) for letter in "ABC" for rank in (1, 2, 3)
     for choice in ("sc", "adj") for m in range(1, 6)]
    + [("D", rank, choice, m) for rank in (3, 4, 5)
       for choice in ("sc", "adj", "so") for m in range(1, 5)]
    + [("E", 6, choice, m) for choice in ("sc", "adj") for m in range(1, 4)]
    + [("E", 7, choice, m) for choice in ("sc", "adj") for m in (1, 2)])


def test_refined_counts_match_the_grid():
    for letter, rank, choice, m in REFINED_CASES:
        c = L.cartan_data(letter, rank)
        assert (L._refined_counts(c, choice, m)
                == grid_orbits.grid_refined_counts(c, choice, m)), (
                    letter, rank, choice, m)


COXETER = ([("A", r, r + 1) for r in range(1, 11)]
           + [(letter, r, 2 * r) for letter in "BC" for r in range(2, 11)]
           + [("D", r, 2 * r - 2) for r in range(3, 11)]
           + [("E", 6, 12), ("E", 7, 18), ("E", 8, 30), ("F", 4, 12), ("G", 2, 6)])


@pytest.mark.parametrize("letter,rank,h", COXETER, ids=lambda v: str(v))
def test_kac_data_marks_and_symmetries(letter, rank, h):
    marks, omega = L._kac_data(letter, rank)
    group = AbGroup(L.cartan_data(letter, rank).center_moduli)
    # the marks sum to the Coxeter number
    assert marks[0] == 1 and sum(marks) == h
    assert len(omega) == group.order
    for z, perm in omega.items():
        # each symmetry keeps the marks, sends node 0 to a mark-1 node, and
        # the symmetries compose like the center
        assert [marks[p] for p in perm] == list(marks)
        assert marks[perm[0]] == 1
        for y, other in omega.items():
            assert omega[group.add(z, y)] == tuple(perm[p] for p in other)
    # distinct symmetries move node 0 to distinct nodes
    assert len({perm[0] for perm in omega.values()}) == len(omega)


def test_smith_form_tracks_the_inverse():
    for letter, rank in ALL_TYPES:
        c = L.cartan_data(letter, rank)
        for choice in ("sc", "adj"):
            U, _, Uinv = L._smith_normal_form(L._lattice_basis(c, choice))
            assert L._mat_mul(U, Uinv) == L._identity_matrix(rank)


def test_rank_bound():
    assert L.cartan_data("A", MAX_RANK).rank == MAX_RANK
    for letter in "ABCD":
        with pytest.raises(ValueError, match="largest supported rank"):
            L.cartan_data(letter, MAX_RANK + 1)


def test_cyclic_psp_spin_agree_at_the_rank_bound():
    g = GroupSpec.cyclic(2)
    n = MAX_RANK
    assert count_homs(g, Target("PSp", n)) == count_homs(g, Target("Spin_odd", n))
