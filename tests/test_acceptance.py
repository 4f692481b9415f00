"""End-to-end acceptance gate.

Each test is one externally checkable claim about the package, run at its
full advertised scale.  The slow sweeps assert their own wall-clock budget,
so algorithmic regressions surface as failures rather than silent drift.
"""

import random
import time
from collections import Counter
from math import comb, gcd

import pytest

from dualcount import affine, lattice, series
from dualcount.counting import Target, count_homs, verify_swap_equivalence
from dualcount.errors import NotCoveredError
from dualcount.grouprep import GroupSpec, abelianization, irreps
from dualcount.mckay import ade_type_of, mckay_graph
from enumeration import multiplicity_vectors
from per_n_routes import count_twisted
from rep_routes import sector_of_so_rep

ALL_GAMMAS = (
    [GroupSpec.cyclic(m) for m in range(1, 13)]
    + [GroupSpec.binary_dihedral(m) for m in range(2, 7)]
    + [GroupSpec.binary_tetrahedral(), GroupSpec.binary_octahedral(),
       GroupSpec.binary_icosahedral()]
)

EXCEPTIONAL_GAMMAS = ALL_GAMMAS[-3:]

OCT = GroupSpec.binary_octahedral()


# -- 1: rank-level duality of symplectic and odd orthogonal counts ---------------


def test_01_symplectic_orthogonal_duality_full_sweep():
    start = time.monotonic()
    for g in ALL_GAMMAS:
        for n in range(0, 13):
            assert (count_homs(g, Target("Sp", n))
                    == count_homs(g, Target("SO_odd", n))), (g.label, n)
    assert time.monotonic() - start < 60.0


def _cyclic_su_count(m, n):
    """N(Z_m, SU(n)) by the necklace formula, independent of the character route."""
    total = 0
    for d in range(1, gcd(m, n) + 1):
        if m % d == 0 and n % d == 0:
            phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
            total += phi * comb(m // d + n // d - 1, n // d)
    return total // m


def test_01_kernel_reaches_n_50():
    start = time.monotonic()
    assert _cyclic_su_count(12, 12) == 112720
    for m in range(1, 13):
        for n in range(0, 51):
            assert (count_homs(GroupSpec.cyclic(m), Target("SU", n))
                    == _cyclic_su_count(m, n)), (m, n)
    for g in ALL_GAMMAS:
        for n in range(0, 51):
            assert (count_homs(g, Target("Sp", n))
                    == count_homs(g, Target("SO_odd", n))), (g.label, n)
            assert (count_homs(g, Target("SU", n))
                    == count_homs(g, Target("PU", n))), (g.label, n)
    assert time.monotonic() - start < 60.0


def test_01_cyclic_psp_spin_reach_n_50():
    # both sides are Kac-coordinate counts, of types C (adjoint) and B
    start = time.monotonic()
    for m in range(1, 13):
        g = GroupSpec.cyclic(m)
        for n in range(0, 51):
            assert (count_homs(g, Target("PSp", n))
                    == count_homs(g, Target("Spin_odd", n))), (m, n)
    assert time.monotonic() - start < 60.0


# -- 2: unitary vs projective unitary ---------------------------------------------


def test_02_unitary_projective_duality_sweep():
    for g in ALL_GAMMAS:
        for n in range(0, 11):
            assert (count_homs(g, Target("SU", n))
                    == count_homs(g, Target("PU", n))), (g.label, n)


# -- 3: spin vs projective symplectic for the exceptional groups ------------------


def test_03_spin_projective_symplectic_duality():
    for g in EXCEPTIONAL_GAMMAS:
        for n in range(0, 11):
            assert (count_homs(g, Target("PSp", n))
                    == count_homs(g, Target("Spin_odd", n))), (g.label, n)


# -- 4: the refined two-torsion sectors swap their labels -------------------------


def test_04_refined_sector_duality_is_the_transpose():
    for n in range(0, 9):
        sp = {w: count_twisted(OCT, "Sp", n, w) for w in (0, 1)}
        spin = {w: count_twisted(OCT, "Spin_odd", n, w) for w in (0, 1)}
        for e in (0, 1):
            for m in (0, 1):
                lhs = (sp[m].dim_v0, sp[m].dim_v1)[e]
                rhs = (spin[e].dim_v0, spin[e].dim_v1)[m]
                assert lhs == rhs, (n, e, m, lhs, rhs)


# -- 5: closed-form series coefficients equal direct enumeration ------------------


def test_05_builtin_series_match_enumeration():
    top = 12
    for g in ALL_GAMMAS:
        sp = series.expand(series.builtin_genfun(g, "Sp"),
                           2 * top).integer_coeffs()
        so = series.expand(series.builtin_genfun(g, "SO_odd"),
                           2 * top + 1).integer_coeffs()
        for n in range(0, top + 1):
            assert sp[2 * n] == count_homs(g, Target("Sp", n)), (g.label, n)
            assert so[2 * n + 1] == count_homs(g, Target("SO_odd", n)), (g.label, n)
        assert all(sp[2 * n + 1] == 0 for n in range(top))
        assert all(so[2 * n] == 0 for n in range(top + 1))


def test_05_refined_series_match_sector_enumeration():
    top = 12
    for token in ("refined:0,0:Sp", "refined:0,0:Spin", "refined:0,1:Sp",
                  "refined:0,1:Spin", "refined:1,1:Spin"):
        _, em, side = token.split(":")
        e, m = (int(x) for x in em.split(","))
        coeffs = series.expand(series.builtin_genfun(OCT, token),
                               2 * top + 1).integer_coeffs()
        for n in range(0, top + 1):
            if side == "Sp":
                s = count_twisted(OCT, "Sp", n, m)
                assert coeffs[2 * n] == (s.dim_v0, s.dim_v1)[e], (token, n)
            else:
                # the Spin partner is the orthogonal sector with labels swapped
                s = count_twisted(OCT, "Spin_odd", n, e)
                assert coeffs[2 * n + 1] == (s.dim_v0, s.dim_v1)[m], (token, n)


# -- 6: the counting identities hold exactly ---------------------------------------


FIXED_INSTANTIATIONS = (
    ("KF1", "1;1;3;1,1,1"),
    ("KF1", "2;1,2;2;1,2"),
    ("KF1", "4;1,3,2,2;2;2,4"),
    ("KF2", "2;1;3,2;1,2,2;1,1"),
    ("KF2", "4;1,2;1,1;2;1"),
    ("KF3", "1;2,2,0,0;2,2;1,1;;"),
    ("KF4", "1,2;1;2"),
)


@pytest.mark.parametrize("identity,params", FIXED_INSTANTIATIONS)
def test_06_fixed_instantiations_clear_exactly(identity, params):
    report = series.prove_identity(identity, params)
    assert report["verdict"] == "proven"
    assert report["method"] == "cleared"


@pytest.mark.parametrize("identity", ["KF1", "KF2", "KF3", "KF4"])
def test_06_random_instantiations_clear_exactly(identity):
    rng = random.Random(20260814)
    for _ in range(50):
        params = series.random_identity_params(identity, rng)
        report = series.prove_identity(identity, params)
        assert report["verdict"] == "proven", (identity, params)
        assert report["method"] == "cleared", (identity, params)


def test_06_vanishing_sector_series_is_zero_to_order_200():
    lhs, rhs = series.identity_sides("PropY", None)
    assert series.expand(lhs, 200) == series.expand(rhs, 200)


# -- 7: lattice-route duality across the whole catalogue --------------------------


def test_07_lattice_duality_catalogue():
    pairs = lattice.dual_pairs(8)
    assert len(pairs) >= 40
    for pair in pairs:
        start = time.monotonic()
        for n in range(1, 7):
            assert lattice.zn_duality_row(pair, n)["equal"], (pair, n)
        assert time.monotonic() - start < 30.0, pair


# -- 8: cyclic-source counts equal Weyl orbit counts -------------------------------


def test_08_cyclic_unitary_counts_are_weyl_orbit_counts():
    for k in (2, 3, 4):
        c = lattice.cartan_data("A", k - 1)
        for n in range(1, 7):
            g = GroupSpec.cyclic(n)
            assert (lattice.weyl_orbit_count(c, "sc", n)
                    == count_homs(g, Target("SU", k))), (k, n)
            assert (lattice.weyl_orbit_count(c, "adj", n)
                    == count_homs(g, Target("PU", k))), (k, n)
            # the full unitary count has its own arithmetic closed form
            assert count_homs(g, Target("U", k)) == comb(k + n - 1, n - 1)


# -- 9: the modular data realizes the center action -------------------------------


CONJUGATION_GRID = (
    [(f"A{r}", n) for r in range(1, 5) for n in range(1, 5)]
    + [(t, n) for t in ("D4", "D5") for n in (1, 2)]
    + [("E6", n) for n in (1, 2)]
)


@pytest.mark.parametrize("ade_type,level", CONJUGATION_GRID)
def test_09_conjugation_matrices_are_central_characters(ade_type, level):
    report = affine.verify_s_conjugation(ade_type, level)
    assert report["holds"], report
    assert report["max_abs_error"] < 1e-9
    assert len(report["identification"]) >= 1

    sm = affine.s_matrix(ade_type, level)
    assert affine.unitarity_error(sm) < 1e-9
    assert affine.symmetry_error(sm) < 1e-9


# -- 10: structural invariants ------------------------------------------------------


def test_10_character_dimensions_square_to_group_order():
    for g in ALL_GAMMAS:
        assert sum(i.dim ** 2 for i in irreps(g)) == g.order
        # the abelianization is the group of determinant characters
        names = {i.det for i in irreps(g)}
        assert len(names) == abelianization(g).group.order


def _roots_from_cartan(cartan):
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        x = frontier.pop()
        for i in range(rank):
            pairing = sum(x[j] * cartan[j][i] for j in range(rank))
            y = list(x)
            y[i] -= pairing
            y = tuple(y)
            if y not in roots:
                roots.add(y)
                frontier.append(y)
    return roots


def _expected_affine_edges(ade_type):
    """Extended Dynkin multigraph built from Cartan data, affine node 0."""
    if ade_type == "A0":
        return ((0, 0), (0, 0))
    letter, rank = ade_type[0], int(ade_type[1:])
    cartan = lattice.cartan_data(letter, rank).cartan
    roots = _roots_from_cartan(cartan)
    theta = max((r for r in roots if all(x >= 0 for x in r)), key=sum)
    edges = []
    for i in range(rank):
        for j in range(i + 1, rank):
            edges.extend([(i + 1, j + 1)] * (-cartan[i][j]))
    for j in range(rank):
        pairing = sum(theta[i] * cartan[i][j] for i in range(rank))
        edges.extend([(0, j + 1)] * pairing)
    return tuple(sorted(edges))


def _multigraph_matches(edges_a, edges_b, size):
    """Isomorphism of multigraphs that fixes node 0, by backtracking."""
    def counter(edges):
        return Counter(tuple(sorted(e)) for e in edges)

    ca, cb = counter(edges_a), counter(edges_b)
    if sum(ca.values()) != sum(cb.values()):
        return False

    def degree(c, v):
        return sum(m for e, m in c.items() if v in e) + c.get((v, v), 0)

    def extend(mapping, remaining):
        if not remaining:
            return all(
                ca[e] == cb[tuple(sorted((mapping[e[0]], mapping[e[1]])))]
                for e in ca)
        v = remaining[0]
        for w in range(size):
            if w in mapping.values() or degree(ca, v) != degree(cb, w):
                continue
            ok = all(
                ca.get(tuple(sorted((v, u))), 0)
                == cb.get(tuple(sorted((w, mapping[u]))), 0)
                for u in mapping)
            if ok and extend({**mapping, v: w}, remaining[1:]):
                return True
        return False

    return extend({0: 0}, list(range(1, size)))


def test_10_mckay_graphs_are_extended_dynkin_diagrams():
    for g in ALL_GAMMAS:
        graph = mckay_graph(g)
        ade_type = ade_type_of(g)
        expected = _expected_affine_edges(ade_type)
        assert graph.affine_node == 0
        assert _multigraph_matches(expected, graph.edges,
                                   len(graph.node_names)), g.label


def test_10_moved_class_counts_are_even():
    for family in ("Sp", "Spin_odd"):
        for n in range(0, 9):
            for w in (0, 1):
                assert count_twisted(OCT, family, n, w).moved % 2 == 0


def test_10_orthogonal_sector_routes_agree_to_dimension_25():
    total = 0
    for n in range(0, 13):
        for mv in multiplicity_vectors(OCT, Target("SO_odd", n)):
            sector_of_so_rep(mv)  # raises if the two routes disagree
            total += 1
    assert total > 10000


# -- the refined equivalence behind tests 2 and 3 ---------------------------------


def test_refined_swap_equivalence_over_the_catalogue():
    for g in ALL_GAMMAS:
        for n in range(1, 7):
            rep = verify_swap_equivalence(g, ("SU", "PU"), n)
            assert rep["equivalent"], (g.label, n)
    for g in EXCEPTIONAL_GAMMAS + [GroupSpec.cyclic(m) for m in (2, 3, 4)]:
        for n in range(1, 7):
            rep = verify_swap_equivalence(g, ("Sp", "Spin_odd"), n)
            assert rep["equivalent"], (g.label, n)
        try:
            rep = verify_swap_equivalence(g, ("Sp", "Spin_odd"), 0)
        except NotCoveredError:
            continue
        assert rep["equivalent"], g.label
