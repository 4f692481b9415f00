"""Level weights, S-matrices, and the diagram-vs-center conjugation check."""

import cmath
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcount import affine, cli, rootdata
from dualcount.abgroup import AbGroup
from dualcount.affine import (
    TOLERANCE,
    charge_conjugation,
    det_classes_from_center,
    level_weights,
    mckay_partner,
    parse_ade_type,
    s_matrix,
    smatrix_json,
    symmetry_error,
    unitarity_error,
    verify_s_conjugation,
)
from dualcount.counting import Target, count_homs
from dualcount.cyclotomic import Cyc
from dualcount.mckay import a_action, mckay_graph
from dualcount.suites import SMATRIX_GRID
from diagram_oracles import _diagram_edges, _finite_index_map
from frac_inverse import frac_inverse
from rep_routes import (conjugation_identifications, det_char,
                        det_classes_from_reps, det_route_report)
from weyl_residue import (residue_counts, residue_modulus, residue_s_matrix,
                          weyl_group)

# the grid the desk-scale budget is committed to
S_GRID = (
    [(f"A{k}", n) for k in range(1, 5) for n in range(1, 5)]
    + [("D4", 1), ("D4", 2), ("D5", 1), ("D5", 2)]
    + [("E6", 1), ("E6", 2)]
)


# -- type parsing and the partner map -----------------------------------------


def test_parse_accepts_the_simply_laced_names():
    assert parse_ade_type("A1") == ("A", 1)
    assert parse_ade_type("D6") == ("D", 6)
    assert parse_ade_type("E8") == ("E", 8)


@pytest.mark.parametrize("bad", ["B3", "C2", "F4", "G2", "A0", "D3", "E5", "E9", "", "A"])
def test_parse_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        parse_ade_type(bad)


@pytest.mark.parametrize("ade_type, label", [
    ("A1", "Z:2"), ("A4", "Z:5"), ("D4", "Dhat:2"), ("D6", "Dhat:4"),
    ("E6", "That"), ("E7", "Ohat"), ("E8", "Ihat"),
])
def test_mckay_partner(ade_type, label):
    assert mckay_partner(ade_type).label == label


def test_node_map_matches_the_embedding_search():
    # the stated node map is the one the backtracking search picks, on the
    # hand-listed diagrams, for every type whose partner the package accepts
    types = ([f"A{r}" for r in range(1, 48)] + [f"D{r}" for r in range(4, 51)]
             + ["E6", "E7", "E8"])
    for ade_type in types:
        g = mckay_partner(ade_type)
        graph = SimpleNamespace(node_names=mckay_graph(g).node_names,
                                affine_node=0, edges=_diagram_edges(g))
        c, idx, _ = affine._finite_structure(ade_type)
        assert idx == _finite_index_map(graph, c), ade_type


# -- level weights -------------------------------------------------------------


def test_a1_level_1_has_two_weights_vacuum_first():
    lw = level_weights("A1", 1)
    assert lw.weights == ((1, 0), (0, 1))
    assert lw.comarks == (1, 1)
    assert lw.node_names == ("0", "1")
    assert level_weights("E6", 1).node_names[0] == "1"


def test_a2_level_1_has_three_weights():
    assert level_weights("A2", 1).count == 3


def test_e7_level_2_matches_the_two_dim_reps_of_the_partner():
    lw = level_weights("E7", 2)
    assert lw.count == count_homs(mckay_partner("E7"), Target("U", 2)) == 6


@pytest.mark.parametrize("ade_type, levels", [
    ("A2", range(1, 6)), ("A5", range(1, 4)), ("D4", range(1, 5)),
    ("D6", range(1, 4)), ("E6", range(1, 4)), ("E7", range(1, 4)),
    ("E8", range(1, 4)),
])
def test_weight_count_equals_unitary_hom_count(ade_type, levels):
    g = mckay_partner(ade_type)
    for n in levels:
        assert level_weights(ade_type, n).count == count_homs(g, Target("U", n))


def test_weights_satisfy_the_level_constraint_in_descending_order():
    lw = level_weights("D5", 3)
    for w in lw.weights:
        assert sum(m * c for m, c in zip(w, lw.comarks)) == 3
    assert list(lw.weights) == sorted(set(lw.weights), reverse=True)
    assert lw.weights[0] == (3,) + (0,) * (len(lw.comarks) - 1)


@given(k=st.integers(1, 5), n=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_type_a_weight_count_is_stars_and_bars(k, n):
    assert level_weights(f"A{k}", n).count == math.comb(n + k, k)


@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_level_rejected(n):
    with pytest.raises(ValueError):
        level_weights("A2", n)


# -- S-matrix frozen examples ---------------------------------------------------


def test_a1_level_1_matrix():
    s = s_matrix("A1", 1).array()
    want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(s - want).max() < 1e-12


def test_a1_level_2_matrix():
    s = s_matrix("A1", 2).array()
    h = 1 / math.sqrt(2)
    want = np.array([[0.5, h, 0.5], [h, 0.0, -h], [0.5, -h, 0.5]])
    assert np.abs(s - want).max() < 1e-12


def test_a2_level_1_matrix_is_the_cube_root_table():
    s = s_matrix("A2", 1).array()
    w = cmath.exp(2j * cmath.pi / 3)
    want = np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]]) / math.sqrt(3)
    assert np.abs(s - want).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_a1_matches_the_sine_formula(n):
    s = s_matrix("A1", n).array()
    m0 = n + 2
    want = np.array([[math.sqrt(2 / m0) * math.sin(math.pi * (j + 1) * (k + 1) / m0)
                      for k in range(n + 1)] for j in range(n + 1)])
    assert np.abs(s - want).max() < 1e-12


def a1_exact_sine_table(n: int):
    """A1 entries at level n, exactly: row j, column k holds
    zeta^((j+1)(k+1)) - zeta^(-(j+1)(k+1)) at conductor 2(n+2), which is
    2*i*sin(pi*(j+1)*(k+1)/(n+2)); the numeric matrix must equal this table
    divided by 2i and scaled by sqrt(2/(n+2))."""
    m0 = n + 2
    rows = []
    for j in range(n + 1):
        row = []
        for k in range(n + 1):
            e = (j + 1) * (k + 1) % (2 * m0)
            row.append(Cyc.zeta(2 * m0, e) - Cyc.zeta(2 * m0, (-e) % (2 * m0)))
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("n", range(1, 6))
def test_a1_exact_cyclotomic_cross_check(n):
    m0 = n + 2
    tab = a1_exact_sine_table(n)
    # exact row orthogonality: sum_k T[j][k] T[l][k] = -2 m0 delta_{jl}
    for j in range(n + 1):
        for l in range(j, n + 1):
            acc = Cyc.from_rational(0, 2 * m0)
            for k in range(n + 1):
                acc = acc + tab[j][k] * tab[l][k]
            assert acc == Cyc.from_rational(-2 * m0 if j == l else 0, 2 * m0)
    # and the numeric matrix is the same table, scaled
    s = s_matrix("A1", n).array()
    for j in range(n + 1):
        for k in range(n + 1):
            exact = tab[j][k].complex_value() / 2j * math.sqrt(2 / m0)
            assert abs(s[j, k] - exact) < 1e-12


# -- S-matrix invariants ---------------------------------------------------------


@pytest.mark.parametrize("ade_type, n", S_GRID)
def test_s_is_unitary_symmetric_with_conjugation_involution(ade_type, n):
    sm = s_matrix(ade_type, n)
    assert unitarity_error(sm) < TOLERANCE
    assert symmetry_error(sm) < TOLERANCE
    perm, signs, err = charge_conjugation(sm)
    assert err < TOLERANCE
    assert set(signs) == {1}
    assert all(perm[perm[i]] == i for i in range(len(perm)))
    # the vacuum row is strictly positive
    assert (sm.array()[0].real > 1e-6).all()
    assert np.abs(sm.array()[0].imag).max() < TOLERANCE


def test_charge_conjugation_swaps_the_a2_fundamentals():
    perm, signs, _ = charge_conjugation(s_matrix("A2", 1))
    assert perm == (0, 2, 1)
    assert signs == (1, 1, 1)


def test_charge_conjugation_is_trivial_for_d4():
    perm, _, _ = charge_conjugation(s_matrix("D4", 1))
    assert perm == (0, 1, 2, 3)


# -- types beyond the reach of a Weyl group enumeration ---------------------------


@pytest.mark.parametrize("ade_type, levels", [
    ("E7", (1, 2, 3)), ("E8", (1, 2, 3)), ("A7", (1,)), ("D7", (1,)),
    ("A12", (2,)), ("D12", (2,)),
], ids=["E7", "E8", "A7", "D7", "A12", "D12"])
def test_large_types_run_without_the_weyl_group(ade_type, levels):
    for n in levels:
        sm = s_matrix(ade_type, n)
        assert unitarity_error(sm) <= 1e-12
        assert symmetry_error(sm) == 0
        assert charge_conjugation(sm)[2] < TOLERANCE
        assert verify_s_conjugation(sm)["holds"]


def test_e8_level_1_is_the_unit_matrix():
    assert np.abs(s_matrix("E8", 1).array() - np.eye(1)).max() < 1e-15


def test_e7_level_1_is_the_hadamard_matrix():
    want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(s_matrix("E7", 1).array() - want).max() < 1e-15


def test_e8_level_2_is_the_ising_matrix():
    sm = s_matrix("E8", 2)
    r = math.sqrt(2)
    want = np.array([[1, r, 1], [r, 0, -r], [1, -r, 1]]) / 2
    # the vacuum, then the two comark-2 nodes in McKay order
    assert sm.weights.weights[0] == (2,) + (0,) * 8
    assert np.abs(sm.array() - want).max() < 1e-15


@pytest.mark.parametrize("ade_type, count", [("E6", 27), ("E7", 126), ("E8", 2160)])
def test_coset_counts(ade_type, count):
    cos = affine._e_cosets(ade_type)
    assert len(cos.signs) == count == affine._determinant_shape("E", int(ade_type[1]))[1]
    reps = np.rint(np.linalg.inv(cos.inverses.astype(np.float64))).astype(np.int64)
    # row 0 of w_p is w_p(omega_0), the orbit point of coset p, and the
    # sign of w_p is its determinant
    assert len({tuple(w[0]) for w in reps}) == count
    dets = np.rint(np.linalg.det(reps.astype(np.float64))).astype(np.int64)
    assert (dets == cos.signs).all()


@pytest.mark.parametrize("ade_type", ["A1", "A5", "D4", "D7"])
def test_determinant_coordinates_keep_the_inner_product(ade_type):
    letter, rank = parse_ade_type(ade_type)
    cinv = frac_inverse(rootdata.cartan_data(letter, rank).cartan)
    rng = np.random.default_rng(rank)
    x, y = rng.integers(-3, 6, size=(2, rank))
    want = sum(int(x[i]) * cinv[i][j] * int(y[j])
               for i in range(rank) for j in range(rank))
    if letter == "A":
        xa, ya = affine._a_coords(x), affine._a_coords(y)
        got = int(xa @ ya) - Fraction(int(xa.sum()) * int(ya.sum()), rank + 1)
    else:
        got = Fraction(int(affine._d_coords(x) @ affine._d_coords(y)), 4)
    assert got == want


def test_weights_still_available_beyond_the_s_matrix_cap():
    assert level_weights("A7", 1).count == 8
    assert level_weights("E8", 1).count == 1


# -- determinant classes, two routes ----------------------------------------------


def test_a1_level_2_center_classes():
    lw = level_weights("A1", 2)
    assert lw.weights == ((2, 0), (1, 1), (0, 2))
    assert det_classes_from_center(lw) == ((0,), (1,), (0,))
    assert det_classes_from_reps(lw) == ((0,), (1,), (0,))


def test_e7_nontrivial_determinants_sit_on_the_primed_nodes():
    lw = level_weights("E7", 3)
    names = lw.node_names
    assert {n for n in names if det_char(mckay_partner("E7"), n) != (0,)} == \
        {"1'", "3'", "2''"}
    for w, cls in zip(lw.weights, det_classes_from_center(lw)):
        single = [names[i] for i, m in enumerate(w) if m]
        if len(single) == 1 and sum(w) == 1:
            assert (cls != (0,)) == (single[0] in ("1'", "3'", "2''"))


@pytest.mark.parametrize("ade_type, n", [
    ("A1", 4), ("A2", 3), ("A3", 2), ("A4", 2), ("A6", 2),
    ("D4", 2), ("D5", 2), ("D6", 2),
    ("E6", 2), ("E7", 2), ("E8", 2),
])
def test_det_routes_agree_exactly(ade_type, n):
    report = det_route_report(ade_type, n)
    assert report["compatible"]
    assert report["identifications"]


# -- conjugation of the two actions ------------------------------------------------


def test_a1_level_2_conjugation_diagonal_is_the_sign_of_the_class():
    sm = s_matrix("A1", 2)
    perm = a_action(mckay_partner("A1"))[(1,)]
    lw = sm.weights
    pos = {w: i for i, w in enumerate(lw.weights)}
    p = np.zeros((3, 3))
    for i, w in enumerate(lw.weights):
        moved = [0, 0]
        for node, mult in enumerate(w):
            moved[perm[node]] = mult
        p[pos[tuple(moved)], i] = 1.0
    s = sm.array()
    got = s @ p @ s.conj().T
    assert np.abs(got - np.diag([1.0, -1.0, 1.0])).max() < TOLERANCE


@pytest.mark.parametrize("ade_type, n", S_GRID)
def test_conjugation_holds_with_a_unique_identification(ade_type, n):
    report = verify_s_conjugation(s_matrix(ade_type, n))
    assert report["holds"]
    assert report["max_abs_error"] < TOLERANCE
    assert len(report["identification"]) == 1
    assert report["type"] == ade_type and report["level"] == n


@pytest.mark.parametrize("ade_type, n", list(SMATRIX_GRID) + [
    (t, n) for t in ("A5", "A6", "A7", "D6", "D7", "D8", "E7", "E8")
    for n in (1, 2)] + [("A47", 1)])
def test_read_identification_is_one_the_search_accepts(ade_type, n):
    # the identification read off the conjugation matrices is one of the
    # isomorphisms that trying them all accepts, and the only one
    sm = s_matrix(ade_type, n)
    report = verify_s_conjugation(sm)
    assert report["holds"]
    assert report["identification"] == conjugation_identifications(sm)


def _altered(sm, alter):
    values = np.array(sm.array())
    alter(values)
    values.flags.writeable = False
    return affine.SMatrix(sm.weights, values)


def test_conjugation_fails_on_relabelled_columns():
    sm = s_matrix("A3", 2)

    def swap(v):
        v[:, [0, 1]] = v[:, [1, 0]]

    def flip_column(v):
        v[:, 3] *= -1

    def flip_row(v):
        v[3] *= -1

    for alter in (swap, flip_column):
        report = verify_s_conjugation(_altered(sm, alter))
        assert not report["holds"]
        assert report["identification"] == []
        assert report["max_abs_error"] >= TOLERANCE
    # a row's sign is a sign of the basis on the left, D S: its conjugates
    # D (S P_a S^-1) D keep their diagonals, so the check still holds
    assert verify_s_conjugation(_altered(sm, flip_row)) == verify_s_conjugation(sm)


def test_conjugation_fails_on_a_small_rotation_of_two_rows():
    # rotating rows 0 and 1, of center classes 0 and 1, by an angle t turns
    # each conjugate D into V D V^-1: its diagonal moves by about t^2, under
    # the tolerance, and its off-diagonal part by about t, over it
    sm = s_matrix("A3", 2)
    assert det_classes_from_center(sm.weights)[:2] == ((0,), (1,))
    t = 1e-6

    def rotate(v):
        v[[0, 1]] = [math.cos(t) * v[0] - math.sin(t) * v[1],
                     math.sin(t) * v[0] + math.cos(t) * v[1]]

    report = verify_s_conjugation(_altered(sm, rotate))
    assert TOLERANCE < report["max_abs_error"] < 1e4 * t
    assert not report["holds"]
    assert report["identification"] == []


@pytest.mark.parametrize("relabel", [
    # a bijection of Z_4 that is not a homomorphism
    {(0,): (0,), (1,): (2,), (2,): (1,), (3,): (3,)},
    # a homomorphism that is not a bijection
    {(a,): (0,) for a in range(4)},
], ids=["not-a-homomorphism", "not-a-bijection"])
def test_conjugation_fails_unless_the_read_map_is_an_isomorphism(
        monkeypatch, relabel):
    # each symmetry a acts by the permutation of relabel[a]: every conjugate
    # is still a diagonal of center characters, so only the check that the
    # map read off them is an isomorphism refuses it
    true_action = a_action(mckay_partner("A3"))
    monkeypatch.setattr(affine.mckay, "a_action", lambda g: {
        a: true_action[b] for a, b in relabel.items()})
    report = verify_s_conjugation(s_matrix("A3", 2))
    assert report["max_abs_error"] < TOLERANCE
    assert not report["holds"]
    assert report["identification"] == []


def test_d4_level_1_is_the_triality_stable_case():
    report = verify_s_conjugation(s_matrix("D4", 1))
    assert report["holds"]
    assert s_matrix("D4", 1).size == 4


def test_e6_level_1_rotates_three_weights_by_cube_roots():
    lw = level_weights("E6", 1)
    assert lw.count == 3
    assert set(det_classes_from_center(lw)) == {(0,), (1,), (2,)}
    assert verify_s_conjugation(s_matrix("E6", 1))["holds"]


# -- JSON dump ---------------------------------------------------------------------


def test_smatrix_json_shape_and_fixed_precision():
    doc = smatrix_json(s_matrix("A1", 1))
    assert doc["type"] == "A1" and doc["level"] == 1
    assert doc["weights"] == [[1, 0], [0, 1]]
    assert doc["entries"][0][0] == [0.707106781187, 0.0]
    assert doc["entries"][1][1] == [-0.707106781187, 0.0]
    once = json.dumps(doc, sort_keys=True)
    again = json.dumps(smatrix_json(s_matrix("A1", 1)), sort_keys=True)
    assert once == again


# -- the residue route against the per-row Weyl sum --------------------------------


def _signed_orbit(mats, start):
    """The Weyl orbit of a regular vector with the sign of the element
    reaching each point, by breadth-first search from the vector itself.
    Regularity makes the sign well defined."""
    rank = len(start)
    assert rank <= 8, "orbit encoding supports rank <= 8"
    powers = (128 ** np.arange(rank)).astype(np.int64)

    def encode(arr):
        assert not arr.size or int(np.abs(arr).max()) < 64
        return (arr + 64) @ powers

    pts = np.asarray([start], dtype=np.int64)
    sgn = np.asarray([1], dtype=np.int64)
    keys = encode(pts)
    frontier, fsgn = pts, sgn
    while frontier.size:
        cand = np.concatenate([frontier @ m for m in mats])
        csgn = np.tile(-fsgn, len(mats))
        uniq, first = np.unique(encode(cand), return_index=True)
        fresh = ~np.isin(uniq, keys)
        frontier = cand[first[fresh]]
        fsgn = csgn[first[fresh]]
        pts = np.concatenate([pts, frontier])
        sgn = np.concatenate([sgn, fsgn])
        keys = np.concatenate([keys, uniq[fresh]])
    return pts, sgn


def _phase_sum(pts, sgn, right, k):
    """sum over orbit points p of sgn(p) * exp(-2*pi*i * (p @ right) / k)."""
    phases = np.exp(-2j * np.pi / k * (pts.astype(np.float64) @ right))
    return (sgn[:, None] * phases).sum(axis=0)


def _weight_reflections(c):
    """Simple reflections acting on weight coordinates by x -> x @ m."""
    mats = []
    for i in range(c.rank):
        m = np.eye(c.rank, dtype=np.int64)
        m[i, :] -= np.asarray(c.cartan[i], dtype=np.int64)
        mats.append(m)
    return mats


def _per_row_weyl_sum(ade_type, n):
    """S as the seed computed it: one orbit per row, phases in floating
    point at the unreduced argument (w(lam + rho), mu + rho) / k."""
    lw = level_weights(ade_type, n)
    c, idx, npos = affine._finite_structure(ade_type)
    shifted = np.ones((lw.count, c.rank))
    for a, w in enumerate(lw.weights):
        for node, j in idx.items():
            shifted[a, j] += w[node]
    gram = np.asarray([[float(x) for x in row]
                       for row in frac_inverse(c.cartan)])
    right = gram @ shifted.T
    k = n + sum(lw.comarks)
    mats = _weight_reflections(c)
    u = np.zeros((lw.count, lw.count), dtype=np.complex128)
    for a in range(lw.count):
        pts, sgn = _signed_orbit(mats, tuple(int(x) for x in shifted[a]))
        u[a] = _phase_sum(pts, sgn, right, k)
    scale = (1j ** (npos % 4)) / math.sqrt(float((np.abs(u) ** 2).sum()) / lw.count)
    return u * scale


@pytest.mark.parametrize("ade_type, n", S_GRID)
def test_residue_route_matches_the_per_row_weyl_sum(ade_type, n):
    want = _per_row_weyl_sum(ade_type, n)
    assert np.abs(residue_s_matrix(ade_type, n) - want).max() < 1e-12


@pytest.mark.parametrize("ade_type, n", S_GRID + [
    ("A5", 2), ("A6", 2), ("D6", 2), ("E6", 3), ("E7", 1)])
def test_determinant_route_matches_the_residue_route(ade_type, n):
    got = s_matrix(ade_type, n).array()
    want = residue_s_matrix(ade_type, n)
    assert np.abs(got - want).max() < 1e-13
    for part in (np.real, np.imag):
        assert (np.round(part(got), 12) == np.round(part(want), 12)).all()


@pytest.mark.parametrize("ade_type, n", S_GRID)
def test_residue_counts_are_exactly_symmetric(ade_type, n):
    counts = residue_counts(ade_type, n)
    size = level_weights(ade_type, n).count
    assert counts.shape == (size, size, residue_modulus(ade_type, n))
    assert (counts == counts.transpose(1, 0, 2)).all()
    # every row and column pair sees each Weyl group element once
    order = len(weyl_group(ade_type)[0])
    assert (np.abs(counts).sum(axis=2) <= order).all()


@pytest.mark.parametrize("ade_type, order", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120), ("A5", 720), ("A6", 5040),
    ("D4", 2 ** 3 * 24), ("D5", 2 ** 4 * 120), ("D6", 2 ** 5 * 720),
    ("E6", 51840),
])
def test_weyl_group_order_and_signs(ade_type, order):
    mats, signs = weyl_group(ade_type)
    assert mats.dtype == np.int8 and mats.shape[0] == order
    assert int(signs.astype(np.int64).sum()) == 0
    # the sign is the determinant, and rho has as many images as elements
    dets = np.rint(np.linalg.det(mats.astype(np.float64))).astype(np.int64)
    assert (dets == signs).all()
    rank = mats.shape[1]
    images = np.ones(rank, dtype=np.int64) @ mats.astype(np.int64)
    assert len({tuple(v) for v in images}) == order


def test_verify_smatrix_computes_each_grid_point_once(monkeypatch, capsys):
    # the suite hands the matrix it holds to every check of its grid point
    calls = []
    build = affine.s_matrix

    def counted(ade_type, n):
        calls.append((ade_type, n))
        return build(ade_type, n)

    monkeypatch.setattr(affine, "s_matrix", counted)
    assert cli.main(["verify", "smatrix"]) == 0
    assert calls == list(SMATRIX_GRID)


def test_s_matrix_array_is_read_only():
    # the suite hands one array to every check of a grid point
    sm = s_matrix("A2", 2)
    before = sm.array().copy()
    with pytest.raises(ValueError):
        sm.array()[0, 0] = 0
    assert np.array_equal(s_matrix("A2", 2).array(), before)
    assert s_matrix("A2", 2) == affine.SMatrix(sm.weights, before)
    assert sm != affine.SMatrix(sm.weights, before.conj())


@pytest.mark.parametrize("ade_type", sorted({t for t, _ in SMATRIX_GRID}))
def test_center_characters_match_the_cyclotomic_roots_of_unity(ade_type):
    center = AbGroup(affine._finite_structure(ade_type)[0].center_moduli)
    e = center.exponent
    chis = center.elements()
    got = affine._center_characters(center, chis)
    for z in center.elements():
        want = [Cyc.zeta(e, sum(c * a * (e // d) for c, a, d
                                in zip(chi, z, center.moduli))).complex_value()
                for chi in chis]
        assert np.abs(got[z] - want).max() <= 1e-15


def _fsum_s_matrix(ade_type, n):
    """S from the exact residue counts, each entry summed with math.fsum."""
    counts = residue_counts(ade_type, n)
    size, _, modulus = counts.shape
    angles = [-2 * math.pi * r / modulus for r in range(modulus)]
    u = np.asarray([[complex(
        math.fsum(int(c) * math.cos(t) for c, t in zip(cell, angles)),
        math.fsum(int(c) * math.sin(t) for c, t in zip(cell, angles)))
        for cell in row] for row in counts])
    npos = affine._finite_structure(ade_type)[2]
    return u * (1j ** (npos % 4)) / math.sqrt(
        math.fsum(float(abs(z)) ** 2 for z in u.ravel()) / size)


def test_e6_level_2_json_is_symmetric_and_correctly_rounded():
    entries = smatrix_json(s_matrix("E6", 2))["entries"]
    size = len(entries)
    assert all(entries[a][b] == entries[b][a]
               for a in range(size) for b in range(size))
    want = _fsum_s_matrix("E6", 2)
    assert entries == [[[round(z.real, 12) + 0.0, round(z.imag, 12) + 0.0]
                        for z in row] for row in want]
    # the seed printed ...248 and ...129 here
    assert entries[0][4][0] == 0.341219233249
    assert entries[1][5][0] == entries[1][8][0] == -0.212746712128


def test_e6_level_2_entries_are_within_1e_15_of_40_digit_values():
    mp = pytest.importorskip("mpmath")
    counts = residue_counts("E6", 2)
    size, _, modulus = counts.shape
    with mp.workdps(40):
        roots = [mp.expjpi(mp.mpf(-2 * r) / modulus) for r in range(modulus)]
        u = [[mp.fsum(int(c) * z for c, z in zip(cell, roots) if c)
              for cell in row] for row in counts]
        norm = mp.sqrt(mp.fsum(abs(z) ** 2 for row in u for z in row) / size)
        phase = 1j ** (affine._finite_structure("E6")[2] % 4)
        s = s_matrix("E6", 2).array()
        err = max(abs(mp.mpc(s[a][b]) - u[a][b] * phase / norm)
                  for a in range(size) for b in range(size))
        # both sit within 4e-15 of a twelve-digit rounding boundary
        assert abs((u[0][4] * phase / norm).real
                   - mp.mpf("0.3412192332485034612")) < 1e-18
        assert abs((u[1][5] * phase / norm).real
                   - mp.mpf("-0.2127467121284984034")) < 1e-18
    assert err < 1e-15
