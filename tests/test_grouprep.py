"""Character tables, irreducibles, cohomology, and octahedral extras."""

import pytest
from hypothesis import given, settings, strategies as st

from char_tables import (character_table, decompose_defining_tensor,
                         defining_char, dihedral_mult, tensor_with_onedim)
from dualcount.errors import NotCoveredError
from dualcount.grouprep import (
    COMPLEX,
    PSEUDOREAL,
    REAL,
    GroupSpec,
    abelianization,
    irrep_table_json,
    irreps,
    onedim_permutations,
)
from dualcount.refined import twisted_irreps, twisted_x_action
from rep_routes import (SWClass, det_char, irrep_by_name, kernel_of_scaling,
                        sw_class, sw_of_multiplicity_vector)

ALL_GROUPS = (
    [GroupSpec.cyclic(n) for n in (1, 2, 3, 4, 5, 7, 8, 12)]
    + [GroupSpec.binary_dihedral(m) for m in (2, 3, 4, 5, 6)]
    + [GroupSpec.binary_tetrahedral(), GroupSpec.binary_octahedral(),
       GroupSpec.binary_icosahedral()]
)


def test_labels_roundtrip():
    for g in ALL_GROUPS:
        assert GroupSpec.from_label(g.label) == g
    assert GroupSpec.from_label("Z:7") == GroupSpec.cyclic(7)
    assert GroupSpec.from_label("Dhat:5") == GroupSpec.binary_dihedral(5)
    for bad in ("Q:3", "Z:x", "Z:", "dhat:3", "That:2"):
        with pytest.raises(ValueError):
            GroupSpec.from_label(bad)


def test_orders():
    assert GroupSpec.cyclic(7).order == 7
    assert GroupSpec.binary_dihedral(5).order == 20
    assert GroupSpec.binary_tetrahedral().order == 24
    assert GroupSpec.binary_octahedral().order == 48
    assert GroupSpec.binary_icosahedral().order == 120


def test_tables_build_and_validate():
    # construction runs orthogonality and inversion checks internally; the
    # tables of Z:m and Dhat:m are the tests' oracle (char_tables)
    for g in ALL_GROUPS:
        t = character_table(g)
        assert sum(t.dim(n) ** 2 for n in t.irrep_names) == g.order


def test_canonical_irrep_orders():
    assert [i.name for i in irreps(GroupSpec.cyclic(4))] == ["0", "1", "2", "3"]
    assert [i.name for i in irreps(GroupSpec.binary_dihedral(3))] == [
        "1", "2_1", "2_2", "1'''", "1'", "1''"]
    assert [i.name for i in irreps(GroupSpec.binary_tetrahedral())] == [
        "1", "2", "3", "2'", "1'", "2''", "1''"]
    assert [i.name for i in irreps(GroupSpec.binary_octahedral())] == [
        "1", "2", "3", "4", "3'", "2'", "1'", "2''"]
    assert [i.name for i in irreps(GroupSpec.binary_icosahedral())] == [
        "1", "2", "3", "4", "5", "6", "4'", "2'", "3'"]


def test_defining_rep_is_pseudoreal_dim2():
    for g in ALL_GROUPS:
        t = character_table(g)
        chi = defining_char(g)
        assert chi[0].integer() == 2
        # self-conjugate with indicator -1 unless it splits (cyclic case)
        if g.family != "cyclic":
            name = t.name_of_char(chi)
            assert t.multiplicity(chi, name) == 1
            assert irrep_by_name(g, name).reality == PSEUDOREAL


def test_reality_types_octahedral():
    expected = {
        "1": REAL, "2": PSEUDOREAL, "3": REAL, "4": PSEUDOREAL,
        "3'": REAL, "2'": PSEUDOREAL, "1'": REAL, "2''": REAL,
    }
    for i in irreps(GroupSpec.binary_octahedral()):
        assert i.reality == expected[i.name]
        assert i.partner is None


def test_reality_types_tetrahedral():
    g = GroupSpec.binary_tetrahedral()
    by_name = {i.name: i for i in irreps(g)}
    assert by_name["1"].reality == REAL
    assert by_name["3"].reality == REAL
    assert by_name["2"].reality == PSEUDOREAL
    assert by_name["1'"].reality == COMPLEX and by_name["1'"].partner == "1''"
    assert by_name["1''"].partner == "1'"
    assert by_name["2'"].reality == COMPLEX and by_name["2'"].partner == "2''"


def test_reality_types_icosahedral():
    g = GroupSpec.binary_icosahedral()
    by_name = {i.name: i for i in irreps(g)}
    for name in ("1", "3", "5", "4'", "3'"):
        assert by_name[name].reality == REAL
    for name in ("2", "4", "6", "2'"):
        assert by_name[name].reality == PSEUDOREAL


def test_reality_types_cyclic():
    g = GroupSpec.cyclic(5)
    by_name = {i.name: i for i in irreps(g)}
    assert by_name["0"].reality == REAL
    for k in (1, 2, 3, 4):
        info = by_name[str(k)]
        assert info.reality == COMPLEX
        assert info.partner == str((5 - k) % 5)
    even = {i.name: i for i in irreps(GroupSpec.cyclic(6))}
    assert even["3"].reality == REAL


def test_reality_types_dihedral():
    odd = {i.name: i for i in irreps(GroupSpec.binary_dihedral(5))}
    assert odd["1"].reality == REAL and odd["1'"].reality == REAL
    assert odd["1''"].reality == COMPLEX and odd["1''"].partner == "1'''"
    assert odd["2_1"].reality == PSEUDOREAL
    assert odd["2_2"].reality == REAL
    assert odd["2_3"].reality == PSEUDOREAL
    even = {i.name: i for i in irreps(GroupSpec.binary_dihedral(4))}
    for name in ("1", "1'", "1''", "1'''"):
        assert even[name].reality == REAL
    assert even["2_1"].reality == PSEUDOREAL
    assert even["2_2"].reality == REAL


def test_determinant_characters():
    tet = {i.name: i.det for i in irreps(GroupSpec.binary_tetrahedral())}
    assert tet == {"1": "1", "2": "1", "3": "1", "2'": "1''", "1'": "1'",
                   "2''": "1'", "1''": "1''"}
    oct_ = {i.name: i.det for i in irreps(GroupSpec.binary_octahedral())}
    assert oct_ == {"1": "1", "2": "1", "3": "1", "4": "1",
                    "3'": "1'", "2'": "1", "1'": "1'", "2''": "1'"}
    ico = {i.name: i.det for i in irreps(GroupSpec.binary_icosahedral())}
    assert all(v == "1" for v in ico.values())
    dih = {i.name: i.det for i in irreps(GroupSpec.binary_dihedral(5))}
    assert dih["2_1"] == "1" and dih["2_3"] == "1"
    assert dih["2_2"] == "1'"
    assert dih["1''"] == "1''"
    cyc = {i.name: i.det for i in irreps(GroupSpec.cyclic(6))}
    assert all(cyc[str(k)] == str(k) for k in range(6))


def test_det_char_elements():
    g = GroupSpec.binary_octahedral()
    assert det_char(g, "3'") == (1,)
    assert det_char(g, "4") == (0,)
    with pytest.raises(ValueError):
        det_char(g, "7")


def test_abelianizations():
    assert abelianization(GroupSpec.cyclic(8)).group.moduli == (8,)
    assert abelianization(GroupSpec.binary_dihedral(5)).group.moduli == (4,)
    assert abelianization(GroupSpec.binary_dihedral(4)).group.moduli == (2, 2)
    assert abelianization(GroupSpec.binary_tetrahedral()).group.moduli == (3,)
    assert abelianization(GroupSpec.binary_octahedral()).group.moduli == (2,)
    assert abelianization(GroupSpec.binary_icosahedral()).group.moduli == ()
    # generator bookkeeping: names and elements are mutually inverse
    for g in ALL_GROUPS:
        ab = abelianization(g)
        for el, name in ab.name_of.items():
            assert ab.element_of[name] == el


def test_abelianization_names_tetrahedral():
    ab = abelianization(GroupSpec.binary_tetrahedral())
    assert ab.name_of[(0,)] == "1"
    assert ab.name_of[(1,)] == "1'"
    assert ab.name_of[(2,)] == "1''"


def test_abelianization_names_dihedral_odd():
    ab = abelianization(GroupSpec.binary_dihedral(3))
    assert ab.name_of[(0,)] == "1"
    assert ab.name_of[(1,)] == "1''"
    assert ab.name_of[(2,)] == "1'"
    assert ab.name_of[(3,)] == "1'''"


def test_abelianization_names_dihedral_even():
    ab = abelianization(GroupSpec.binary_dihedral(4))
    assert ab.name_of[(1, 0)] == "1'"
    assert ab.name_of[(0, 1)] == "1'''"
    assert ab.name_of[(1, 1)] == "1''"


def _ab(g):
    return abelianization(g).group


def test_cohomology_degree1():
    # H^1(G, Z_2) is the 2-torsion of the abelianization; the cyclic case is
    # test_cyclotomic's test_kernel_of_scaling
    assert sorted(kernel_of_scaling(_ab(GroupSpec.binary_octahedral()), 2)) == [
        (0,), (1,)]
    assert kernel_of_scaling(_ab(GroupSpec.binary_tetrahedral()), 2) == [(0,)]
    assert kernel_of_scaling(_ab(GroupSpec.binary_icosahedral()), 2) == [()]
    assert len(kernel_of_scaling(_ab(GroupSpec.binary_dihedral(4)), 2)) == 4


def test_tensor_with_onedim():
    tet = GroupSpec.binary_tetrahedral()
    assert tensor_with_onedim(tet, "3", "1'") == "3"
    assert tensor_with_onedim(tet, "2", "1'") == "2'"
    assert tensor_with_onedim(tet, "2'", "1'") == "2''"
    oct_ = GroupSpec.binary_octahedral()
    assert tensor_with_onedim(oct_, "3", "1'") == "3'"
    assert tensor_with_onedim(oct_, "2", "1'") == "2'"
    assert tensor_with_onedim(oct_, "2''", "1'") == "2''"
    assert tensor_with_onedim(oct_, "4", "1'") == "4"


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.label)
def test_onedim_permutations_match_character_products(g):
    # the table composes generator permutations; every entry must equal the
    # permutation read off that element's own 1-dim character
    ab = abelianization(g)
    names = [info.name for info in irreps(g)]
    table = onedim_permutations(g)
    assert sorted(table) == ab.group.elements()
    for el, perm in table.items():
        onedim = ab.name_of[el]
        assert perm == tuple(
            names.index(tensor_with_onedim(g, nm, onedim)) for nm in names)


def test_defining_tensor_decompositions():
    oct_ = GroupSpec.binary_octahedral()
    assert decompose_defining_tensor(oct_, "1") == {"2": 1}
    assert decompose_defining_tensor(oct_, "2") == {"1": 1, "3": 1}
    assert decompose_defining_tensor(oct_, "4") == {"3": 1, "3'": 1, "2''": 1}
    assert decompose_defining_tensor(oct_, "2'") == {"3'": 1, "1'": 1}
    tet = GroupSpec.binary_tetrahedral()
    assert decompose_defining_tensor(tet, "3") == {"2": 1, "2'": 1, "2''": 1}
    z1 = GroupSpec.cyclic(1)
    assert decompose_defining_tensor(z1, "0") == {"0": 2}
    z2 = GroupSpec.cyclic(2)
    assert decompose_defining_tensor(z2, "0") == {"1": 2}


def test_twisted_irreps():
    tw = twisted_irreps(GroupSpec.binary_octahedral())
    assert [t.name for t in tw] == ["1t", "2t", "3t", "4t", "3t'", "2t'", "1t'", "2t''"]
    assert [t.dim for t in tw] == [1, 2, 3, 4, 3, 2, 1, 2]
    assert sum(t.dim ** 2 for t in tw) == 48
    by = {t.name: t for t in tw}
    assert by["4t"].reality == REAL
    assert by["2t''"].reality == PSEUDOREAL
    assert by["1t"].partner == "1t'"
    assert by["3t'"].partner == "3t"
    x = twisted_x_action(GroupSpec.binary_octahedral())
    assert x["2t"] == "2t'" and x["4t"] == "4t" and x["2t''"] == "2t''"
    for g in (GroupSpec.binary_tetrahedral(), GroupSpec.cyclic(4)):
        with pytest.raises(NotCoveredError):
            twisted_irreps(g)


def test_sw_classes():
    g = GroupSpec.binary_octahedral()
    assert sw_class(g, "1") == SWClass(0, 0)
    assert sw_class(g, "1'") == SWClass(1, 0)
    assert sw_class(g, "3'") == SWClass(1, 1)
    assert sw_class(g, "2''") == SWClass(1, 0)
    assert sw_class(g, "2") == SWClass(0, 0)
    # w1 always agrees with the determinant being the sign character
    for i in irreps(g):
        assert sw_class(g, i.name).w1 == (0 if i.det == "1" else 1)
    with pytest.raises(NotCoveredError):
        sw_class(GroupSpec.binary_icosahedral(), "2")
    with pytest.raises(ValueError):
        sw_class(g, "9")


def test_sw_whitney_formula():
    # direct sums: (a, b) + (a', b') = (a + a', b + b' + a a')
    g = GroupSpec.binary_octahedral()
    assert sw_of_multiplicity_vector(g, {"2''": 1, "1'": 1}) == SWClass(0, 1)
    assert sw_of_multiplicity_vector(g, {"1": 1, "1'": 2}) == SWClass(0, 1)
    assert sw_of_multiplicity_vector(g, {"3": 1}) == SWClass(0, 0)
    assert sw_of_multiplicity_vector(g, {"1": 3}) == SWClass(0, 0)
    assert sw_of_multiplicity_vector(g, {"3'": 1, "1'": 1}) == SWClass(0, 0)
    # power consistency: n copies via combine
    for name in ("1'", "3'", "2''", "3"):
        acc = SWClass(0, 0)
        for n in range(1, 6):
            acc = acc.combine(sw_class(g, name))
            assert acc == sw_class(g, name).power(n)


def test_irrep_table_json_shape():
    doc = irrep_table_json(GroupSpec.binary_tetrahedral())
    assert doc["group"] == "That"
    assert doc["order"] == 24
    assert [row["name"] for row in doc["irreps"]] == [
        "1", "2", "3", "2'", "1'", "2''", "1''"]
    row = doc["irreps"][3]
    assert row == {"name": "2'", "dim": 2, "reality": COMPLEX,
                   "partner": "2''", "det": "1''", "node": 3}


def test_dihedral_group_law_is_associative():
    for m in (2, 3):
        mult = dihedral_mult(m)
        els = [(t, j) for t in (0, 1) for j in range(2 * m)]
        for x in els:
            for y in els:
                for z in els:
                    assert mult(mult(x, y), z) == mult(x, mult(y, z))


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 9))
def test_dihedral_tables_validate(m):
    t = character_table(GroupSpec.binary_dihedral(m))
    assert t.n_classes == m + 3
    assert t.dim("2_1") == 2


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 16))
def test_cyclic_partner_involution(n):
    for i in irreps(GroupSpec.cyclic(n)):
        if i.partner is not None:
            assert irrep_by_name(GroupSpec.cyclic(n), i.partner).partner == i.name


def test_frobenius_schur_sum_rule():
    # sum of indicators times dims counts square roots of the identity;
    # for these groups only +-1 square to 1, so the sum is 2 (order > 1)
    for g in ALL_GROUPS:
        if g.order == 1:
            continue
        t = character_table(g)
        total = 0
        for i in irreps(g):
            ind = {REAL: 1, PSEUDOREAL: -1, COMPLEX: 0}[i.reality]
            total += ind * i.dim
        if g.family == "cyclic" and g.param % 2 == 1:
            assert total == 1  # odd cyclic: only the identity squares to 1
        else:
            assert total == 2
