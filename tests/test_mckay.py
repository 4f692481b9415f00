"""McKay graphs and the 1-dim tensoring action."""

import pytest
from hypothesis import given, settings, strategies as st

from diagram_oracles import _diagram_edges
from dualcount.grouprep import MAX_GROUP_PARAM, GroupSpec
from dualcount.mckay import a_action, ade_type_of, mckay_graph, mckay_json

ALL_GROUPS = (
    [GroupSpec.cyclic(n) for n in (1, 2, 3, 4, 7, 12)]
    + [GroupSpec.binary_dihedral(m) for m in (2, 3, 4, 5, 6)]
    + [GroupSpec.binary_tetrahedral(), GroupSpec.binary_octahedral(),
       GroupSpec.binary_icosahedral()]
)

# every group label the package accepts
EVERY_GROUP = (
    [GroupSpec.cyclic(m) for m in range(1, MAX_GROUP_PARAM + 1)]
    + [GroupSpec.binary_dihedral(m) for m in range(2, MAX_GROUP_PARAM + 1)]
    + [GroupSpec.binary_tetrahedral(), GroupSpec.binary_octahedral(),
       GroupSpec.binary_icosahedral()]
)


def test_ade_types():
    assert ade_type_of(GroupSpec.cyclic(1)) == "A0"
    assert ade_type_of(GroupSpec.cyclic(5)) == "A4"
    assert ade_type_of(GroupSpec.binary_dihedral(2)) == "D4"
    assert ade_type_of(GroupSpec.binary_dihedral(6)) == "D8"
    assert ade_type_of(GroupSpec.binary_tetrahedral()) == "E6"
    assert ade_type_of(GroupSpec.binary_octahedral()) == "E7"
    assert ade_type_of(GroupSpec.binary_icosahedral()) == "E8"


def test_graphs_build_for_all_groups():
    # construction cross-checks computed adjacency against expected shapes
    for g in ALL_GROUPS:
        graph = mckay_graph(g)
        assert graph.affine_node == 0
        assert graph.comarks[0] == 1
        assert sum(c * c for c in graph.comarks) == g.order


def test_edges_read_off_the_cartan_data_match_the_listed_diagrams():
    # the character tables check the graphs to m = 24 (test_closed_forms);
    # the hand-listed diagrams reach every label
    assert len(EVERY_GROUP) == 98
    for g in EVERY_GROUP:
        assert mckay_graph(g).edges == tuple(sorted(_diagram_edges(g))), g.label


def test_cyclic_graph_shapes():
    assert mckay_graph(GroupSpec.cyclic(1)).edges == ((0, 0), (0, 0))
    assert mckay_graph(GroupSpec.cyclic(2)).edges == ((0, 1), (0, 1))
    g4 = mckay_graph(GroupSpec.cyclic(4))
    assert g4.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert g4.comarks == (1, 1, 1, 1)


def test_octahedral_graph():
    graph = mckay_graph(GroupSpec.binary_octahedral())
    assert graph.node_names == ("1", "2", "3", "4", "3'", "2'", "1'", "2''")
    assert graph.comarks == (1, 2, 3, 4, 3, 2, 1, 2)
    assert graph.edges == (
        (0, 1), (1, 2), (2, 3), (3, 4), (3, 7), (4, 5), (5, 6))


def test_icosahedral_graph():
    graph = mckay_graph(GroupSpec.binary_icosahedral())
    assert graph.comarks == (1, 2, 3, 4, 5, 6, 4, 2, 3)
    assert (5, 8) in graph.edges


def test_dihedral_graph_small():
    graph = mckay_graph(GroupSpec.binary_dihedral(2))
    # central 2-dim node with four comark-1 leaves
    assert graph.node_names == ("1", "2_1", "1'''", "1'", "1''")
    assert graph.edges == ((0, 1), (1, 2), (1, 3), (1, 4))


def test_a_action_octahedral():
    perms = a_action(GroupSpec.binary_octahedral())
    assert list(perms) == [(0,), (1,)]
    assert perms[(0,)] == (0, 1, 2, 3, 4, 5, 6, 7)
    assert perms[(1,)] == (6, 5, 4, 3, 2, 1, 0, 7)


def test_a_action_tetrahedral():
    perms = a_action(GroupSpec.binary_tetrahedral())
    assert list(perms) == [(0,), (1,), (2,)]
    assert perms[(1,)] == (4, 3, 2, 5, 6, 1, 0)
    # order three
    p = perms[(1,)]
    q = perms[(2,)]
    assert tuple(p[q[i]] for i in range(7)) == perms[(0,)]


def test_a_action_dihedral_even():
    perms = a_action(GroupSpec.binary_dihedral(4))
    m = 4
    p1 = perms[(1, 0)]  # tensor by 1'
    assert p1[0] == m + 1 and p1[m + 1] == 0
    assert p1[m] == m + 2 and p1[m + 2] == m
    assert all(p1[k] == k for k in range(1, m))
    p3 = perms[(0, 1)]  # tensor by 1'''
    assert p3[0] == m and p3[m] == 0
    assert all(p3[k] == m - k for k in range(1, m))


def test_a_action_simply_transitive_everywhere():
    for g in ALL_GROUPS:
        perms = a_action(g)
        graph = mckay_graph(g)
        fund = sorted(i for i, c in enumerate(graph.comarks) if c == 1)
        images = sorted(p[0] for p in perms.values())
        assert images == fund
        assert len(perms) == len(fund)


@settings(deadline=None, max_examples=15)
@given(st.integers(2, 10))
def test_dihedral_graphs_validate(m):
    graph = mckay_graph(GroupSpec.binary_dihedral(m))
    assert graph.n_nodes == m + 3
    assert sorted(graph.comarks) == [1, 1, 1, 1] + [2] * (m - 1)


def test_mckay_json_shape():
    doc = mckay_json(GroupSpec.binary_tetrahedral())
    assert doc["ade_type"] == "E6"
    assert doc["nodes"][0] == {"irrep": "1", "comark": 1}
    assert doc["affine_node"] == 0
    assert [tuple(e) for e in doc["edges"]] == [
        (0, 1), (1, 2), (2, 3), (2, 5), (3, 4), (5, 6)]
    assert doc["a_action"]["1"] == [0, 1, 2, 3, 4, 5, 6]
    assert doc["a_action"]["1'"] == [4, 3, 2, 5, 6, 1, 0]
    assert set(doc["a_action"]) == {"1", "1'", "1''"}


def test_graphs_are_frozen_and_built_once():
    g = GroupSpec.binary_tetrahedral()
    graph = mckay_graph(g)
    assert mckay_graph(GroupSpec.binary_tetrahedral()) is graph
    with pytest.raises(AttributeError):
        graph.affine_node = 1
