"""The library's irreducible data against the character-table oracle.

The library reads no character table: Z:m and Dhat:m have closed forms and
That, Ohat and Ihat literal data.  Every piece of that data must equal what
the exact tables in char_tables give, for both parities of m and for the
three exceptional groups.
"""

import json

import pytest

import char_tables
from dualcount.grouprep import (GroupSpec, abelianization, irrep_table_json,
                                irreps, onedim_permutations)
from dualcount.mckay import a_action, mckay_graph, mckay_json

# m <= 24 covers both parities of m; the same check up to
# grouprep.MAX_GROUP_PARAM passes as well, but takes about 100 s
FAMILIES = ([GroupSpec.cyclic(m) for m in range(1, 25)]
            + [GroupSpec.binary_dihedral(m) for m in range(2, 25)]
            + [GroupSpec.binary_tetrahedral(), GroupSpec.binary_octahedral(),
               GroupSpec.binary_icosahedral()])


@pytest.mark.parametrize("g", FAMILIES, ids=lambda g: g.label)
def test_closed_forms_match_the_character_tables(g):
    assert irreps(g) == char_tables.irreps(g)

    ab, oracle_ab = abelianization(g), char_tables.abelianization(g)
    assert ab.group == oracle_ab.group
    assert ab.generator_names == oracle_ab.generator_names
    assert list(ab.name_of.items()) == list(oracle_ab.name_of.items())
    assert ab.element_of == oracle_ab.element_of

    perms = onedim_permutations(g)
    assert list(perms.items()) == list(char_tables.onedim_permutations(g).items())

    graph = mckay_graph(g)
    assert graph.node_names == tuple(i.name for i in char_tables.irreps(g))
    assert graph.comarks == tuple(i.dim for i in char_tables.irreps(g))
    assert graph.edges == char_tables.mckay_edges(g)

    assert a_action(g) == dict(char_tables.onedim_permutations(g))

    assert (json.dumps(irrep_table_json(g))
            == json.dumps(char_tables.irrep_table_json(g)))
    assert json.dumps(mckay_json(g)) == json.dumps(char_tables.mckay_json(g))
