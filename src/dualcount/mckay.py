"""McKay graphs of the finite SU(2) subgroups.

Nodes are the irreducibles in canonical order, and the node marked
`affine_node` is the trivial irrep; comarks are the irrep dimensions.  The
edges are the extended Dynkin diagrams themselves (McKay 1980): A(m-1) for
Z:m, D(m+2) for Dhat:m and E6, E7, E8 for That, Ohat and Ihat, in the node
order of grouprep.  The tests compare them with the decompositions of
irrep ⊗ defining 2-dim rep read off the character tables.  Every graph must
satisfy the McKay dimension identity sum_j a_ij dim_j = 2 dim_i, which ties
the edges to grouprep's dimensions.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantError
from .grouprep import (
    CYCLIC,
    DIHEDRAL,
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    GroupSpec,
    abelianization,
    irreps,
    onedim_permutations,
)
from .record import Record


class McKayGraph(Record):
    __slots__ = ("ade_type", "node_names", "comarks", "edges", "affine_node")

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)


class AAction(Record):
    """Graph automorphisms from tensoring with 1-dim irreps.

    perms maps each abelianization element to the induced node permutation;
    the action is simply transitive on comark-1 nodes.
    """

    __slots__ = ("moduli", "onedim_of", "perms")


def ade_type_of(g: GroupSpec) -> str:
    if g.family == CYCLIC:
        return f"A{g.param - 1}"
    if g.family == DIHEDRAL:
        return f"D{g.param + 2}"
    return {TETRAHEDRAL: "E6", OCTAHEDRAL: "E7", ICOSAHEDRAL: "E8"}[g.family]


def _diagram_edges(g: GroupSpec) -> list[tuple[int, int]]:
    """The extended Dynkin diagram of g, on grouprep's node order; a loop
    appears once per unit of its multiplicity."""
    if g.family == CYCLIC:
        n = g.param
        if n == 1:
            return [(0, 0), (0, 0)]
        if n == 2:
            return [(0, 1), (0, 1)]
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if g.family == DIHEDRAL:
        m = g.param
        # order: [1, 2_1 .. 2_{m-1}, 1''', 1', 1'']
        spine = [(k, k + 1) for k in range(m)]  # 1-2_1-...-2_{m-1}-1'''
        return spine + [(1, m + 1), (m - 1, m + 2)]
    if g.family == TETRAHEDRAL:
        # order: [1, 2, 3, 2', 1', 2'', 1'']
        return [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
    if g.family == OCTAHEDRAL:
        # order: [1, 2, 3, 4, 3', 2', 1', 2'']
        return [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)]
    # order: [1, 2, 3, 4, 5, 6, 4', 2', 3']
    return [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]


@lru_cache(maxsize=None)
def mckay_graph(g: GroupSpec) -> McKayGraph:
    dims = [i.dim for i in irreps(g)]
    edges = sorted(_diagram_edges(g))
    # sum_j a_ij dim_j over the edges at i, a loop counted once
    around = [0] * len(dims)
    for i, j in edges:
        around[i] += dims[j]
        if i != j:
            around[j] += dims[i]
    if around != [2 * d for d in dims]:
        raise InvariantError(
            f"the McKay graph of {g.label} violates the dimension identity")
    return McKayGraph(
        ade_type_of(g),
        tuple(i.name for i in irreps(g)),
        tuple(dims),  # comarks
        tuple(edges),
        0,  # affine_node
    )


def a_action(g: GroupSpec) -> AAction:
    graph = mckay_graph(g)
    ab = abelianization(g)
    perms = {}
    for el, perm in onedim_permutations(g).items():
        if sorted(perm) != list(range(graph.n_nodes)):
            raise InvariantError("tensoring by a 1-dim irrep must permute nodes")
        for i, j in enumerate(perm):
            if graph.comarks[i] != graph.comarks[j]:
                raise InvariantError("node permutation must preserve comarks")
        mapped = sorted(tuple(sorted((perm[i], perm[j]))) for i, j in graph.edges)
        if mapped != sorted(graph.edges):
            raise InvariantError("node permutation must preserve the edge multiset")
        perms[el] = perm
    # simple transitivity on comark-1 nodes
    fund = sorted(i for i, c in enumerate(graph.comarks) if c == 1)
    orbit = sorted(perm[graph.affine_node] for perm in perms.values())
    if orbit != fund:
        raise InvariantError("1-dim tensoring must act simply transitively "
                             "on comark-1 nodes")
    return AAction(ab.group.moduli, dict(ab.name_of), perms)


def mckay_json(g: GroupSpec) -> dict:
    graph = mckay_graph(g)
    act = a_action(g)
    return {
        "ade_type": graph.ade_type,
        "nodes": [
            {"irrep": n, "comark": c}
            for n, c in zip(graph.node_names, graph.comarks)
        ],
        "edges": [list(e) for e in graph.edges],
        "affine_node": graph.affine_node,
        "a_action": {
            act.onedim_of[el]: list(act.perms[el])
            for el in sorted(act.perms)
        },
    }
