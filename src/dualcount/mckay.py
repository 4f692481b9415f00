"""McKay graphs of the finite SU(2) subgroups.

Nodes are the irreducibles in canonical order, and the node marked
`affine_node` is the trivial irrep; comarks are the irrep dimensions.  The
McKay graph of g is the extended Dynkin diagram of its type (McKay 1980):
A(m-1) for Z:m, D(m+2) for Dhat:m and E6, E7, E8 for That, Ohat and Ihat.
`kac_nodes` states that correspondence once, as the node of rootdata's
extended diagram that each irrep is, and the edges are read off the Cartan
data through it, so rootdata is the one statement of every diagram.  Only
Z:1, of type A0, which rootdata does not have, keeps a literal double loop.  A wrong
node map cannot pass for a graph: every graph must satisfy the McKay
dimension identity sum_j a_ij dim_j = 2 dim_i, which holds exactly when the
irrep dimensions are the marks of the highest root read through the map.
The tests compare the graphs with the decompositions of irrep ⊗ defining
2-dim rep read off the character tables.
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
from .rootdata import _kac_data, cartan_data


class McKayGraph(Record):
    __slots__ = ("ade_type", "node_names", "comarks", "edges", "affine_node")

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)


def ade_type_of(g: GroupSpec) -> str:
    if g.family == CYCLIC:
        return f"A{g.param - 1}"
    if g.family == DIHEDRAL:
        return f"D{g.param + 2}"
    return {TETRAHEDRAL: "E6", OCTAHEDRAL: "E7", ICOSAHEDRAL: "E8"}[g.family]


# kac_nodes of the exceptional groups; the irreps are in grouprep's order
_EXCEPTIONAL_KAC_NODES = {
    TETRAHEDRAL: (0, 2, 4, 3, 1, 5, 6),  # [1, 2, 3, 2', 1', 2'', 1'']
    OCTAHEDRAL: (0, 1, 3, 4, 5, 6, 7, 2),  # [1, 2, 3, 4, 3', 2', 1', 2'']
    ICOSAHEDRAL: (0, 8, 7, 6, 5, 4, 3, 1, 2),  # [1, 2, 3, 4, 5, 6, 4', 2', 3']
}


def kac_nodes(g: GroupSpec) -> tuple[int, ...]:
    """The McKay correspondence as a node map: for each irrep of g in
    grouprep's order, its node of the extended diagram in rootdata's Kac
    order, node 0 being the affine node and node i > 0 simple root i - 1."""
    if g.family == CYCLIC:
        return tuple(range(g.param))
    if g.family == DIHEDRAL:
        m = g.param
        # [1, 2_1 .. 2_{m-1}, 1''', 1', 1''] with 2_k on node k + 1; D4 has
        # its own triality image, the one its S-matrix weights are laid out on
        if m == 2:
            return (0, 2, 1, 3, 4)
        return (0, *range(2, m + 2), 1, m + 2)
    return _EXCEPTIONAL_KAC_NODES[g.family]


def _diagram_edges(g: GroupSpec) -> list[tuple[int, int]]:
    """The extended Dynkin diagram of g, read off its Cartan data C through
    kac_nodes: Kac nodes i, j >= 1 share -C[i-1][j-1] edges, and the affine
    node and node j share (theta, coroot j - 1), theta the highest root.
    Each edge is a pair of grouprep's nodes; A0 has a loop of multiplicity
    two, which appears twice."""
    if g.family == CYCLIC and g.param == 1:
        return [(0, 0), (0, 0)]
    ade = ade_type_of(g)
    letter, rank = ade[0], int(ade[1:])
    C = cartan_data(letter, rank).cartan
    theta = _kac_data(letter, rank)[0][1:]
    kac = kac_nodes(g)
    edges = []
    for b in range(len(kac)):
        for a in range(b):
            i, j = sorted((kac[a], kac[b]))
            if i == 0:
                links = sum(t * row[j - 1] for t, row in zip(theta, C))
            else:
                links = -C[i - 1][j - 1]
            edges += [(a, b)] * links
    return edges


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


def a_action(g: GroupSpec) -> dict:
    """The graph automorphisms from tensoring with 1-dim irreps: each
    abelianization element's node permutation, checked to preserve comarks
    and edges and to act simply transitively on the comark-1 nodes."""
    graph = mckay_graph(g)
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
    return perms


def mckay_json(g: GroupSpec) -> dict:
    graph = mckay_graph(g)
    perms = a_action(g)
    name_of = abelianization(g).name_of
    return {
        "ade_type": graph.ade_type,
        "nodes": [
            {"irrep": n, "comark": c}
            for n, c in zip(graph.node_names, graph.comarks)
        ],
        "edges": [list(e) for e in graph.edges],
        "affine_node": graph.affine_node,
        "a_action": {name_of[el]: list(perms[el]) for el in sorted(perms)},
    }
