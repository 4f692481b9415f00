"""McKay graphs of the finite SU(2) subgroups.

Nodes are the irreducibles in canonical order, and the node marked
`affine_node` is the trivial irrep; comarks are the irrep dimensions.  For
Z:m and Dhat:m the edges are the extended Dynkin diagrams A(m-1) and D(m+2)
themselves, in the closed-form node order of grouprep.  For That, Ohat and
Ihat they come from decomposing (irrep ⊗ defining 2-dim rep) with the
character table, and that adjacency is compared against the independently
written diagram shapes, so the two routes validate each other.  Every
adjacency must satisfy the McKay dimension identity sum_j a_ij dim_j =
2 dim_i and be symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    decompose_defining_tensor,
    irreps,
    onedim_permutations,
)


@dataclass(frozen=True)
class McKayGraph:
    ade_type: str
    node_names: tuple[str, ...]
    comarks: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    affine_node: int

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)


@dataclass
class AAction:
    """Graph automorphisms from tensoring with 1-dim irreps.

    perms maps each abelianization element to the induced node permutation;
    the action is simply transitive on comark-1 nodes.
    """

    moduli: tuple[int, ...]
    onedim_of: dict
    perms: dict


def ade_type_of(g: GroupSpec) -> str:
    if g.family == CYCLIC:
        return f"A{g.param - 1}"
    if g.family == DIHEDRAL:
        return f"D{g.param + 2}"
    return {TETRAHEDRAL: "E6", OCTAHEDRAL: "E7", ICOSAHEDRAL: "E8"}[g.family]


def _expected_edges(g: GroupSpec) -> list[tuple[int, int]]:
    """Extended Dynkin diagram shapes, written out independently."""
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


def _adjacency(g: GroupSpec, names) -> list[list[int]]:
    """Adjacency matrix of the McKay graph; a loop counts once on the
    diagonal, as it does in the decomposition of irrep ⊗ defining rep."""
    adj = [[0] * len(names) for _ in names]
    if g.family in (CYCLIC, DIHEDRAL):
        for i, j in _expected_edges(g):
            adj[i][j] += 1
            if i != j:
                adj[j][i] += 1
        return adj
    node_of = {n: i for i, n in enumerate(names)}
    for i, name in enumerate(names):
        for other, mult in decompose_defining_tensor(g, name).items():
            adj[i][node_of[other]] = mult
    return adj


@lru_cache(maxsize=None)
def mckay_graph(g: GroupSpec) -> McKayGraph:
    infos = irreps(g)
    names = [i.name for i in infos]
    dims = [i.dim for i in infos]
    adj = _adjacency(g, names)
    for i in range(len(names)):
        if sum(adj[i][j] * dims[j] for j in range(len(names))) != 2 * dims[i]:
            raise InvariantError("adjacency violates the dimension identity")
        for j in range(len(names)):
            if adj[i][j] != adj[j][i]:
                raise InvariantError("adjacency is not symmetric")
    edges = []
    for i in range(len(names)):
        for _ in range(adj[i][i]):
            edges.append((i, i))
        for j in range(i + 1, len(names)):
            edges.extend([(i, j)] * adj[i][j])
    if sorted(edges) != sorted(_expected_edges(g)):
        raise InvariantError(
            f"computed adjacency for {g.label} does not match the expected diagram")
    return McKayGraph(
        ade_type=ade_type_of(g),
        node_names=tuple(names),
        comarks=tuple(dims),
        edges=tuple(sorted(edges)),
        affine_node=0,
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
    return AAction(
        moduli=ab.group.moduli,
        onedim_of=dict(ab.name_of),
        perms=perms,
    )


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
