"""The hand-listed extended Dynkin diagrams and the embedding search, kept
as the oracle of mckay.kac_nodes.

The package reads each McKay graph off rootdata's Cartan data through one
node map.  Here the diagrams are written out edge by edge on grouprep's node
order, and the node -> simple-root map is found by a backtracking search
that embeds the finite diagram in the Cartan matrix, knowing nothing of the
node map.
"""

from dualcount.errors import InvariantError
from dualcount.grouprep import CYCLIC, DIHEDRAL, OCTAHEDRAL, TETRAHEDRAL, GroupSpec


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


def _finite_index_map(graph, c) -> dict:
    """Map each non-affine McKay node to a simple-root index.

    Any adjacency-preserving choice works: the alternatives differ by a
    diagram symmetry, which permutes weight coordinates without changing
    inner products.
    """
    nodes = [i for i in range(len(graph.node_names)) if i != graph.affine_node]
    nbr = {i: set() for i in nodes}
    for a, b in graph.edges:
        if a in nbr and b in nbr and a != b:
            nbr[a].add(b)
            nbr[b].add(a)
    rank = c.rank
    lat_nbr = {i: {j for j in range(rank) if j != i and c.cartan[i][j] != 0}
               for i in range(rank)}
    assign: dict[int, int] = {}
    used: set[int] = set()

    def place(pos: int) -> bool:
        if pos == len(nodes):
            return True
        node = nodes[pos]
        for j in range(rank):
            if j in used or len(lat_nbr[j]) != len(nbr[node]):
                continue
            if any(other in assign and assign[other] not in lat_nbr[j]
                   for other in nbr[node]):
                continue
            if any(j2 in used and all(assign.get(o) != j2 for o in nbr[node])
                   for j2 in lat_nbr[j]):
                continue
            assign[node] = j
            used.add(j)
            if place(pos + 1):
                return True
            del assign[node]
            used.discard(j)
        return False

    if not place(0):
        raise InvariantError("the finite diagram does not embed in the Cartan matrix")
    return dict(assign)
