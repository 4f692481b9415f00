"""Level-n weight sets and modular S-matrices of the simply-laced types.

The weight set at level n is the set of multiplicity vectors over the nodes
of the partner subgroup's McKay graph, with node 0 the affine (trivial-irrep)
node, ordered descending-lexicographically so the vacuum weight comes first.
Every other node is the simple root that `mckay.kac_nodes` assigns it, the
same map that the graph's edges are read through, so the weights' finite
coordinates are read off the node map, not searched for.
The S-matrix is the Kac-Peterson Weyl-alternating sum over the finite Weyl
group at argument (w(lam+rho), mu+rho)/k, k = n + g with g the sum of all
comarks, normalized to a unitary matrix.  No Weyl group is enumerated: the
sum is a determinant (Kac-Peterson, Adv. Math. 53 (1984); Kac,
Infinite-Dimensional Lie Algebras, ch. 13).  For A_r it is
e(|x||y| / (r+1)k) det[e(-x_i y_j / k)] in epsilon coordinates, for D_r
(det[2 cos theta_ij] + det[-2i sin theta_ij]) / 2 with
theta_ij = 2 pi x_i y_j / k in orthonormal coordinates, and for E_r a sum
of D_(r-1) terms over the 27, 126 or 2160 cosets of the parabolic subgroup
W(D_(r-1)) (minimal coset representatives; Humphreys, Reflection Groups
and Coxeter Groups).  Every phase is an exact integer index into one table
of roots of unity, the upper triangle is computed and mirrored, so S comes
out exactly symmetric, and its printed digits match the exact residue
counts that the tests keep as the oracle.  A request is refused before any
weight is enumerated when its weight count or its determinant work exceeds
MAX_WEIGHTS or MAX_WORK.

This is the package's only approximate-arithmetic module.  The working
tolerance is 1e-9, and any entry of magnitude >= 1e-6 counts as genuinely
nonzero; nothing may fall in between.  The tests also check type A1 against
its exact cyclotomic entries, which live in a degree-2 field.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from . import mckay
from .abgroup import AbGroup
from .counting import _weight_rows
from .errors import InvariantError
from .grouprep import GroupSpec, abelianization
from .record import Record
from .rootdata import _adjugate, _kac_data, cartan_data

__all__ = [
    "MAX_WEIGHTS",
    "MAX_WORK",
    "TOLERANCE",
    "ZERO_FLOOR",
    "LevelWeights",
    "SMatrix",
    "charge_conjugation",
    "check_levels",
    "det_classes_from_center",
    "level_weights",
    "mckay_partner",
    "parse_ade_type",
    "s_matrix",
    "smatrix_json",
    "symmetry_error",
    "unitarity_error",
    "verify_s_conjugation",
]

TOLERANCE = 1e-9
ZERO_FLOOR = 1e-6


def parse_ade_type(text: str) -> tuple[str, int]:
    m = re.fullmatch(r"([ADE])(\d+)", text or "")
    if not m:
        raise ValueError(f"cannot parse type {text!r}; use e.g. 'A3', 'D5', 'E6'")
    letter, rank = m.group(1), int(m.group(2))
    low = {"A": 1, "D": 4, "E": 6}[letter]
    high = {"A": None, "D": None, "E": 8}[letter]
    if rank < low or (high is not None and rank > high):
        raise ValueError(f"no simply-laced diagram of type {text}")
    return letter, rank


def mckay_partner(ade_type: str) -> GroupSpec:
    """The finite SU(2) subgroup whose McKay graph is the extended diagram.
    Its parameter is held to grouprep.MAX_GROUP_PARAM like any group label,
    which bounds the A and D ranks (ValueError)."""
    letter, rank = parse_ade_type(ade_type)
    if letter == "A":
        return GroupSpec.from_label(f"Z:{rank + 1}")
    if letter == "D":
        return GroupSpec.from_label(f"Dhat:{rank - 2}")
    return {
        6: GroupSpec.binary_tetrahedral(),
        7: GroupSpec.binary_octahedral(),
        8: GroupSpec.binary_icosahedral(),
    }[rank]


# -- weight sets --------------------------------------------------------------


def iter_vectors(weights, total):
    """Nonnegative integer vectors v with sum(v[i] * weights[i]) == total.

    Lists what `counting.composition_rows` counts: affine weights, and the
    tests.
    """
    n = len(weights)
    if n == 0:
        if total == 0:
            yield ()
        return
    v = [0] * n

    def rec(i, rem):
        w = weights[i]
        if i == n - 1:
            if rem % w == 0:
                v[i] = rem // w
                yield tuple(v)
            return
        for c in range(rem // w + 1):
            v[i] = c
            yield from rec(i + 1, rem - c * w)

    yield from rec(0, total)


class LevelWeights(Record):
    """All dominant weights of one level: vectors of node multiplicities
    with sum(n_i * comark_i) equal to the level.

    Node order is the McKay node order of the partner group (node 0 is the
    affine node); weight order is descending lexicographic, so the vacuum
    weight (n, 0, ..., 0) always comes first.
    """

    __slots__ = ("ade_type", "level", "node_names", "comarks", "weights")

    @property
    def count(self) -> int:
        return len(self.weights)


def level_weights(ade_type: str, n: int) -> LevelWeights:
    if not isinstance(n, int) or n < 1:
        raise ValueError("level must be a positive integer")
    graph = mckay.mckay_graph(mckay_partner(ade_type))
    vecs = tuple(sorted(iter_vectors(graph.comarks, n), reverse=True))
    return LevelWeights(ade_type, n, graph.node_names, graph.comarks, vecs)


# -- finite root-system scaffolding -------------------------------------------


@lru_cache(maxsize=None)
def _finite_structure(ade_type: str):
    """Cartan data, the McKay-node -> simple-root map, and the positive
    root count.  The map is mckay.kac_nodes less its affine node; the
    extended marks sum to the Coxeter number h, and a simply-laced rank r
    has r * h roots."""
    letter, rank = parse_ade_type(ade_type)
    kac = mckay.kac_nodes(mckay_partner(ade_type))
    idx = {node: k - 1 for node, k in enumerate(kac) if k}
    return (cartan_data(letter, rank), idx,
            rank * sum(_kac_data(letter, rank)[0]) // 2)


def _weyl_order(letter: str, rank: int) -> int:
    """|W| from the classical formulas, independent of any enumeration."""
    if letter == "A":
        return math.factorial(rank + 1)
    if letter == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {6: 51840, 7: 2903040, 8: 696729600}[rank]


# -- the S-matrix --------------------------------------------------------------


class SMatrix(Record):
    """Unitary symmetric matrix indexed by one LevelWeights set; values is
    its read-only complex128 array, so an SMatrix is not hashable, and two
    are equal when their weights and entries are."""

    __slots__ = ("weights", "values")

    def __eq__(self, other):
        if other.__class__ is not SMatrix:
            return NotImplemented
        return (self.weights == other.weights
                and bool((self.values == other.values).all()))

    @property
    def ade_type(self) -> str:
        return self.weights.ade_type

    @property
    def level(self) -> int:
        return self.weights.level

    @property
    def size(self) -> int:
        return self.weights.count

    def array(self) -> np.ndarray:
        return self.values


# Bounds on one S-matrix request, checked before any weight is enumerated.
# With L weights the route evaluates the L (L + 1) / 2 entries of the upper
# triangle, each a sum over `cosets` determinant sums of size m
# (_determinant_shape), so its work is counted as
# L (L + 1) / 2 * cosets * m**3 units.  Type E costs the most per unit, and
# at MAX_WORK it takes about 10 s on a 2-CPU machine with numpy on one BLAS
# thread, as cli.main sets it: `smatrix` at E6 level 10 (1.25e9 units) takes
# 10.5 s, at E7 level 9 7.8 s and at E8 level 8 6.5 s, against about 1 ns
# per unit for A and D of rank 20 and more.  Each matrix is held as one
# L x L complex array and printed as JSON, and verification multiplies dense
# L x L matrices; at MAX_WEIGHTS (A2 at level 43, L = 990) the matrix takes
# under a second and `smatrix` 2.0 s.  A sweep over levels is bounded as if
# its levels were one matrix: weights and work are summed.
MAX_WEIGHTS = 1000
MAX_WORK = 15 * 10 ** 8

# each batched determinant call holds at most this many matrix entries (at
# least one entry pair's worth), so its index and phase arrays stay a few MB
_DET_CELLS = 1 << 16


def _determinant_shape(letter: str, rank: int) -> tuple[int, int]:
    """(m, cosets): one S entry is a sum over `cosets` determinant sums of
    size m, r + 1 for A_r and r for D_r; E_r sums D_(r-1) terms over the
    cosets of W(D_(r-1)) in W(E_r)."""
    if letter == "E":
        return rank - 1, _weyl_order("E", rank) // _weyl_order("D", rank - 1)
    return (rank + 1 if letter == "A" else rank), 1


class _Cosets(Record):
    """The cosets w_p W_J of W(E_r) by its parabolic subgroup W_J of type
    D_(r-1), J the nodes 1..r-1.

    inverses[p] is w_p^-1 acting on Dynkin labels by y -> y @ M and signs[p]
    the sign of w_p; gram is den * C^-1 of E_r, and j_nodes lists the E node
    of each D_(r-1) node.
    """

    __slots__ = ("inverses", "signs", "gram", "den", "j_nodes")


@lru_cache(maxsize=None)
def _e_cosets(ade_type: str) -> _Cosets:
    """One w per coset, reached from the fundamental weight omega_0.

    The cosets are the W-orbit of omega_0, whose stabilizer is W_J.  The
    orbit is walked down from omega_0: a point v with v_i > 0 steps to
    s_i v, and every orbit point is reached so.  The element that reaches v,
    whichever it is, represents the coset of v.
    """
    c, _, _ = _finite_structure(ade_type)
    rank = c.rank
    j_nodes = tuple(range(rank - 1, 0, -1))
    sub = tuple(tuple(c.cartan[i][j] for j in j_nodes) for i in j_nodes)
    if sub != cartan_data("D", rank - 1).cartan:
        raise InvariantError(f"nodes 1..{rank - 1} of E{rank} do not form D{rank - 1}")
    cart = np.asarray(c.cartan, dtype=np.int64)
    points = np.eye(rank, dtype=np.int64)[:1]
    mats = np.eye(rank, dtype=np.int64)[None]
    layers = []
    while len(points):
        layers.append(mats)
        # s_i v = v - v_i * (row i of the Cartan matrix) lies one layer down,
        # so a point can only recur within its own layer
        src, gen = np.nonzero(points > 0)
        cand = points[src] - points[src, gen][:, None] * cart[gen]
        _, first = np.unique(cand, axis=0, return_index=True)
        src, gen, points = src[first], gen[first], cand[first]
        # (s_i w)^-1 = w^-1 s_i: row i of w^-1's matrix loses cart[i] @ it
        mats = mats[src].copy()
        mats[np.arange(len(src)), gen] -= np.einsum("bj,bjk->bk", cart[gen], mats)
    signs = np.concatenate([np.full(len(m), (-1) ** d) for d, m in enumerate(layers)])
    if len(signs) * _weyl_order("D", rank - 1) != _weyl_order("E", rank):
        raise InvariantError(
            f"found {len(signs)} cosets of W(D{rank - 1}) in W(E{rank}), "
            f"expected |W(E{rank})| / |W(D{rank - 1})|")
    # C^-1 = adj / det, whose entries have the least common denominator den
    adj, det = _adjugate(c.cartan)
    den = abs(det) // math.gcd(det, *(x for row in adj for x in row))
    data = _Cosets(np.concatenate(layers), signs,
                   np.asarray([[x * den // det for x in row] for row in adj]),
                   den, j_nodes)
    for arr in (data.inverses, data.signs, data.gram):
        arr.flags.writeable = False
    return data


def check_levels(ade_type: str, levels) -> None:
    """Refuse a request over MAX_WEIGHTS or MAX_WORK, or whose McKay partner
    is past grouprep.MAX_GROUP_PARAM (ValueError), before any weight is
    enumerated.

    Weights are counted with the composition kernel.  Every type but E8 has
    two comark-1 nodes, and E8 one comark-1 and two comark-2 nodes, so at
    every level n >= 8 there are at least n + 1 weights, and a level that
    alone breaks MAX_WEIGHTS is refused without counting.
    """
    letter, rank = parse_ade_type(ade_type)
    mckay_partner(ade_type)  # refuses a partner past grouprep.MAX_GROUP_PARAM
    size, cosets = _determinant_shape(letter, rank)
    # the marks of the highest root are the comarks in another node order
    # (mckay_graph checks this), so no character table is built here
    marks = _kac_data(letter, rank)[0]
    weights = work = 0
    for n in levels:
        if not isinstance(n, int) or n < 1:
            raise ValueError("level must be a positive integer")
        if n >= MAX_WEIGHTS:
            raise ValueError(f"{ade_type} at level {n} has more than "
                             f"{MAX_WEIGHTS} weights, the supported bound")
        count = _weight_rows(marks, n)[n]
        weights += count
        work += count * (count + 1) // 2 * cosets * size ** 3
        if weights > MAX_WEIGHTS:
            raise ValueError(f"{ade_type} at levels up to {n} has {weights} "
                             f"weights, over the supported bound {MAX_WEIGHTS}")
        if work > MAX_WORK:
            raise ValueError(
                f"{ade_type} at levels up to {n} needs {work} units of "
                f"determinant work, over the supported bound {MAX_WORK}")


def _a_coords(labels):
    """epsilon coordinates of A_r weights from Dynkin labels: x_i is the
    sum of the labels j >= i, and x_r = 0."""
    x = np.zeros(labels.shape[:-1] + (labels.shape[-1] + 1,), dtype=np.int64)
    x[..., :-1] = np.cumsum(labels[..., ::-1], axis=-1)[..., ::-1]
    return x


def _d_coords(labels):
    """Twice the orthonormal coordinates of D_m weights from Dynkin labels,
    with the spin nodes m - 2 and m - 1 both linked to node m - 3."""
    spin = labels[..., -2] + labels[..., -1]
    x = np.empty(labels.shape, dtype=np.int64)
    x[..., :-2] = (2 * np.cumsum(labels[..., -3::-1], axis=-1)[..., ::-1]
                   + spin[..., None])
    x[..., -2] = spin
    x[..., -1] = labels[..., -1] - labels[..., -2]
    return x


def _d_sums(x, y, step, modulus, table):
    """The D_m Weyl sum of doubled coordinates x and y (..., m): with
    theta_ij = 2 pi x_i y_j / 4k, it is (det[2 cos theta] +
    det[-2i sin theta]) / 2; `step` is modulus / 4k."""
    # the table holds exp(-i theta) = cos theta - i sin theta
    phases = table[(step * x[..., :, None] * y[..., None, :]) % modulus]
    m = x.shape[-1]
    return 2.0 ** (m - 1) * (np.linalg.det(phases.real)
                             + 1j ** (m % 4) * np.linalg.det(phases.imag))


def _pair_sums(ade_type, k, modulus, table, x, y):
    """Unnormalized S entries for rows x and columns y, the Dynkin labels
    of lam + rho and mu + rho, each of shape (pairs, rank)."""
    letter, rank = parse_ade_type(ade_type)
    if letter == "A":
        xa, ya = _a_coords(x), _a_coords(y)
        idx = ((rank + 1) * xa[:, :, None] * ya[:, None, :]) % modulus
        shift = (-xa.sum(axis=1) * ya.sum(axis=1)) % modulus
        return table[shift] * np.linalg.det(table[idx])
    if letter == "D":
        return _d_sums(_d_coords(x), _d_coords(y), 1, modulus, table)
    # z = w_p^-1 (mu + rho) for every coset p; the term of coset p is
    # sign(w_p) e(-[(x, z) - (x_J, z_J)] / k) times the D sum over W_J
    cos = _e_cosets(ade_type)
    z = np.einsum("bi,pij->bpj", y, cos.inverses)
    xj = _d_coords(x[:, cos.j_nodes])[:, None, :]
    zj = _d_coords(z[..., cos.j_nodes])
    outer = np.einsum("bi,ij,bpj->bp", x, cos.gram, z)
    inner = (xj * zj).sum(axis=-1)
    step = modulus // (4 * k)
    idx = ((modulus // (k * cos.den)) * outer - step * inner) % modulus
    terms = cos.signs * table[idx] * _d_sums(xj, zj, step, modulus, table)
    return terms.sum(axis=1)


def _unit_roots(modulus: int):
    """exp(-2 pi i r / modulus) for r = 0..modulus - 1, at angles reduced to
    [-pi, pi]."""
    r = np.arange(modulus)
    r = np.where(2 * r > modulus, r - modulus, r)
    return np.exp(-2j * np.pi * r / modulus)


def s_matrix(ade_type: str, n: int) -> SMatrix:
    """The S-matrix at level n, after the size checks."""
    check_levels(ade_type, (n,))
    lw = level_weights(ade_type, n)
    c, idx, npos = _finite_structure(ade_type)
    letter, rank = parse_ade_type(ade_type)
    k = n + sum(lw.comarks)
    # every phase index is an integer modulo this multiple of k
    modulus = k * ({"A": rank + 1, "D": 4}.get(letter)
                   or math.lcm(_e_cosets(ade_type).den, 4))
    table = _unit_roots(modulus)
    shifted = np.ones((lw.count, c.rank), dtype=np.int64)
    for a, w in enumerate(lw.weights):
        for node, j in idx.items():
            shifted[a, j] += w[node]
    rows, cols = np.triu_indices(lw.count)
    u = np.zeros((lw.count, lw.count), dtype=np.complex128)
    size, cosets = _determinant_shape(letter, rank)
    step = max(1, _DET_CELLS // (cosets * size ** 2))
    for lo in range(0, len(rows), step):
        a, b = rows[lo:lo + step], cols[lo:lo + step]
        u[a, b] = _pair_sums(ade_type, k, modulus, table, shifted[a], shifted[b])
    # the lower triangle mirrors the upper, so S is exactly symmetric
    u[cols, rows] = u[rows, cols]
    scale = (1j ** (npos % 4)) / math.sqrt(float((np.abs(u) ** 2).sum()) / lw.count)
    u *= scale
    # the checks of a grid point share this array
    u.flags.writeable = False
    return SMatrix(lw, u)


def unitarity_error(sm: SMatrix) -> float:
    s = sm.array()
    return float(np.abs(s @ s.conj().T - np.eye(sm.size)).max())


def symmetry_error(sm: SMatrix) -> float:
    s = sm.array()
    return float(np.abs(s - s.T).max())


def charge_conjugation(sm: SMatrix):
    """Round S^2 to a signed permutation.

    Returns (perm, signs, max deviation); perm[i] is the column carrying the
    unit entry of row i.  Raises if any entry sits in the ambiguous band
    between ZERO_FLOOR and 1 - ZERO_FLOOR in magnitude, or if the result is
    not a permutation.
    """
    r = sm.array()
    r = r @ r
    mags = np.abs(r)
    if bool(((mags > ZERO_FLOOR) & (mags < 1 - ZERO_FLOOR)).any()):
        raise InvariantError("an entry of S^2 falls between zero and one")
    perm = [int(np.argmax(mags[i])) for i in range(sm.size)]
    if sorted(perm) != list(range(sm.size)):
        raise InvariantError("S^2 does not round to a permutation")
    signs = [1 if r[i, j].real > 0 else -1 for i, j in enumerate(perm)]
    p = np.zeros_like(r)
    for i, (j, s) in enumerate(zip(perm, signs)):
        p[i, j] = s
    err = float(np.abs(r - p).max())
    return tuple(perm), tuple(signs), err


# -- determinant classes -------------------------------------------------------


@lru_cache(maxsize=None)
def _center_coefficients(ade_type: str) -> tuple:
    """(d, coefficients) per elementary-divisor generator of the center: the
    class coordinate of a weight is the sum of its node multiplicities
    times the coefficients, mod d.  The coefficient of a node is
    d * (C^-1 gen)_j for its simple root j (0 for the affine node), and each
    must be an integer, since the generator has order d."""
    c, idx, _ = _finite_structure(ade_type)
    adj, det = _adjugate(c.cartan)
    out = []
    for d, gen in zip(c.center_moduli, c.center_gens):
        coefs = [0] * (len(idx) + 1)
        for node, j in idx.items():
            val, rem = divmod(d * sum(adj[j][t] * gen[t] for t in range(c.rank)), det)
            if rem:
                raise InvariantError("center values must be d-th roots of unity")
            coefs[node] = val
        out.append((d, tuple(coefs)))
    return tuple(out)


def det_classes_from_center(lw: LevelWeights) -> tuple[tuple[int, ...], ...]:
    """Center character of each weight, from the lattice geometry.

    Coordinate j of a class says the j-th elementary-divisor generator of
    the center acts on the highest-weight line by exp(2*pi*i * c_j / d_j).
    The tests check these classes against a second route, the determinants
    of the partner-group representations that the weights name.
    """
    coefs = _center_coefficients(lw.ade_type)
    return tuple(tuple(sum(m * x for m, x in zip(w, row)) % d for d, row in coefs)
                 for w in lw.weights)


# -- conjugating the two actions -----------------------------------------------


def _center_characters(center: AbGroup, chis) -> dict:
    """The value chi(z) = zeta_e^k of each chi in chis, k = AbGroup.pairing
    and e the exponent of the center, as one array per element z of the
    center, read from a table of e-th roots of unity by its exact index."""
    e = center.exponent
    roots = _unit_roots(e)
    out = {}
    for z in center.elements():
        # the weights' classes repeat, so each distinct class is paired once
        k = {chi: center.pairing(chi, z) for chi in set(chis)}
        out[z] = roots[np.asarray([-k[chi] % e for chi in chis], dtype=np.int64)]
    return out


def verify_s_conjugation(sm: SMatrix) -> dict:
    """Check that the S-matrix sm diagonalizes every diagram-symmetry
    permutation.

    For each element a of the symmetry group A (the node permutations
    induced by tensoring with the partner's 1-dim irreps), the conjugate
    S P_a S^{-1} must equal the diagonal of center-character values at
    phi(a), for one isomorphism phi from A to the center.  phi is read off
    the conjugation matrices: phi(a) is the center element whose diagonal
    lies nearest that of S P_a S^{-1}.  Distinct center elements have
    distinct diagonals, since at every level n the weights
    (n - 1) omega_0 + omega_j of the comark-1 nodes j meet every class of
    P/Q, so the nearest is the only candidate.  phi is then checked: it
    must be a bijective homomorphism, and its error, the largest deviation
    of any conjugate from phi's diagonal, under TOLERANCE.
    """
    lw = sm.weights
    ade_type = sm.ade_type
    g = mckay_partner(ade_type)
    perms = mckay.a_action(g)
    ab = abelianization(g)
    sym = ab.group
    c, _, _ = _finite_structure(ade_type)
    center = AbGroup(c.center_moduli)
    geo = det_classes_from_center(lw)
    pos = {w: i for i, w in enumerate(lw.weights)}
    s = sm.array()
    sinv = s.conj().T
    # the center-character diagonal of each center element, computed once
    diags = _center_characters(center, geo)
    zs = list(diags)
    stacked = np.stack(list(diags.values()))
    phi = {}
    err = 0.0
    for el, perm in perms.items():
        # column i of S P_a is the column of S at the image of weight i
        cols = []
        for w in lw.weights:
            moved = [0] * len(w)
            for node, mult in enumerate(w):
                moved[perm[node]] = mult
            cols.append(pos[tuple(moved)])
        mat = s[:, cols] @ sinv
        diag = np.diag(mat)
        dev = np.abs(diag - stacked).max(axis=1)
        best = int(np.argmin(dev))
        phi[el] = zs[best]
        err = max(err, float(np.abs(mat - np.diag(diag)).max()),
                  float(dev[best]))
    standard = []
    for i in range(len(sym.moduli)):
        e = [0] * len(sym.moduli)
        e[i] = 1
        standard.append(tuple(e))
    # phi(a + e) = phi(a) + phi(e) for every a and generator e makes phi a
    # homomorphism (a = 0 gives phi(0) = 0, and induction the rest)
    holds = (err < TOLERANCE
             and sym.order == center.order == len(set(phi.values()))
             and all(phi[sym.add(a, e)] == center.add(phi[a], phi[e])
                     for a in phi for e in standard))
    descr = dict(sorted((name, list(phi[e]))
                        for name, e in zip(ab.generator_names, standard)))
    return {
        "type": ade_type,
        "level": sm.level,
        "holds": holds,
        "identification": [descr] if holds else [],
        "max_abs_error": err,
    }


# -- JSON ----------------------------------------------------------------------


def _fixed(x: float, digits: int) -> float:
    return round(x, digits) + 0.0


def smatrix_json(sm: SMatrix, digits: int = 12) -> dict:
    return {
        "type": sm.ade_type,
        "level": sm.level,
        "nodes": list(sm.weights.node_names),
        "comarks": list(sm.weights.comarks),
        "weights": [list(w) for w in sm.weights.weights],
        "entries": [[[_fixed(z.real, digits), _fixed(z.imag, digits)]
                     for z in row] for row in sm.array().tolist()],
    }
