"""Level-n weight sets and modular S-matrices of the simply-laced types.

The weight set at level n is the set of multiplicity vectors over the nodes
of the partner subgroup's McKay graph, with node 0 the affine (trivial-irrep)
node, ordered descending-lexicographically so the vacuum weight comes first.
The S-matrix is the Kac-Peterson Weyl-alternating sum over the finite Weyl
group at argument (w(lam+rho), mu+rho)/k, k = n + g with g the sum of all
comarks, normalized to a unitary matrix.  The Weyl group is enumerated once
per type, by length layers from rho.  Every entry is first collected
exactly, as the signed count of Weyl group elements per residue of the
integer pairing den*(w(lam+rho), mu+rho) modulo den*k (den the denominator
of the inverse Cartan matrix), and then turned into a float by one dot
product with the den*k-th roots of unity; so rounding enters once per entry
and S comes out exactly symmetric.  A request is refused before any weight
is enumerated when its weight count or its pairings exceed MAX_WEIGHTS or
MAX_WORK.

This is the package's only approximate-arithmetic module.  The working
tolerance is 1e-9, and any entry of magnitude >= 1e-6 counts as genuinely
nonzero; nothing may fall in between.  Type A1 additionally gets an exact
cyclotomic cross-check, since its entries live in a degree-2 field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import lattice
from .abgroup import AbGroup
from .counting import _iter_vectors, graded_compositions
from .cyclotomic import Cyc
from .errors import InvariantError, NotCoveredError
from .grouprep import GroupSpec, abelianization, det_char
from .mckay import a_action, mckay_graph

__all__ = [
    "MAX_WEIGHTS",
    "MAX_WORK",
    "TOLERANCE",
    "ZERO_FLOOR",
    "LevelWeights",
    "SMatrix",
    "a1_exact_sine_table",
    "charge_conjugation",
    "check_levels",
    "det_classes_from_center",
    "det_classes_from_reps",
    "det_route_report",
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
    """The finite SU(2) subgroup whose McKay graph is the extended diagram."""
    letter, rank = parse_ade_type(ade_type)
    if letter == "A":
        return GroupSpec.cyclic(rank + 1)
    if letter == "D":
        return GroupSpec.binary_dihedral(rank - 2)
    return {
        6: GroupSpec.binary_tetrahedral(),
        7: GroupSpec.binary_octahedral(),
        8: GroupSpec.binary_icosahedral(),
    }[rank]


# -- weight sets --------------------------------------------------------------


@dataclass(frozen=True)
class LevelWeights:
    """All dominant weights of one level: vectors of node multiplicities
    with sum(n_i * comark_i) equal to the level.

    Node order is the McKay node order of the partner group (node 0 is the
    affine node); weight order is descending lexicographic, so the vacuum
    weight (n, 0, ..., 0) always comes first.
    """

    ade_type: str
    level: int
    node_names: tuple[str, ...]
    comarks: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.weights)


def level_weights(ade_type: str, n: int) -> LevelWeights:
    if not isinstance(n, int) or n < 1:
        raise ValueError("level must be a positive integer")
    graph = mckay_graph(mckay_partner(ade_type))
    vecs = tuple(sorted(_iter_vectors(graph.comarks, n), reverse=True))
    return LevelWeights(ade_type=ade_type, level=n, node_names=graph.node_names,
                        comarks=graph.comarks, weights=vecs)


# -- finite root-system scaffolding -------------------------------------------


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


@lru_cache(maxsize=None)
def _finite_structure(ade_type: str):
    """Cartan data, the McKay-node -> simple-root map, and the positive
    root count, cross-validated against the comarks.  The extended marks
    sum to the Coxeter number h, and a simply-laced rank r has r * h roots."""
    letter, rank = parse_ade_type(ade_type)
    c = lattice.cartan_data(letter, rank)
    graph = mckay_graph(mckay_partner(ade_type))
    idx = _finite_index_map(graph, c)
    marks = lattice._kac_data(letter, rank)[0]
    for node, j in idx.items():
        if graph.comarks[node] != marks[j + 1]:
            raise InvariantError("McKay comarks disagree with the highest root")
    if sum(graph.comarks) != sum(marks):
        raise InvariantError("comark sum disagrees with the highest root height")
    return c, idx, rank * sum(marks) // 2


def _weyl_order(letter: str, rank: int) -> int:
    """|W| from the classical formulas, independent of any enumeration."""
    if letter == "A":
        return math.factorial(rank + 1)
    if letter == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {6: 51840, 7: 2903040, 8: 696729600}[rank]


@lru_cache(maxsize=None)
def _weyl_group(ade_type: str) -> tuple[np.ndarray, np.ndarray]:
    """Every Weyl group element as an int8 matrix acting on weight
    coordinates by x -> x @ m, and its sign; the sign +1 elements come first.

    The elements are enumerated by length from rho.  For w of length l, the
    element s_i w has length l + 1 exactly when coordinate i of w(rho) is
    positive, so each layer is reached from the one before by those steps
    alone, and duplicates can only occur within the new layer.  rho is
    regular, so w(rho) identifies w; its coordinates are root heights, below
    64 in absolute value, and are encoded in base 128.
    """
    import numpy as np
    letter, rank = parse_ade_type(ade_type)
    c, _, _ = _finite_structure(ade_type)
    if rank > 8:
        raise InvariantError("the rho-image encoding supports rank <= 8")
    cart = np.asarray(c.cartan, dtype=np.int8)
    powers = (128 ** np.arange(rank)).astype(np.int64)
    mats = np.eye(rank, dtype=np.int8)[None]
    images = np.ones((1, rank), dtype=np.int64)
    layers = [mats]
    while len(images):
        # x @ s_i = x - x_i * (row i of the Cartan matrix)
        src, gen = np.nonzero(images > 0)
        cand = images[src] - images[src, gen][:, None] * cart[gen]
        if cand.size and int(np.abs(cand).max()) >= 64:
            raise InvariantError("rho-image coordinates exceed the encoding range")
        _, first = np.unique((cand + 64) @ powers, return_index=True)
        src, gen, images = src[first], gen[first], cand[first]
        mats = mats[src] - mats[src, :, gen][:, :, None] * cart[gen][:, None, :]
        layers.append(mats)
    even, odd = layers[0::2], layers[1::2]
    n_even, n_odd = sum(map(len, even)), sum(map(len, odd))
    if n_even + n_odd != _weyl_order(letter, rank):
        raise InvariantError(
            f"enumerated {n_even + n_odd} Weyl group elements of {ade_type}, "
            f"expected {_weyl_order(letter, rank)}")
    if n_even != n_odd:
        raise InvariantError("the Weyl group signs must sum to zero")
    mats = np.concatenate(even + odd)
    signs = np.repeat(np.asarray([1, -1], dtype=np.int8), [n_even, n_odd])
    # every caller shares the cached arrays
    mats.flags.writeable = signs.flags.writeable = False
    return mats, signs


# -- the S-matrix --------------------------------------------------------------


@dataclass(frozen=True)
class SMatrix:
    """Unitary symmetric matrix indexed by one LevelWeights set."""

    weights: LevelWeights
    values: tuple

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
        import numpy as np
        return np.asarray(self.values, dtype=np.complex128)


_RANK_CAP = {"A": 6, "D": 6}

# Bounds on one S-matrix request, checked before any weight is enumerated.
# With L weights and K = den * k residues, the residue route evaluates
# |W| * L**2 integer pairings and then reduces L**2 * K residue counts
# against the K roots of unity, at about 15 ns per pairing or cell on a
# 2-CPU machine, so MAX_WORK is about 15 s (A1 at level 792 takes 14 s
# with its JSON, E6 at level 5 5 s); W itself is built once per type, 4 s
# for E7.  Each matrix is held as L**2 Python complex numbers and printed as
# JSON, and verification multiplies dense L x L matrices; at MAX_WEIGHTS
# (A2 at level 43, L = 990) `smatrix` takes about 9 s and 470 MB.  A sweep
# over levels is bounded as if its levels were one matrix: weights and work
# are summed.
MAX_WEIGHTS = 1000
MAX_WORK = 10 ** 9

# row blocks hold at most this many residue-count cells, and each numpy
# step evaluates at most this many pairings (or one cell block's worth).
# A step's float64 copy of its Weyl chunk is the largest temporary: at
# 1 << 16 pairings `verify smatrix` peaks 6.5 MB lower than at 1 << 17 (E6 at
# level 1 sets the peak), at the same speed on a 2-CPU machine.
_COUNT_CELLS = 1 << 18
_PAIRINGS = 1 << 16


@lru_cache(maxsize=None)
def _scaled_inverse(ade_type: str) -> tuple[int, np.ndarray]:
    """(den, den * C^-1) with den the denominator of the inverse Cartan
    matrix, so that den * (x, y) is an integer for weights x and y."""
    import numpy as np
    c, _, _ = _finite_structure(ade_type)
    inv = lattice._frac_inverse(c.cartan)
    den = math.lcm(*(x.denominator for row in inv for x in row))
    gram = np.asarray([[int(x * den) for x in row] for row in inv])
    gram.flags.writeable = False
    return den, gram


def _residue_modulus(ade_type: str, n: int) -> int:
    """den * k, the modulus of the scaled pairings at level n, k = n + h."""
    h = sum(mckay_graph(mckay_partner(ade_type)).comarks)
    return _scaled_inverse(ade_type)[0] * (n + h)


def check_levels(ade_type: str, levels, *, enable_e7: bool = False) -> None:
    """Refuse a request outside the covered types (NotCoveredError) or over
    MAX_WEIGHTS or MAX_WORK (ValueError), before any weight is enumerated.

    Weights are counted with the composition kernel.  Every covered type has
    two comark-1 nodes, so level n has at least n + 1 weights, and a level
    that alone breaks MAX_WEIGHTS is refused without counting.
    """
    letter, rank = parse_ade_type(ade_type)
    if letter == "E" and rank == 8:
        raise NotCoveredError(
            "not covered: the E8 Weyl sum (697M terms) is out of budget")
    if letter == "E" and rank == 7 and not enable_e7:
        raise NotCoveredError(
            "not covered by default: the E7 Weyl sum has 2.9M terms; "
            "pass enable_e7=True to force it")
    if letter in _RANK_CAP and rank > _RANK_CAP[letter]:
        raise NotCoveredError(
            f"not covered: rank {rank} exceeds the supported cap for type {letter}")
    slots = [(m, ()) for m in mckay_graph(mckay_partner(ade_type)).comarks]
    ungraded = AbGroup(())
    order = _weyl_order(letter, rank)
    weights = work = 0
    for n in levels:
        if not isinstance(n, int) or n < 1:
            raise ValueError("level must be a positive integer")
        if n >= MAX_WEIGHTS:
            raise ValueError(f"{ade_type} at level {n} has more than "
                             f"{MAX_WEIGHTS} weights, the supported bound")
        count = graded_compositions(slots, ungraded, n)[()]
        weights += count
        work += count * count * (order + _residue_modulus(ade_type, n))
        if weights > MAX_WEIGHTS:
            raise ValueError(f"{ade_type} at levels up to {n} has {weights} "
                             f"weights, over the supported bound {MAX_WEIGHTS}")
        if work > MAX_WORK:
            raise ValueError(
                f"{ade_type} at levels up to {n} needs {work} Weyl pairings "
                f"and residue cells, over the supported bound {MAX_WORK}")


def _residue_count_blocks(ade_type: str, n: int):
    """Exact residue counts of the Weyl-alternating sum, by blocks of rows.

    Yields (lo, counts) with counts[a - lo, b, r] the signed number of w in
    W with den * (w(lam_a + rho), lam_b + rho) = r mod den * k.
    """
    import numpy as np
    lw = level_weights(ade_type, n)
    c, idx, _ = _finite_structure(ade_type)
    modulus = _residue_modulus(ade_type, n)
    shifted = np.ones((lw.count, c.rank))
    for a, w in enumerate(lw.weights):
        for node, j in idx.items():
            shifted[a, j] += w[node]
    # float64 products of these small integers are exact
    right = _scaled_inverse(ade_type)[1] @ shifted.T
    mats, signs = _weyl_group(ade_type)
    split = int((signs > 0).sum())
    size, rank = lw.count, c.rank
    rows = max(1, _COUNT_CELLS // (size * modulus))
    for lo in range(0, size, rows):
        block = shifted[lo:lo + rows]
        cells = len(block) * size * modulus
        base = (np.arange(len(block))[:, None, None] * size
                + np.arange(size)) * modulus
        # at least one pairing per cell, so clearing the counts never dominates
        step = max(_PAIRINGS // (len(block) * size), modulus)
        counts = np.zeros(cells, dtype=np.int64)
        for start, stop, sign in ((0, split, 1), (split, len(mats), -1)):
            for w0 in range(start, stop, step):
                chunk = mats[w0:min(w0 + step, stop)]
                # w(lam + rho) for every row and w in one product, and then
                # the pairings, indexed (row, w, column)
                flat = chunk.transpose(1, 0, 2).reshape(rank, -1)
                images = (block @ flat.astype(np.float64)).reshape(-1, rank)
                res = (images @ right).astype(np.int64)
                res = res.reshape(len(block), len(chunk), size)
                res %= modulus
                res += base
                counts += sign * np.bincount(res.ravel(), minlength=cells)
        yield lo, counts.reshape(len(block), size, modulus)


@lru_cache(maxsize=4)
def _s_matrix(ade_type: str, n: int) -> SMatrix:
    import numpy as np
    lw = level_weights(ade_type, n)
    _, _, npos = _finite_structure(ade_type)
    modulus = _residue_modulus(ade_type, n)
    # exp(-2 pi i r / modulus), at angles reduced to [-pi, pi]
    r = np.arange(modulus)
    r = np.where(2 * r > modulus, r - modulus, r)
    phases = np.exp(-2j * np.pi * r / modulus)
    table = np.stack([phases.real, phases.imag], axis=1)
    u = np.zeros((lw.count, lw.count), dtype=np.complex128)
    for lo, counts in _residue_count_blocks(ade_type, n):
        part = counts.astype(np.float64) @ table
        u[lo:lo + len(counts)] = part[..., 0] + 1j * part[..., 1]
    scale = (1j ** (npos % 4)) / math.sqrt(float((np.abs(u) ** 2).sum()) / lw.count)
    values = tuple(tuple(complex(z) for z in row) for row in u * scale)
    return SMatrix(weights=lw, values=values)


def s_matrix(ade_type: str, n: int, *, enable_e7: bool = False) -> SMatrix:
    """The S-matrix at level n, after the coverage and size checks.  The
    few most recent matrices are kept, so the checks of one grid point share
    a single computation."""
    check_levels(ade_type, (n,), enable_e7=enable_e7)
    return _s_matrix(ade_type, n)


def unitarity_error(sm: SMatrix) -> float:
    import numpy as np
    s = sm.array()
    return float(np.abs(s @ s.conj().T - np.eye(sm.size)).max())


def symmetry_error(sm: SMatrix) -> float:
    import numpy as np
    s = sm.array()
    return float(np.abs(s - s.T).max())


def charge_conjugation(sm: SMatrix):
    """Round S^2 to a signed permutation.

    Returns (perm, signs, max deviation); perm[i] is the column carrying the
    unit entry of row i.  Raises if any entry sits in the ambiguous band
    between ZERO_FLOOR and 1 - ZERO_FLOOR in magnitude, or if the result is
    not a permutation.
    """
    import numpy as np
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


# -- determinant classes, two routes -------------------------------------------


def det_classes_from_center(lw: LevelWeights) -> tuple[tuple[int, ...], ...]:
    """Center character of each weight, from the lattice geometry.

    Coordinate j of a class says the j-th elementary-divisor generator of
    the center acts on the highest-weight line by exp(2*pi*i * c_j / d_j).
    """
    c, idx, _ = _finite_structure(lw.ade_type)
    cinv = lattice._frac_inverse(c.cartan)
    out = []
    for w in lw.weights:
        coords = []
        for d, gen in zip(c.center_moduli, c.center_gens):
            val = Fraction(0)
            for node, j in idx.items():
                if w[node]:
                    val += w[node] * sum(
                        cinv[j][t] * gen[t] for t in range(c.rank))
            scaled = val * d
            if scaled.denominator != 1:
                raise InvariantError("center values must be d-th roots of unity")
            coords.append(int(scaled) % d)
        out.append(tuple(coords))
    return tuple(out)


def det_classes_from_reps(lw: LevelWeights) -> tuple[tuple[int, ...], ...]:
    """Determinant of the partner-group representation attached to each
    weight, as an abelianization element: the weight names the direct sum
    of node irreps with the given multiplicities."""
    g = mckay_partner(lw.ade_type)
    ab = abelianization(g).group
    dets = [det_char(g, name) for name in lw.node_names]
    out = []
    for w in lw.weights:
        acc = ab.identity
        for mult, d in zip(w, dets):
            acc = ab.add(acc, ab.scale(mult, d))
        out.append(acc)
    return tuple(out)


def det_route_report(ade_type: str, n: int) -> dict:
    """Exact comparison of the two determinant routes.

    The center and the character group of the partner have no preferred
    identification, so every isomorphism is tried; the routes agree when at
    least one matches the classes weight by weight.
    """
    lw = level_weights(ade_type, n)
    c, _, _ = _finite_structure(ade_type)
    center = AbGroup(c.center_moduli)
    ab = abelianization(mckay_partner(ade_type)).group
    geo = det_classes_from_center(lw)
    rep = det_classes_from_reps(lw)
    matches = []
    for iso in center.isomorphisms_to(ab):
        if all(iso[x] == y for x, y in zip(geo, rep)):
            matches.append(sorted(iso.items()))
    return {"type": ade_type, "level": n, "compatible": bool(matches),
            "identifications": matches}


# -- conjugating the two actions -----------------------------------------------


def verify_s_conjugation(ade_type: str, n: int, *, enable_e7: bool = False) -> dict:
    """Check that S diagonalizes every diagram-symmetry permutation.

    For each element a of the symmetry group A (the node permutations
    induced by tensoring with the partner's 1-dim irreps), the conjugate
    S P_a S^{-1} must equal the diagonal of center-character values at
    phi(a) for at least one isomorphism phi from A to the center.  There is
    no preferred phi, so all of them are tried and every success reported.
    """
    import numpy as np
    sm = s_matrix(ade_type, n, enable_e7=enable_e7)
    lw = sm.weights
    g = mckay_partner(ade_type)
    act = a_action(g)
    sym = AbGroup(act.moduli)
    c, _, _ = _finite_structure(ade_type)
    center = AbGroup(c.center_moduli)
    geo = det_classes_from_center(lw)
    pos = {w: i for i, w in enumerate(lw.weights)}
    s = sm.array()
    sinv = s.conj().T
    conj = {}
    for el, perm in act.perms.items():
        # column i of S P_a is the column of S at the image of weight i
        cols = []
        for w in lw.weights:
            moved = [0] * len(w)
            for node, mult in enumerate(w):
                moved[perm[node]] = mult
            cols.append(pos[tuple(moved)])
        conj[el] = s[:, cols] @ sinv
    # the off-diagonal part must vanish no matter the identification
    base_err = max(float(np.abs(mat - np.diag(np.diag(mat))).max())
                   for mat in conj.values())
    gen_names = abelianization(g).generator_names
    standard = []
    for i in range(len(sym.moduli)):
        e = [0] * len(sym.moduli)
        e[i] = 1
        standard.append(tuple(e))
    # the center-character diagonal of each center element, computed once
    diags = {}
    for z in center.elements():
        value = {chi: center.pairing(chi, z).complex_value() for chi in set(geo)}
        diags[z] = np.asarray([value[chi] for chi in geo])
    results = []
    for iso in sym.isomorphisms_to(center):
        err = base_err
        for el, mat in conj.items():
            err = max(err, float(np.abs(np.diag(mat) - diags[iso[el]]).max()))
        descr = {name: list(iso[e]) for name, e in zip(gen_names, standard)}
        results.append((err, descr))
    passed = sorted((e, sorted(d.items())) for e, d in results if e < TOLERANCE)
    return {
        "type": ade_type,
        "level": n,
        "holds": bool(passed),
        "identification": [dict(d) for _, d in passed],
        "max_abs_error": min(e for e, _ in results),
    }


# -- exact A1 cross-check and JSON ----------------------------------------------


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
                     for z in row] for row in sm.values],
    }
