"""The Weyl-group route to the S-matrix, kept as the test oracle.

Every Weyl group element is enumerated once per type, and each entry is
collected exactly, as the signed count of elements per residue of the
integer pairing den * (w(lam + rho), mu + rho) modulo den * k (den the
denominator of the inverse Cartan matrix), and then turned into a float by
one dot product with the den*k-th roots of unity.  The library computes the
same sums as determinants (dualcount.affine); this route needs the whole
Weyl group, so it reaches E7 at level 1 and no further.
"""

import math
from functools import lru_cache

import numpy as np

from dualcount import affine
from dualcount.affine import level_weights, parse_ade_type
from dualcount.mckay import mckay_graph
from frac_inverse import frac_inverse

# row blocks hold at most this many residue-count cells, and each numpy
# step evaluates at most this many pairings (or one cell block's worth)
COUNT_CELLS = 1 << 18
PAIRINGS = 1 << 16


# one group at a time: W(E7) alone holds 142 MB
@lru_cache(maxsize=1)
def weyl_group(ade_type: str) -> tuple[np.ndarray, np.ndarray]:
    """Every Weyl group element as an int8 matrix acting on weight
    coordinates by x -> x @ m, and its sign; the sign +1 elements come first.

    The elements are enumerated by length from rho.  For w of length l, the
    element s_i w has length l + 1 exactly when coordinate i of w(rho) is
    positive, so each layer is reached from the one before by those steps
    alone, and duplicates can only occur within the new layer.  rho is
    regular, so w(rho) identifies w; its coordinates are root heights, below
    64 in absolute value, and are encoded in base 128.
    """
    letter, rank = parse_ade_type(ade_type)
    c, _, _ = affine._finite_structure(ade_type)
    if rank > 8:
        raise AssertionError("the rho-image encoding supports rank <= 8")
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
            raise AssertionError("rho-image coordinates exceed the encoding range")
        _, first = np.unique((cand + 64) @ powers, return_index=True)
        src, gen, images = src[first], gen[first], cand[first]
        mats = mats[src] - mats[src, :, gen][:, :, None] * cart[gen][:, None, :]
        layers.append(mats)
    even, odd = layers[0::2], layers[1::2]
    n_even, n_odd = sum(map(len, even)), sum(map(len, odd))
    if n_even + n_odd != affine._weyl_order(letter, rank):
        raise AssertionError(
            f"enumerated {n_even + n_odd} Weyl group elements of {ade_type}, "
            f"expected {affine._weyl_order(letter, rank)}")
    if n_even != n_odd:
        raise AssertionError("the Weyl group signs must sum to zero")
    mats = np.concatenate(even + odd)
    signs = np.repeat(np.asarray([1, -1], dtype=np.int8), [n_even, n_odd])
    # every caller shares the cached arrays
    mats.flags.writeable = signs.flags.writeable = False
    return mats, signs


@lru_cache(maxsize=None)
def scaled_inverse(ade_type):
    """(den, den * C^-1) with den the denominator of the inverse Cartan
    matrix, so that den * (x, y) is an integer for weights x and y."""
    c, _, _ = affine._finite_structure(ade_type)
    inv = frac_inverse(c.cartan)
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return den, np.asarray([[int(x * den) for x in row] for row in inv])


def residue_modulus(ade_type, n):
    """den * k, the modulus of the scaled pairings at level n, k = n + h."""
    h = sum(mckay_graph(affine.mckay_partner(ade_type)).comarks)
    return scaled_inverse(ade_type)[0] * (n + h)


def residue_counts(ade_type, n):
    """counts[a, b, r]: the signed number of w in W with
    den * (w(lam_a + rho), lam_b + rho) = r mod den * k."""
    lw = level_weights(ade_type, n)
    c, idx, _ = affine._finite_structure(ade_type)
    modulus = residue_modulus(ade_type, n)
    shifted = np.ones((lw.count, c.rank))
    for a, w in enumerate(lw.weights):
        for node, j in idx.items():
            shifted[a, j] += w[node]
    # float64 products of these small integers are exact
    right = scaled_inverse(ade_type)[1] @ shifted.T
    mats, signs = weyl_group(ade_type)
    split = int((signs > 0).sum())
    size, rank = lw.count, c.rank
    rows = max(1, COUNT_CELLS // (size * modulus))
    blocks = []
    for lo in range(0, size, rows):
        block = shifted[lo:lo + rows]
        cells = len(block) * size * modulus
        base = (np.arange(len(block))[:, None, None] * size
                + np.arange(size)) * modulus
        step = max(PAIRINGS // (len(block) * size), modulus)
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
        blocks.append(counts.reshape(len(block), size, modulus))
    return np.concatenate(blocks)


def residue_s_matrix(ade_type, n):
    """S from the residue counts, each entry one dot product with the roots
    of unity at angles reduced to [-pi, pi], normalized to be unitary."""
    counts = residue_counts(ade_type, n)
    size, _, modulus = counts.shape
    r = np.arange(modulus)
    r = np.where(2 * r > modulus, r - modulus, r)
    phases = np.exp(-2j * np.pi * r / modulus)
    part = counts.astype(np.float64) @ np.stack([phases.real, phases.imag], axis=1)
    u = part[..., 0] + 1j * part[..., 1]
    npos = affine._finite_structure(ade_type)[2]
    return u * (1j ** (npos % 4)) / math.sqrt(float((np.abs(u) ** 2).sum()) / size)
