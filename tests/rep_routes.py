"""Representation-side routes, as the tests' oracle.

The center class of each level weight (`affine.det_classes_from_center`) is
checked against the determinant of the partner-group representation that the
weight names, and the mod-4 sector congruence of special orthogonal Ohat
vectors (`refined._OCT_CONGRUENCE`) against their second Stiefel-Whitney
class, from the classes of the irreps by the Whitney formula.

Both identifications of the symmetry group A with the center, the one of the
determinant routes and the one of the S-matrix conjugation check, are found
here by trying every isomorphism, from the searches over finite abelian
groups below.  `affine.verify_s_conjugation` reads its identification off
the conjugation matrices instead, and `conjugation_identifications` is that
read's oracle.
"""

import cmath
from itertools import product
from math import comb, gcd

import numpy as np

from dualcount.abgroup import AbGroup
from dualcount.affine import (TOLERANCE, _finite_structure,
                              det_classes_from_center, level_weights,
                              mckay_partner)
from dualcount.errors import InvariantError, NotCoveredError
from dualcount.grouprep import (OCTAHEDRAL, PSEUDOREAL, GroupSpec,
                                abelianization, irreps)
from dualcount.mckay import a_action
from dualcount.record import Record
from dualcount.refined import _OCT_CONGRUENCE


# -- searches over finite abelian groups -------------------------------------


def scale(group: AbGroup, k: int, x) -> tuple[int, ...]:
    """k * x in the group."""
    return tuple((k * a) % d for a, d in zip(x, group.moduli))


def kernel_of_scaling(group: AbGroup, r: int) -> list[tuple[int, ...]]:
    """The elements x with r * x = 0, the r-torsion of the group."""
    axes = []
    for d in group.moduli:
        g = gcd(r, d)
        axes.append([(d // g) * j % d for j in range(g)])
    return [tuple(v) for v in product(*axes)]


def homomorphisms(source: AbGroup, target: AbGroup) -> list[dict]:
    """All group homomorphisms source -> target, each as an element map:
    every choice of generator images that the generators' orders kill."""
    homs = []
    for images in product(target.elements(), repeat=len(source.moduli)):
        if any(scale(target, d, y) != target.identity
               for d, y in zip(source.moduli, images)):
            continue
        table = {}
        for x in source.elements():
            acc = target.identity
            for xi, y in zip(x, images):
                acc = target.add(acc, scale(target, xi, y))
            table[x] = acc
        homs.append(table)
    return homs


def isomorphisms(source: AbGroup, target: AbGroup) -> list[dict]:
    if source.order != target.order:
        return []
    return [h for h in homomorphisms(source, target)
            if len(set(h.values())) == source.order]


def irrep_by_name(g: GroupSpec, name: str):
    for info in irreps(g):
        if info.name == name:
            return info
    raise ValueError(f"{g.label} has no irreducible named {name!r}")


def det_char(g: GroupSpec, name: str) -> tuple[int, ...]:
    """Determinant character of the named irrep, as an abelianization element."""
    return irrep_by_name(g, name).det_element


# -- determinant classes of level weights ------------------------------------


def det_classes_from_reps(lw) -> tuple[tuple[int, ...], ...]:
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
            acc = ab.add(acc, scale(ab, mult, d))
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
    for iso in isomorphisms(center, ab):
        if all(iso[x] == y for x, y in zip(geo, rep)):
            matches.append(sorted(iso.items()))
    return {"type": ade_type, "level": n, "compatible": bool(matches),
            "identifications": matches}


def conjugation_identifications(sm) -> list[dict]:
    """Every isomorphism phi from the symmetry group A to the center under
    which S P_a S^-1 is, within TOLERANCE, the diagonal of the weights'
    center characters at phi(a), for each a: the search that
    `affine.verify_s_conjugation` replaces.  Each is given as that
    function gives it, the image of each generator of A by the generator's
    name.

    P_a is built as a permutation matrix and multiplied out, and each
    character value is exp(2 pi i k / e), k = AbGroup.pairing."""
    lw = sm.weights
    g = mckay_partner(lw.ade_type)
    ab = abelianization(g)
    c, _, _ = _finite_structure(lw.ade_type)
    center = AbGroup(c.center_moduli)
    classes = det_classes_from_center(lw)
    pos = {w: i for i, w in enumerate(lw.weights)}
    s = sm.array()
    conj = {}
    for a, perm in a_action(g).items():
        p = np.zeros((lw.count, lw.count))
        for i, w in enumerate(lw.weights):
            moved = [0] * len(w)
            for node, mult in enumerate(w):
                moved[perm[node]] = mult
            p[pos[tuple(moved)], i] = 1.0
        conj[a] = s @ p @ s.conj().T
    e = center.exponent
    rank = len(ab.group.moduli)
    gens = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    found = []
    for iso in isomorphisms(ab.group, center):
        if all(np.abs(mat - np.diag(
                [cmath.exp(2j * cmath.pi * center.pairing(chi, iso[a]) / e)
                 for chi in classes])).max() < TOLERANCE
               for a, mat in conj.items()):
            found.append({name: list(iso[x])
                          for name, x in zip(ab.generator_names, gens)})
    return found


# -- Stiefel-Whitney classes of Ohat representations --------------------------


class SWClass(Record):
    """First and second orientation/spin obstruction bits of a real rep."""

    __slots__ = ("w1", "w2")

    def combine(self, other: "SWClass") -> "SWClass":
        # Whitney formula truncated in degree <= 2
        return SWClass((self.w1 + other.w1) % 2,
                       (self.w2 + other.w2 + self.w1 * other.w1) % 2)

    def power(self, n: int) -> "SWClass":
        return SWClass((n * self.w1) % 2, (n * self.w2 + comb(n, 2) * self.w1) % 2)


SW_OCT = {
    "1": SWClass(0, 0),
    "3": SWClass(0, 0),
    "1'": SWClass(1, 0),
    "3'": SWClass(1, 1),
    "2''": SWClass(1, 0),
    # pseudoreal irreps contribute their underlying real form, which is
    # trivial in both bits
    "2": SWClass(0, 0),
    "2'": SWClass(0, 0),
    "4": SWClass(0, 0),
}


def sw_class(g: GroupSpec, name: str) -> SWClass:
    if g.family != OCTAHEDRAL:
        raise NotCoveredError(
            "not covered: orientation classes are only tabulated for Ohat")
    try:
        return SW_OCT[name]
    except KeyError:
        raise ValueError(f"Ohat has no irreducible named {name!r}") from None


def sw_of_multiplicity_vector(g: GroupSpec, mv: dict[str, int]) -> SWClass:
    """Obstruction bits of a direct sum given by name -> multiplicity."""
    acc = SWClass(0, 0)
    for name, mult in sorted(mv.items()):
        if mult:
            acc = acc.combine(sw_class(g, name).power(mult))
    return acc


def sector_of_so_rep(mv: dict[str, int]) -> int:
    """Two-torsion sector of an orthogonal multiplicity vector for Ohat.

    Computed two independent ways, which must agree: (a) the mod-4 congruence
    of `refined._OCT_CONGRUENCE` on the multiplicities of 1', 3' and 2'';
    (b) the Whitney-sum obstruction class of the direct sum.
    """
    g = GroupSpec.binary_octahedral()
    infos = {i.name: i for i in irreps(g)}
    ab = abelianization(g)
    det = ab.group.identity
    for name, mult in mv.items():
        if name not in infos:
            raise ValueError(f"Ohat has no irreducible named {name!r}")
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        if infos[name].reality == PSEUDOREAL and mult % 2:
            raise ValueError(
                f"orthogonal vectors need even multiplicity on {name}")
        det = ab.group.add(det, scale(ab.group, mult, infos[name].det_element))
    if det != ab.group.identity:
        raise ValueError("not special orthogonal: nontrivial determinant")
    congruence = sum(c * mv.get(name, 0) for name, c in _OCT_CONGRUENCE.items()) % 4
    by_congruence = congruence // 2
    sw = sw_of_multiplicity_vector(g, {k: v for k, v in mv.items() if v})
    if sw.w1:
        raise InvariantError(f"special orthogonal vector {mv} is not orientable")
    if sw.w2 != by_congruence:
        raise InvariantError(
            f"sector routes disagree on {mv}: {sw.w2} vs {by_congruence}")
    return by_congruence
