"""Finite subgroups of SU(2) and their exact representation theory.

Covers the cyclic, binary dihedral, binary tetrahedral, binary octahedral and
binary icosahedral groups.  Downstream code (McKay graphs, counting, sector
refinements) reads only the combinatorics of the irreducibles: dimensions,
reality types, conjugate partners, determinant characters and the action of
the 1-dim characters by tensoring.

For the two infinite families, Z:m and Dhat:m, that data is written in closed
form (McKay, *Graphs, singularities and finite groups*, 1980), and for That,
Ohat and Ihat as literal data; no character value is computed.  The literal
data was read off the exact character tables of dualcount.chartable, which
only `character_table` loads: the tests derive every entry again from them,
reality types by Frobenius-Schur indicators, determinants by Newton's
identities and tensoring by character products.  Dimensions that do not
square to the group order, or a determinant that names no 1-dim character,
stop a run as an internal error.

Cohomology with Z_r coefficients is read off the abelianization A: H^1 is its
r-torsion (`AbGroup.kernel_of_scaling(r)`) and H^2 the quotient A/rA, of
order prod_i gcd(r, d_i) for A = prod_i Z_(d_i); the Spin_odd and PSp counts
at n = 0 read them at r = 2.  The Stiefel-Whitney classes of the Ohat
irreps, the independent route to the sector congruence of `counting`, are
the tests' oracle.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from . import chartable
from .abgroup import AbGroup
from .errors import InvariantError
from .record import Record

REAL = "real"
PSEUDOREAL = "pseudoreal"
COMPLEX = "complex"

CYCLIC = "cyclic"
DIHEDRAL = "binary_dihedral"
TETRAHEDRAL = "binary_tetrahedral"
OCTAHEDRAL = "binary_octahedral"
ICOSAHEDRAL = "binary_icosahedral"

_EXCEPTIONAL_ORDERS = {TETRAHEDRAL: 24, OCTAHEDRAL: 48, ICOSAHEDRAL: 120}

# Largest m that a Z:m or Dhat:m label may name.  Their irreducibles are
# closed forms with m + O(1) entries, so the bound no longer stands for any
# set-up cost.  It stays until counts are bounded by the work they ask of
# the composition kernel (about m^2 * n cells for SU(n)); through
# affine.mckay_partner it also caps A/D S-matrices at A47 and D50.
MAX_GROUP_PARAM = 48


class GroupSpec(Record):
    """One finite subgroup of SU(2), up to conjugacy."""

    __slots__ = ("family", "param")

    def __init__(self, family: str, param: int = 0):
        if family == CYCLIC:
            if param < 1:
                raise ValueError("cyclic group needs order >= 1")
        elif family == DIHEDRAL:
            if param < 2:
                raise ValueError("binary dihedral parameter must be >= 2")
        elif family in _EXCEPTIONAL_ORDERS:
            if param:
                raise ValueError("exceptional groups take no parameter")
        else:
            raise ValueError(f"unknown family {family!r}")
        super().__init__(family, param)

    @property
    def order(self) -> int:
        if self.family == CYCLIC:
            return self.param
        if self.family == DIHEDRAL:
            return 4 * self.param
        return _EXCEPTIONAL_ORDERS[self.family]

    @property
    def label(self) -> str:
        return {
            CYCLIC: f"Z:{self.param}",
            DIHEDRAL: f"Dhat:{self.param}",
            TETRAHEDRAL: "That",
            OCTAHEDRAL: "Ohat",
            ICOSAHEDRAL: "Ihat",
        }[self.family]

    @staticmethod
    def cyclic(n: int) -> "GroupSpec":
        return GroupSpec(CYCLIC, n)

    @staticmethod
    def binary_dihedral(m: int) -> "GroupSpec":
        return GroupSpec(DIHEDRAL, m)

    @staticmethod
    def binary_tetrahedral() -> "GroupSpec":
        return GroupSpec(TETRAHEDRAL)

    @staticmethod
    def binary_octahedral() -> "GroupSpec":
        return GroupSpec(OCTAHEDRAL)

    @staticmethod
    def binary_icosahedral() -> "GroupSpec":
        return GroupSpec(ICOSAHEDRAL)

    @staticmethod
    def from_label(text: str) -> "GroupSpec":
        head, _, tail = text.partition(":")
        if head == "Z":
            return GroupSpec.cyclic(_parse_param(text, tail))
        if head == "Dhat":
            return GroupSpec.binary_dihedral(_parse_param(text, tail))
        if text == "That":
            return GroupSpec.binary_tetrahedral()
        if text == "Ohat":
            return GroupSpec.binary_octahedral()
        if text == "Ihat":
            return GroupSpec.binary_icosahedral()
        raise ValueError(f"unrecognized group label {text!r}")


def _parse_param(text: str, tail: str) -> int:
    # str.isdigit alone admits other scripts' digits and superscripts
    if not (tail.isascii() and tail.isdigit()):
        raise ValueError(f"unrecognized group label {text!r}")
    if int(tail) > MAX_GROUP_PARAM:
        raise ValueError(f"{text} exceeds the largest supported group "
                         f"parameter {MAX_GROUP_PARAM}")
    return int(tail)


# -- irreducible representation info -----------------------------------------


class IrrepInfo(Record):
    """One irreducible: node is its place in the McKay graph, det_element its
    determinant character as an element of the abelianization."""

    __slots__ = ("name", "dim", "reality", "partner", "det", "det_element",
                 "node")


class Abelianization(Record):
    """The group of 1-dim characters, coordinatized by chosen generators."""

    __slots__ = ("group", "generator_names", "name_of", "element_of")


def _named_abelianization(ab: AbGroup, gens, names) -> Abelianization:
    """names lists the 1-dim character of each element of ab, in
    ab.elements() order."""
    name_of = dict(zip(ab.elements(), names))
    element_of = {v: k for k, v in name_of.items()}
    if len(element_of) != ab.order:
        raise InvariantError("chosen generators do not generate the character group")
    return Abelianization(ab, tuple(gens), name_of, element_of)


# the character group of Dhat:m is Z4 generated by 1'' for odd m (indexed
# here by the power of 1''), and Z2 x Z2 generated by 1' and 1''' for even m:
# its moduli, generators and element names, by the parity of m
_DIHEDRAL_ONEDIMS = {
    1: ((4,), ("1''",), ("1", "1''", "1'", "1'''")),
    0: ((2, 2), ("1'", "1'''"), ("1", "1'''", "1'", "1''")),
}

# That, Ohat and Ihat, whose McKay graphs are the affine E6, E7 and E8
# diagrams (McKay 1980): their irrep rows in McKay order; the moduli,
# generators and element names of their character groups, as above; and
# each generator's permutation of the nodes by tensoring.  All of it was read
# off the exact character tables of dualcount.chartable, from which the tests
# derive it again.
_EXCEPTIONAL_IRREPS = {
    TETRAHEDRAL: (("1", 1, REAL, None, "1"),
                  ("2", 2, PSEUDOREAL, None, "1"),
                  ("3", 3, REAL, None, "1"),
                  ("2'", 2, COMPLEX, "2''", "1''"),
                  ("1'", 1, COMPLEX, "1''", "1'"),
                  ("2''", 2, COMPLEX, "2'", "1'"),
                  ("1''", 1, COMPLEX, "1'", "1''")),
    OCTAHEDRAL: (("1", 1, REAL, None, "1"),
                 ("2", 2, PSEUDOREAL, None, "1"),
                 ("3", 3, REAL, None, "1"),
                 ("4", 4, PSEUDOREAL, None, "1"),
                 ("3'", 3, REAL, None, "1'"),
                 ("2'", 2, PSEUDOREAL, None, "1"),
                 ("1'", 1, REAL, None, "1'"),
                 ("2''", 2, REAL, None, "1'")),
    ICOSAHEDRAL: (("1", 1, REAL, None, "1"),
                  ("2", 2, PSEUDOREAL, None, "1"),
                  ("3", 3, REAL, None, "1"),
                  ("4", 4, PSEUDOREAL, None, "1"),
                  ("5", 5, REAL, None, "1"),
                  ("6", 6, PSEUDOREAL, None, "1"),
                  ("4'", 4, REAL, None, "1"),
                  ("2'", 2, PSEUDOREAL, None, "1"),
                  ("3'", 3, REAL, None, "1")),
}
_EXCEPTIONAL_ONEDIMS = {
    TETRAHEDRAL: ((3,), ("1'",), ("1", "1'", "1''")),
    OCTAHEDRAL: ((2,), ("1'",), ("1", "1'")),
    ICOSAHEDRAL: ((), (), ("1",)),
}
_EXCEPTIONAL_GENERATOR_PERMS = {
    TETRAHEDRAL: ((4, 3, 2, 5, 6, 1, 0),),
    OCTAHEDRAL: ((6, 5, 4, 3, 2, 1, 0, 7),),
    ICOSAHEDRAL: (),
}


@lru_cache(maxsize=None)
def abelianization(g: GroupSpec) -> Abelianization:
    if g.family == CYCLIC:
        moduli, gens = (g.param,), ("1",) if g.param > 1 else ()
        names = [str(k) for k in range(g.param)]
    elif g.family == DIHEDRAL:
        moduli, gens, names = _DIHEDRAL_ONEDIMS[g.param % 2]
    else:
        moduli, gens, names = _EXCEPTIONAL_ONEDIMS[g.family]
    return _named_abelianization(AbGroup(moduli), gens, names)


# Each irrep is first a row (name, dim, reality, partner, det name), in the
# canonical order; _irrep_infos numbers the nodes and adds det elements.


def _cyclic_irreps(m: int) -> list[tuple]:
    """Irrep k of Z:m sends the generator to zeta_m^k: it is its own
    determinant, and real exactly when zeta_m^k = zeta_m^-k."""
    return [(str(k), 1, REAL, None, str(k)) if 2 * k % m == 0
            else (str(k), 1, COMPLEX, str(-k % m), str(k))
            for k in range(m)]


def _dihedral_irreps(m: int) -> list[tuple]:
    """Irreps of Dhat:m in McKay order: 1, 2_1 .. 2_(m-1), 1''', 1', 1''.

    2_k is induced from the character a -> zeta_2m^k of the cyclic subgroup:
    pseudoreal with trivial determinant for odd k, real with determinant 1'
    for even k.  1'' and 1''' send b to +-i^m, a complex pair for odd m.
    """
    rows = [("1", 1, REAL, None, "1")]
    for k in range(1, m):
        rows.append((f"2_{k}", 2, PSEUDOREAL, None, "1") if k % 2
                    else (f"2_{k}", 2, REAL, None, "1'"))
    if m % 2:
        rows.append(("1'''", 1, COMPLEX, "1''", "1'''"))
        rows.append(("1'", 1, REAL, None, "1'"))
        rows.append(("1''", 1, COMPLEX, "1'''", "1''"))
    else:
        rows.extend((name, 1, REAL, None, name) for name in ("1'''", "1'", "1''"))
    return rows


def _irrep_infos(g: GroupSpec, rows, ab: Abelianization) -> tuple[IrrepInfo, ...]:
    """The rows of g as IrrepInfo.  Rows whose dimensions do not square to
    the group order, or a determinant that names no 1-dim character, are a
    defect in the data."""
    if sum(row[1] ** 2 for row in rows) != g.order:
        raise InvariantError(
            f"the dimension squares of {g.label} do not sum to its order")
    infos = []
    for node, (name, dim, reality, partner, det) in enumerate(rows):
        det_element = ab.element_of.get(det)
        if det_element is None:
            raise InvariantError(
                f"the determinant {det!r} of {name} is no 1-dim character")
        infos.append(IrrepInfo(name, dim, reality, partner, det, det_element,
                               node))
    return tuple(infos)


@lru_cache(maxsize=None)
def irreps(g: GroupSpec) -> tuple[IrrepInfo, ...]:
    """All irreducibles in the canonical (McKay graph) order."""
    if g.family == CYCLIC:
        rows = _cyclic_irreps(g.param)
    elif g.family == DIHEDRAL:
        rows = _dihedral_irreps(g.param)
    else:
        rows = _EXCEPTIONAL_IRREPS[g.family]
    return _irrep_infos(g, rows, abelianization(g))


def _closed_form_generator_perms(g: GroupSpec, ab: Abelianization, names):
    """Node permutations of tensoring with each generator, for Z:m and Dhat:m.

    1-dim irreps multiply in the abelianization.  1'' and 1''' are -1 on the
    index-2 cyclic subgroup of Dhat:m, so they send 2_k to 2_(m-k); 1' fixes
    every 2_k.
    """
    index = {name: k for k, name in enumerate(names)}
    perms = []
    for gen in ab.generator_names:
        e = ab.element_of[gen]
        flip = gen in ("1''", "1'''")

        def image(name):
            x = ab.element_of.get(name)
            if x is not None:
                return ab.name_of[ab.group.add(x, e)]
            return f"2_{g.param - int(name[2:])}" if flip else name

        perms.append(tuple(index[image(name)] for name in names))
    return perms


@lru_cache(maxsize=None)
def onedim_permutations(g: GroupSpec) -> MappingProxyType:
    """Read-only map from each abelianization element to the permutation of
    canonical irrep indices given by tensoring with that 1-dim character.

    Tensoring with 1-dim characters is an action of the character group, so
    only the generators' permutations are given, in closed form for Z:m and
    Dhat:m and as literal data otherwise; every other element's permutation
    is composed from those.
    """
    ab = abelianization(g)
    names = [info.name for info in irreps(g)]
    if g.family in (CYCLIC, DIHEDRAL):
        generator_perms = _closed_form_generator_perms(g, ab, names)
    else:
        generator_perms = _EXCEPTIONAL_GENERATOR_PERMS[g.family]
    return MappingProxyType(ab.group.action(generator_perms, len(names)))


@lru_cache(maxsize=None)
def character_table(g: GroupSpec):
    """The validated exact character table of That, Ohat or Ihat
    (dualcount.chartable); ValueError for Z:m and Dhat:m, which have none.
    The package reads none of its values: the tests derive their oracle of
    the data above from it."""
    return chartable.exceptional_table(g)


def irrep_table_json(g: GroupSpec) -> dict:
    return {
        "group": g.label,
        "order": g.order,
        "irreps": [
            {
                "name": i.name,
                "dim": i.dim,
                "reality": i.reality,
                "partner": i.partner,
                "det": i.det,
                "node": i.node,
            }
            for i in irreps(g)
        ],
    }
