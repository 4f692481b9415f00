"""Finite subgroups of SU(2) and their exact representation theory.

Covers the cyclic, binary dihedral, binary tetrahedral, binary octahedral and
binary icosahedral groups.  Downstream code (McKay graphs, counting, sector
refinements) reads only the combinatorics of the irreducibles: dimensions,
reality types, conjugate partners, determinant characters and the action of
the 1-dim characters by tensoring.

For the two infinite families, Z:m and Dhat:m, that data is written in closed
form (McKay, *Graphs, singularities and finite groups*, 1980); no character
value is computed.  For That, Ohat and Ihat it is derived from exact
character tables: reality types come from the Frobenius-Schur indicator,
determinant characters from Newton's identities, and conjugate partners from
matching conjugated characters.  Table builders validate orthogonality and
inversion consistency, so a transcription error in a hard-coded table fails
loudly at first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from types import MappingProxyType

from .abgroup import AbGroup, invariant_factors
from .cyclotomic import Cyc
from .errors import InvariantError, NotCoveredError

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


@dataclass(frozen=True)
class GroupSpec:
    """One finite subgroup of SU(2), up to conjugacy."""

    family: str
    param: int = 0

    def __post_init__(self):
        if self.family == CYCLIC:
            if self.param < 1:
                raise ValueError("cyclic group needs order >= 1")
        elif self.family == DIHEDRAL:
            if self.param < 2:
                raise ValueError("binary dihedral parameter must be >= 2")
        elif self.family in _EXCEPTIONAL_ORDERS:
            if self.param:
                raise ValueError("exceptional groups take no parameter")
        else:
            raise ValueError(f"unknown family {self.family!r}")

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


class CharTable:
    """Exact character table with power maps.

    chars[name][c] is the character value on conjugacy class c; power_class[c][p]
    is the class of g^p for g in class c, indexed modulo the element order.
    """

    def __init__(self, group, conductor, class_names, class_sizes, class_orders,
                 power_class, irrep_names, chars, defining_name):
        self.group = group
        self.conductor = conductor
        self.class_names = class_names
        self.class_sizes = class_sizes
        self.class_orders = class_orders
        self.power_class = power_class
        self.irrep_names = irrep_names
        self.chars = chars
        self.defining_name = defining_name
        self._name_by_char = {chars[n]: n for n in irrep_names}
        self._duals = {}

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def dim(self, name: str) -> int:
        return self.chars[name][0].integer()

    def onedim_names(self) -> list[str]:
        return [n for n in self.irrep_names if self.dim(n) == 1]

    def char_of_power(self, name: str, c: int, p: int) -> Cyc:
        return self.chars[name][self.power_class[c][p % self.class_orders[c]]]

    def inverse_class(self, c: int) -> int:
        return self.power_class[c][-1 % self.class_orders[c]]

    def multiplicity(self, vec, name: str) -> Fraction:
        """The inner product of a class function with the irreducible name;
        its conjugated, class-weighted character is computed once per table."""
        dual = self._duals.get(name)
        if dual is None:
            dual = self._duals[name] = tuple(
                v.conjugate() * size
                for v, size in zip(self.chars[name], self.class_sizes))
        acc = Cyc.from_rational(0, self.conductor)
        for u, w in zip(vec, dual):
            acc = acc + u * w
        return acc.rational() / self.group.order

    def decompose(self, vec) -> dict[str, int]:
        out = {}
        for name in self.irrep_names:
            m = self.multiplicity(vec, name)
            if m.denominator != 1:
                # only derived characters reach here, never user input
                raise InvariantError("character vector is not a virtual character")
            if m:
                out[name] = int(m)
        return out

    def product(self, u, v):
        return tuple(a * b for a, b in zip(u, v))

    def name_of_char(self, vec) -> str:
        name = self._name_by_char.get(tuple(vec))
        if name is None:
            raise InvariantError("character does not match any irreducible")
        return name

    def fs_indicator(self, name: str) -> int:
        acc = Cyc.from_rational(0, self.conductor)
        for c in range(self.n_classes):
            acc = acc + self.char_of_power(name, c, 2) * self.class_sizes[c]
        val = acc.rational() / self.group.order
        if val not in (1, -1, 0):
            raise InvariantError(f"bad indicator {val} for {name}")
        return int(val)

    def det_vector(self, name: str):
        """Character of the top exterior power, via Newton's identities."""
        d = self.dim(name)
        out = []
        for c in range(self.n_classes):
            pw = [self.char_of_power(name, c, j) for j in range(1, d + 1)]
            e = [Cyc.from_rational(1, self.conductor)]
            for k in range(1, d + 1):
                acc = Cyc.from_rational(0, self.conductor)
                sign = 1
                for j in range(1, k + 1):
                    term = e[k - j] * pw[j - 1]
                    acc = acc + (term if sign > 0 else -term)
                    sign = -sign
                e.append(acc * Fraction(1, k))
            out.append(e[d])
        return tuple(out)


def _validate_table(t: CharTable):
    g = t.group
    if sum(t.class_sizes) != g.order:
        raise InvariantError("class sizes do not sum to the group order")
    if len(t.irrep_names) != t.n_classes:
        raise InvariantError("irrep count differs from class count")
    if t.class_orders[0] != 1 or t.class_sizes[0] != 1:
        raise InvariantError("identity class must come first")
    if sum(t.dim(n) ** 2 for n in t.irrep_names) != g.order:
        raise InvariantError("dimension squares do not sum to the group order")
    for i, a in enumerate(t.irrep_names):
        for b in t.irrep_names[i:]:
            expect = Fraction(1 if a == b else 0)
            if t.multiplicity(t.chars[a], b) != expect:
                raise InvariantError(f"orthogonality fails for ({a}, {b})")
    for c in range(t.n_classes):
        if t.power_class[c][0] != 0:
            raise InvariantError("power map must send p=0 to the identity class")
        if t.class_orders[c] > 1 and t.power_class[c][1] != c:
            raise InvariantError("power map must send p=1 to the class itself")
        if len(t.power_class[c]) != t.class_orders[c]:
            raise InvariantError("power map row length must equal the element order")
        inv = t.inverse_class(c)
        for name in t.irrep_names:
            if t.chars[name][inv] != t.chars[name][c].conjugate():
                raise InvariantError(f"inversion check fails for {name} at class {c}")
        for p in range(t.class_orders[c]):
            oc = t.class_orders[t.power_class[c][p]]
            if oc != t.class_orders[c] // gcd(t.class_orders[c], p or t.class_orders[c]):
                raise InvariantError("power map order bookkeeping is wrong")


# -- exceptional tables -------------------------------------------------------


def _tetrahedral_table(g: GroupSpec) -> CharTable:
    w = Cyc.zeta(3)
    w2 = Cyc.zeta(3, 2)
    one = Cyc.from_rational(1, 3)
    num = lambda v: Cyc.from_rational(v, 3)
    rows = {
        # classes:  1A  2A  4A  6A  3A  3B  6B
        "1": [1, 1, 1, 1, 1, 1, 1],
        "2": [2, -2, 0, 1, -1, -1, 1],
        "3": [3, 3, -1, 0, 0, 0, 0],
        "1'": [one, one, one, w, w2, w, w2],
        "1''": [one, one, one, w2, w, w2, w],
        "2'": [num(2), num(-2), num(0), w, -w2, -w, w2],
        "2''": [num(2), num(-2), num(0), w2, -w, -w2, w],
    }
    chars = {k: tuple(v if isinstance(v, Cyc) else num(v) for v in vals) for k, vals in rows.items()}
    return CharTable(
        group=g,
        conductor=3,
        class_names=["1A", "2A", "4A", "6A", "3A", "3B", "6B"],
        class_sizes=[1, 1, 6, 4, 4, 4, 4],
        class_orders=[1, 2, 4, 6, 3, 3, 6],
        power_class=[
            [0],
            [0, 1],
            [0, 2, 1, 2],
            [0, 3, 4, 1, 5, 6],
            [0, 4, 5],
            [0, 5, 4],
            [0, 6, 5, 1, 4, 3],
        ],
        irrep_names=["1", "2", "3", "2'", "1'", "2''", "1''"],
        chars=chars,
        defining_name="2",
    )


def _octahedral_table(g: GroupSpec) -> CharTable:
    beta = Cyc.zeta(8) + Cyc.zeta(8, 7)  # sqrt(2)
    num = lambda v: Cyc.from_rational(v, 8)
    rows = {
        # classes:  1A  2A  4A  8A  8B  6A  3A  4B
        "1": [1, 1, 1, 1, 1, 1, 1, 1],
        "1'": [1, 1, 1, -1, -1, 1, 1, -1],
        "2''": [2, 2, 2, 0, 0, -1, -1, 0],
        "3": [3, 3, -1, 1, 1, 0, 0, -1],
        "3'": [3, 3, -1, -1, -1, 0, 0, 1],
        "2": [num(2), num(-2), num(0), beta, -beta, num(1), num(-1), num(0)],
        "2'": [num(2), num(-2), num(0), -beta, beta, num(1), num(-1), num(0)],
        "4": [4, -4, 0, 0, 0, -1, 1, 0],
    }
    chars = {k: tuple(v if isinstance(v, Cyc) else num(v) for v in vals) for k, vals in rows.items()}
    return CharTable(
        group=g,
        conductor=8,
        class_names=["1A", "2A", "4A", "8A", "8B", "6A", "3A", "4B"],
        class_sizes=[1, 1, 6, 6, 6, 8, 8, 12],
        class_orders=[1, 2, 4, 8, 8, 6, 3, 4],
        power_class=[
            [0],
            [0, 1],
            [0, 2, 1, 2],
            [0, 3, 2, 4, 1, 4, 2, 3],
            [0, 4, 2, 3, 1, 3, 2, 4],
            [0, 5, 6, 1, 6, 5],
            [0, 6, 6],
            [0, 7, 1, 7],
        ],
        irrep_names=["1", "2", "3", "4", "3'", "2'", "1'", "2''"],
        chars=chars,
        defining_name="2",
    )


def _icosahedral_table(g: GroupSpec) -> CharTable:
    phi_p = -(Cyc.zeta(5, 2) + Cyc.zeta(5, 3))  # (1 + sqrt 5)/2
    phi_m = -(Cyc.zeta(5, 1) + Cyc.zeta(5, 4))  # (1 - sqrt 5)/2
    num = lambda v: Cyc.from_rational(v, 5)
    rows = {
        # classes:  1A  2A  4A  6A  3A  10A    5A      10B    5B
        "1": [1, 1, 1, 1, 1, 1, 1, 1, 1],
        "2": [num(2), num(-2), num(0), num(1), num(-1), phi_p, phi_p - 1, phi_m, phi_m - 1],
        "2'": [num(2), num(-2), num(0), num(1), num(-1), phi_m, phi_m - 1, phi_p, phi_p - 1],
        "3": [num(3), num(3), num(-1), num(0), num(0), phi_p, phi_m, phi_m, phi_p],
        "3'": [num(3), num(3), num(-1), num(0), num(0), phi_m, phi_p, phi_p, phi_m],
        "4": [4, -4, 0, -1, 1, 1, -1, 1, -1],
        "4'": [4, 4, 0, 1, 1, -1, -1, -1, -1],
        "5": [5, 5, 1, -1, -1, 0, 0, 0, 0],
        "6": [6, -6, 0, 0, 0, -1, 1, -1, 1],
    }
    chars = {k: tuple(v if isinstance(v, Cyc) else num(v) for v in vals) for k, vals in rows.items()}
    return CharTable(
        group=g,
        conductor=5,
        class_names=["1A", "2A", "4A", "6A", "3A", "10A", "5A", "10B", "5B"],
        class_sizes=[1, 1, 30, 20, 20, 12, 12, 12, 12],
        class_orders=[1, 2, 4, 6, 3, 10, 5, 10, 5],
        power_class=[
            [0],
            [0, 1],
            [0, 2, 1, 2],
            [0, 3, 4, 1, 4, 3],
            [0, 4, 4],
            [0, 5, 6, 7, 8, 1, 8, 7, 6, 5],
            [0, 6, 8, 8, 6],
            [0, 7, 8, 5, 6, 1, 6, 5, 8, 7],
            [0, 8, 6, 6, 8],
        ],
        irrep_names=["1", "2", "3", "4", "5", "6", "4'", "2'", "3'"],
        chars=chars,
        defining_name="2",
    )


_TABLE_BUILDERS = {
    TETRAHEDRAL: _tetrahedral_table,
    OCTAHEDRAL: _octahedral_table,
    ICOSAHEDRAL: _icosahedral_table,
}


@lru_cache(maxsize=None)
def character_table(g: GroupSpec) -> CharTable:
    """The validated exact character table of That, Ohat or Ihat.

    Z:m and Dhat:m have closed-form irreducibles and no table (ValueError).
    """
    build = _TABLE_BUILDERS.get(g.family)
    if build is None:
        raise ValueError(f"{g.label} has closed-form irreducibles and no "
                         f"character table")
    t = build(g)
    _validate_table(t)
    return t


# -- irreducible representation info -----------------------------------------


@dataclass(frozen=True)
class IrrepInfo:
    name: str
    dim: int
    reality: str
    partner: str | None
    det: str
    det_element: tuple[int, ...]
    node: int


@dataclass
class Abelianization:
    """The group of 1-dim characters, coordinatized by chosen generators."""

    group: AbGroup
    generator_names: tuple[str, ...]
    name_of: dict
    element_of: dict


def _named_abelianization(ab: AbGroup, gens, name_of: dict) -> Abelianization:
    element_of = {v: k for k, v in name_of.items()}
    if len(element_of) != ab.order:
        raise InvariantError("chosen generators do not generate the character group")
    return Abelianization(group=ab, generator_names=tuple(gens), name_of=name_of,
                          element_of=element_of)


# the character group of Dhat:m is Z4 generated by 1'' for odd m (indexed
# here by the power of 1''), and Z2 x Z2 generated by 1' and 1''' for even m
_DIHEDRAL_ODD_ONEDIMS = ("1", "1''", "1'", "1'''")
_DIHEDRAL_EVEN_ONEDIMS = {(0, 0): "1", (0, 1): "1'''", (1, 0): "1'", (1, 1): "1''"}

_TABLE_GENERATORS = {
    TETRAHEDRAL: ((3,), ("1'",)),
    OCTAHEDRAL: ((2,), ("1'",)),
    ICOSAHEDRAL: ((), ()),
}


@lru_cache(maxsize=None)
def abelianization(g: GroupSpec) -> Abelianization:
    if g.family == CYCLIC:
        ab = AbGroup((g.param,))
        return _named_abelianization(ab, ("1",) if g.param > 1 else (),
                                     {x: str(x[0]) for x in ab.elements()})
    if g.family == DIHEDRAL:
        if g.param % 2:
            ab = AbGroup((4,))
            return _named_abelianization(
                ab, ("1''",), {x: _DIHEDRAL_ODD_ONEDIMS[x[0]] for x in ab.elements()})
        ab = AbGroup((2, 2))
        return _named_abelianization(
            ab, ("1'", "1'''"), {x: _DIHEDRAL_EVEN_ONEDIMS[x] for x in ab.elements()})
    moduli, gens = _TABLE_GENERATORS[g.family]
    return _table_abelianization(character_table(g), moduli, gens)


def _table_abelianization(t: CharTable, moduli, gens) -> Abelianization:
    """The abelianization read off a character table: each element is named
    by the 1-dim character equal to that product of generator characters."""
    ab = AbGroup(moduli)
    if ab.order != len(t.onedim_names()):
        raise InvariantError("abelianization order mismatch")
    name_of = {}
    for x in ab.elements():
        vec = tuple(Cyc.from_rational(1, t.conductor) for _ in t.class_names)
        for gen_name, power in zip(gens, x):
            gen_char = t.chars[gen_name]
            for _ in range(power):
                vec = t.product(vec, gen_char)
        name_of[x] = t.name_of_char(vec)
    return _named_abelianization(ab, gens, name_of)


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


def _table_irreps(t: CharTable) -> list[tuple]:
    """Rows read off a character table: reality from the Frobenius-Schur
    indicator, partners by conjugation, determinants by Newton's identities."""
    rows = []
    for name in t.irrep_names:
        fs = t.fs_indicator(name)
        if fs == 1:
            reality, partner = REAL, None
        elif fs == -1:
            reality, partner = PSEUDOREAL, None
        else:
            conj = tuple(v.conjugate() for v in t.chars[name])
            reality, partner = COMPLEX, t.name_of_char(conj)
            if partner == name:
                raise InvariantError("complex irrep cannot be self-conjugate")
        rows.append((name, t.dim(name), reality, partner,
                     t.name_of_char(t.det_vector(name))))
    return rows


def _irrep_infos(rows, ab: Abelianization) -> tuple[IrrepInfo, ...]:
    return tuple(IrrepInfo(name=name, dim=dim, reality=reality, partner=partner,
                           det=det, det_element=ab.element_of[det], node=node)
                 for node, (name, dim, reality, partner, det) in enumerate(rows))


@lru_cache(maxsize=None)
def _irrep_data(g: GroupSpec):
    if g.family == CYCLIC:
        rows = _cyclic_irreps(g.param)
    elif g.family == DIHEDRAL:
        rows = _dihedral_irreps(g.param)
    else:
        rows = _table_irreps(character_table(g))
    return _irrep_infos(rows, abelianization(g))


def irreps(g: GroupSpec) -> tuple[IrrepInfo, ...]:
    """All irreducibles in the canonical (McKay graph) order."""
    return _irrep_data(g)


def irrep_by_name(g: GroupSpec, name: str) -> IrrepInfo:
    for info in _irrep_data(g):
        if info.name == name:
            return info
    raise ValueError(f"{g.label} has no irreducible named {name!r}")


def det_char(g: GroupSpec, name: str) -> tuple[int, ...]:
    """Determinant character of the named irrep, as an abelianization element."""
    return irrep_by_name(g, name).det_element


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


def _table_generator_perms(t: CharTable, ab: Abelianization, names):
    """Node permutations of tensoring with each generator, from character
    products."""
    index = {name: k for k, name in enumerate(names)}
    return [tuple(index[t.name_of_char(t.product(t.chars[name], t.chars[gen]))]
                  for name in names)
            for gen in ab.generator_names]


@lru_cache(maxsize=None)
def onedim_permutations(g: GroupSpec) -> MappingProxyType:
    """Read-only map from each abelianization element to the permutation of
    canonical irrep indices given by tensoring with that 1-dim character.

    Tensoring with 1-dim characters is an action of the character group, so
    only the generators' permutations are derived, in closed form for Z:m
    and Dhat:m and from character products otherwise; every other element's
    permutation is composed from those.
    """
    ab = abelianization(g)
    names = [info.name for info in irreps(g)]
    if g.family in (CYCLIC, DIHEDRAL):
        generator_perms = _closed_form_generator_perms(g, ab, names)
    else:
        generator_perms = _table_generator_perms(character_table(g), ab, names)
    return MappingProxyType(ab.group.action(generator_perms, len(names)))


def decompose_defining_tensor(g: GroupSpec, name: str) -> dict[str, int]:
    """Multiplicities of name ⊗ (defining 2-dim rep), for That, Ohat and Ihat."""
    t = character_table(g)
    return t.decompose(t.product(t.chars[name], t.chars[t.defining_name]))


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


# -- group cohomology with finite cyclic coefficients -------------------------


@dataclass
class CohomologyGroup:
    """H^k of the classifying space with Z_r coefficients.

    Degree 1 is the subgroup of r-torsion characters inside the
    abelianization; degree 2 is the quotient by r-th powers, listed by
    canonical (componentwise smallest) coset representatives.
    """

    degree: int
    modulus: int
    invariant_factors: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...]
    class_of: dict | None = None


def cohomology(g: GroupSpec, degree: int, r: int) -> CohomologyGroup:
    if degree not in (1, 2):
        raise ValueError("only degrees 1 and 2 are available")
    if r < 1:
        raise ValueError("coefficient modulus must be positive")
    ab = abelianization(g).group
    if degree == 1:
        els = sorted(ab.kernel_of_scaling(r))
        inv = invariant_factors(tuple(gcd(d, r) for d in ab.moduli))
        return CohomologyGroup(1, r, inv, tuple(els))
    qmod, reps, class_of = ab.quotient_by_scaling(r)
    return CohomologyGroup(2, r, invariant_factors(qmod), tuple(reps), class_of)


# -- binary octahedral extras: twisted irreps and orientation invariants ------


@dataclass(frozen=True)
class TwistedIrrepInfo:
    """Irreducible of the nontrivial Z2-twisted (double cover) type.

    These carry no determinant character; reality and partners follow the
    same conventions as IrrepInfo.
    """

    name: str
    dim: int
    reality: str
    partner: str | None
    node: int


_TWISTED_OCT = (
    TwistedIrrepInfo("1t", 1, COMPLEX, "1t'", 0),
    TwistedIrrepInfo("2t", 2, COMPLEX, "2t'", 1),
    TwistedIrrepInfo("3t", 3, COMPLEX, "3t'", 2),
    TwistedIrrepInfo("4t", 4, REAL, None, 3),
    TwistedIrrepInfo("3t'", 3, COMPLEX, "3t", 4),
    TwistedIrrepInfo("2t'", 2, COMPLEX, "2t", 5),
    TwistedIrrepInfo("1t'", 1, COMPLEX, "1t", 6),
    TwistedIrrepInfo("2t''", 2, PSEUDOREAL, None, 7),
)


def twisted_irreps(g: GroupSpec) -> tuple[TwistedIrrepInfo, ...]:
    if g.family != OCTAHEDRAL:
        raise NotCoveredError(
            "not covered: twisted irreducibles are only available for Ohat")
    return _TWISTED_OCT


def twisted_x_action(g: GroupSpec) -> dict[str, str]:
    """The outer 1-dim twist on twisted irreps: swaps primed/unprimed pairs."""
    twisted_irreps(g)  # raises off-family
    return {"1t": "1t'", "1t'": "1t", "2t": "2t'", "2t'": "2t",
            "3t": "3t'", "3t'": "3t", "4t": "4t", "2t''": "2t''"}


@dataclass(frozen=True)
class SWClass:
    """First and second orientation/spin obstruction bits of a real rep."""

    w1: int
    w2: int

    def combine(self, other: "SWClass") -> "SWClass":
        # Whitney formula truncated in degree <= 2
        return SWClass((self.w1 + other.w1) % 2,
                       (self.w2 + other.w2 + self.w1 * other.w1) % 2)

    def power(self, n: int) -> "SWClass":
        return SWClass((n * self.w1) % 2, (n * self.w2 + comb(n, 2) * self.w1) % 2)


_SW_OCT = {
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
        return _SW_OCT[name]
    except KeyError:
        raise ValueError(f"Ohat has no irreducible named {name!r}") from None


def sw_of_multiplicity_vector(g: GroupSpec, mv: dict[str, int]) -> SWClass:
    """Obstruction bits of a direct sum given by name -> multiplicity."""
    acc = SWClass(0, 0)
    for name, mult in sorted(mv.items()):
        if mult:
            acc = acc.combine(sw_class(g, name).power(mult))
    return acc
