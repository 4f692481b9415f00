"""Finite subgroups of SU(2) and their exact representation theory.

Covers the cyclic, binary dihedral, binary tetrahedral, binary octahedral and
binary icosahedral groups.  Everything downstream (McKay graphs, counting,
sector refinements) is driven by the exact character tables built here.

Derived data is computed, not transcribed: reality types come from the
Frobenius-Schur indicator, determinant characters from Newton's identities,
and conjugate partners from matching conjugated characters.  Table builders
validate orthogonality and inversion consistency, so a transcription error in
a hard-coded table fails loudly at first use.
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

# Largest m that a Z:m or Dhat:m label may name.  The first use of a group
# builds and validates its exact character table: the orthogonality checks
# alone take |classes|^3 / 2 products in Q(zeta_N), N the conductor (m for
# Z:m, lcm(2m, 4) for Dhat:m), each costing up to phi(N)^2 integer products.
# The cost peaks at primes, where phi(N) is largest.  First calls of
# `count --target SU --n 2` on a 2-CPU machine: Z:24 0.5 s, Z:32 1.0 s,
# Z:47 3.7 s, Z:48 2.1 s, Dhat:47 5.6 s, Dhat:48 3.1 s; above the bound Z:61
# takes 8.8 s, Dhat:61 14 s and Z:96 about 20 s, and the growth is close to
# the fifth power of m.
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
    if not tail.isdigit():
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

    def inner(self, u, v) -> Fraction:
        acc = Cyc.from_rational(0, self.conductor)
        for c in range(self.n_classes):
            acc = acc + u[c] * v[c].conjugate() * self.class_sizes[c]
        return acc.rational() / self.group.order

    def decompose(self, vec) -> dict[str, int]:
        out = {}
        for name in self.irrep_names:
            m = self.inner(vec, self.chars[name])
            if m.denominator != 1:
                raise ValueError("character vector is not a virtual character")
            if m:
                out[name] = int(m)
        return out

    def product(self, u, v):
        return tuple(a * b for a, b in zip(u, v))

    def name_of_char(self, vec) -> str:
        name = self._name_by_char.get(tuple(vec))
        if name is None:
            raise ValueError("character does not match any irreducible")
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
            if t.inner(t.chars[a], t.chars[b]) != expect:
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


# -- cyclic tables -----------------------------------------------------------


def _cyclic_table(g: GroupSpec) -> CharTable:
    n = g.param
    names = [str(k) for k in range(n)]
    chars = {}
    for k in range(n):
        chars[str(k)] = tuple(Cyc.zeta(n, j * k) for j in range(n))
    power_class = [[(j * p) % n for p in range(n // gcd(j, n) if j else 1)] for j in range(n)]
    t = CharTable(
        group=g,
        conductor=n,
        class_names=[str(j) for j in range(n)],
        class_sizes=[1] * n,
        class_orders=[n // gcd(j, n) if j else 1 for j in range(n)],
        power_class=power_class,
        irrep_names=names,
        chars=chars,
        defining_name=None,
    )
    return t


def _cyclic_defining_char(g: GroupSpec):
    n = g.param
    return tuple(Cyc.zeta(n, j) + Cyc.zeta(n, -j % n) for j in range(n))


# -- binary dihedral tables ---------------------------------------------------


def _dihedral_mult(m):
    # elements (t, j) = b^t a^j in <a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>
    def mult(x, y):
        t, j = x
        s, k = y
        if t == 0 and s == 0:
            return (0, (j + k) % (2 * m))
        if t == 0 and s == 1:
            return (1, (k - j) % (2 * m))
        if t == 1 and s == 0:
            return (1, (j + k) % (2 * m))
        return (0, (m + k - j) % (2 * m))

    return mult


def _dihedral_table(g: GroupSpec) -> CharTable:
    m = g.param
    mult = _dihedral_mult(m)
    elements = [(t, j) for t in (0, 1) for j in range(2 * m)]
    order = {}
    for x in elements:
        k, y = 1, x
        while y != (0, 0):
            y = mult(y, x)
            k += 1
        order[x] = k
    inverse = {x: next(y for y in elements if mult(x, y) == (0, 0)) for x in elements}
    # conjugacy classes, keyed by minimal member
    class_of = {}
    classes = []
    for x in elements:
        if x in class_of:
            continue
        orbit = {mult(mult(h, x), inverse[h]) for h in elements}
        rep = min(orbit)
        idx = len(classes)
        classes.append(sorted(orbit))
        for y in orbit:
            class_of[y] = idx
    reps = [min(c) for c in classes]
    conductor = 2 * m * 4 // gcd(2 * m, 4)  # lcm(2m, 4)
    power_class = []
    for rep in reps:
        row, y = [], (0, 0)
        for _ in range(order[rep]):
            row.append(class_of[y])
            y = mult(y, rep)
        power_class.append(row)

    zeta = lambda k: Cyc.zeta(conductor, k % conductor)
    alpha = conductor // (2 * m)  # zeta^alpha is a primitive 2m-th root
    quart = conductor // 4  # zeta^quart = i

    def onedim(avals, bval_exp):
        # a -> zeta^avals (0 or m*alpha), b -> zeta^bval_exp
        vals = []
        for t, j in reps:
            vals.append(zeta(bval_exp * t + avals * j))
        return tuple(vals)

    names = ["1"] + [f"2_{k}" for k in range(1, m)] + ["1'''", "1'", "1''"]
    chars = {}
    chars["1"] = onedim(0, 0)
    chars["1'"] = onedim(0, 2 * quart)  # b -> -1
    chars["1''"] = onedim(m * alpha, quart * m)  # a -> -1, b -> i^m
    chars["1'''"] = onedim(m * alpha, quart * m + 2 * quart)  # a -> -1, b -> -i^m
    for k in range(1, m):
        vals = []
        for t, j in reps:
            if t:
                vals.append(Cyc.from_rational(0, conductor))
            else:
                vals.append(zeta(alpha * k * j) + zeta(-alpha * k * j))
        chars[f"2_{k}"] = tuple(vals)

    t = CharTable(
        group=g,
        conductor=conductor,
        class_names=[f"({a},{b})" for a, b in reps],
        class_sizes=[len(c) for c in classes],
        class_orders=[order[r] for r in reps],
        power_class=power_class,
        irrep_names=names,
        chars=chars,
        defining_name="2_1",
    )
    return t


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


@lru_cache(maxsize=None)
def character_table(g: GroupSpec) -> CharTable:
    if g.family == CYCLIC:
        t = _cyclic_table(g)
    elif g.family == DIHEDRAL:
        t = _dihedral_table(g)
    elif g.family == TETRAHEDRAL:
        t = _tetrahedral_table(g)
    elif g.family == OCTAHEDRAL:
        t = _octahedral_table(g)
    else:
        t = _icosahedral_table(g)
    _validate_table(t)
    return t


def defining_char(g: GroupSpec):
    """Character of the 2-dim representation given by the embedding in SU(2)."""
    t = character_table(g)
    if g.family == CYCLIC:
        return _cyclic_defining_char(g)
    return t.chars[t.defining_name]


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


@lru_cache(maxsize=None)
def abelianization(g: GroupSpec) -> Abelianization:
    t = character_table(g)
    if g.family == CYCLIC:
        moduli = (g.param,)
        gens = ("1",) if g.param > 1 else ()
    elif g.family == DIHEDRAL:
        if g.param % 2:
            moduli, gens = (4,), ("1''",)
        else:
            moduli, gens = (2, 2), ("1'", "1'''")
    elif g.family == TETRAHEDRAL:
        moduli, gens = (3,), ("1'",)
    elif g.family == OCTAHEDRAL:
        moduli, gens = (2,), ("1'",)
    else:
        moduli, gens = (), ()
    ab = AbGroup(moduli)
    onedims = t.onedim_names()
    if ab.order != len(onedims):
        raise InvariantError("abelianization order mismatch")
    name_of = {}
    for x in ab.elements():
        vec = tuple(Cyc.from_rational(1, t.conductor) for _ in t.class_names)
        for gen_name, power in zip(gens, x):
            gen_char = t.chars[gen_name]
            for _ in range(power):
                vec = t.product(vec, gen_char)
        name_of[x] = t.name_of_char(vec)
    if len(set(name_of.values())) != ab.order:
        raise InvariantError("chosen generators do not generate the character group")
    element_of = {v: k for k, v in name_of.items()}
    return Abelianization(group=ab, generator_names=tuple(gens), name_of=name_of,
                          element_of=element_of)


@lru_cache(maxsize=None)
def _irrep_data(g: GroupSpec):
    t = character_table(g)
    ab = abelianization(g)
    infos = []
    for node, name in enumerate(t.irrep_names):
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
        det_name = t.name_of_char(t.det_vector(name))
        infos.append(IrrepInfo(
            name=name,
            dim=t.dim(name),
            reality=reality,
            partner=partner,
            det=det_name,
            det_element=ab.element_of[det_name],
            node=node,
        ))
    return tuple(infos)


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


def tensor_with_onedim(g: GroupSpec, name: str, onedim: str) -> str:
    """The irreducible name ⊗ onedim (always irreducible)."""
    t = character_table(g)
    vec = t.product(t.chars[name], t.chars[onedim])
    return t.name_of_char(vec)


@lru_cache(maxsize=None)
def onedim_permutations(g: GroupSpec) -> MappingProxyType:
    """Read-only map from each abelianization element to the permutation of
    canonical irrep indices given by tensoring with that 1-dim character.

    Tensoring with 1-dim characters is an action of the character group, so
    only the generators' permutations come from character products; every
    other element's permutation is composed from those.
    """
    ab = abelianization(g)
    names = character_table(g).irrep_names
    index = {name: k for k, name in enumerate(names)}
    generator_perms = [
        tuple(index[tensor_with_onedim(g, name, gen)] for name in names)
        for gen in ab.generator_names]
    return MappingProxyType(ab.group.action(generator_perms, len(names)))


def decompose_defining_tensor(g: GroupSpec, name: str) -> dict[str, int]:
    """Multiplicities of name ⊗ (defining 2-dim rep)."""
    t = character_table(g)
    vec = t.product(t.chars[name], defining_char(g))
    return t.decompose(vec)


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
