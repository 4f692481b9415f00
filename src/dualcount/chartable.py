"""Exact character tables of That, Ohat and Ihat over Q(zeta_N).

No count reads them: grouprep writes the irreducibles of every covered group
as literal or closed-form data.  The tables are what that data was read off,
and the tests derive it again from them (tests/char_tables.py): reality
types by Frobenius-Schur indicators, determinants by Newton's identities,
tensoring by character products and McKay edges by decomposing irrep ⊗
defining rep.  `validate_table` checks orthogonality, the power maps and
inversion, so a transcription error in a table fails loudly at first use.
These tables are the one reader of `cyclotomic` in the package, so no
command runs that module or imports `fractions`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import cyclotomic
from .errors import InvariantError
from .grouprep import ICOSAHEDRAL, OCTAHEDRAL, TETRAHEDRAL, GroupSpec


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

    def char_of_power(self, name: str, c: int, p: int) -> cyclotomic.Cyc:
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
        acc = cyclotomic.Cyc.from_rational(0, self.conductor)
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
        acc = cyclotomic.Cyc.from_rational(0, self.conductor)
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
            e = [cyclotomic.Cyc.from_rational(1, self.conductor)]
            for k in range(1, d + 1):
                acc = cyclotomic.Cyc.from_rational(0, self.conductor)
                sign = 1
                for j in range(1, k + 1):
                    term = e[k - j] * pw[j - 1]
                    acc = acc + (term if sign > 0 else -term)
                    sign = -sign
                e.append(acc * Fraction(1, k))
            out.append(e[d])
        return tuple(out)


def validate_table(t: CharTable):
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
    w = cyclotomic.Cyc.zeta(3)
    w2 = cyclotomic.Cyc.zeta(3, 2)
    one = cyclotomic.Cyc.from_rational(1, 3)
    num = lambda v: cyclotomic.Cyc.from_rational(v, 3)
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
    chars = {k: tuple(v if isinstance(v, cyclotomic.Cyc) else num(v) for v in vals) for k, vals in rows.items()}
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
    beta = cyclotomic.Cyc.zeta(8) + cyclotomic.Cyc.zeta(8, 7)  # sqrt(2)
    num = lambda v: cyclotomic.Cyc.from_rational(v, 8)
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
    chars = {k: tuple(v if isinstance(v, cyclotomic.Cyc) else num(v) for v in vals) for k, vals in rows.items()}
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
    phi_p = -(cyclotomic.Cyc.zeta(5, 2) + cyclotomic.Cyc.zeta(5, 3))  # (1 + sqrt 5)/2
    phi_m = -(cyclotomic.Cyc.zeta(5, 1) + cyclotomic.Cyc.zeta(5, 4))  # (1 - sqrt 5)/2
    num = lambda v: cyclotomic.Cyc.from_rational(v, 5)
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
    chars = {k: tuple(v if isinstance(v, cyclotomic.Cyc) else num(v) for v in vals) for k, vals in rows.items()}
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


_BUILDERS = {
    TETRAHEDRAL: _tetrahedral_table,
    OCTAHEDRAL: _octahedral_table,
    ICOSAHEDRAL: _icosahedral_table,
}


def exceptional_table(g: GroupSpec) -> CharTable:
    """The validated table of That, Ohat or Ihat; ValueError otherwise."""
    build = _BUILDERS.get(g.family)
    if build is None:
        raise ValueError(f"{g.label} has closed-form irreducibles and no "
                         f"character table")
    t = build(g)
    validate_table(t)
    return t
