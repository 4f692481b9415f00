"""The character-table oracle for every covered group.

The library writes the irreducibles, abelianizations, tensoring permutations
and McKay graphs of Z:m and Dhat:m in closed form, and those of That, Ohat
and Ihat as literal data (dualcount.grouprep, dualcount.mckay); it reads no
character value.  This module builds the exact tables of Z:m and Dhat:m in
Q(zeta_N), takes those of That, Ohat and Ihat from grouprep.character_table,
validates them with the library's table checks, and derives the same data
from character values: reality by Frobenius-Schur indicators, determinants
by Newton's identities, tensoring by character products and McKay edges by
decomposing irrep ⊗ defining rep.  The tests compare the two routes.
"""

from functools import lru_cache
from math import gcd
from types import MappingProxyType

from dualcount import grouprep
from dualcount.abgroup import AbGroup
from dualcount.chartable import CharTable, validate_table
from dualcount.cyclotomic import Cyc
from dualcount.errors import InvariantError
from dualcount.grouprep import (COMPLEX, CYCLIC, DIHEDRAL, ICOSAHEDRAL,
                                OCTAHEDRAL, PSEUDOREAL, REAL, TETRAHEDRAL,
                                GroupSpec)
from dualcount.mckay import ade_type_of


# -- cyclic tables -----------------------------------------------------------


def cyclic_table(g: GroupSpec) -> CharTable:
    n = g.param
    names = [str(k) for k in range(n)]
    chars = {}
    for k in range(n):
        chars[str(k)] = tuple(Cyc.zeta(n, j * k) for j in range(n))
    power_class = [[(j * p) % n for p in range(n // gcd(j, n) if j else 1)] for j in range(n)]
    return CharTable(
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


def cyclic_defining_char(g: GroupSpec):
    n = g.param
    return tuple(Cyc.zeta(n, j) + Cyc.zeta(n, -j % n) for j in range(n))


# -- binary dihedral tables ---------------------------------------------------


def dihedral_mult(m):
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


def dihedral_table(g: GroupSpec) -> CharTable:
    m = g.param
    mult = dihedral_mult(m)
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

    return CharTable(
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


# -- the table route ------------------------------------------------------------


@lru_cache(maxsize=None)
def character_table(g: GroupSpec) -> CharTable:
    """The validated exact character table of any covered group."""
    if g.family == CYCLIC:
        t = cyclic_table(g)
    elif g.family == DIHEDRAL:
        t = dihedral_table(g)
    else:
        return grouprep.character_table(g)
    validate_table(t)
    return t


def defining_char(g: GroupSpec):
    """Character of the 2-dim representation given by the embedding in SU(2)."""
    if g.family == CYCLIC:
        return cyclic_defining_char(g)
    t = character_table(g)
    return t.chars[t.defining_name]


def _generators(g: GroupSpec):
    """Moduli of the character group and the 1-dim irreps generating it."""
    if g.family == CYCLIC:
        return (g.param,), ("1",) if g.param > 1 else ()
    if g.family == DIHEDRAL:
        return ((4,), ("1''",)) if g.param % 2 else ((2, 2), ("1'", "1'''"))
    return {TETRAHEDRAL: ((3,), ("1'",)),
            OCTAHEDRAL: ((2,), ("1'",)),
            ICOSAHEDRAL: ((), ())}[g.family]


def table_abelianization(t: CharTable, moduli, gens) -> grouprep.Abelianization:
    """The abelianization read off a character table: each element is named
    by the 1-dim character equal to that product of generator characters."""
    ab = AbGroup(moduli)
    if ab.order != len(t.onedim_names()):
        raise InvariantError("abelianization order mismatch")
    names = []
    for x in ab.elements():
        vec = tuple(Cyc.from_rational(1, t.conductor) for _ in t.class_names)
        for gen_name, power in zip(gens, x):
            gen_char = t.chars[gen_name]
            for _ in range(power):
                vec = t.product(vec, gen_char)
        names.append(t.name_of_char(vec))
    return grouprep._named_abelianization(ab, gens, names)


def table_irreps(t: CharTable) -> list[tuple]:
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


def table_generator_perms(t: CharTable, ab: grouprep.Abelianization, names):
    """Node permutations of tensoring with each generator, from character
    products."""
    index = {name: k for k, name in enumerate(names)}
    return [tuple(index[t.name_of_char(t.product(t.chars[name], t.chars[gen]))]
                  for name in names)
            for gen in ab.generator_names]


@lru_cache(maxsize=None)
def abelianization(g: GroupSpec) -> grouprep.Abelianization:
    return table_abelianization(character_table(g), *_generators(g))


@lru_cache(maxsize=None)
def irreps(g: GroupSpec) -> tuple[grouprep.IrrepInfo, ...]:
    return grouprep._irrep_infos(g, table_irreps(character_table(g)),
                                 abelianization(g))


@lru_cache(maxsize=None)
def onedim_permutations(g: GroupSpec) -> MappingProxyType:
    t = character_table(g)
    ab = abelianization(g)
    perms = table_generator_perms(t, ab, t.irrep_names)
    return MappingProxyType(ab.group.action(perms, len(t.irrep_names)))


def tensor_with_onedim(g: GroupSpec, name: str, onedim: str) -> str:
    """The irreducible name ⊗ onedim, read off the character product."""
    t = character_table(g)
    return t.name_of_char(t.product(t.chars[name], t.chars[onedim]))


def decompose_defining_tensor(g: GroupSpec, name: str) -> dict[str, int]:
    """Multiplicities of name ⊗ (defining 2-dim rep)."""
    t = character_table(g)
    return t.decompose(t.product(t.chars[name], defining_char(g)))


def mckay_edges(g: GroupSpec) -> tuple[tuple[int, int], ...]:
    """Sorted McKay edges, with multiplicities from the character table; a
    loop appears once per unit of multiplicity, as in dualcount.mckay.

    The defining character is real, so <chi_i chi, chi_j> is symmetric in i
    and j and only j >= i is computed.
    """
    t = character_table(g)
    chi = defining_char(g)
    names = t.irrep_names
    edges = []
    for i, name in enumerate(names):
        vec = t.product(t.chars[name], chi)
        for j in range(i, len(names)):
            mult = t.multiplicity(vec, names[j])
            assert mult.denominator == 1
            edges.extend([(i, j)] * int(mult))
    return tuple(edges)


def irrep_table_json(g: GroupSpec) -> dict:
    """What `dualcount irreps` prints, from the table route."""
    return {
        "group": g.label,
        "order": g.order,
        "irreps": [{"name": i.name, "dim": i.dim, "reality": i.reality,
                    "partner": i.partner, "det": i.det, "node": i.node}
                   for i in irreps(g)],
    }


def mckay_json(g: GroupSpec) -> dict:
    """What `dualcount mckay` prints, from the table route."""
    ab = abelianization(g)
    perms = onedim_permutations(g)
    return {
        "ade_type": ade_type_of(g),
        "nodes": [{"irrep": i.name, "comark": i.dim} for i in irreps(g)],
        "edges": [list(e) for e in mckay_edges(g)],
        "affine_node": 0,
        "a_action": {ab.name_of[el]: list(perms[el]) for el in sorted(perms)},
    }
