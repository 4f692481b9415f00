"""Generating functions in q with fourth-root-of-unity phases.

Expressions are trees built in code, and they cover exactly what the
counting identities need: rational scalars, powers of q, phases i^(linear
form), binomial factors (1 - i^L q^k)^e, products, signed sums, and averaging
operators avg(v in 0..n) that substitute v = 0..n and divide by n + 1.

One route leads from a tree to coefficients.  `_flatten` multiplies a tree
out into flat terms, each a scalar times a power of q times binomial
factors, and `_sum_terms` adds them exactly over one integer scale, the lcm
of their denominators: every phase is a power of i, so a binomial factor is
applied by integer additions and quarter turns.  `expand` sums through a
truncation order from the caller; `cleared_difference_degree` proves an
identity by clearing all denominators and checking that the sum vanishes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add, sub

from .bounds import MAX_ORDER  # re-exported: the bound on truncation orders
from .errors import InvariantError, NotCoveredError
from .grouprep import CYCLIC, DIHEDRAL, OCTAHEDRAL, TETRAHEDRAL, GroupSpec
from .record import Record

IDENTITIES = ("KF1", "KF2", "KF3", "KF4", "PropX", "PropY", "PropA")


# -- truncated series ---------------------------------------------------------

# i^c as (real part, imaginary part), indexed by c mod 4
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _times_binom(re: list, im: list, c: int, k: int):
    """Multiply re + i*im by (1 - i^c q^k) in place, truncated to its length."""
    m = max(len(re) - k, 0)
    x, y = re[:m], im[:m]
    if c == 0:
        re[k:], im[k:] = map(sub, re[k:], x), map(sub, im[k:], y)
    elif c == 1:
        re[k:], im[k:] = map(add, re[k:], y), map(sub, im[k:], x)
    elif c == 2:
        re[k:], im[k:] = map(add, re[k:], x), map(add, im[k:], y)
    else:
        re[k:], im[k:] = map(sub, re[k:], y), map(add, im[k:], x)


def _over_binom(re: list, im: list, c: int, k: int):
    """Divide re + i*im by (1 - i^c q^k) in place, truncated to its length.

    1/(1 - u q^k) = (1 + u q^k) / (1 - u^2 q^(2k)) until u = 1; the last
    division is a running sum along each residue class mod k.
    """
    while c % 4:
        _times_binom(re, im, (c + 2) % 4, k)
        c, k = 2 * c % 4, 2 * k
    for r in range(min(k, len(re))):
        re[r::k], im[r::k] = accumulate(re[r::k]), accumulate(im[r::k])


class GaussSeries:
    """Power series in q truncated at q^order, with Gaussian rational coefficients.

    The coefficient of q^j is (re[j] + i*im[j]) / den: two lists of ints over
    one positive integer scale, kept in lowest terms.
    """

    __slots__ = ("order", "re", "im", "den")

    def __init__(self, order: int, re=(), im=(), den: int = 1):
        if order < 0:
            raise ValueError("order must be nonnegative")
        pad = [0] * (order + 1)
        re, im = (list(re) + pad)[:order + 1], (list(im) + pad)[:order + 1]
        g = gcd(den, *re, *im) if den != 1 else 1
        if g != 1:
            re, im, den = [x // g for x in re], [y // g for y in im], den // g
        self.order, self.re, self.im, self.den = order, re, im, den

    def coeff(self, k: int) -> Fraction:
        """The coefficient of q^k, which must be real."""
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        if self.im[k]:
            raise ValueError(f"coefficient {k} is not real")
        return Fraction(self.re[k], self.den)

    def integer_coeffs(self) -> list[int]:
        """The coefficients of a counting series, which are integers: any
        other value is a defect in the series (InvariantError)."""
        if any(self.im):
            raise InvariantError("series has non-real coefficients")
        if self.den != 1:
            raise InvariantError(
                f"series has non-integer coefficients (scale {self.den})")
        return list(self.re)

    def __eq__(self, other):
        return (isinstance(other, GaussSeries) and self.order == other.order
                and self.den == other.den and self.re == other.re and self.im == other.im)

    def __repr__(self):
        return f"GaussSeries({self.order}, {self.re[:8]}, {self.im[:8]}, {self.den}...)"


# -- linear forms modulo 4 ----------------------------------------------------


class LinForm(Record):
    """const + sum(coeff * var) with everything taken mod 4; terms is a
    tuple of (var, coeff) pairs."""

    __slots__ = ("const", "terms")

    def evaluate(self, env: dict) -> int:
        total = self.const
        for var, c in self.terms:
            if var not in env:
                raise ValueError(f"unbound variable {var!r}")
            total += c * env[var]
        return total % 4


def make_lin(const: int = 0, terms=()) -> LinForm:
    acc: dict[str, int] = {}
    for var, c in terms:
        acc[var] = (acc.get(var, 0) + c) % 4
    clean = tuple(sorted((v, c) for v, c in acc.items() if c))
    return LinForm(const % 4, clean)


# -- expression nodes ---------------------------------------------------------


class Num(Record):
    __slots__ = ("value",)  # a nonnegative Fraction

    def __init__(self, value: Fraction):
        if value < 0:
            raise ValueError("negative scalars are expressed through sums")
        super().__init__(value)


class QPow(Record):
    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("q exponent must be positive")
        super().__init__(k)


class Root(Record):
    """i raised to a linear form: a constant or a single-variable phase."""

    __slots__ = ("lin",)

    def __init__(self, lin: LinForm):
        if len(lin.terms) > 1:
            raise ValueError("phase factors carry at most one variable")
        if not lin.terms and lin.const not in (1, 3):
            raise ValueError("constant phase must be i or i^3")
        super().__init__(lin)


class Binom(Record):
    """(1 - i^phase q^k)^e."""

    __slots__ = ("phase", "k", "e")

    def __init__(self, phase: LinForm, k: int, e: int):
        if k < 1:
            raise ValueError("q exponent must be positive")
        if e == 0:
            raise ValueError("binomial exponent must be nonzero")
        super().__init__(phase, k, e)


class Prod(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        if len(factors) < 2:
            raise ValueError("products need at least two factors")
        super().__init__(factors)


class Sum(Record):
    __slots__ = ("terms",)  # a tuple of (sign, node) with sign +-1

    def __init__(self, terms: tuple):
        if not terms:
            raise ValueError("sums need at least one term")
        if len(terms) == 1 and terms[0][0] == 1:
            raise ValueError("a one-term positive sum must be unwrapped")
        super().__init__(terms)


class Avg(Record):
    """(1/(hi+1)) * sum over var = 0..hi of the body."""

    __slots__ = ("var", "hi", "body")

    def __init__(self, var: str, hi: int, body):
        if hi < 0:
            raise ValueError("avg upper bound must be nonnegative")
        super().__init__(var, hi, body)


def mknum(value) -> Num:
    return Num(Fraction(value))


def mkprod(*factors):
    flat = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        elif isinstance(f, Num) and f.value == 1:
            continue
        else:
            flat.append(f)
    if not flat:
        return mknum(1)
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def mksum(*signed_terms):
    flat = []
    for sign, node in signed_terms:
        if isinstance(node, Sum):
            flat.extend((sign * s, t) for s, t in node.terms)
        else:
            flat.append((sign, node))
    if len(flat) == 1 and flat[0][0] == 1:
        return flat[0][1]
    return Sum(tuple(flat))


# -- flat terms: the one route from a tree to coefficients ----------------------


class _FlatTerm:
    """(re + i*im) / den * q^qshift * prod (1 - i^c q^k)^e, den > 0."""

    __slots__ = ("re", "im", "den", "qshift", "factors")

    def __init__(self, re: int, im: int, den: int, qshift: int, factors: dict):
        self.re, self.im, self.den, self.qshift = re, im, den, qshift
        self.factors = factors  # (phase const mod 4, k) -> exponent


def _flatten(node, env: dict) -> list[_FlatTerm]:
    if isinstance(node, Num):
        v = node.value
        return [_FlatTerm(v.numerator, 0, v.denominator, 0, {})] if v else []
    if isinstance(node, QPow):
        return [_FlatTerm(1, 0, 1, node.k, {})]
    if isinstance(node, Root):
        return [_FlatTerm(*_I_POWERS[node.lin.evaluate(env)], 1, 0, {})]
    if isinstance(node, Binom):
        c = node.phase.evaluate(env)
        return [_FlatTerm(1, 0, 1, 0, {(c, node.k): node.e})]
    if isinstance(node, Prod):
        terms = [_FlatTerm(1, 0, 1, 0, {})]
        for f in node.factors:
            sub_terms = _flatten(f, env)
            terms = [_merge_terms(a, b) for a in terms for b in sub_terms]
        return terms
    if isinstance(node, Sum):
        return [_FlatTerm(sign * t.re, sign * t.im, t.den, t.qshift, t.factors)
                for sign, term in node.terms for t in _flatten(term, env)]
    if isinstance(node, Avg):
        return [_FlatTerm(t.re, t.im, t.den * (node.hi + 1), t.qshift, t.factors)
                for v in range(node.hi + 1)
                for t in _flatten(node.body, {**env, node.var: v})]
    raise TypeError(f"not an expression node: {node!r}")


def _merge_terms(a: _FlatTerm, b: _FlatTerm) -> _FlatTerm:
    factors = dict(a.factors)
    for key, e in b.factors.items():
        factors[key] = factors.get(key, 0) + e
        if factors[key] == 0:
            del factors[key]
    return _FlatTerm(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re,
                     a.den * b.den, a.qshift + b.qshift, factors)


def _sum_terms(terms: list[_FlatTerm], top: int) -> tuple[list, list, int]:
    """The sum of flat terms through q^top, as (re, im, scale) with the
    coefficient of q^j equal to (re[j] + i*im[j]) / scale.

    The scale is the lcm of the terms' denominators.  Each term is expanded
    as a list of Gaussian integers: a positive power grows the list only to
    the term's own polynomial degree, a negative power fills it to top.
    """
    scale = lcm(*(t.den for t in terms))
    total_re, total_im = [0] * (top + 1), [0] * (top + 1)
    for t in terms:
        size = top + 1 - t.qshift
        if size <= 0:
            continue
        re, im = [1], [0]
        for (c, k), e in t.factors.items():
            for _ in range(e):
                grow = min(len(re) + k, size) - len(re)
                re += [0] * grow
                im += [0] * grow
                _times_binom(re, im, c, k)
        if any(e < 0 for e in t.factors.values()):
            re += [0] * (size - len(re))
            im += [0] * (size - len(im))
            for (c, k), e in t.factors.items():
                for _ in range(-e):
                    _over_binom(re, im, c, k)
        a, b = t.re * (scale // t.den), t.im * (scale // t.den)
        seg = slice(t.qshift, t.qshift + len(re))
        total_re[seg] = [u + a * x - b * y for u, x, y in zip(total_re[seg], re, im)]
        total_im[seg] = [v + a * y + b * x for v, x, y in zip(total_im[seg], re, im)]
    return total_re, total_im, scale


def expand(node, order: int, env: dict | None = None) -> GaussSeries:
    """Exact series expansion of node through q^order."""
    return GaussSeries(order, *_sum_terms(_flatten(node, env or {}), order))


# Largest cleared work of an identity proof: the sum over its flattened terms
# of degree x (1 + binomial steps), known before any expansion.  A unit is one
# integer addition, 90-110 ns with the loop overhead on a 2-CPU machine, so a
# proof at the bound takes about 2 s: KF4 1,2890 (degree 98252) 1.9 s, KF1 with
# one k = 370000 (degree 2.2e6, the sparsest family) 2.2 s and 147 MB peak.
# The random draws of verify identities take at most about 5.4e4.
MAX_CLEARED_WORK = 20_000_000


def cleared_difference_degree(lhs, rhs) -> tuple[bool, int]:
    """Prove lhs == rhs by clearing denominators; returns (holds, degree).

    Every term of lhs - rhs is multiplied by the binomial factors that clear
    all denominators and by one power of q that makes every shift
    nonnegative, so it is a polynomial whose degree is known before any
    expansion.  The cleared terms are summed through the largest degree,
    and the sum must vanish.
    """
    terms = _flatten(lhs, {}) + [
        _FlatTerm(-t.re, -t.im, t.den, t.qshift, t.factors) for t in _flatten(rhs, {})]
    if not terms:
        return True, 0
    need: dict = {}
    for t in terms:
        for key, e in t.factors.items():
            need[key] = max(need.get(key, 0), -e)
    base_shift = -min(min(t.qshift for t in terms), 0)
    cleared, degrees = [], []
    for t in terms:
        steps = {key: t.factors.get(key, 0) + extra for key, extra in need.items()
                 if t.factors.get(key, 0) + extra}
        shift = t.qshift + base_shift
        cleared.append(_FlatTerm(t.re, t.im, t.den, shift, steps))
        degrees.append(shift + sum(e * key[1] for key, e in steps.items()))
    degree = max(degrees)
    work = sum(d * (1 + sum(t.factors.values())) for t, d in zip(cleared, degrees))
    if work > MAX_CLEARED_WORK:
        raise ValueError(f"clearing this identity takes {work} steps, over the "
                         f"largest supported work {MAX_CLEARED_WORK}")
    re, im, _ = _sum_terms(cleared, degree)
    return not any(re) and not any(im), degree


# -- built-in generating functions ---------------------------------------------


def _b(k: int, e: int = -1, terms=(), const: int = 0):
    """(1 - i^(const + terms) q^k)^e, or None when e == 0 (factor absent)."""
    if e == 0:
        return None
    return Binom(make_lin(const, terms), k, e)


def _prod(*factors):
    return mkprod(*[f for f in factors if f is not None])


def _genx_sp(g: GroupSpec):
    """Sum over n of q^(2n) N(gamma, Sp(n)) in closed form."""
    if g.family == CYCLIC:
        return _prod(_b(2, -(g.param // 2 + 1)))
    if g.family == DIHEDRAL:
        m = g.param
        if m % 2 == 0:
            k = m // 2
            return _prod(_b(2, -(k + 4)), _b(4, -(k - 1)))
        k = (m - 1) // 2
        return _prod(_b(2, -(k + 3)), _b(4, -k))
    if g.family == TETRAHEDRAL:
        return _prod(_b(2, -3), _b(4, -1), _b(6, -1))
    if g.family == OCTAHEDRAL:
        return _prod(_b(2, -4), _b(4, -2), _b(6, -2))
    return _prod(_b(2, -3), _b(4, -1), _b(6, -3), _b(8, -1), _b(10, -1))


def _genx_so(g: GroupSpec):
    """Sum over n of q^(2n+1) N(gamma, SO(2n+1)) in closed form."""
    sgn = Root(make_lin(0, [("a", 2)]))
    a = [("a", 2)]
    if g.family == CYCLIC:
        return Avg("a", 1, _prod(sgn, _b(1, -1, a), _b(2, -(g.param // 2))))
    if g.family == DIHEDRAL:
        m = g.param
        if m % 2 == 0:
            k = m // 2
            body = _prod(
                sgn,
                _b(1, -1, a),
                _b(1, -1, a + [("b0", 2)]),
                _b(1, -1, a + [("b1", 2)]),
                _b(1, -1, a + [("b0", 2), ("b1", 2)]),
                _b(2, -(k - 1), [("b0", 2)]),
                _b(4, -k),
            )
            return Avg("a", 1, Avg("b0", 1, Avg("b1", 1, body)))
        k = (m - 1) // 2
        body = _prod(
            sgn,
            _b(1, -1, a),
            _b(1, -1, a + [("b", 2)]),
            _b(2, -1),
            _b(2, -k, [("b", 2)]),
            _b(4, -k),
        )
        return Avg("a", 1, Avg("b", 1, body))
    if g.family == TETRAHEDRAL:
        body = _prod(sgn, _b(1, -1, a), _b(2, -1), _b(3, -1, a), _b(4, -2))
        return Avg("a", 1, body)
    if g.family == OCTAHEDRAL:
        body = _prod(
            sgn,
            _b(1, -1, a),
            _b(1, -1, a + [("b", 2)]),
            _b(2, -1, [("b", 2)]),
            _b(3, -1, a),
            _b(3, -1, a + [("b", 2)]),
            _b(4, -2),
            _b(8, -1),
        )
        return Avg("a", 1, Avg("b", 1, body))
    body = _prod(sgn, _b(1, -1, a), _b(3, -2, a), _b(4, -3), _b(5, -1, a),
                 _b(8, -1), _b(12, -1))
    return Avg("a", 1, body)


def _geny_tree(e: int, m: int, side: str):
    """Refined octahedral sector series for the (e, m) label pair.

    Labels follow the symplectic side: e is the character of the relabeling
    involution, m the sector.  The orthogonal series for the same (e, m) is
    the dual partner, whose own involution/sector labels are the swap (m, e).
    """
    a = [("a", 2)]
    if (e, m) == (0, 0) and side == "Sp":
        return _prod(
            mknum(Fraction(1, 2)),
            mksum((1, _genx_sp(GroupSpec.binary_octahedral())),
                  (1, _prod(_b(4, -4), _b(12, -1)))),
        )
    if (e, m) == (0, 0) and side == "Spin":
        body = _prod(
            Root(make_lin(0, a)),
            _b(1, -1, a),
            _b(1, -1, a + [("b", 1)]),
            _b(2, -1, [("b", 1)]),
            _b(3, -1, a),
            _b(3, -1, a + [("b", 3)]),
            _b(4, -2),
            _b(8, -1),
        )
        return Avg("a", 1, Avg("b", 3, body))
    if (e, m) == (0, 1) and side == "Sp":
        return _prod(_b(2, -2), _b(4, -1), _b(6, -1), _b(8, -1))
    if (e, m) in ((0, 1), (1, 1)) and side == "Spin":
        bracket = mksum(
            (1, _prod(_b(1, -1, a + [("b", 1)]), _b(3, -1, a + [("b", 3)]))),
            (1, _prod(_b(1, -1, a), _b(3, -1, a))),
            (-1, mknum(1)),
        )
        factors = [Root(make_lin(0, a))]
        if e == 1:
            factors.append(Root(make_lin(0, [("b", 2)])))
        factors += [bracket, _b(4, -2), _b(8, -1)]
        return Avg("a", 1, Avg("b", 3, _prod(*factors)))
    raise NotCoveredError(
        f"not covered: no built-in refined series for sector ({e},{m}) on the "
        f"{side} side")


def builtin_genfun(g: GroupSpec, target: str):
    """Closed-form series for a group and target token.

    Tokens: "Sp" (coefficient of q^(2n) is the Sp(n) count), "SO_odd"
    (coefficient of q^(2n+1) is the SO(2n+1) count), and for Ohat the refined
    sector series "refined:e,m:Sp" / "refined:e,m:Spin".  A refined token is
    labeled by the symplectic-side pair (e, m); the Spin series under the same
    token is its dual partner, i.e. the orthogonal sector with labels swapped
    to (m, e).  Covered: (0,0) and (0,1) on both sides, (1,1) on Spin.
    """
    if target == "Sp":
        return _genx_sp(g)
    if target == "SO_odd":
        return _genx_so(g)
    if target.startswith("refined:"):
        if g.family != OCTAHEDRAL:
            raise NotCoveredError(
                "not covered: refined series are only available for Ohat")
        parts = target.split(":")
        if len(parts) == 3 and "," in parts[1]:
            es, ms = parts[1].split(",", 1)
            if es in ("0", "1") and ms in ("0", "1") and parts[2] in ("Sp", "Spin"):
                return _geny_tree(int(es), int(ms), parts[2])
        raise NotCoveredError(f"not covered: unknown refined token {target!r}")
    raise NotCoveredError(f"not covered: no built-in series for target {target!r}")


# -- counting identities --------------------------------------------------------


def _twisted(powers_and_phases):
    """Factors of Ftilde((-1)^a q, ...): each q^p picks up an extra phase 2pa."""
    out = []
    for p, terms in powers_and_phases:
        out.append(_b(p, -1, [("a", 2 * p)] + list(terms)))
    return out


def _check_positive(values, what):
    for x in values:
        if x < 1:
            raise ValueError(f"{what} must be positive integers")


def _kf1_trees(k: tuple, v: tuple):
    s = len(k)
    _check_positive(k, "k parameters")
    _check_positive(v, "v parameters")
    if s == 1:
        f_pows = [4 * k[0] - 2]
        ft_pows = [2 * k[0] - 1]
    elif s == 2:
        if not k[0] < k[1]:
            raise ValueError("KF1 with two k parameters needs k1 < k2")
        f_pows = [2 * k[1] - 2 * k[0], 4 * k[0] - 2, 4 * k[1] - 2]
        ft_pows = [4 * k[1] - 4 * k[0], 2 * k[0] - 1, 2 * k[1] - 1]
    elif s == 4:
        k1, k2, k3, k4 = k
        if not (k1 < k3 <= k4 and k1 + k2 == k3 + k4):
            raise ValueError(
                "KF1 with four k parameters needs k1 < k3 <= k4 and k1+k2 = k3+k4")
        f_pows = [2 * k1 + 2 * k2 - 2, 2 * k3 - 2 * k1, 2 * k4 - 2 * k1,
                  4 * k1 - 2, 4 * k2 - 2, 4 * k3 - 2, 4 * k4 - 2]
        ft_pows = [4 * k1 + 4 * k2 - 4, 4 * k3 - 4 * k1, 4 * k4 - 4 * k1,
                   2 * k1 - 1, 2 * k2 - 1, 2 * k3 - 1, 2 * k4 - 1]
    else:
        raise ValueError("KF1 takes 1, 2 or 4 k parameters")
    vf = [2 * x for x in v]
    lhs = _prod(QPow(2 * k[0] - 1), *[_b(p) for p in f_pows + vf])
    rhs = Avg("a", 1, _prod(Root(make_lin(0, [("a", 2)])),
                            *_twisted([(p, []) for p in ft_pows + vf])))
    return lhs, rhs


def _kf2_trees(k: tuple, v0: tuple, v1: tuple):
    s = 2 * len(k)
    _check_positive(k, "k parameters")
    _check_positive(v0 + v1, "v parameters")
    t = [("b", 2)]
    if s == 2:
        f = [_b(4 * k[0] - 2, -2)]
        ft = [(2 * k[0] - 1, []), (2 * k[0] - 1, t)]
    elif s == 4:
        if not k[0] < k[1]:
            raise ValueError("KF2 with two k parameters needs k1 < k2")
        f = [_b(2 * k[0] + 2 * k[1] - 2), _b(2 * k[1] - 2 * k[0]),
             _b(4 * k[0] - 2, -2), _b(4 * k[1] - 2, -2)]
        ft = [(4 * k[0] + 4 * k[1] - 4, []), (4 * k[1] - 4 * k[0], []),
              (2 * k[0] - 1, []), (2 * k[0] - 1, t),
              (2 * k[1] - 1, []), (2 * k[1] - 1, t)]
    else:
        raise ValueError("KF2 takes 1 or 2 k parameters")
    f += [_b(2 * x) for x in v0] + [_b(2 * x) for x in v1]
    ft += [(2 * x, []) for x in v0] + [(2 * x, t) for x in v1]
    lhs = _prod(QPow(2 * k[0] - 1), *f)
    rhs = Avg("a", 1, Avg("b", 1, _prod(Root(make_lin(0, [("a", 2)])),
                                        *_twisted(ft))))
    return lhs, rhs


def _kf3_trees(k: int, vmat: tuple):
    # vmat = (v00, v01, v10, v11) indexed by (p1, p0)
    _check_positive((k,), "k parameter")
    corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for vs in vmat:
        _check_positive(vs, "v parameters")
    f = [_b(4 * k - 2, -5)]
    ft = [(8 * k - 4, [])]
    for (p1, p0), vs in zip(corners, vmat):
        phase = [("b0", 2 * p0), ("b1", 2 * p1)]
        ft.append((2 * k - 1, phase))
        for x in vs:
            f.append(_b(2 * x))
            ft.append((2 * x, phase))
    lhs = _prod(QPow(2 * k - 1), *f)
    rhs = Avg("a", 1, Avg("b0", 1, Avg("b1", 1, _prod(
        Root(make_lin(0, [("a", 2)])), *_twisted(ft)))))
    return lhs, rhs


def _kf4_trees(k1: int, k2: int, v: tuple):
    _check_positive((k1, k2), "k parameters")
    _check_positive(v, "v parameters")
    if not k1 < k2:
        raise ValueError("KF4 needs k1 < k2")
    vf = [_b(2 * x) for x in v]
    f = _prod(_b(2 * k1 + 2 * k2 - 2), _b(2 * k2 - 2 * k1, -2),
              _b(4 * k1 - 2, -2), _b(4 * k2 - 2, -2), *vf)
    f0 = _prod(_b(2 * k1 + 2 * k2 - 2), _b(4 * k2 - 4 * k1),
               _b(8 * k1 - 4), _b(8 * k2 - 4), *vf)
    ft = [(4 * k1 + 4 * k2 - 4, []), (4 * k2 - 4 * k1, []),
          (2 * k2 - 2 * k1, [("b", 1)]),
          (2 * k1 - 1, []), (2 * k1 - 1, [("b", 1)]),
          (2 * k2 - 1, []), (2 * k2 - 1, [("b", 3)])]
    ft += [(2 * x, []) for x in v]
    lhs = _prod(mknum(Fraction(1, 2)), QPow(2 * k1 - 1), mksum((1, f), (1, f0)))
    rhs = Avg("a", 1, Avg("b", 3, _prod(Root(make_lin(0, [("a", 2)])),
                                        *_twisted(ft))))
    return lhs, rhs


def identity_trees(identity: str, params):
    """The two sides of a named identity at given parameters."""
    p = parse_identity_params(identity, params)
    if identity == "KF1":
        return _kf1_trees(p["k"], p["v"])
    if identity == "KF2":
        return _kf2_trees(p["k"], p["v0"], p["v1"])
    if identity == "KF3":
        return _kf3_trees(p["k"], p["v"])
    if identity == "KF4":
        return _kf4_trees(p["k1"], p["k2"], p["v"])
    if identity == "PropA":
        return _kf4_trees(1, 2, (2,))
    if identity == "PropX":
        return (_prod(QPow(1), _geny_tree(0, 1, "Sp")), _geny_tree(0, 1, "Spin"))
    if identity == "PropY":
        return (_geny_tree(1, 1, "Spin"), mknum(0))
    raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITIES}")


def _ints(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse {what} from {text!r}") from None


def parse_identity_params(identity: str, params) -> dict:
    """Normalize string or dict parameters for a named identity."""
    if identity in ("PropX", "PropY", "PropA"):
        if params not in (None, "", {}):
            raise ValueError(f"{identity} takes no parameters")
        return {}
    if params is None:
        raise ValueError(f"{identity} requires parameters")
    if isinstance(params, dict):
        return params
    groups = [p.strip() for p in str(params).split(";")]
    if identity == "KF1":
        if len(groups) != 4:
            raise ValueError("KF1 parameters look like 's;k1,..;l;v1,..'")
        s = int(groups[0])
        k = _ints(groups[1], "k values")
        l = int(groups[2])
        v = _ints(groups[3], "v values")
        if len(k) != s:
            raise ValueError("KF1 s must equal the number of k values")
        if len(v) != l:
            raise ValueError("KF1 l must equal the number of v values")
        return {"k": k, "v": v}
    if identity == "KF2":
        if len(groups) != 5:
            raise ValueError("KF2 parameters look like 's;k..;l0,l1;v0..;v1..'")
        s = int(groups[0])
        k = _ints(groups[1], "k values")
        ls = _ints(groups[2], "l values")
        v0 = _ints(groups[3], "v0 values")
        v1 = _ints(groups[4], "v1 values")
        if len(k) * 2 != s:
            raise ValueError("KF2 s must equal twice the number of k values")
        if len(ls) != 2 or (len(v0), len(v1)) != (ls[0], ls[1]):
            raise ValueError("KF2 l0,l1 must match the v list lengths")
        return {"k": k, "v0": v0, "v1": v1}
    if identity == "KF3":
        if len(groups) != 6:
            raise ValueError(
                "KF3 parameters look like 'k;l00,l01,l10,l11;v00..;v01..;v10..;v11..'")
        k = int(groups[0])
        ls = _ints(groups[1], "l values")
        vmat = tuple(_ints(gtext, "v values") for gtext in groups[2:6])
        if len(ls) != 4 or tuple(len(vs) for vs in vmat) != ls:
            raise ValueError("KF3 l values must match the v list lengths")
        return {"k": k, "v": vmat}
    if identity == "KF4":
        if len(groups) != 3:
            raise ValueError("KF4 parameters look like 'k1,k2;l;v1,..'")
        ks = _ints(groups[0], "k values")
        l = int(groups[1])
        v = _ints(groups[2], "v values")
        if len(ks) != 2:
            raise ValueError("KF4 takes exactly two k values")
        if len(v) != l:
            raise ValueError("KF4 l must equal the number of v values")
        return {"k1": ks[0], "k2": ks[1], "v": v}
    raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITIES}")


def canonical_params(identity: str, params) -> str:
    p = parse_identity_params(identity, params)
    j = lambda xs: ",".join(str(x) for x in xs)
    if identity == "KF1":
        return f"{len(p['k'])};{j(p['k'])};{len(p['v'])};{j(p['v'])}"
    if identity == "KF2":
        return (f"{2 * len(p['k'])};{j(p['k'])};{len(p['v0'])},{len(p['v1'])};"
                f"{j(p['v0'])};{j(p['v1'])}")
    if identity == "KF3":
        ls = j(len(vs) for vs in p["v"])
        return f"{p['k']};{ls};" + ";".join(j(vs) for vs in p["v"])
    if identity == "KF4":
        return f"{p['k1']},{p['k2']};{len(p['v'])};{j(p['v'])}"
    return ""


def random_identity_params(identity: str, rng, max_k: int = 6, max_v: int = 6,
                           max_len: int = 3) -> str:
    """Draw a uniformly messy but valid parameter string for a KF identity.

    rng is a random.Random instance; the draw is deterministic given its
    state.  All k values land in 1..max_k, all v values in 1..max_v, and each
    v list has length 0..max_len.  The string is in canonical form.
    """
    if max_k < 3 or max_v < 1 or max_len < 0:
        raise ValueError("need max_k >= 3, max_v >= 1, max_len >= 0")

    def vlist():
        return tuple(rng.randint(1, max_v) for _ in range(rng.randint(0, max_len)))

    def ascending_pair():
        k1 = rng.randint(1, max_k - 1)
        return k1, rng.randint(k1 + 1, max_k)

    if identity == "KF1":
        shape = rng.choice((1, 2, 4))
        if shape == 1:
            k = (rng.randint(1, max_k),)
        elif shape == 2:
            k = ascending_pair()
        else:
            # k1 < k3 <= k4 with k3 + k4 = k1 + k2 forces k2 >= k1 + 2
            k1 = rng.randint(1, max_k - 2)
            k2 = rng.randint(k1 + 2, max_k)
            k3 = rng.randint(k1 + 1, (k1 + k2) // 2)
            k = (k1, k2, k3, k1 + k2 - k3)
        return canonical_params(identity, {"k": k, "v": vlist()})
    if identity == "KF2":
        k = (rng.randint(1, max_k),) if rng.random() < 0.5 else ascending_pair()
        return canonical_params(identity, {"k": k, "v0": vlist(), "v1": vlist()})
    if identity == "KF3":
        k = rng.randint(1, max_k)
        vmat = (vlist(), vlist(), vlist(), vlist())
        return canonical_params(identity, {"k": k, "v": vmat})
    if identity == "KF4":
        k1, k2 = ascending_pair()
        return canonical_params(identity, {"k1": k1, "k2": k2, "v": vlist()})
    raise ValueError(f"identity {identity!r} is not parametrized")


def prove_identity(identity: str, params=None) -> dict:
    """Prove a counting identity exactly by clearing all denominators."""
    lhs, rhs = identity_trees(identity, params)
    holds, degree = cleared_difference_degree(lhs, rhs)
    return {
        "identity": identity,
        "params": canonical_params(identity, params),
        "method": "cleared",
        "degree_or_order": degree,
        "verdict": "proven" if holds else "failed",
    }
