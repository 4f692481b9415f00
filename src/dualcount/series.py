"""Generating functions in q with fourth-root-of-unity phases.

A series is a list of flat terms, each a Gaussian rational scalar times a
power of q times binomial factors (1 - i^c q^k)^e, and it is the sum of its
terms.  The builders make these lists directly from a handful of
combinators, which cover exactly what the counting identities need:
rational scalars, powers of q, phases i^c, binomial factors, products that
multiply term lists out, signed sums, and averages that call a body with
each value of its variables and divide by their number.

`_sum_terms` adds flat terms exactly over one integer scale, the lcm of
their denominators: every phase is a power of i, so a binomial factor is
applied by integer additions and quarter turns, and no `Fraction` is made.
`expand` sums through a truncation order from the caller;
`cleared_difference_degree` proves an identity by clearing all denominators
and checking that the sum vanishes.
"""

from __future__ import annotations

from itertools import accumulate, product as cartesian
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import InvariantError, NotCoveredError
from .grouprep import CYCLIC, DIHEDRAL, OCTAHEDRAL, TETRAHEDRAL, GroupSpec

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


# -- flat terms ------------------------------------------------------------------


class _FlatTerm:
    """(re + i*im) / den * q^qshift * prod (1 - i^c q^k)^e, den > 0."""

    __slots__ = ("re", "im", "den", "qshift", "factors")

    def __init__(self, re: int, im: int, den: int, qshift: int, factors: dict):
        self.re, self.im, self.den, self.qshift = re, im, den, qshift
        self.factors = factors  # (phase c mod 4, k) -> nonzero exponent


def _merge_terms(a: _FlatTerm, b: _FlatTerm) -> _FlatTerm:
    factors = dict(a.factors)
    for key, e in b.factors.items():
        factors[key] = factors.get(key, 0) + e
        if factors[key] == 0:
            del factors[key]
    return _FlatTerm(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re,
                     a.den * b.den, a.qshift + b.qshift, factors)


# Every series is a list of flat terms whose sum it is, built by the
# combinators below.  A phase c stands for i^c and is reduced mod 4.


def scalar(num: int, den: int = 1) -> list[_FlatTerm]:
    """num/den, in lowest terms with den > 0."""
    return [_FlatTerm(num, 0, den, 0, {})] if num else []


def qpow(k: int) -> list[_FlatTerm]:
    return [_FlatTerm(1, 0, 1, k, {})]


def phase(c: int) -> list[_FlatTerm]:
    """i^c."""
    return [_FlatTerm(*_I_POWERS[c % 4], 1, 0, {})]


def binom(k: int, e: int = -1, c: int = 0) -> list[_FlatTerm]:
    """(1 - i^c q^k)^e, which is 1 when e == 0."""
    return [_FlatTerm(1, 0, 1, 0, {(c % 4, k): e} if e else {})]


def product(*factors: list) -> list[_FlatTerm]:
    terms = [_FlatTerm(1, 0, 1, 0, {})]
    for f in factors:
        terms = [_merge_terms(a, b) for a in terms for b in f]
    return terms


def signed_sum(*signed_terms) -> list[_FlatTerm]:
    """The sum of sign * terms over (sign, terms) pairs, sign +-1."""
    return [_FlatTerm(sign * t.re, sign * t.im, t.den, t.qshift, t.factors)
            for sign, terms in signed_terms for t in terms]


def average(body, *sizes: int) -> list[_FlatTerm]:
    """The mean of body(v1, .., vr) over 0 <= vj < sizes[j]."""
    n = prod(sizes)
    return [_FlatTerm(t.re, t.im, t.den * n, t.qshift, t.factors)
            for vs in cartesian(*map(range, sizes)) for t in body(*vs)]


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


def expand(terms: list[_FlatTerm], order: int) -> GaussSeries:
    """Exact series expansion of a term list through q^order."""
    return GaussSeries(order, *_sum_terms(terms, order))


# Largest cleared work of an identity proof: the sum over its flat terms
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
    terms = signed_sum((1, lhs), (-1, rhs))
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


def _genx_sp(g: GroupSpec):
    """Sum over n of q^(2n) N(gamma, Sp(n)) in closed form."""
    if g.family == CYCLIC:
        return binom(2, -(g.param // 2 + 1))
    if g.family == DIHEDRAL:
        m = g.param
        if m % 2 == 0:
            k = m // 2
            return product(binom(2, -(k + 4)), binom(4, -(k - 1)))
        k = (m - 1) // 2
        return product(binom(2, -(k + 3)), binom(4, -k))
    if g.family == TETRAHEDRAL:
        return product(binom(2, -3), binom(4, -1), binom(6, -1))
    if g.family == OCTAHEDRAL:
        return product(binom(2, -4), binom(4, -2), binom(6, -2))
    return product(binom(2, -3), binom(4, -1), binom(6, -3), binom(8, -1),
                   binom(10, -1))


def _genx_so(g: GroupSpec):
    """Sum over n of q^(2n+1) N(gamma, SO(2n+1)) in closed form.

    Each body takes a = 0, 1, and i^(2a) is the sign (-1)^a.
    """
    if g.family == CYCLIC:
        return average(lambda a: product(
            phase(2 * a), binom(1, -1, 2 * a), binom(2, -(g.param // 2))), 2)
    if g.family == DIHEDRAL:
        m = g.param
        if m % 2 == 0:
            k = m // 2
            return average(lambda a, b0, b1: product(
                phase(2 * a), binom(1, -1, 2 * a), binom(1, -1, 2 * a + 2 * b0),
                binom(1, -1, 2 * a + 2 * b1), binom(1, -1, 2 * a + 2 * b0 + 2 * b1),
                binom(2, -(k - 1), 2 * b0), binom(4, -k)), 2, 2, 2)
        k = (m - 1) // 2
        return average(lambda a, b: product(
            phase(2 * a), binom(1, -1, 2 * a), binom(1, -1, 2 * a + 2 * b),
            binom(2, -1), binom(2, -k, 2 * b), binom(4, -k)), 2, 2)
    if g.family == TETRAHEDRAL:
        return average(lambda a: product(
            phase(2 * a), binom(1, -1, 2 * a), binom(2, -1), binom(3, -1, 2 * a),
            binom(4, -2)), 2)
    if g.family == OCTAHEDRAL:
        return average(lambda a, b: product(
            phase(2 * a), binom(1, -1, 2 * a), binom(1, -1, 2 * a + 2 * b),
            binom(2, -1, 2 * b), binom(3, -1, 2 * a), binom(3, -1, 2 * a + 2 * b),
            binom(4, -2), binom(8, -1)), 2, 2)
    return average(lambda a: product(
        phase(2 * a), binom(1, -1, 2 * a), binom(3, -2, 2 * a), binom(4, -3),
        binom(5, -1, 2 * a), binom(8, -1), binom(12, -1)), 2)


def _geny(e: int, m: int, side: str):
    """Refined octahedral sector series for the (e, m) label pair.

    Labels follow the symplectic side: e is the character of the relabeling
    involution, m the sector.  The orthogonal series for the same (e, m) is
    the dual partner, whose own involution/sector labels are the swap (m, e).
    The Spin bodies take a = 0, 1 and b = 0..3.
    """
    if (e, m) == (0, 0) and side == "Sp":
        return product(
            scalar(1, 2),
            signed_sum((1, _genx_sp(GroupSpec.binary_octahedral())),
                       (1, product(binom(4, -4), binom(12, -1)))),
        )
    if (e, m) == (0, 0) and side == "Spin":
        return average(lambda a, b: product(
            phase(2 * a), binom(1, -1, 2 * a), binom(1, -1, 2 * a + b),
            binom(2, -1, b), binom(3, -1, 2 * a), binom(3, -1, 2 * a + 3 * b),
            binom(4, -2), binom(8, -1)), 2, 4)
    if (e, m) == (0, 1) and side == "Sp":
        return product(binom(2, -2), binom(4, -1), binom(6, -1), binom(8, -1))
    if (e, m) in ((0, 1), (1, 1)) and side == "Spin":
        return average(lambda a, b: product(
            phase(2 * a + 2 * e * b),
            signed_sum(
                (1, product(binom(1, -1, 2 * a + b), binom(3, -1, 2 * a + 3 * b))),
                (1, product(binom(1, -1, 2 * a), binom(3, -1, 2 * a))),
                (-1, scalar(1)),
            ),
            binom(4, -2),
            binom(8, -1),
        ), 2, 4)
    raise NotCoveredError(
        f"not covered: no built-in refined series for sector ({e},{m}) on the "
        f"{side} side")


def builtin_genfun(g: GroupSpec, target: str):
    """Closed-form series for a group and target token, as flat terms.

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
                return _geny(int(es), int(ms), parts[2])
        raise NotCoveredError(f"not covered: unknown refined token {target!r}")
    raise NotCoveredError(f"not covered: no built-in series for target {target!r}")


# -- counting identities --------------------------------------------------------


def _ftilde_mean(ft, *sizes: int):
    """The mean of (-1)^a Ftilde((-1)^a q, ...) over a = 0, 1 and over each
    further variable b_j in 0..sizes[j]-1.

    Each (p, m_1, ..) of ft is the factor (1 - i^c q^p)^-1 with phase
    c = 2pa + sum m_j b_j: q^p picks up the sign (-1)^(pa).
    """
    return average(lambda a, *bs: product(phase(2 * a), *[
        binom(p, -1, 2 * p * a + sum(map(mul, ms, bs))) for p, *ms in ft]),
        2, *sizes)


def _check_positive(values, what):
    for x in values:
        if x < 1:
            raise ValueError(f"{what} must be positive integers")


def _kf1(k: tuple, v: tuple):
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
    lhs = product(qpow(2 * k[0] - 1), *[binom(p) for p in f_pows + vf])
    return lhs, _ftilde_mean([(p,) for p in ft_pows + vf])


def _kf2(k: tuple, v0: tuple, v1: tuple):
    s = 2 * len(k)
    _check_positive(k, "k parameters")
    _check_positive(v0 + v1, "v parameters")
    if s == 2:
        f = [binom(4 * k[0] - 2, -2)]
        ft = [(2 * k[0] - 1, 0), (2 * k[0] - 1, 2)]
    elif s == 4:
        if not k[0] < k[1]:
            raise ValueError("KF2 with two k parameters needs k1 < k2")
        f = [binom(2 * k[0] + 2 * k[1] - 2), binom(2 * k[1] - 2 * k[0]),
             binom(4 * k[0] - 2, -2), binom(4 * k[1] - 2, -2)]
        ft = [(4 * k[0] + 4 * k[1] - 4, 0), (4 * k[1] - 4 * k[0], 0),
              (2 * k[0] - 1, 0), (2 * k[0] - 1, 2),
              (2 * k[1] - 1, 0), (2 * k[1] - 1, 2)]
    else:
        raise ValueError("KF2 takes 1 or 2 k parameters")
    f += [binom(2 * x) for x in v0] + [binom(2 * x) for x in v1]
    ft += [(2 * x, 0) for x in v0] + [(2 * x, 2) for x in v1]
    return product(qpow(2 * k[0] - 1), *f), _ftilde_mean(ft, 2)


def _kf3(k: int, vmat: tuple):
    # vmat = (v00, v01, v10, v11) indexed by (p1, p0)
    _check_positive((k,), "k parameter")
    _check_positive(sum(vmat, ()), "v parameters")
    f = [binom(4 * k - 2, -5)]
    ft = [(8 * k - 4, 0, 0)]
    for (p1, p0), vs in zip([(0, 0), (0, 1), (1, 0), (1, 1)], vmat):
        ft.append((2 * k - 1, 2 * p0, 2 * p1))
        for x in vs:
            f.append(binom(2 * x))
            ft.append((2 * x, 2 * p0, 2 * p1))
    return product(qpow(2 * k - 1), *f), _ftilde_mean(ft, 2, 2)


def _kf4(k1: int, k2: int, v: tuple):
    _check_positive((k1, k2), "k parameters")
    _check_positive(v, "v parameters")
    if not k1 < k2:
        raise ValueError("KF4 needs k1 < k2")
    vf = [binom(2 * x) for x in v]
    f = product(binom(2 * k1 + 2 * k2 - 2), binom(2 * k2 - 2 * k1, -2),
                binom(4 * k1 - 2, -2), binom(4 * k2 - 2, -2), *vf)
    f0 = product(binom(2 * k1 + 2 * k2 - 2), binom(4 * k2 - 4 * k1),
                 binom(8 * k1 - 4), binom(8 * k2 - 4), *vf)
    ft = [(4 * k1 + 4 * k2 - 4, 0), (4 * k2 - 4 * k1, 0),
          (2 * k2 - 2 * k1, 1),
          (2 * k1 - 1, 0), (2 * k1 - 1, 1),
          (2 * k2 - 1, 0), (2 * k2 - 1, 3)]
    ft += [(2 * x, 0) for x in v]
    lhs = product(scalar(1, 2), qpow(2 * k1 - 1), signed_sum((1, f), (1, f0)))
    return lhs, _ftilde_mean(ft, 4)


def identity_sides(identity: str, params):
    """The two sides of a named identity at given parameters, as flat terms."""
    p = parse_identity_params(identity, params)
    if identity == "KF1":
        return _kf1(p["k"], p["v"])
    if identity == "KF2":
        return _kf2(p["k"], p["v0"], p["v1"])
    if identity == "KF3":
        return _kf3(p["k"], p["v"])
    if identity == "KF4":
        return _kf4(p["k1"], p["k2"], p["v"])
    if identity == "PropA":
        return _kf4(1, 2, (2,))
    if identity == "PropX":
        return product(qpow(1), _geny(0, 1, "Sp")), _geny(0, 1, "Spin")
    if identity == "PropY":
        return _geny(1, 1, "Spin"), scalar(0)
    raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITIES}")


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"could not parse {what} from {text!r}") from None


def _ints(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    return tuple(_int(x, what) for x in text.split(",")) if text else ()


# Most k and v values one identity may take in all, checked before any term
# is built.  Each value adds a factor to every term of both sides, and the
# factor dicts grow with the distinct values, so building the sides is
# quadratic: at this bound the costliest family, KF4 with v = 1..1022, builds
# in about 40 ms on a 2-CPU machine, and 2048 values take 0.12 s.
# MAX_CLEARED_WORK then bounds the proof.  The fixed runs of verify identities
# take at most 6 values and the random draws at most 13.
MAX_IDENTITY_VALUES = 1024


def _count_values(x) -> int:
    """The ints in x, an int or nested tuples of ints."""
    return sum(map(_count_values, x)) if isinstance(x, tuple) else 1


def _bounded(identity: str, p: dict) -> dict:
    """p, refused when it holds more than MAX_IDENTITY_VALUES values."""
    if _count_values(tuple(p.values())) > MAX_IDENTITY_VALUES:
        raise ValueError(f"{identity} takes at most {MAX_IDENTITY_VALUES} k and v "
                         f"values in all")
    return p


def parse_identity_params(identity: str, params) -> dict:
    """Normalize string or dict parameters for a named identity."""
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITIES}")
    if identity in ("PropX", "PropY", "PropA"):
        if params not in (None, "", {}):
            raise ValueError(f"{identity} takes no parameters")
        return {}
    if params is None:
        raise ValueError(f"{identity} requires parameters")
    if isinstance(params, dict):
        return _bounded(identity, params)
    groups = [p.strip() for p in str(params).split(";")]
    if identity == "KF1":
        if len(groups) != 4:
            raise ValueError("KF1 parameters look like 's;k1,..;l;v1,..'")
        s = _int(groups[0], "s")
        k = _ints(groups[1], "k values")
        l = _int(groups[2], "l")
        v = _ints(groups[3], "v values")
        if len(k) != s:
            raise ValueError("KF1 s must equal the number of k values")
        if len(v) != l:
            raise ValueError("KF1 l must equal the number of v values")
        return _bounded(identity, {"k": k, "v": v})
    if identity == "KF2":
        if len(groups) != 5:
            raise ValueError("KF2 parameters look like 's;k..;l0,l1;v0..;v1..'")
        s = _int(groups[0], "s")
        k = _ints(groups[1], "k values")
        ls = _ints(groups[2], "l values")
        v0 = _ints(groups[3], "v0 values")
        v1 = _ints(groups[4], "v1 values")
        if len(k) * 2 != s:
            raise ValueError("KF2 s must equal twice the number of k values")
        if len(ls) != 2 or (len(v0), len(v1)) != (ls[0], ls[1]):
            raise ValueError("KF2 l0,l1 must match the v list lengths")
        return _bounded(identity, {"k": k, "v0": v0, "v1": v1})
    if identity == "KF3":
        if len(groups) != 6:
            raise ValueError(
                "KF3 parameters look like 'k;l00,l01,l10,l11;v00..;v01..;v10..;v11..'")
        k = _int(groups[0], "k")
        ls = _ints(groups[1], "l values")
        vmat = tuple(_ints(gtext, "v values") for gtext in groups[2:6])
        if len(ls) != 4 or tuple(len(vs) for vs in vmat) != ls:
            raise ValueError("KF3 l values must match the v list lengths")
        return _bounded(identity, {"k": k, "v": vmat})
    # KF4: the name check and the cases above leave no other identity
    if len(groups) != 3:
        raise ValueError("KF4 parameters look like 'k1,k2;l;v1,..'")
    ks = _ints(groups[0], "k values")
    l = _int(groups[1], "l")
    v = _ints(groups[2], "v values")
    if len(ks) != 2:
        raise ValueError("KF4 takes exactly two k values")
    if len(v) != l:
        raise ValueError("KF4 l must equal the number of v values")
    return _bounded(identity, {"k1": ks[0], "k2": ks[1], "v": v})


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


# The ranges of the random draws: k values in 1..DRAW_MAX_K, v values in
# 1..DRAW_MAX_V, and v lists of length 0..DRAW_MAX_LEN.  A four-k KF1 draw
# needs k2 >= k1 + 2, so DRAW_MAX_K is at least 3.
DRAW_MAX_K, DRAW_MAX_V, DRAW_MAX_LEN = 6, 6, 3


def random_identity_params(identity: str, rng) -> str:
    """Draw a uniformly messy but valid parameter string for a KF identity.

    rng is a random.Random instance; the draw is deterministic given its
    state.  The string is in canonical form.
    """

    def vlist():
        return tuple(rng.randint(1, DRAW_MAX_V)
                     for _ in range(rng.randint(0, DRAW_MAX_LEN)))

    def ascending_pair():
        k1 = rng.randint(1, DRAW_MAX_K - 1)
        return k1, rng.randint(k1 + 1, DRAW_MAX_K)

    if identity == "KF1":
        shape = rng.choice((1, 2, 4))
        if shape == 1:
            k = (rng.randint(1, DRAW_MAX_K),)
        elif shape == 2:
            k = ascending_pair()
        else:
            # k1 < k3 <= k4 with k3 + k4 = k1 + k2 forces k2 >= k1 + 2
            k1 = rng.randint(1, DRAW_MAX_K - 2)
            k2 = rng.randint(k1 + 2, DRAW_MAX_K)
            k3 = rng.randint(k1 + 1, (k1 + k2) // 2)
            k = (k1, k2, k3, k1 + k2 - k3)
        return canonical_params(identity, {"k": k, "v": vlist()})
    if identity == "KF2":
        k = (rng.randint(1, DRAW_MAX_K),) if rng.random() < 0.5 else ascending_pair()
        return canonical_params(identity, {"k": k, "v0": vlist(), "v1": vlist()})
    if identity == "KF3":
        k = rng.randint(1, DRAW_MAX_K)
        vmat = (vlist(), vlist(), vlist(), vlist())
        return canonical_params(identity, {"k": k, "v": vmat})
    if identity == "KF4":
        k1, k2 = ascending_pair()
        return canonical_params(identity, {"k1": k1, "k2": k2, "v": vlist()})
    raise ValueError(f"identity {identity!r} is not parametrized")


def prove_identity(identity: str, params=None) -> dict:
    """Prove a counting identity exactly by clearing all denominators."""
    lhs, rhs = identity_sides(identity, params)
    holds, degree = cleared_difference_degree(lhs, rhs)
    return {
        "identity": identity,
        "params": canonical_params(identity, params),
        "method": "cleared",
        "degree_or_order": degree,
        "verdict": "proven" if holds else "failed",
    }
