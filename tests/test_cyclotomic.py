"""Exact cyclotomic arithmetic."""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dualcount import cyclotomic
from dualcount.abgroup import AbGroup
from dualcount.cyclotomic import Cyc, cyclotomic_poly


def test_cyclotomic_poly_small():
    # classical closed forms
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_satisfies_its_polynomial():
    for n in (1, 2, 3, 4, 5, 8, 12, 24):
        z = Cyc.zeta(n)
        acc = Cyc.from_rational(0, n)
        for j, c in enumerate(cyclotomic_poly(n)):
            acc = acc + z**j * c
        assert acc.is_zero()


def test_sqrt2_from_eighth_roots():
    b = Cyc.zeta(8) + Cyc.zeta(8, 7)
    assert (b * b).rational() == 2


def test_golden_ratio_from_fifth_roots():
    phi_plus = -(Cyc.zeta(5, 2) + Cyc.zeta(5, 3))
    phi_minus = -(Cyc.zeta(5, 1) + Cyc.zeta(5, 4))
    assert phi_plus * phi_plus == phi_plus + 1
    assert phi_minus * phi_minus == phi_minus + 1
    assert (phi_plus + phi_minus).rational() == 1
    assert (phi_plus * phi_minus).rational() == -1


def test_sum_of_all_roots_vanishes():
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 12):
        total = sum((Cyc.zeta(n, k) for k in range(1, n)), Cyc.zeta(n, 0))
        assert total.is_zero()


def test_inverse_roundtrip():
    x = Cyc.zeta(12, 5) + 3 - Cyc.zeta(12, 2)
    assert (x * x.inverse()).rational() == 1
    assert (1 / x) * x == 1


def test_conjugate_is_inverse_on_roots():
    for n in (3, 4, 5, 8):
        z = Cyc.zeta(n)
        assert z.conjugate() == z.inverse()
        assert (z * z.conjugate()).rational() == 1


def test_galois_respects_products():
    x = Cyc.zeta(12) + 2
    y = Cyc.zeta(12, 7) - 1
    for k in (5, 7, 11):
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)


def test_conductor_promotion():
    i_in_4 = Cyc.zeta(4)
    i_in_8 = Cyc.zeta(8, 2)
    assert i_in_4 == i_in_8
    assert i_in_4 + Cyc.zeta(8) == i_in_8 + Cyc.zeta(8)


def test_complex_value_matches():
    x = Cyc.zeta(5) * 2 + Fraction(1, 3)
    expected = 2 * cmath.exp(2j * cmath.pi / 5) + 1 / 3
    assert abs(x.complex_value() - expected) < 1e-12


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 7), st.integers(0, 7))
def test_ring_axioms_sampled(a, b, j, k):
    x = Cyc.zeta(8, j) * a
    y = Cyc.zeta(8, k) * b
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * y == x * y + y * y


@given(st.integers(1, 24), st.integers(0, 23))
def test_power_of_zeta_wraps(n, k):
    assert Cyc.zeta(n, k) == Cyc.zeta(n) ** k
    assert Cyc.zeta(n, k) * Cyc.zeta(n, n - (k % n)) == 1


def test_rational_accessors():
    assert Cyc.from_rational(Fraction(3, 4)).rational() == Fraction(3, 4)
    assert Cyc.from_rational(5).integer() == 5
    with pytest.raises(ValueError):
        Cyc.zeta(3).rational()
    with pytest.raises(ValueError):
        Cyc.from_rational(Fraction(1, 2)).integer()


# -- the Fraction-polynomial oracle -------------------------------------------
#
# Cyc keeps integer numerators over one denominator.  The oracle below is the
# former implementation: Fraction coefficients, products reduced by long
# division, inverses by the extended Euclidean algorithm.  It shares no code
# with Cyc.


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num, den):
    """Exact division with remainder in Q[x]; den need not be monic."""
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / lead
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return _poly_trim(q), _poly_trim(num)


@lru_cache(maxsize=None)
def _oracle_poly(n):
    p = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            p, rem = _poly_divmod(p, list(_oracle_poly(d)))
            assert not rem
    return tuple(p)


@lru_cache(maxsize=None)
def _oracle_zeta(n, k):
    """x^k mod Phi_n by long division, padded to the field degree."""
    deg = len(_oracle_poly(n)) - 1
    x = [Fraction(0)] * k + [Fraction(1)]
    rem = _poly_divmod(x, list(_oracle_poly(n)))[1]
    return tuple(rem + [Fraction(0)] * (deg - len(rem)))


class FractionCyc:
    """An element of Q(zeta_n) as Fraction coefficients in the power basis."""

    def __init__(self, n, coeffs):
        self.n = n
        self.phi = _oracle_poly(n)
        deg = len(self.phi) - 1
        cs = [Fraction(c) for c in coeffs]
        assert len(cs) <= deg
        self.coeffs = tuple(cs + [Fraction(0)] * (deg - len(cs)))

    @staticmethod
    def zeta(n, k=1):
        return FractionCyc(n, _oracle_zeta(n, k % n))

    def _substituted(self, m, k):
        """sum_j c_j zeta_m^(j k), summed coefficient-wise over x^(j k) mod Phi_m."""
        out = [Fraction(0)] * (len(_oracle_poly(m)) - 1)
        for j, c in enumerate(self.coeffs):
            for t, r in enumerate(_oracle_zeta(m, j * k % m)):
                out[t] += c * r
        return FractionCyc(m, out)

    def promoted(self, m):
        assert m % self.n == 0
        return self if m == self.n else self._substituted(m, m // self.n)

    def _coerce(self, other):
        if not isinstance(other, FractionCyc):
            other = FractionCyc(self.n, [other])
        m = self.n * other.n // gcd(self.n, other.n)
        return self.promoted(m), other.promoted(m)

    def __add__(self, other):
        a, b = self._coerce(other)
        return FractionCyc(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        a, b = self._coerce(other)
        return FractionCyc(a.n, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        a, b = self._coerce(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                prod[i + j] += x * y
        return FractionCyc(a.n, _poly_divmod(prod, a.phi)[1])

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = FractionCyc(self.n, [1])
        for _ in range(k):
            out = out * self
        return out

    def inverse(self):
        r0, r1 = list(self.phi), _poly_trim(list(self.coeffs))
        assert r1, "inverse of zero"
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qc in enumerate(q):
                for j, sc in enumerate(s1):
                    s[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        return FractionCyc(self.n, [x / r1[0] for x in s1])

    def galois(self, k):
        return self._substituted(self.n, k)

    def conjugate(self):
        return self.galois(self.n - 1)

    def __eq__(self, other):
        a, b = self._coerce(other)
        return a.coeffs == b.coeffs


def _pair(n, coeffs):
    return Cyc(n, coeffs), FractionCyc(n, coeffs)


def _agree(x, oracle):
    return x.n == oracle.n and x.coeffs == oracle.coeffs


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def _elements(draw, conductor=None):
    n = draw(st.integers(1, 24)) if conductor is None else conductor
    deg = len(cyclotomic_poly(n)) - 1
    return n, draw(st.lists(_rationals, min_size=deg, max_size=deg))


@st.composite
def _element_pairs(draw):
    n, a = draw(_elements())
    # the second operand at a conductor of its own, so most pairs promote
    m = draw(st.sampled_from([n, 1, 2, 3, 4, 6]))
    _, b = draw(_elements(m))
    return (n, a), (m, b)


def test_oracle_polynomials_match():
    for n in range(1, 25):
        assert cyclotomic_poly(n) == _oracle_poly(n)


@settings(deadline=None)
@given(_element_pairs())
def test_ring_operations_match_the_oracle(operands):
    (n, a), (m, b) = operands
    x, fx = _pair(n, a)
    y, fy = _pair(m, b)
    assert _agree(x + y, fx + fy)
    assert _agree(x - y, fx - fy)
    assert _agree(x * y, fx * fy)
    assert (x == y) == (fx == fy)
    assert (x + y == y + x) and (x * y == y * x)


@settings(deadline=None)
@given(_elements(), st.integers(0, 3))
def test_powers_and_inverses_match_the_oracle(operand, k):
    x, fx = _pair(*operand)
    assert _agree(x ** k, fx ** k)
    if not x.is_zero():
        assert _agree(x.inverse(), fx.inverse())
        assert _agree(x ** -k, fx ** -k)
        assert x * x.inverse() == 1


@settings(deadline=None)
@given(_elements(), st.integers(0, 100), st.integers(1, 4))
def test_galois_and_promotion_match_the_oracle(operand, k, step):
    n, coeffs = operand
    x, fx = _pair(n, coeffs)
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    u = units[k % len(units)]
    assert _agree(x.galois(u), fx.galois(u))
    assert _agree(x.conjugate(), fx.conjugate() if n > 1 else fx)
    up = x.promoted(n * step)
    assert _agree(up, fx.promoted(n * step))
    assert up == x and x == up
    assert up.galois(1) == x.galois(1)


@given(_rationals, st.integers(1, 24), st.integers(1, 24))
def test_rationals_hash_like_fractions_at_every_conductor(value, n, m):
    x, y = Cyc.from_rational(value, n), Cyc.from_rational(value, m)
    assert x == y == value
    assert hash(x) == hash(y) == hash(value)
    assert x.rational() == value and type(x.rational()) is Fraction


@settings(deadline=None)
@given(_element_pairs())
def test_stored_form_is_integers_over_a_coprime_denominator(operands):
    (n, a), (m, b) = operands
    x, y = Cyc(n, a), Cyc(m, b)
    results = [x * y, x + y, x - y, x.galois(1), x.conjugate(), x.promoted(2 * n)]
    if not y.is_zero():
        results.append(y.inverse())
    for z in results:
        assert all(type(v) is int for v in z.nums)
        assert type(z.den) is int and z.den > 0
        assert gcd(z.den, *z.nums) == 1


def test_arithmetic_creates_no_fraction(monkeypatch):
    x = Cyc(12, [Fraction(1, 3), 2, Fraction(-5, 4), 7])
    y = Cyc(8, [1, Fraction(1, 2), 0, -3])

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was created")

    monkeypatch.setattr(cyclotomic, "Fraction", NoFraction)
    for z in (x * y, x + y, x - y, x * 3, x + 2, x.galois(5),
              x.conjugate(), x.inverse(), y ** 3, x.promoted(24), x / 3):
        assert all(type(v) is int for v in z.nums)
    assert x * x.inverse() == 1


# -- finite abelian groups --------------------------------------------------


def test_abgroup_basics():
    g = AbGroup((4, 6))
    assert g.order == 24
    assert g.exponent == 12
    assert g.add((3, 5), (2, 2)) == (1, 1)
    assert g.neg((1, 2)) == (3, 4)


def test_kernel_of_scaling():
    g = AbGroup((12,))
    ker = g.kernel_of_scaling(8)
    # solutions of 8x = 0 mod 12: multiples of 3
    assert sorted(ker) == [(0,), (3,), (6,), (9,)]
    trivial = AbGroup(())
    assert trivial.kernel_of_scaling(5) == [()]


def test_quotient_by_scaling():
    g = AbGroup((12,))
    qmod, reps, class_of = g.quotient_by_scaling(8)
    assert qmod == (4,)
    assert reps == [(0,), (1,), (2,), (3,)]
    assert class_of[(7,)] == (3,)
    assert class_of[(8,)] == (0,)


def test_pairing_is_bilinear_root_of_unity():
    g = AbGroup((2, 4))
    for chi in g.elements():
        for x in g.elements():
            v = g.pairing(chi, x)
            assert (v ** g.exponent).rational() == 1
    # pairing of generators
    assert g.pairing((1, 0), (1, 0)) == -1
    assert g.pairing((0, 1), (0, 1)) == Cyc.zeta(4)


def test_homs_and_isos():
    a = AbGroup((2, 2))
    b = AbGroup((4,))
    assert len(a.homomorphisms_to(b)) == 4  # images of each gen in {0, 2}
    assert a.isomorphisms_to(b) == []
    c = AbGroup((2, 2))
    isos = a.isomorphisms_to(c)
    assert len(isos) == 6  # GL(2, F2)
    assert len(AbGroup((4,)).isomorphisms_to(AbGroup((4,)))) == 2


@given(st.integers(1, 12), st.integers(1, 12))
def test_kernel_and_quotient_sizes_match(d, r):
    # |ker(r)| = |A/rA| for A = Z_d
    g = AbGroup((d,))
    ker = g.kernel_of_scaling(r)
    qmod, reps, _ = g.quotient_by_scaling(r)
    assert len(ker) == len(reps) == gcd(d, r)
