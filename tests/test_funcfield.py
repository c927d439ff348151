"""
Tests for K = GF(q)(t): sparse polynomials in t, canonical rational
functions, and the rank-p extension rings K[y]/(M).

The powering code paths get extra attention because they split exponents
in base p instead of plain binary squaring; every fast path is checked
against repeated multiplication.
"""
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fforbits.field import FieldSpec
from fforbits.funcfield import (ExtRing, FFPoly, RatFunc, kx_eval, kx_gcd,
                                kx_mul, kx_xgcd, ring_of, weil_height)
from fforbits.errors import DivisionByZero, RingMismatch, ZeroDivisor


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2, modulus=(1, 1, 1))
GF5 = FieldSpec(5)
GF9 = FieldSpec(3, 2, modulus=(1, 0, 1))
GF31 = FieldSpec(31)


def poly(spec, terms):
    return FFPoly.make(spec, terms)


def rat(spec, num_terms, den_terms=None):
    num = poly(spec, num_terms)
    den = poly(spec, den_terms) if den_terms else FFPoly.one(spec)
    return RatFunc.make(num, den)


# Hypothesis strategies: small random polynomials and rational functions.

def ffpoly_strategy(spec, max_deg=6):
    coeff = st.integers(min_value=0, max_value=spec.p - 1)
    return st.lists(coeff, min_size=0, max_size=max_deg + 1).map(
        lambda cs: poly(spec, {e: c for e, c in enumerate(cs)}))


def ratfunc_strategy(spec, max_deg=4):
    pair = st.tuples(ffpoly_strategy(spec, max_deg), ffpoly_strategy(spec, max_deg))
    return pair.filter(lambda ab: bool(ab[1])).map(lambda ab: RatFunc.make(ab[0], ab[1]))


# FFPoly

def test_ffpoly_zero_coeffs_dropped():
    a = poly(GF3, {0: 1, 2: 0, 5: 3})
    assert set(a.terms) == {0}
    assert a == FFPoly.one(GF3)
    assert poly(GF2, {}) == FFPoly.zero(GF2)


def test_ffpoly_degree():
    assert poly(GF2, {7: 1, 2: 1}).degree == 7
    assert FFPoly.zero(GF2).degree == -1
    assert FFPoly.one(GF2).degree == 0


@given(a=ffpoly_strategy(GF3), b=ffpoly_strategy(GF3), c=ffpoly_strategy(GF3))
def test_ffpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == FFPoly.zero(GF3)


@given(a=ffpoly_strategy(GF2), b=ffpoly_strategy(GF2))
def test_ffpoly_divmod(a, b):
    if not b:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(a=ffpoly_strategy(GF3), b=ffpoly_strategy(GF3))
def test_ffpoly_gcd_divides_both(a, b):
    g = a.gcd(b)
    if not g:
        assert not a and not b
        return
    assert g.is_monic()
    assert a.divmod(g)[1] == FFPoly.zero(GF3)
    assert b.divmod(g)[1] == FFPoly.zero(GF3)


def test_ffpoly_pow_matches_repeated_mul():
    for spec in (GF2, GF3, GF5, GF9, GF31):
        terms = {0: 1, 1: 1, 3: spec.p - 1}
        if spec.r > 1:
            terms[2] = spec.gen()  # a coefficient that Frobenius moves
        a = poly(spec, terms)
        acc = FFPoly.one(spec)
        for n in range(31):
            assert a ** n == acc, (spec, n)
            acc = acc * a


def test_ffpoly_mod_with_gap_between_divisor_degree_and_twice_it():
    """A gap over 64 but under the divisor degree takes the term-by-term
    path, whose squarings must not re-enter it for the same exponent."""
    a = poly(GF2, {180: 1})
    m = poly(GF2, {100: 1, 1: 1, 0: 1})
    assert a % m == a.divmod(m)[1]


def test_ffpoly_pow_huge_sparse_exponent():
    """t^(2^64) is a single term; the exponent must stay symbolic."""
    t = FFPoly.t(GF2)
    e = 2 ** 64
    assert t ** e == FFPoly.monomial(GF2, e)
    # Frobenius twist of a binomial at the same scale
    a = poly(GF2, {0: 1, 1: 1})
    assert a ** e == poly(GF2, {0: 1, e: 1})


def test_ffpoly_freshman_dream():
    """(a + b)^p = a^p + b^p in characteristic p."""
    for spec in (GF2, GF3):
        a = poly(spec, {1: 1, 4: 1})
        b = poly(spec, {0: spec.p - 1, 2: 1})
        assert (a + b) ** spec.p == a ** spec.p + b ** spec.p


def test_ffpoly_frobenius_is_pth_power():
    """frobenius() is the p-power map of K, so t moves to t^p as well."""
    w = GF4.gen()
    a = FFPoly.constant(GF4, w) + FFPoly.t(GF4)
    assert a.frobenius() == a * a
    assert a.frobenius() == FFPoly.constant(GF4, w * w) + FFPoly.t(GF4) ** 2


def test_ffpoly_evaluate():
    a = poly(GF3, {0: 2, 1: 1, 2: 1})
    for x in GF3.all_elements():
        want = GF3.elem(2) + x + x * x
        assert a.evaluate(x) == want


# RatFunc

def test_ratfunc_canonical_form():
    """num/den reduced and den monic, so equality is structural."""
    spec = GF3
    t = FFPoly.t(spec)
    one = FFPoly.one(spec)
    a = RatFunc.make(t * t - one, t - one)     # (t^2-1)/(t-1) = t+1
    assert a == RatFunc.from_poly(t + one)
    assert a.is_poly()
    b = RatFunc.make(t, t.scale(spec.elem(2)))  # t/(2t) = 2 (1/2 = 2 in GF(3))
    assert b == RatFunc.constant(spec, 2)


def test_ratfunc_denominator_monic():
    spec = GF3
    t = FFPoly.t(spec)
    two = FFPoly.constant(spec, 2)
    f = RatFunc.make(FFPoly.one(spec), two * t + two)
    assert f.den.is_monic()
    assert f * RatFunc.from_poly(two * t + two) == RatFunc.one(spec)


@given(a=ratfunc_strategy(GF3), b=ratfunc_strategy(GF3), c=ratfunc_strategy(GF3))
@settings(max_examples=60)
def test_ratfunc_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RatFunc.zero(GF3)
    if a:
        assert a * a.inverse() == RatFunc.one(GF3)


def test_ratfunc_zero_inverse():
    with pytest.raises(DivisionByZero):
        RatFunc.zero(GF2).inverse()


def test_ratfunc_height():
    spec = GF2
    t = RatFunc.t(spec)
    assert RatFunc.zero(spec).height() == 0
    assert RatFunc.one(spec).height() == 0
    assert t.height() == 1
    assert (t ** 7).height() == 7
    assert (RatFunc.one(spec) / t ** 5).height() == 5
    assert ((t ** 3 + RatFunc.one(spec)) / t ** 8).height() == 8


@given(a=ratfunc_strategy(GF2), b=ratfunc_strategy(GF2))
@settings(max_examples=60)
def test_ratfunc_height_subadditive(a, b):
    """h(ab) <= h(a)+h(b) and h(a+b) <= h(a)+h(b) for function fields."""
    assert (a * b).height() <= a.height() + b.height()
    assert (a + b).height() <= a.height() + b.height()


@given(a=ratfunc_strategy(GF2))
@settings(max_examples=40)
def test_ratfunc_height_of_inverse(a):
    if a:
        assert a.inverse().height() == a.height()


def test_ratfunc_pow_negative_and_huge():
    t = RatFunc.t(GF2)
    assert t ** -3 == RatFunc.one(GF2) / t ** 3
    for spec in (GF2, GF3, GF5):
        a = rat(spec, {0: 1, 1: 1}, {1: 1, 2: 2})
        assert not a.is_poly()
        acc = RatFunc.one(spec)
        for n in range(13):
            assert a ** n == acc, (spec, n)
            assert a ** -n == RatFunc.one(spec) / acc, (spec, n)
            acc = acc * a
    e = 2 ** 40
    assert (t ** e).height() == e


def test_weil_height_accepts_polys():
    assert weil_height(FFPoly.t(GF3) ** 4) == 4


def test_ratfunc_str_parses_back():
    from fforbits.parser import parse_scalar, ParseContext
    ctx = ParseContext(GF3)
    t = RatFunc.t(GF3)
    one = RatFunc.one(GF3)
    for v in (t, one / t, (t + one) / (t * t), RatFunc.constant(GF3, 2), t ** 9 + t):
        assert parse_scalar(str(v), ctx) == v


# kx_* helpers: dense polynomials over K in a second variable

def test_kx_xgcd_identity():
    spec = GF3
    t = RatFunc.t(spec)
    one = RatFunc.one(spec)
    a = [t, one, one + t]       # (1+t)x^2 + x + t
    b = [one, t]                # tx + 1
    g, u, v = kx_xgcd(a, b, spec)
    from fforbits.funcfield import kx_add
    lhs = kx_add(kx_mul(u, a, spec), kx_mul(v, b, spec), spec)
    assert lhs == g
    assert g == kx_gcd(a, b, spec)


def test_kx_eval_horner():
    spec = GF2
    t = RatFunc.t(spec)
    one = RatFunc.one(spec)
    coeffs = [t, one, t + one]
    x = t ** 2
    want = t + x + (t + one) * x * x
    assert kx_eval(coeffs, x, spec) == want


# Extension rings K[y]/(M)

def artin_schreier(spec):
    """K[y]/(y^p - y - t), the wild degree-p cover used all over."""
    one = RatFunc.one(spec)
    t = RatFunc.t(spec)
    p = spec.p
    mod = [-t, -one] + [spec and RatFunc.zero(spec)] * (p - 2) + [one]
    return ExtRing(spec, mod)


def test_ext_generator_satisfies_modulus():
    for spec in (GF2, GF3, GF5):
        ring = artin_schreier(spec)
        y = ring.y()
        t = ring.from_K(RatFunc.t(spec))
        assert ring.frobenius_of_generator() == brute_pow(y, spec.p)
        assert y ** spec.p == y + t


def test_ext_arithmetic_basics():
    ring = artin_schreier(GF2)
    y = ring.y()
    t = ring.from_K(RatFunc.t(GF2))
    a = y + t
    assert a - y == t
    assert a * ring.one() == a
    assert (y * y) * y == y * (y * y)
    assert ring.from_int(5) == ring.one()


def test_ext_inverse():
    ring = artin_schreier(GF3)
    y = ring.y()
    one = ring.one()
    for v in (y, y + one, y * y + y + one):
        assert v * v.inverse() == one
    with pytest.raises(DivisionByZero):
        ring.zero().inverse()


def test_ext_zero_divisor():
    """y^2 - t^2 factors over K, so K[y]/(y^2 - t^2) is not a field."""
    spec = GF3
    t = RatFunc.t(spec)
    ring = ExtRing(spec, [-(t * t), RatFunc.zero(spec), RatFunc.one(spec)])
    bad = ring.y() - ring.from_K(t)
    with pytest.raises(ZeroDivisor):
        bad.inverse()


def brute_pow(v, n):
    """Reference powering by repeated multiplication, no shortcuts."""
    acc = v.ring.one()
    for _ in range(n):
        acc = acc * v
    return acc


def test_ext_pow_matches_brute_force():
    """The base-p exponent split must agree with plain multiplication."""
    for spec in (GF2, GF3):
        ring = artin_schreier(spec)
        y = ring.y()
        t = ring.from_K(RatFunc.t(spec))
        for v in (y, y + t, y * y + ring.one()):
            for n in range(16):
                assert v ** n == brute_pow(v, n), (spec.p, n)


def test_ext_pow_respects_frobenius_tower():
    """v^(p^k) must equal k-fold Frobenius, and both must match brute force."""
    ring = artin_schreier(GF2)
    y = ring.y()
    t = ring.from_K(RatFunc.t(GF2))
    v = y + t
    for k in range(1, 5):
        e = 2 ** k
        assert v ** e == v.frobenius(k)
        assert v ** e == brute_pow(v, e)


def test_ext_frobenius_is_additive_and_multiplicative():
    ring = artin_schreier(GF3)
    y = ring.y()
    t = ring.from_K(RatFunc.t(GF3))
    u, v = y + t, y * y + ring.from_int(2)
    assert (u + v).frobenius() == u.frobenius() + v.frobenius()
    assert (u * v).frobenius() == u.frobenius() * v.frobenius()


def test_ext_artin_schreier_frobenius_closed_form():
    """Over y^p = y + t, y^(p^k) = y + t + t^p + ... + t^(p^(k-1))."""
    for spec in (GF2, GF3):
        ring = artin_schreier(spec)
        y = ring.y()
        p = spec.p
        for k in range(1, 4):
            tail = RatFunc.zero(spec)
            for j in range(k):
                tail = tail + RatFunc.t(spec) ** (p ** j)
            assert y.frobenius(k) == y + ring.from_K(tail)


def test_ext_as_K_round_trip():
    ring = artin_schreier(GF2)
    v = RatFunc.t(GF2) ** 3 + RatFunc.one(GF2)
    lifted = ring.from_K(v)
    assert lifted.in_K()
    assert lifted.as_K() == v
    assert not ring.y().in_K()


def test_ring_of_dispatch():
    assert ring_of(RatFunc.t(GF2)).spec == GF2
    ring = artin_schreier(GF3)
    assert ring_of(ring.y()) is ring


def test_ext_mismatched_rings_rejected():
    r2, r3 = artin_schreier(GF2), artin_schreier(GF3)
    with pytest.raises(RingMismatch):
        r2.y() + r3.y()
