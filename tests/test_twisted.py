"""
Tests for the twisted polynomial ring K{tau} with tau c = c^p tau.

The bridge to ordinary polynomials sends tau^i to x^(p^i), turning the
twisted product into composition of additive maps; most tests lean on
that translation as the oracle.
"""
import operator

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fforbits.field import FieldSpec, power
from fforbits.funcfield import ExtElem, ExtRing, FFPoly, RatFunc
from fforbits.dynpoly import Budget, DynPoly, KRing, is_additive
from fforbits.twisted import TwistedPoly, _prime_field_pow, twisted_pow
from fforbits.verify import _witnesses_15_16
from fforbits.errors import NotAdditive, RingMismatch, TauDegreeBudgetExceeded


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2, modulus=(1, 1, 1))
GF5 = FieldSpec(5)
GF9 = FieldSpec(3, 2, modulus=(1, 0, 1))   # w^2 + 1
K2 = KRing(GF2)
K3 = KRing(GF3)


def tw(ring, coeffs):
    spec = ring.spec
    return TwistedPoly.make(ring, [
        c if isinstance(c, RatFunc) else RatFunc.constant(spec, c)
        for c in coeffs])


def twisted_strategy(ring, max_deg=3):
    spec = ring.spec
    scalars = st.sampled_from([
        RatFunc.zero(spec), RatFunc.one(spec), RatFunc.t(spec),
        RatFunc.t(spec) + RatFunc.one(spec),
    ])
    return st.lists(scalars, min_size=0, max_size=max_deg + 1).map(
        lambda cs: TwistedPoly.make(ring, cs))


def dense(a):
    """The coefficients of a, lowest T-degree first, zeros included."""
    zero = a.ring.zero()
    return [a.terms.get(i, zero) for i in range(a.tau_degree + 1)]


def test_make_strips_leading_zeros():
    """make drops every zero of its dense input, not only the top ones."""
    zero, one, t = RatFunc.zero(GF2), RatFunc.one(GF2), RatFunc.t(GF2)
    a = TwistedPoly.make(K2, [one, zero])
    assert a.tau_degree == 0
    assert a == TwistedPoly.one(K2)
    assert TwistedPoly.make(K2, []).tau_degree == -1
    assert TwistedPoly.make(K2, [zero, zero]).terms == {}
    assert TwistedPoly.zero(K2).tau_degree == -1
    b = TwistedPoly.make(K2, [zero, t, zero, one])
    assert b.terms == {1: t, 3: one} and b.tau_degree == 3


def test_tau_times_constant_twists():
    """tau * c = c^p * tau is the defining relation."""
    t = RatFunc.t(GF3)
    tau = TwistedPoly.tau(K3)
    c = TwistedPoly.constant(K3, t)
    prod = tau * c
    assert prod == tw(K3, [0, t ** 3])
    assert c * tau == tw(K3, [0, t])


@given(a=twisted_strategy(K3), b=twisted_strategy(K3), c=twisted_strategy(K3))
@settings(max_examples=40)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + (-a) == TwistedPoly.zero(K3)


def test_multiplication_not_commutative():
    t = RatFunc.t(GF2)
    tau = TwistedPoly.tau(K2)
    c = TwistedPoly.constant(K2, t)
    assert tau * c != c * tau


def test_tau_degree_of_product():
    a = tw(K3, [1, 1])       # 1 + tau
    b = tw(K3, [0, 0, RatFunc.t(GF3)])  # t tau^2
    assert (a * b).tau_degree == 3


@pytest.mark.parametrize("spec", [GF3, GF9], ids=str)
def test_product_and_value_do_not_depend_on_insertion_order(spec):
    """T^2 + t comes out of sparse_add with its top term first: the product
    and the one-sum value must still take the rows by ascending T-degree,
    and the value must print as the DynPoly's does."""
    ring = KRing(spec)
    t, one = RatFunc.t(spec), RatFunc.one(spec)
    w = RatFunc.constant(spec, spec.gen() if spec.r > 1 else 2)
    a = TwistedPoly.tau(ring, 2) + TwistedPoly.constant(ring, t)
    assert list(a.terms) == [2, 0]
    b = tw(ring, [t + one, w * t])
    assert (a * b).to_dynpoly() == a.to_dynpoly().compose(b.to_dynpoly())
    for pt in (t + one, w * t ** 2 + t):
        value = a.evaluate(pt)
        want = a.to_dynpoly().evaluate(pt)
        assert value == want and str(value) == str(want)


@given(a=twisted_strategy(K2), b=twisted_strategy(K2))
@settings(max_examples=40)
def test_to_dynpoly_is_a_ring_map(a, b):
    """Addition goes to addition; multiplication goes to composition."""
    assert (a + b).to_dynpoly() == a.to_dynpoly() + b.to_dynpoly()
    assert (a * b).to_dynpoly() == a.to_dynpoly().compose(b.to_dynpoly())


@given(a=twisted_strategy(K3))
def test_round_trip_through_dynpoly(a):
    assert TwistedPoly.from_dynpoly(a.to_dynpoly()) == a


def test_to_dynpoly_exponents():
    a = tw(K3, [RatFunc.t(GF3), 1, 2])
    f = a.to_dynpoly()
    assert set(f.terms) == {1, 3, 9}
    assert is_additive(f)


def test_from_dynpoly_rejects_non_additive():
    f = DynPoly.make(K2, {2: RatFunc.one(GF2), 0: RatFunc.one(GF2)})
    with pytest.raises(NotAdditive):
        TwistedPoly.from_dynpoly(f)


def test_evaluate_matches_dynpoly():
    a = tw(K2, [RatFunc.t(GF2), 1, RatFunc.t(GF2) + RatFunc.one(GF2)])
    f = a.to_dynpoly()
    for v in (RatFunc.t(GF2), RatFunc.one(GF2), RatFunc.t(GF2) ** 3):
        assert a.evaluate(v) == f.evaluate(v)


def test_evaluate_in_extension():
    spec = GF2
    one, t = RatFunc.one(spec), RatFunc.t(spec)
    ring = ExtRing(spec, [-t, -one, one])   # y^2 = y + t
    a = tw(K2, [1, 1])                      # x + x^2 over K, lifted to y
    y = ring.y()
    assert a.evaluate(y) == y + y * y


def running_sum(a, point):
    """The value of a at point as the loop acc = acc + c * v over the
    iterated Frobenius images v of the point."""
    ext = isinstance(point, ExtElem)
    ring = point.ring if ext else a.ring
    acc, v = ring.zero(), point
    for i, c in enumerate(dense(a)):
        if i:
            v = v.frobenius()
        acc = acc + (ring.from_K(c) if ext else c) * v
    return acc


def ext_ring(spec):
    one, t = RatFunc.one(spec), RatFunc.t(spec)
    return ExtRing(spec, [-t, -one, one])   # y^2 = y + t


@st.composite
def k_value(draw, spec, rational=False, max_deg=3):
    """A value of K = F_q(t): a polynomial, or with rational a fraction
    whose denominator is drawn too (and is 1 when drawn as 0)."""
    if spec.r == 1:
        coeff = st.integers(0, spec.p - 1)
    else:
        coeff = st.sampled_from(list(spec.all_elements()))

    def poly(deg):
        cs = draw(st.lists(coeff, max_size=deg + 1))
        return FFPoly.make(spec, dict(enumerate(cs)))
    den = poly(2) if rational else FFPoly.one(spec)
    return RatFunc.make(poly(max_deg), den or FFPoly.one(spec))


@st.composite
def evaluation_cases(draw):
    """(a, point, vanishes): polynomial points with polynomial
    coefficients (one sum), points and coefficients with denominators and
    ExtElem points (to_dynpoly().evaluate), and coefficient pairs
    c_i = -c_j * N^(p^j - p^i) whose terms cancel to 0 at the point N."""
    spec = draw(st.sampled_from([GF2, GF3, GF5, GF9]))
    ring = KRing(spec)
    kind = draw(st.sampled_from(["poly", "rational", "ext", "cancel"]))
    if kind == "cancel":
        point = draw(k_value(spec))
        i, j = sorted(draw(st.permutations(range(3)))[:2])
        cj = draw(k_value(spec))
        coeffs = [ring.zero()] * (j + 1)
        coeffs[i] = -(cj * point ** (spec.p ** j - spec.p ** i))
        coeffs[j] = cj
        return TwistedPoly.make(ring, coeffs), point, True
    rational = kind != "poly"
    coeffs = draw(st.lists(k_value(spec, draw(st.booleans()) and rational),
                           max_size=4))
    if kind == "ext":
        point = ext_ring(spec).elem(
            [draw(k_value(spec, True, 2)), draw(k_value(spec, True, 2))])
    else:
        point = draw(k_value(spec, rational, 3))
    return TwistedPoly.make(ring, coeffs), point, False


@given(case=evaluation_cases())
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_running_sum(case):
    a, point, vanishes = case
    value = a.evaluate(point)
    assert value == running_sum(a, point)
    if vanishes:
        assert not value


def polynomial_points(spec, c):
    t, one = RatFunc.t(spec), RatFunc.one(spec)
    return [t, c * t ** 3 + t + one, c * t ** 2]


@pytest.mark.parametrize("spec", [GF2, GF3, GF5], ids=str)
def test_evaluate_witness_powers_with_zero_runs(spec):
    """The one sum on the tuples of check 15-16: (x + f)^m for its two
    witnesses f and m <= p^2 has up to 3p^2 + 1 coefficients, with runs of
    zeros between the nonzero ones."""
    ring = KRing(spec)
    gaps = 0
    for f in _witnesses_15_16(spec):
        a1 = TwistedPoly.from_dynpoly(f + DynPoly.x(ring))
        for m in range(1, spec.p ** 2 + 1):
            a = twisted_pow(a1, m)
            gaps += len(a.terms) <= a.tau_degree
            for point in polynomial_points(spec, ring.from_int(-1)):
                assert a.evaluate(point) == running_sum(a, point)
    assert gaps


@pytest.mark.parametrize("nonzero", [(0, 3), (1, 5, 6), (2, 7)],
                         ids=lambda idx: "-".join(map(str, idx)))
def test_evaluate_gf9_tuples_with_zero_runs(nonzero):
    """Over GF(9) each nonzero coefficient pairs with the p^i-th power of
    the point, whose coefficients are the i-fold Frobenius images."""
    ring = KRing(GF9)
    w, t = RatFunc.constant(GF9, GF9.gen()), RatFunc.t(GF9)
    coeffs = [ring.zero()] * (nonzero[-1] + 1)
    for k, i in enumerate(nonzero):
        coeffs[i] = w * t ** k + w ** (k + 1)
    a = TwistedPoly.make(ring, coeffs)
    assert sorted(a.terms) == list(nonzero)
    for point in polynomial_points(GF9, w):
        assert a.evaluate(point) == running_sum(a, point)


@pytest.mark.parametrize("spec", [GF3, GF9], ids=str)
@pytest.mark.parametrize("rows", [(2,), (1, 4), (3, 5, 9), (2, 3, 7)],
                         ids=lambda idx: "-".join(map(str, idx)))
def test_evaluate_runs_p_power_across_gaps(spec, rows):
    """The one sum carries p^i from one nonzero row to the next: rows that
    start above 0 and skip more than one index, multi-term polynomial
    coefficients and points."""
    ring = KRing(spec)
    c = RatFunc.constant(spec, spec.gen() if spec.r > 1 else spec.one())
    t, one = RatFunc.t(spec), RatFunc.one(spec)
    coeffs = [ring.zero()] * (rows[-1] + 1)
    for k, i in enumerate(rows):
        coeffs[i] = c * t ** (k + 1) + t + one
    a = TwistedPoly.make(ring, coeffs)
    for point in (t + one, c * t ** 2 + t, t ** 3 - c * t + one):
        assert a.evaluate(point) == running_sum(a, point)


@pytest.mark.parametrize("spec", [GF2, GF3, GF5], ids=str)
def test_prime_field_pow_matches_binary_power(spec):
    """The GF(p)[T] route against binary powering in K{T}, for exponents
    with zero base-p digits, over K and over an extension of K."""
    p = spec.p
    for ring in (KRing(spec), ext_ring(spec)):
        for coeffs in ([1, 1], [p - 1, 0, 1], [1, 2 % p, 1]):
            a = TwistedPoly.make(ring, [ring.from_int(c) for c in coeffs])
            assert a.all_prime_field()
            for n in (1, 2, p, p + 1, p * p, p * p + 1, 2 * p * p + p):
                assert _prime_field_pow(a, n) == power(a, n, operator.mul)


def brute_twisted_pow(a, n):
    acc = TwistedPoly.one(a.ring)
    for _ in range(n):
        acc = acc * a
    return acc


def test_twisted_pow_matches_repeated_mul():
    for ring, spec in ((K2, GF2), (K3, GF3)):
        t = RatFunc.t(spec)
        a = tw(ring, [t, 1])
        for n in range(9):
            assert twisted_pow(a, n) == brute_twisted_pow(a, n)
    # constant coefficients outside GF(2) take the generic path
    K4 = KRing(GF4)
    w = RatFunc.constant(GF4, GF4.gen())
    a = tw(K4, [w, 1, w + RatFunc.t(GF4)])
    assert not a.all_prime_field()
    for n in range(9):
        assert twisted_pow(a, n) == brute_twisted_pow(a, n)


def test_twisted_pow_additivity_of_exponents():
    a = tw(K3, [RatFunc.t(GF3), 2, 1])
    for m in range(4):
        for n in range(4):
            assert twisted_pow(a, m + n) == twisted_pow(a, m) * twisted_pow(a, n)


def test_twisted_pow_prime_field_shortcut_agrees():
    """Constant coefficients in GF(p) commute, so the binomial route and
    the generic ladder must give the same answer."""
    a = tw(K2, [1, 1])          # 1 + tau, all coefficients in GF(2)
    b = tw(K2, [1, RatFunc.t(GF2)])  # generic path for contrast
    for n in (5, 16, 31):
        assert twisted_pow(a, n) == brute_twisted_pow(a, n)
    for n in range(7):
        assert twisted_pow(b, n) == brute_twisted_pow(b, n)


def test_twisted_pow_large_prime_field_exponent():
    """(1 + tau)^(2^k) has two terms: C(2^k, i) is even for 0 < i < 2^k."""
    a = tw(K2, [1, 1])
    n = 2 ** 11
    out = twisted_pow(a, n)
    assert out.tau_degree == n
    assert sorted(out.terms) == [0, n]


def test_twisted_pow_budget():
    a = tw(K2, [RatFunc.t(GF2), 1])
    with pytest.raises(TauDegreeBudgetExceeded):
        twisted_pow(a, 10 ** 6)
    assert twisted_pow(a, 4, Budget(tau=4)).tau_degree == 4
    with pytest.raises(TauDegreeBudgetExceeded):
        twisted_pow(a, 5, Budget(tau=4))


def test_mixed_rings_rejected():
    with pytest.raises(RingMismatch):
        tw(K2, [1]) + tw(K3, [1])


def _iterates_commute(a, b, m):
    """Composition of additive maps is the product in K{T}, so the m-th
    iterates of a and b commute iff a^m * b^m == b^m * a^m."""
    am, bm = twisted_pow(a, m), twisted_pow(b, m)
    return am * bm == bm * am


def test_commute_at_iterate_gf4():
    """x^2 and w*x^2 commute only after squaring: twists cancel once the
    Frobenius has gone all the way around GF(4)."""
    spec = GF4
    kr = KRing(spec)
    w = RatFunc.constant(spec, spec.gen())
    frob = TwistedPoly.tau(kr)
    scaled = TwistedPoly.make(kr, [RatFunc.zero(spec), w])    # w tau
    assert not _iterates_commute(frob, scaled, 1)
    assert _iterates_commute(frob, scaled, 2)


def test_commute_at_iterate_same_element():
    a = tw(K3, [RatFunc.t(GF3), 1])
    for m in range(1, 4):
        assert _iterates_commute(a, a, m)


def test_str_masks_nothing():
    a = tw(K2, [RatFunc.t(GF2) + RatFunc.one(GF2), 1])
    s = str(a)
    assert "T" in s or "tau" in s
