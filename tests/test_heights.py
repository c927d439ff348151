"""
Tests for the height machinery: the one-step gap constant, canonical
height estimates, interval rationalization, the collision sieve, and
multiplicative dependence of degrees.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from fforbits.field import FieldSpec
from fforbits.funcfield import FFPoly, RatFunc
from fforbits.dynpoly import DynPoly, KRing, orbit_element
from fforbits.heights import (HeightEstimate, canonical_height,
                              derive_pruning, height_gap_constant,
                              multiplicative_dependence, orbit_height,
                              pruned_candidates, rationalize)
from fforbits.parser import ParseContext, parse_map, parse_scalar


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
K2 = KRing(GF2)
K3 = KRing(GF3)


def dyn(ring, terms):
    spec = ring.spec
    return DynPoly.make(ring, {
        e: c if isinstance(c, RatFunc) else RatFunc.constant(spec, c)
        for e, c in terms.items()})


def random_point(spec, rng, max_height=30):
    """A rational function of bounded height with random sparse parts."""
    def rpoly(deg):
        from fforbits.funcfield import FFPoly
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(0, deg)] = rng.randint(1, spec.p - 1)
        terms[deg] = rng.randint(1, spec.p - 1)
        return FFPoly.make(spec, terms)
    nd = rng.randint(0, max_height)
    dd = rng.randint(0, max_height - nd) if nd < max_height else 0
    num = rpoly(nd)
    den = rpoly(dd)
    return RatFunc.make(num, den)


def test_gap_constant_zero_for_pure_power():
    assert height_gap_constant(dyn(K2, {2: 1})) == 0
    assert height_gap_constant(dyn(K3, {9: 1})) == 0


def test_gap_constant_zero_for_monic_constant_coeff():
    # x^2 + x over GF(2): all coefficients are constants of height 0
    assert height_gap_constant(dyn(K2, {2: 1, 1: 1})) == 0


def test_gap_constant_accounts_for_t_coefficients():
    t = RatFunc.t(GF2)
    f = dyn(K2, {2: 1, 0: t ** 2 + t})
    b = height_gap_constant(f)
    assert b >= 2   # h(t^2+t) = 2 already forces this much upward slack
    g = dyn(K2, {2: t, 1: 1})
    assert height_gap_constant(g) >= 1


def test_gap_constant_rejects_low_degree():
    with pytest.raises(ValueError):
        height_gap_constant(dyn(K2, {1: 1}))


def one_step_defect(f, gamma):
    d = f.degree
    return abs(f.evaluate(gamma).height() - d * gamma.height())


def test_gap_invariant_on_random_points():
    """|h(f(x)) - d h(x)| <= B on a mixed bag of random rationals."""
    rng = random.Random(991)
    t = RatFunc.t(GF2)
    maps = [
        dyn(K2, {2: 1, 1: 1}),
        dyn(K2, {2: 1, 0: t ** 2 + t}),
        dyn(K2, {4: t, 2: 1, 0: t ** 3}),
        dyn(K3, {3: 1, 1: RatFunc.t(GF3)}),
    ]
    for f in maps:
        b = height_gap_constant(f)
        spec = f.spec
        for _ in range(200):
            gamma = random_point(spec, rng)
            assert one_step_defect(f, gamma) <= b, (str(f), str(gamma))


def test_canonical_height_of_additive_fixed_start():
    """x^2 + x has B = 0, so the estimate is exact at iteration zero."""
    f = dyn(K2, {2: 1, 1: 1})
    est = canonical_height(f, RatFunc.t(GF2))
    assert est.value == 1
    assert est.error_bound == 0
    assert est.iterations == 0


def test_canonical_height_preperiodic_is_zero():
    """0 is fixed by x^2 + x, so its canonical height vanishes."""
    f = dyn(K2, {2: 1, 1: 1})
    est = canonical_height(f, RatFunc.zero(GF2))
    assert est.value == 0
    assert est.error_bound == 0


def test_canonical_height_functorial_under_f():
    """hhat(f(gamma)) = d * hhat(gamma), up to the stated error bounds."""
    t = RatFunc.t(GF2)
    f = dyn(K2, {2: 1, 0: t ** 2 + t})
    d = f.degree
    err = Fraction(1, 2 ** 10)
    for gamma in (t, t ** 3, RatFunc.one(GF2) / (t + RatFunc.one(GF2))):
        a = canonical_height(f, gamma, target_error=err)
        b = canonical_height(f, f.evaluate(gamma), target_error=err)
        assert abs(b.value - d * a.value) <= b.error_bound + d * a.error_bound


def test_canonical_height_error_respects_target():
    t = RatFunc.t(GF2)
    f = dyn(K2, {2: 1, 0: t ** 2 + t})
    for k in (2, 6, 10):
        est = canonical_height(f, t, target_error=Fraction(1, 2 ** k))
        assert est.error_bound <= Fraction(1, 2 ** k)


ORBIT_FIELDS = (GF2, GF3, FieldSpec(5), FieldSpec(2, 2, modulus=(1, 1, 1)),
                FieldSpec(3, 2, modulus=(1, 0, 1)))


@st.composite
def orbit_height_cases(draw):
    """(f, gamma, n) over GF(2/3/4/5/9): rational coefficients, zero points
    and zero coefficients, and a shared factor that can put zeros of c_d
    and poles of other coefficients at the poles of gamma."""
    spec = draw(st.sampled_from(ORBIT_FIELDS))
    elem = st.lists(st.integers(0, spec.p - 1), min_size=spec.r,
                    max_size=spec.r).map(spec.elem)

    def poly(max_degree):
        return FFPoly.make(spec, dict(enumerate(
            draw(st.lists(elem, max_size=max_degree + 1)))))

    shared = poly(2)

    def ratfunc():
        num, den = poly(3), poly(2) or FFPoly.one(spec)
        for _ in range(draw(st.integers(0, 2))):
            if shared.degree > 0:
                num, den = (num * shared, den) if draw(st.booleans()) \
                    else (num, den * shared)
        return RatFunc.make(num, den)

    d = draw(st.integers(2, 3))
    terms = {i: ratfunc() for i in range(d)}
    terms[d] = ratfunc()
    assume(terms[d])
    return (DynPoly.make(KRing(spec), terms), ratfunc(),
            draw(st.integers(0, 5 if d == 2 else 3)))


@given(orbit_height_cases())
@settings(max_examples=300, deadline=None)
def test_orbit_height_matches_the_walk(case):
    f, gamma, n = case
    assert orbit_height(f, gamma, n) == orbit_element(f, gamma, n).height()


@pytest.mark.parametrize("p,f,alpha,heights", [
    # at t, c_2 has a zero of order 4 and alpha a pole of order 3: c_2 x^2
    # dominates f(alpha), as 2*3 > 4 + 1, but the pole order then falls to
    # 2*3 - 4 = 2, so escape needs (2 - 1)*u > 4 too; without it n = 2
    # reads 12
    (3, "(t^4/(t^4 + 1))*x^2 + 1/t", "1/t^3", [3, 6, 13, 29]),
    # den(f(alpha)) = t*(t + 3)^2 holds the factor t of the base element
    # t*(t + 4) but not t + 4, so no one pole order serves that element;
    # reading one anyway gives 38 at n = 4
    (5, "((3*t^2 + 3*t + 3)/(4*t^2 + t))*x^2 + x + 3*t + 4",
     "(2*t + 3)/(2*t + 1)", [1, 4, 10, 22, 46]),
])
def test_orbit_height_on_pinned_maps(p, f, alpha, heights):
    ctx = ParseContext(FieldSpec(p))
    f, alpha = parse_map(f, ctx), parse_scalar(alpha, ctx)
    for n, h in enumerate(heights):
        assert orbit_height(f, alpha, n) == h
        assert orbit_element(f, alpha, n).height() == h


def test_orbit_height_rejects_degree_one_and_negative_n():
    t = RatFunc.t(GF2)
    with pytest.raises(ValueError):
        orbit_height(dyn(K2, {1: 1, 0: 1}), t, 3)
    with pytest.raises(ValueError):
        orbit_height(dyn(K2, {2: 1, 0: t}), t, -1)


def test_canonical_height_walks_only_to_the_escape(monkeypatch):
    """x^2 + t from t + 1 over GF(3) escapes at once: N = 41 evaluates
    no point at all, and the value is exactly 1."""
    calls = []
    real = DynPoly.evaluate
    monkeypatch.setattr(DynPoly, "evaluate",
                        lambda self, x: calls.append(x) or real(self, x))
    t = RatFunc.t(GF3)
    est = canonical_height(dyn(K3, {2: 1, 0: t}), t + RatFunc.one(GF3),
                           Fraction(1, 2 ** 40))
    assert (est.value, est.iterations, calls) == (1, 41, [])


def test_estimate_interval():
    est = HeightEstimate(Fraction(3, 2), Fraction(1, 4), 5)
    lo, hi = est.interval()
    assert lo == Fraction(5, 4) and hi == Fraction(7, 4)


def test_rationalize_unique_candidate():
    est = HeightEstimate(Fraction(1), Fraction(1, 64), 0)
    assert rationalize(est, 4) == 1
    est = HeightEstimate(Fraction(129, 128), Fraction(1, 64), 0)
    assert rationalize(est, 4) == 1


def test_rationalize_ambiguous_returns_none():
    # [0.2, 0.8] holds 1/4, 1/3, 1/2, ... with denominators <= 4
    est = HeightEstimate(Fraction(1, 2), Fraction(3, 10), 0)
    assert rationalize(est, 4) is None


def test_rationalize_no_candidate_returns_none():
    # (interval (0.26, 0.30) contains no fraction with denominator <= 3)
    est = HeightEstimate(Fraction(28, 100), Fraction(2, 100), 0)
    assert rationalize(est, 3) is None


def test_rationalize_exact_point():
    est = HeightEstimate(Fraction(7, 3), Fraction(0), 0)
    assert rationalize(est, 3) == Fraction(7, 3)
    assert rationalize(est, 2) is None


def test_rationalize_rejects_bad_bound():
    with pytest.raises(ValueError):
        rationalize(HeightEstimate(Fraction(1), Fraction(0), 0), 0)


def _rationalize_by_loop(est, denominator_bound):
    """rationalize as it was first written: every denominator up to the
    bound in turn, the oracle of the continued-fraction version."""
    lo, hi = est.interval()
    found = None
    for q in range(1, denominator_bound + 1):
        n_lo = -((-lo.numerator * q) // lo.denominator)   # ceil(lo*q)
        n_hi = (hi.numerator * q) // hi.denominator       # floor(hi*q)
        if n_hi - n_lo > 1:
            return None
        for n in range(n_lo, n_hi + 1):
            cand = Fraction(n, q)
            if found is None:
                found = cand
            elif cand != found:
                return None
    return found


rationals = st.builds(Fraction, st.integers(-60, 600), st.integers(1, 400))


@given(value=rationals,
       error=st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(0, 8),
                                 st.integers(1, 5000))),
       bound=st.integers(1, 200))
@settings(max_examples=300, deadline=None)
def test_rationalize_matches_the_denominator_loop(value, error, bound):
    est = HeightEstimate(value, error, 0)
    assert rationalize(est, bound) == _rationalize_by_loop(est, bound)


def test_pruned_candidates_lexicographic_and_strict():
    out = pruned_candidates(Fraction(1), Fraction(1), 2, 2, Fraction(1), 5, 5)
    assert out == sorted(out)
    # |2^m - 2^n| < 1 exactly on the diagonal
    assert out == [(m, m) for m in range(6)]


def test_pruned_candidates_asymmetric_degrees():
    out = pruned_candidates(Fraction(1), Fraction(1), 2, 4, Fraction(1), 8, 4)
    assert out == [(2 * n, n) for n in range(5)]


def test_sieve_soundness_quadratic_pair():
    """Every true collision of the two orbits passes the height filter."""
    t = RatFunc.t(GF2)
    f = dyn(K2, {2: 1, 1: 1})
    g = dyn(K2, {2: 1, 0: t ** 2 + t})
    alpha, beta = t, RatFunc.zero(GF2)
    cap = 16
    data = derive_pruning(f, alpha, g, beta, cap, cap)
    fo = [orbit_element(f, alpha, m) for m in range(cap + 1)]
    go = [orbit_element(g, beta, n) for n in range(cap + 1)]
    allowed = set(pruned_candidates(data.u1, data.u2, f.degree, g.degree,
                                    data.c, cap, cap))
    for m in range(cap + 1):
        for n in range(cap + 1):
            if fo[m] == go[n]:
                assert (m, n) in allowed, (m, n)


def test_multiplicative_dependence_basics():
    assert multiplicative_dependence(8, 4) == (2, 3)
    assert multiplicative_dependence(6, 12) is None
    assert multiplicative_dependence(5, 5) == (1, 1)
    assert multiplicative_dependence(4, 2) == (1, 2)
    assert multiplicative_dependence(27, 9) == (2, 3)


def test_multiplicative_dependence_vs_brute_force():
    """Cross-check d^r = e^s search over all small degree pairs."""
    for d in range(2, 101):
        for e in range(2, 101):
            got = multiplicative_dependence(d, e)
            want = None
            for r in range(1, 21):
                if want:
                    break
                for s in range(1, 21):
                    if d ** r == e ** s:
                        want = (r, s)
                        break
            if want is None:
                assert got is None, (d, e)
            else:
                assert got == want, (d, e)


@given(d=st.integers(min_value=2, max_value=50),
       k=st.integers(min_value=1, max_value=5),
       j=st.integers(min_value=1, max_value=5))
def test_multiplicative_dependence_on_power_towers(d, k, j):
    """d^k vs d^j always depend; the witness is minimal so gcd(r,s)
    divides every other witness."""
    r, s = multiplicative_dependence(d ** k, d ** j)
    assert (d ** k) ** r == (d ** j) ** s


def test_derive_pruning_constant_positive():
    t = RatFunc.t(GF2)
    f = dyn(K2, {2: 1, 1: 1})
    g = dyn(K2, {2: 1, 0: t ** 2 + t})
    data = derive_pruning(f, t, g, RatFunc.zero(GF2), 8, 8)
    assert data.c > 0
    assert data.c == 2 * (0 + height_gap_constant(g)) + 1
