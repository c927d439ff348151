"""
Tests for orbit intersection, synchronized collisions, plane-curve
returns, and the return-set model fitter.
"""
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fforbits import dynpoly, orbits
from fforbits.field import FieldSpec
from fforbits.funcfield import ExtRing, FFPoly, RatFunc
from fforbits.dynpoly import DynPoly, KRing, orbit_element
from fforbits.heights import PruningData, derive_pruning, pruned_candidates
from fforbits.orbits import (PlaneCurve, ReturnModel, ReturnSet,
                             ap_implies_common_iterate, curve_return_set,
                             fit_return_model, intersect_orbits,
                             synchronized_collisions)
from fforbits.verify import run_example


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
K2 = KRing(GF2)
K3 = KRing(GF3)


def dyn(ring, terms):
    spec = ring.spec
    return DynPoly.make(ring, {
        e: c if isinstance(c, RatFunc) else RatFunc.constant(spec, c)
        for e, c in terms.items()})


def quadratic_pair():
    """x^2 + x started at t against its shift conjugate started at 0.

    Both orbits walk through t^(2^m) + t, so they collide exactly on the
    diagonal of powers of two (plus the (1,1) warm-up hit)."""
    t = RatFunc.t(GF2)
    f = dyn(K2, {2: 1, 1: 1})
    g = dyn(K2, {2: 1, 0: t ** 2 + t})
    return f, t, g, RatFunc.zero(GF2)


def test_intersect_orbits_quadratic_pair():
    f, alpha, g, beta = quadratic_pair()
    rs = intersect_orbits(f, alpha, g, beta, 16, 16)
    want = {(1, 1)} | {(2 ** k, 2 ** k) for k in range(5)}
    assert set(rs.pairs) == want
    assert rs.exhaustive


def test_intersect_orbits_sorted_pairs():
    f, alpha, g, beta = quadratic_pair()
    rs = intersect_orbits(f, alpha, g, beta, 8, 8)
    assert list(rs.pairs) == sorted(rs.pairs)


def test_intersect_orbits_pruned_agrees_with_plain():
    f, alpha, g, beta = quadratic_pair()
    data = derive_pruning(f, alpha, g, beta, 16, 16)
    plain = intersect_orbits(f, alpha, g, beta, 16, 16)
    sieved = intersect_orbits(f, alpha, g, beta, 16, 16, pruning=data)
    assert plain == sieved


@pytest.mark.parametrize("sound", (True, False), ids=("derived", "unsound"))
def test_intersect_orbits_pruning_keeps_the_admitted_joined_pairs(sound):
    # with pruning the result is the unpruned pairs that lie in
    # pruned_candidates, also for data that drops true collisions: here
    # |2^m - 2^m * 65/64| < 1/8 holds only for m < 3
    f, alpha, g, beta = quadratic_pair()
    cap = 16
    if sound:
        data = derive_pruning(f, alpha, g, beta, cap, cap)
    else:
        data = PruningData(Fraction(1), Fraction(65, 64), Fraction(1, 8))
    plain = intersect_orbits(f, alpha, g, beta, cap, cap)
    sieved = intersect_orbits(f, alpha, g, beta, cap, cap, pruning=data)
    allowed = set(pruned_candidates(data.u1, data.u2, f.degree, g.degree,
                                    data.c, cap, cap))
    assert list(sieved.pairs) == [p for p in plain.pairs if p in allowed]
    if sound:
        assert sieved.pairs == plain.pairs
    else:
        assert sieved.pairs == ((1, 1), (2, 2))
        assert len(plain.pairs) == 5


def test_intersect_orbits_every_pair_is_a_real_collision():
    f, alpha, g, beta = quadratic_pair()
    rs = intersect_orbits(f, alpha, g, beta, 8, 8)
    for m, n in rs.pairs:
        assert orbit_element(f, alpha, m) == orbit_element(g, beta, n)


def test_intersect_orbits_rejects_degree_one():
    f = dyn(K2, {1: 1})
    g = dyn(K2, {2: 1})
    with pytest.raises(ValueError):
        intersect_orbits(f, RatFunc.t(GF2), g, RatFunc.t(GF2), 4, 4)


def test_intersect_disjoint_orbits():
    t = RatFunc.t(GF2)
    one = RatFunc.one(GF2)
    f = dyn(K2, {2: 1, 1: 1})
    g = dyn(K2, {2: 1, 0: t ** 3})
    rs = intersect_orbits(f, t, g, t + one, 10, 10)
    # brute check emptiness independently
    for m in range(11):
        for n in range(11):
            assert orbit_element(f, t, m) != orbit_element(g, t + one, n)
    assert rs.pairs == ()


def test_return_set_n_values():
    rs = ReturnSet(((1, 1), (2, 2), (4, 2), (4, 4)), 8, 8, True)
    assert rs.n_values() == [1, 2, 4]


def test_synchronized_collisions_diagonal():
    f, alpha, g, beta = quadratic_pair()
    hits = synchronized_collisions(f, alpha, g, beta, 1, 1, 0, 0, 16)
    assert hits == [1, 2, 4, 8, 16]


def test_synchronized_collisions_with_offsets():
    """Along (2n+2, 2n+2) the quadratic pair collides at n in {0, 1, 3, 7}."""
    f, alpha, g, beta = quadratic_pair()
    hits = synchronized_collisions(f, alpha, g, beta, 2, 2, 2, 2, 7)
    assert hits == [0, 1, 3, 7]


def test_synchronized_collisions_validates_args():
    f, alpha, g, beta = quadratic_pair()
    with pytest.raises(ValueError):
        synchronized_collisions(f, alpha, g, beta, 0, 1, 0, 0, 4)


def test_plane_curve_diagonal():
    curve = PlaneCurve.diagonal(K2)
    t = RatFunc.t(GF2)
    assert not curve.evaluate(t, t)
    assert curve.evaluate(t, t + RatFunc.one(GF2))


def small_ratfunc(spec):
    poly = st.dictionaries(st.integers(0, 2), st.integers(0, spec.p - 1),
                           max_size=3).map(lambda d: FFPoly.make(spec, d))
    return st.tuples(poly, poly.filter(bool)).map(
        lambda nd: RatFunc.make(*nd))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_plane_curve_evaluate_matches_sum_loop(data):
    """Coefficients equal to 1 and constant curves included, over K and
    over K[y]/(y^2 + y + t), where a coefficient or point may have y
    added."""
    spec = data.draw(st.sampled_from((GF2, GF3)))
    one = RatFunc.one(spec)
    ring = KRing(spec)

    def lift(v, shift):
        return v
    if data.draw(st.booleans()):
        ring = ExtRing(spec, (RatFunc.t(spec), one, one))

        def lift(v, shift):
            return ring.from_K(v) + ring.y() if shift else ring.from_K(v)
    scalar = st.builds(lift, st.one_of(st.just(one), small_ratfunc(spec)),
                       st.booleans())
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = data.draw(st.one_of(
        st.dictionaries(exps, scalar, max_size=5),
        scalar.map(lambda c: {(0, 0): c})).filter(lambda d: any(d.values())))
    v1, v2 = data.draw(scalar), data.draw(scalar)
    curve = PlaneCurve.make(ring, terms)
    want = ring.zero()
    for (e1, e2), c in curve.terms.items():
        want = want + c * v1 ** e1 * v2 ** e2
    assert curve.evaluate(v1, v2) == want


def test_curve_return_diagonal_matches_synchronized():
    f, alpha, g, beta = quadratic_pair()
    curve = PlaneCurve.diagonal(K2)
    got = curve_return_set(f, g, (alpha, beta), curve, 16)
    assert got == synchronized_collisions(f, alpha, g, beta, 1, 1, 0, 0, 16)


def test_curve_return_custom_curve():
    """x1 + x2 + (t^2+t) vanishes where the orbits differ by t^2+t."""
    t = RatFunc.t(GF2)
    f, alpha, g, beta = quadratic_pair()
    shift = t ** 2 + t
    curve = PlaneCurve.make(K2, {(1, 0): RatFunc.one(GF2),
                                 (0, 1): RatFunc.one(GF2),
                                 (0, 0): shift})
    got = curve_return_set(f, g, (alpha, beta), curve, 12)
    want = [n for n in range(13)
            if orbit_element(f, alpha, n) + orbit_element(g, beta, n) + shift
            == RatFunc.zero(GF2)]
    assert got == want


# Keyed joins: walk_keys against walk

def additive_poly(spec, max_exp=12):
    """A polynomial of F_p[t], zero and constants included, with exponents
    divisible by p among those drawn."""
    return st.dictionaries(st.integers(0, max_exp),
                           st.integers(1, spec.p - 1), max_size=3).map(
        lambda d: RatFunc.from_poly(FFPoly.make(spec, d)))


def additive_map(spec):
    """sum_i l_i x^(p^i) + gamma with l_i in F_p, gamma in F_p[t], degree
    at least p; several terms such as x^9 + 2x^3 + x, and gamma = 0."""
    lin = st.dictionaries(st.integers(0, 2), st.integers(1, spec.p - 1),
                          max_size=3).filter(lambda d: any(d))
    return st.builds(
        lambda lin, gamma: dyn(KRing(spec), {
            **{spec.p ** i: c for i, c in lin.items()}, 0: gamma}),
        lin, additive_poly(spec))


def walked(join, *args):
    """join(*args) with walk_keys declining every orbit, so that both
    orbits go through walk."""
    with mock.patch.object(orbits, "walk_keys", lambda f, start: None):
        return join(*args)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_keyed_joins_match_walked_joins(data):
    """Pairs, pruning end points, synchronized collisions and linear-curve
    returns are the same whether the orbits are walked in walk_keys'
    coordinates or point by point."""
    spec = data.draw(st.sampled_from([FieldSpec(p) for p in (2, 3, 5, 7)]))
    ring = KRing(spec)
    f = data.draw(additive_map(spec))
    g = data.draw(st.one_of(st.just(f), additive_map(spec)))
    alpha = data.draw(st.one_of(additive_poly(spec),
                                st.integers(0, spec.p - 1)))
    beta = data.draw(st.one_of(
        additive_poly(spec), st.integers(0, spec.p - 1),
        st.integers(0, 3).map(lambda k: orbit_element(f, alpha, k))))
    assert dynpoly.walk_keys(f, alpha) and dynpoly.walk_keys(g, beta)
    cap_m, cap_n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))

    def intersect(f, alpha, g, beta):
        ends = []

        def sieve(end_a, end_b):
            ends.append((end_a, end_b))
            return derive_pruning(f, alpha, g, beta, cap_m, cap_n,
                                  (end_a, end_b))
        pruned = intersect_orbits(f, alpha, g, beta, cap_m, cap_n, sieve)
        return intersect_orbits(f, alpha, g, beta, cap_m, cap_n), pruned, ends

    assert intersect(f, alpha, g, beta) == walked(intersect, f, alpha, g,
                                                  beta)
    lattice = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3),
                                  st.integers(0, 3), st.integers(0, 3)))
    args = (f, alpha, g, beta, *lattice, cap_n)
    assert synchronized_collisions(*args) == walked(synchronized_collisions,
                                                    *args)
    a, b = data.draw(st.tuples(st.integers(0, spec.p - 1),
                               st.integers(0, spec.p - 1)).filter(any))
    c = data.draw(additive_poly(spec))
    curve = PlaneCurve.make(ring, {(1, 0): RatFunc.constant(spec, a),
                                   (0, 1): RatFunc.constant(spec, b),
                                   (0, 0): c})
    args = (f, g, (alpha, beta), curve, cap_n)
    assert orbits._vanishes_on_keys(curve, ring)
    assert curve_return_set(*args) == walked(curve_return_set, *args)


def test_keyed_walk_moves_the_constant_term():
    """x^3 + x over GF(3) doubles a point's constant term (l_0 + l_1 = 2),
    so the pinned pairs (n + 1, n) need that action; over GF(2), x^2 + x
    sends every constant term to 0 and shows nothing of it."""
    f = dyn(K3, {3: 1, 1: 1})
    alpha = RatFunc.t(GF3) + RatFunc.one(GF3)
    beta = f.evaluate(alpha)
    assert str(beta) == "t^3 + t + 2"
    rs = intersect_orbits(f, alpha, f, beta, 6, 6)
    assert rs.pairs == tuple((n + 1, n) for n in range(6))
    keys = islice(dynpoly.walk_keys(f, alpha), 7)
    assert [c0 for c0, _ in keys] == [1, 2, 1, 2, 1, 2, 1]


def _additive_outside(case):
    """An additive map and a start that walk_keys declines."""
    t, one = RatFunc.t(GF2), RatFunc.one(GF2)
    if case == "GF(9)":
        gf9 = FieldSpec.parse("GF(9; mod=w^2+1)")
        return dyn(KRing(gf9), {3: 1, 1: 1}), RatFunc.t(gf9)
    if case == "K[y]/(M)":
        ring = ExtRing(GF2, (t, one, one))
        return dyn(K2, {2: 1, 1: 1}).lift_to(ring), ring.y()
    if case == "rational gamma":
        return dyn(K2, {2: 1, 1: 1, 0: t.inverse()}), t
    if case == "rational start":
        return dyn(K2, {2: 1, 1: 1}), t.inverse()
    if case == "coefficient t":
        return dyn(K2, {2: t, 1: 1}), t
    # (p - 1)(l + 1) = 16 * 17 > 255 for 16 x^17 over GF(17)
    gf17 = FieldSpec(17)
    return dyn(KRing(gf17), {17: 16}), RatFunc.t(gf17)


@pytest.mark.parametrize("case", ["GF(9)", "K[y]/(M)", "rational gamma",
                                  "rational start", "coefficient t",
                                  "slot bound"])
def test_orbits_outside_the_keyed_kind_are_walked(monkeypatch, case):
    f, alpha = _additive_outside(case)
    assert dynpoly.walk_keys(f, alpha) is None
    real_evaluate, counts = DynPoly.evaluate, Counter()

    def evaluate(self, point):
        counts[self] += 1
        return real_evaluate(self, point)

    monkeypatch.setattr(DynPoly, "evaluate", evaluate)
    monkeypatch.setattr(dynpoly, "_key_step", None)
    beta = f.evaluate(alpha)
    rs = intersect_orbits(f, alpha, f, beta, 3, 3)
    assert rs.pairs == ((1, 0), (2, 1), (3, 2))
    assert counts == {f: 1 + 3 + 3}


# Return-set models

def test_model_members_ap():
    m = ReturnModel(2, 20, (), ((3, 1),), ())
    assert m.members() == [1, 4, 7, 10, 13, 16, 19]


def test_model_members_pset():
    m = ReturnModel(2, 64, (), (), ((Fraction(1), Fraction(0), 1),))
    assert m.members() == [1, 2, 4, 8, 16, 32, 64]


def test_model_members_pset_with_offset():
    # {(3/2) 3^(2k) - 1/2} = {1, 13, 121, ...}
    m = ReturnModel(3, 130, (), (), ((Fraction(3, 2), Fraction(-1, 2), 2),))
    assert m.members() == [1, 13, 121]


def test_fit_powers_of_two():
    got = fit_return_model([1, 2, 4, 8, 16, 32, 64], 2, 64)
    assert got.aps == ()
    assert got.finite == ()
    assert got.psets == ((Fraction(1), Fraction(0), 1),)


def test_fit_arithmetic_progression():
    got = fit_return_model(range(3, 100, 2), 2, 99)
    assert got.aps == ((2, 3),)
    assert got.psets == ()
    assert got.finite == ()


def test_fit_mixed_ap_and_finite():
    data = sorted(set(range(10, 41, 5)) | {1, 3})
    got = fit_return_model(data, 2, 40)
    assert got.aps == ((5, 10),)
    assert set(got.finite) == {1, 3}


def test_fit_pset_base_three():
    # {(3/2) 3^k - 1/2} = 1, 4, 13, 40 within 40
    got = fit_return_model([1, 4, 13, 40], 3, 40)
    assert got.psets == ((Fraction(3, 2), Fraction(-1, 2), 1),)
    assert got.finite == ()


def test_fit_small_leftovers_stay_finite():
    got = fit_return_model([5, 9], 2, 100)
    assert got.aps == () and got.psets == ()
    assert got.finite == (5, 9)


def test_fit_empty():
    got = fit_return_model([], 2, 50)
    assert got.members() == []


def test_fit_rejects_data_outside_cap():
    with pytest.raises(ValueError):
        fit_return_model([3, 200], 2, 100)


def random_model(rng, p, cap):
    kind = rng.random()
    aps = []
    psets = []
    if kind < 0.45:
        step = rng.randint(1, 10)
        start = rng.randint(0, min(cap - 3 * step, 20))
        aps.append((step, start))
    else:
        r = rng.randint(1, 2)
        den = p ** r - 1
        # integral p-sets: a*p^(rk) + b with a, b denominators dividing p^r-1
        x0 = rng.randint(0, 6)
        x1 = x0 + den * rng.randint(1, 4)
        a = Fraction(x1 - x0, den)
        b = x0 - a
        psets.append((a, b, r))
    return ReturnModel(p, cap, (), tuple(aps), tuple(psets))


def test_fit_round_trip_random_models():
    """Data generated by a one-piece model fits back to the same members."""
    rng = random.Random(20260817)
    for trial in range(100):
        p = rng.choice([2, 3, 5])
        cap = 10 ** 4
        model = random_model(rng, p, cap)
        members = model.members()
        if len(members) < 4:
            continue
        got = fit_return_model(members, p, cap)
        assert got.members() == members, (trial, str(model), str(got))


def test_ap_implies_common_iterate_confirmed():
    f = dyn(K2, {2: 1, 1: 1})
    verdict = ap_implies_common_iterate(f, f, 1, 0, RatFunc.t(GF2),
                                        RatFunc.t(GF2), 6)
    assert verdict == "confirmed"


def test_ap_implies_common_iterate_refuted_by_data():
    f, alpha, g, beta = quadratic_pair()
    verdict = ap_implies_common_iterate(f, g, 1, 0, alpha, beta, 8)
    assert verdict == "refuted-data"


def test_ap_implies_common_iterate_refuted_by_iterate():
    """Orbits that agree pointwise under caps but with different maps:
    x^2 and x^4 starting at 1 collide at every n, yet x^2 != x^4."""
    f = dyn(K2, {2: 1})
    g = dyn(K2, {4: 1})
    one = RatFunc.one(GF2)
    verdict = ap_implies_common_iterate(f, g, 1, 0, one, one, 6)
    assert verdict == "refuted-iterate"


# Lazy walks: each orbit takes exactly the steps its last point needs, on
# walk (counted by DynPoly.evaluate, per map) and on walk_keys (counted by
# the keyed step, per map shape)


def keyed(f):
    """The counter key of the steps of an orbit of f walked by walk_keys."""
    return "keys", dynpoly._key_shape(f)


def _synchronized(counts):
    f, alpha, g, beta = quadratic_pair()
    synchronized_collisions(f, alpha, g, beta, 2, 3, 1, 2, 5)
    return {keyed(f): 1 + 2 * 5, keyed(g): 2 + 3 * 5}


def _synchronized_points(counts):
    """A start with a denominator has no keys, so both orbits are walked
    point by point."""
    f, alpha, g, beta = quadratic_pair()
    synchronized_collisions(f, alpha.inverse(), g, beta, 2, 3, 1, 2, 5)
    return {f: 1 + 2 * 5, g: 2 + 3 * 5}


def _curve_return(counts):
    f, alpha, g, beta = quadratic_pair()
    curve_return_set(f, g, (alpha, beta), PlaneCurve.diagonal(K2), 7)
    return {keyed(f): 7, keyed(g): 7}


def _curve_return_points(counts):
    """A curve of degree 2 is evaluated at the points themselves."""
    f, alpha, g, beta = quadratic_pair()
    one = RatFunc.one(GF2)
    curve = PlaneCurve.make(K2, {(2, 0): one, (0, 1): one})
    curve_return_set(f, g, (alpha, beta), curve, 7)
    return {f: 7, g: 7}


def _ap_confirmed(counts):
    """x + 1 and x agree at every odd step from 0 and 1, and both square
    to the identity."""
    f, g = dyn(K2, {1: 1, 0: 1}), dyn(K2, {1: 1})
    verdict = ap_implies_common_iterate(f, g, 2, 1, 0, 1, 6)
    assert verdict == "confirmed"
    return {f: 1 + 2 * 6, g: 1 + 2 * 6}


def _ap_refuted(counts):
    """The quadratic pair meets at steps 2 and 4 but not 6, so the claimed
    progression {2n + 2} fails first at n = 2."""
    f, alpha, g, beta = quadratic_pair()
    verdict = ap_implies_common_iterate(f, g, 2, 2, alpha, beta, 6)
    assert verdict == "refuted-data"
    return {f: 2 + 2 * 2, g: 2 + 2 * 2}


def _check_2_5(counts):
    assert run_example("2.5", {"nmax": 4}).status == "PASS"
    # x^p and the conjugated twisted map, for (p, r) = (2, 2) and (3, 2)
    assert len(counts) == 4
    return {m: 4 for m in counts}


@pytest.mark.parametrize("case", [_synchronized, _synchronized_points,
                                  _curve_return, _curve_return_points,
                                  _ap_confirmed, _ap_refuted, _check_2_5],
                         ids=lambda case: case.__name__.lstrip("_"))
def test_walks_evaluate_no_point_past_the_cap(monkeypatch, case):
    real_evaluate, real_step = DynPoly.evaluate, dynpoly._key_step
    counts = Counter()

    def evaluate(self, point):
        counts[self] += 1
        return real_evaluate(self, point)

    def key_step(key, shape):
        counts["keys", shape] += 1
        return real_step(key, shape)

    monkeypatch.setattr(DynPoly, "evaluate", evaluate)
    monkeypatch.setattr(dynpoly, "_key_step", key_step)
    want = case(counts)
    assert dict(counts) == want
