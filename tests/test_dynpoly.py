"""
Tests for polynomial self-maps over K and its extensions: composition,
iteration, conjugation, additivity, and the degree budget.
"""
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fforbits.field import FieldSpec
from fforbits.funcfield import ExtRing, RatFunc
from fforbits.dynpoly import (DynPoly, KRing, LinearMap, common_iterate,
                              conjugate, conjugate_to_additive, is_additive,
                              orbit_element, orbit_prefix,
                              solve_affine_conjugacy)
from fforbits.errors import (DegreeBudgetExceeded, NotAdditive, RingMismatch)


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
K2 = KRing(GF2)
K3 = KRing(GF3)


def t_of(spec):
    return RatFunc.t(spec)


def dyn(ring, terms):
    return DynPoly.make(ring, {e: mk_scalar(ring, c) for e, c in terms.items()})


def mk_scalar(ring, c):
    if isinstance(c, RatFunc):
        return c
    return RatFunc.constant(ring.spec, c)


def dynpoly_strategy(ring, max_deg=5):
    spec = ring.spec
    scalars = st.sampled_from([
        RatFunc.zero(spec), RatFunc.one(spec), RatFunc.t(spec),
        RatFunc.t(spec) + RatFunc.one(spec),
    ])
    return st.dictionaries(st.integers(min_value=0, max_value=max_deg),
                           scalars, max_size=4).map(
        lambda d: DynPoly.make(ring, d))


def test_make_drops_zero_coefficients():
    f = DynPoly.make(K2, {3: RatFunc.zero(GF2), 1: RatFunc.one(GF2)})
    assert f == DynPoly.x(K2)
    assert f.degree == 1


def test_degree_of_zero():
    assert DynPoly.zero(K2).degree == -1
    assert DynPoly.constant(K2, RatFunc.one(GF2)).degree == 0


# (t+1)x^5 + x^2 + t*x + 1 over GF(3): composing into it expands powers up
# to h^25, the heaviest powering the strategy below can ask for
T_PLUS_ONE = RatFunc.t(GF3) + RatFunc.one(GF3)
H3 = dyn(K3, {5: T_PLUS_ONE, 2: 1, 1: t_of(GF3), 0: 1})


# Examples drawn from the strategy cost up to about half a second each in
# coefficient arithmetic, so the test sets no deadline; the cost of powering
# is pinned by test_compose_power_uses_frobenius_digits instead.
@given(f=dynpoly_strategy(K3), g=dynpoly_strategy(K3), h=dynpoly_strategy(K3))
@example(f=dyn(K3, {4: 1}), g=dyn(K3, {4: 1}), h=H3)
@example(f=dyn(K3, {5: 1}), g=dyn(K3, {5: T_PLUS_ONE, 3: 1}), h=H3)
@settings(max_examples=40, deadline=None)
def test_composition_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_power_uses_frobenius_digits():
    """4 = 1 + 1*3, so h^4 = h * frob(h) over GF(3): one product of 4 by 4
    terms (16 term products) and degree 4*5 = 20 both fit budget 20.
    Squaring h twice would spend 16 + 9*9 term products and run out."""
    x4 = dyn(K3, {4: 1})
    assert x4.compose(H3, budget=20) == H3 * H3 * H3 * H3


# rings for the power oracle; in GF(9) and in the extension the Frobenius
# also moves the constants
ORACLE_RINGS = {
    "GF(2)": K2, "GF(3)": K3, "GF(5)": KRing(FieldSpec(5)),
    "GF(9)": KRing(FieldSpec(3, 2, modulus=(1, 0, 1))),
    "GF(31)": KRing(FieldSpec(31)),
    "GF(3)(t)[y]/(y^2+y+t)": ExtRing(GF3, [RatFunc.t(GF3), RatFunc.one(GF3),
                                           RatFunc.one(GF3)]),
}


def _oracle_polys(ring):
    """A 3-term and a 4-term map whose coefficients move under Frobenius."""
    if isinstance(ring, ExtRing):
        a, b = ring.y(), ring.y() + ring.from_K(RatFunc.t(ring.spec))
    else:
        spec = ring.spec
        a = RatFunc.t(spec)
        b = RatFunc.constant(spec, spec.gen() if spec.r > 1 else 1)
    one = ring.one()
    return [DynPoly.make(ring, {3: a, 1: b, 0: one}),
            DynPoly.make(ring, {4: one, 2: a, 1: one, 0: b})]


@pytest.mark.parametrize("name", list(ORACLE_RINGS))
def test_power_matches_repeated_multiplication(name):
    """Powers through base-p digits and Frobenius images agree with plain
    repeated multiplication for every exponent up to 30, alone (pow) and
    sharing powers across the terms of one composition."""
    ring = ORACLE_RINGS[name]
    every = DynPoly.make(ring, {n: 1 for n in range(31)})
    for g in _oracle_polys(ring):
        want = DynPoly.constant(ring, 1)
        total = DynPoly.zero(ring)
        for n in range(31):
            # pow charges deg(g)^n up front, so it needs room beyond that
            assert g.pow(n, budget=2 ** 64) == want, (str(g), n)
            total = total + want
            want = want * g
        assert every.compose(g) == total, str(g)


@given(f=dynpoly_strategy(K3))
def test_compose_with_identity(f):
    x = DynPoly.x(K3)
    assert f.compose(x) == f
    assert x.compose(f) == f


def test_iterate_additivity():
    """f^(m+n) = f^m o f^n, pinned on a quadratic with wild growth."""
    f = dyn(K2, {2: 1, 0: t_of(GF2)})
    for m in range(4):
        for n in range(4):
            assert f.iterate(m + n) == f.iterate(m).compose(f.iterate(n))


def test_iterate_zero_is_identity():
    f = dyn(K3, {3: 1, 1: 2})
    assert f.iterate(0) == DynPoly.x(K3)
    assert f.iterate(1) == f


def test_orbit_element_matches_iterate():
    f = dyn(K2, {2: 1, 1: 1})
    t = t_of(GF2)
    for n in range(7):
        assert orbit_element(f, t, n) == f.iterate(n).evaluate(t)


def test_orbit_prefix():
    f = dyn(K2, {2: 1, 1: 1})
    t = t_of(GF2)
    pts = orbit_prefix(f, t, 5)
    assert len(pts) == 6
    assert pts[0] == t
    for i in range(1, 6):
        assert pts[i] == f.evaluate(pts[i - 1])


def test_evaluate_sparse_power_cache():
    """Large sparse polynomial evaluated at a rational point stays exact."""
    f = dyn(K2, {2 ** 20: 1, 1: 1})
    one = RatFunc.one(GF2)
    assert f.evaluate(one) == RatFunc.zero(GF2)
    t = t_of(GF2)
    v = f.evaluate(t)
    assert v == t ** (2 ** 20) + t


def test_pow_budget_enforced():
    # 2^30 - 1 has every base-2 digit set, so the expansion is dense;
    # a pure power of two would ride the Frobenius shortcut for free.
    f = dyn(K2, {1: 1, 0: t_of(GF2)})  # x + t, two terms
    with pytest.raises(DegreeBudgetExceeded):
        f.pow(2 ** 30 - 1, budget=2 ** 10)


def test_pow_frobenius_exponent_is_cheap():
    """p-power exponents split multiplicatively and dodge the budget."""
    f = dyn(K2, {1: 1, 0: t_of(GF2)})
    g = f.pow(2 ** 30, budget=2 ** 10)
    assert g == dyn(K2, {2 ** 30: 1, 0: t_of(GF2) ** (2 ** 30)})


def test_iterate_budget_enforced():
    f = dyn(K2, {2: 1, 1: 1})
    with pytest.raises(DegreeBudgetExceeded):
        f.iterate(40, budget=2 ** 12)


def test_mixed_rings_rejected():
    with pytest.raises(RingMismatch):
        dyn(K2, {1: 1}) + dyn(K3, {1: 1})


# Linear maps and conjugation

def test_linear_map_inverse_composes_to_identity():
    t = t_of(GF3)
    mu = LinearMap.make(K3, RatFunc.constant(GF3, 2), t)
    assert mu.compose(mu.inverse()) == LinearMap.identity(K3)
    assert mu.inverse().compose(mu) == LinearMap.identity(K3)


def test_shift_map_acts_by_addition():
    t = t_of(GF2)
    mu = LinearMap.shift(K2, t)
    one = RatFunc.one(GF2)
    assert mu(one) == one + t


def test_conjugate_definition():
    """conjugate(f, mu) = mu o f o mu^(-1) as polynomials."""
    f = dyn(K3, {2: 1, 0: t_of(GF3)})
    mu = LinearMap.make(K3, RatFunc.constant(GF3, 2), RatFunc.one(GF3))
    g = conjugate(f, mu)
    want = mu.as_dynpoly().compose(f).compose(mu.inverse().as_dynpoly())
    assert g == want


def test_conjugate_commutes_with_iteration():
    """mu o f^n o mu^(-1) = (mu o f o mu^(-1))^n for n <= 5."""
    f = dyn(K2, {2: 1, 1: 1})
    mu = LinearMap.shift(K2, t_of(GF2))
    g = conjugate(f, mu)
    for n in range(6):
        assert g.iterate(n) == conjugate(f.iterate(n), mu)


def test_conjugate_preserves_orbit_structure():
    f = dyn(K2, {2: 1, 0: t_of(GF2) ** 2 + t_of(GF2)})
    mu = LinearMap.shift(K2, t_of(GF2))
    g = conjugate(f, mu)
    start = RatFunc.zero(GF2)
    for n in range(8):
        assert orbit_element(g, mu(start), n) == mu(orbit_element(f, start, n))


# Additive polynomials

def test_is_additive():
    assert is_additive(dyn(K2, {2: 1, 1: 1}))
    assert is_additive(dyn(K3, {9: t_of(GF3), 3: 1, 1: 2}))
    assert not is_additive(dyn(K2, {2: 1, 0: 1}))
    assert not is_additive(dyn(K3, {2: 1}))


@given(f=st.sampled_from([
    "x2+x", "x4+tx2", "x2+tx",
]))
def test_additive_maps_split_sums(f):
    shapes = {
        "x2+x": {2: 1, 1: 1},
        "x4+tx2": {4: RatFunc.t(GF2), 2: 1},
        "x2+tx": {2: 1, 1: RatFunc.t(GF2)},
    }
    poly = dyn(K2, shapes[f])
    t = t_of(GF2)
    one = RatFunc.one(GF2)
    for a in (t, one, t ** 2 + one):
        for b in (t + one, t ** 3):
            assert poly.evaluate(a + b) == poly.evaluate(a) + poly.evaluate(b)


def test_additive_split_in_extension():
    spec = GF2
    one = RatFunc.one(spec)
    t = RatFunc.t(spec)
    ring = ExtRing(spec, [-t, -one, one])   # y^2 = y + t
    f = dyn(K2, {2: 1, 1: 1}).lift_to(ring)
    y = ring.y()
    a, b = y, y + ring.from_K(t)
    assert f.evaluate(a + b) == f.evaluate(a) + f.evaluate(b)


def test_conjugate_to_additive_shift_in_K():
    """x^2 + t^2 + t is the shift of x^2 + x by t."""
    f = dyn(K2, {2: 1, 0: t_of(GF2) ** 2 + t_of(GF2)})
    res = conjugate_to_additive(f)
    assert res is not None
    assert not res.in_extension
    assert is_additive(res.additive)
    assert res.additive == conjugate(f, res.map)
    # the shift by t lands on the Frobenius square itself
    assert res.additive == dyn(K2, {2: 1})
    assert res.map.as_dynpoly() == dyn(K2, {1: 1, 0: t_of(GF2)})


def test_conjugate_to_additive_already_additive():
    f = dyn(K3, {3: 1, 1: 1})
    res = conjugate_to_additive(f)
    assert res is not None
    assert res.map == LinearMap.identity(K3)
    assert res.additive == f


def test_conjugate_to_additive_needs_extension():
    """x^2 + t needs a root of b^2 + b = t, which lives outside K."""
    f = dyn(K2, {2: 1, 0: t_of(GF2)})
    res = conjugate_to_additive(f, height_bound=1, max_candidates=50)
    assert res is not None
    assert res.in_extension
    assert is_additive(res.additive)


def test_conjugate_to_additive_monic_modulus_from_one_constraint():
    """x^3 + t over GF(3) needs a root of -b^3 + b + t, the only
    constraint; its gcd is made monic before it becomes the modulus."""
    f = dyn(K3, {3: 1, 0: t_of(GF3)})
    res = conjugate_to_additive(f, height_bound=1, max_candidates=50)
    assert res is not None
    assert res.in_extension
    assert res.map.ring.modulus[-1].is_one()
    assert is_additive(res.additive)


def test_conjugate_to_additive_impossible():
    """A cubic term on a non-p-power exponent can never be shifted away."""
    f = dyn(K2, {3: 1, 1: 1})
    assert conjugate_to_additive(f) is None


def test_solve_affine_conjugacy_in_K():
    """f = x^2 + x, gamma = t^2 + t: delta = t works since f(t) - t = t^2."""
    f = dyn(K2, {2: 1, 1: 1})
    gamma = t_of(GF2) ** 2
    delta = solve_affine_conjugacy(f, gamma)
    assert f.evaluate(delta) - delta == gamma


def test_solve_affine_conjugacy_extension_witness():
    """gamma = t forces the Artin-Schreier witness y^2 + y = t."""
    f = dyn(K2, {2: 1, 1: 1})
    delta = solve_affine_conjugacy(f, t_of(GF2), height_bound=1,
                                   max_candidates=50)
    assert delta.ring.degree == 2
    lifted = f.lift_to(delta.ring)
    assert lifted.evaluate(delta) - delta == delta.ring.from_K(t_of(GF2))


def test_solve_affine_conjugacy_rejects_non_additive():
    with pytest.raises(NotAdditive):
        solve_affine_conjugacy(dyn(K2, {2: 1, 0: 1}), t_of(GF2))


# Common iterates

def test_common_iterate_found():
    """x^2 and x^4 share an iterate: (x^2)^2 = x^4."""
    f = dyn(K2, {2: 1})
    g = dyn(K2, {4: 1})
    assert common_iterate(f, g, 6, 6) == (2, 1)


def test_common_iterate_same_map():
    f = dyn(K3, {3: 1, 1: 1})
    assert common_iterate(f, f, 6, 6) == (1, 1)


def test_common_iterate_none_for_independent_degrees():
    f = dyn(K2, {2: 1, 1: 1})
    g = dyn(K2, {6: 1, 2: t_of(GF2)})
    assert common_iterate(f, g, 10, 10) is None


def test_common_iterate_none_within_caps():
    """Additive vs. shifted additive never agree as polynomials."""
    f = dyn(K2, {2: 1, 1: 1})
    g = dyn(K2, {2: 1, 0: t_of(GF2) ** 2 + t_of(GF2)})
    assert common_iterate(f, g, 6, 6) is None


def test_common_iterate_rejects_degree_one():
    with pytest.raises(ValueError):
        common_iterate(DynPoly.x(K2), DynPoly.x(K2), 4, 4)
