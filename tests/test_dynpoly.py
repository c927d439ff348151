"""
Tests for polynomial self-maps over K and its extensions: composition,
iteration, conjugation, additivity, and the degree budget.
"""
import itertools

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fforbits.field import FieldSpec
from fforbits.funcfield import ExtRing, FFPoly, RatFunc
from fforbits.dynpoly import (Budget, DynPoly, KRing, common_iterate,
                              conjugate, is_additive, orbit_element,
                              orbit_prefix, solve_affine_conjugacy)
from fforbits.errors import (DegreeBudgetExceeded, DivisionByZero, NotAdditive,
                             RingMismatch)


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
    assert x4.compose(H3, budget=Budget(20)) == H3 * H3 * H3 * H3


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
    """A 2-term, a 3-term and a 4-term map whose coefficients move under
    Frobenius."""
    if isinstance(ring, ExtRing):
        a, b = ring.y(), ring.y() + ring.from_K(RatFunc.t(ring.spec))
    else:
        spec = ring.spec
        a = RatFunc.t(spec)
        b = RatFunc.constant(spec, spec.gen() if spec.r > 1 else 1)
    one = ring.one()
    return [DynPoly.make(ring, {2: a, 0: b}),
            DynPoly.make(ring, {3: a, 1: b, 0: one}),
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
            assert g.pow(n, budget=Budget(2 ** 64)) == want, (str(g), n)
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
        f.pow(2 ** 30 - 1, budget=Budget(2 ** 10))


def test_binomial_power_is_refused_before_any_product(monkeypatch):
    """(x + t)^e has prod(d + 1) terms over the base-3 digits d of e, by
    Lucas; 3^30 of them are refused before a single product is formed."""
    calls = []
    real = DynPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(DynPoly, "__mul__", counted)
    f = dyn(K3, {1: 1, 0: t_of(GF3)})
    with pytest.raises(DegreeBudgetExceeded):
        f.pow(3 ** 30 - 1, Budget(2 ** 20))
    assert calls == []


def test_pow_frobenius_exponent_is_cheap():
    """p-power exponents split multiplicatively and dodge the budget."""
    f = dyn(K2, {1: 1, 0: t_of(GF2)})
    g = f.pow(2 ** 30, budget=Budget(2 ** 10))
    assert g == dyn(K2, {2 ** 30: 1, 0: t_of(GF2) ** (2 ** 30)})


def test_iterate_budget_enforced():
    f = dyn(K2, {2: 1, 1: 1})
    with pytest.raises(DegreeBudgetExceeded):
        f.iterate(40, budget=Budget(2 ** 12))


def test_mixed_rings_rejected():
    with pytest.raises(RingMismatch):
        dyn(K2, {1: 1}) + dyn(K3, {1: 1})


# Conjugation by a shift

GF4 = FieldSpec.parse("GF(4; mod=w^2+w+1)")


def shift(ring, d):
    """tau_d(x) = x + d."""
    return DynPoly.make(ring, {1: 1, 0: d})


@st.composite
def shift_cases(draw):
    """(f, d, z): f over K of degree at most 4 and a shift d with a point
    z, both in K or both in K[y]/(y^2 + y + t) (f stays over K, so
    conjugate has to lift it)."""
    spec = draw(st.sampled_from([GF2, GF3, GF4]))
    f = DynPoly.make(KRing(spec), {e: draw(k_values(spec, 1))
                                   for e in range(draw(st.integers(0, 4)) + 1)})
    d, z = draw(k_values(spec, 1)), draw(k_values(spec, 1))
    if draw(st.booleans()):
        one = RatFunc.one(spec)
        ext = ExtRing(spec, [t_of(spec), one, one])
        d, z = (ext.elem([c, draw(k_values(spec, 1))]) for c in (d, z))
    return f, d, z


@given(shift_cases())
@example((dyn(K3, {2: 1}), RatFunc.one(GF3), RatFunc.zero(GF3)))
@settings(max_examples=80, deadline=None)
def test_conjugate_moves_every_point_by_the_shift(case):
    """The conjugate of f by tau_d takes z + d to f(z) + d, checked point
    by point against f itself, with no composition on this side.  In
    characteristic 2 the shift and its inverse agree; the pinned case, x^2
    over GF(3) with d = 1 at z = 0, tells them apart: f(x + d) - d takes
    z + d = 1 to f(2) - 1 = 0, not to f(0) + d = 1."""
    f, d, z = case
    assert conjugate(f, d).evaluate(z + d) == f.evaluate(z) + d


def test_conjugate_definition():
    """conjugate(f, d) = tau_d o f o tau_(-d) as polynomials."""
    f = dyn(K3, {2: 1, 0: t_of(GF3)})
    d = t_of(GF3) + RatFunc.one(GF3)
    assert conjugate(f, d) == shift(K3, d).compose(f).compose(shift(K3, -d))
    # (x - t - 1)^2 + t + t + 1
    assert str(conjugate(f, d)) == "x^2 + (t + 1)*x + (t^2 + t + 2)"


def test_conjugate_commutes_with_iteration():
    """tau_d o f^n o tau_(-d) = (tau_d o f o tau_(-d))^n for n <= 5."""
    f = dyn(K2, {2: 1, 1: 1})
    d = t_of(GF2)
    g = conjugate(f, d)
    for n in range(6):
        assert g.iterate(n) == conjugate(f.iterate(n), d)


def test_conjugate_preserves_orbit_structure():
    f = dyn(K2, {2: 1, 0: t_of(GF2) ** 2 + t_of(GF2)})
    d = t_of(GF2)
    g = conjugate(f, d)
    start = RatFunc.zero(GF2)
    for n in range(8):
        assert orbit_element(g, start + d, n) == orbit_element(f, start, n) + d


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


def test_solve_affine_conjugacy_in_K():
    """f = x^2 + x, gamma = t^2 + t: delta = t works since f(t) - t = t^2."""
    f = dyn(K2, {2: 1, 1: 1})
    gamma = t_of(GF2) ** 2
    delta = solve_affine_conjugacy(f, gamma)
    assert f.evaluate(delta) - delta == gamma


def test_solve_affine_conjugacy_extension_witness():
    """f(z) - z = z^2 = t has no root in K, so y^2 = t is adjoined."""
    f = dyn(K2, {2: 1, 1: 1})
    delta = solve_affine_conjugacy(f, t_of(GF2))
    assert delta.ring.degree == 2
    lifted = f.lift_to(delta.ring)
    assert lifted.evaluate(delta) - delta == delta.ring.from_K(t_of(GF2))


def test_solve_affine_conjugacy_of_the_identity():
    """f = x makes f(z) - z zero: gamma = 0 has the root 0, and any other
    gamma has none, so adjoining one divides by zero."""
    f = DynPoly.x(K2)
    assert solve_affine_conjugacy(f, RatFunc.zero(GF2)) == RatFunc.zero(GF2)
    with pytest.raises(DivisionByZero):
        solve_affine_conjugacy(f, t_of(GF2))


def _polys_of_degree(spec, d, elems, nonzero):
    if d == 0:
        for c in nonzero:
            yield FFPoly.constant(spec, c)
        return
    for lead in nonzero:
        for rest in itertools.product(elems, repeat=d):
            terms = dict(enumerate(rest))
            terms[d] = lead
            yield FFPoly.make(spec, terms)


def _monic_polys(spec, d, elems):
    for rest in itertools.product(elems, repeat=d):
        terms = dict(enumerate(rest))
        terms[d] = 1
        yield FFPoly.make(spec, terms)


def _k_elements(spec, height_bound):
    """Elements of K in order of increasing height: 0, the nonzero
    constants, then per height polynomials before proper fractions."""
    elems = list(spec.all_elements())
    nonzero = elems[1:]
    yield RatFunc.zero(spec)
    for h in range(height_bound + 1):
        yield from map(RatFunc.from_poly,
                       _polys_of_degree(spec, h, elems, nonzero))
        for dd in range(1, h + 1):
            for den in _monic_polys(spec, dd, elems):
                for dn in range(h if dd < h else 0, h + 1):
                    for num in _polys_of_degree(spec, dn, elems, nonzero):
                        if num.gcd(den).degree == 0:
                            yield RatFunc(num, den)


def _k_search(f, gamma, height_bound, max_candidates):
    """The first root of f(z) - z = gamma among the first max_candidates
    elements of K of height <= height_bound: the bounded search that
    solve_affine_conjugacy made before it solved exactly, kept as its
    oracle."""
    for beta in itertools.islice(_k_elements(f.spec, height_bound),
                                 max_candidates):
        if f.evaluate(beta) - beta == gamma:
            return beta
    return None


def test_k_search_order():
    # recorded from the enumeration as it stood in the package
    assert [str(v) for v in _k_elements(GF2, 1)] == [
        "0", "1", "t", "t + 1", "1/t", "(t + 1)/t", "1/(t + 1)", "t/(t + 1)"]
    assert len(list(_k_elements(GF3, 2))) == 243


def test_solve_affine_conjugacy_finds_a_root_past_a_short_search():
    """The root 1/(t^2 + 1) has height 2: the first 500 candidates of
    height <= 1 miss it, and the exact solve finds it in K."""
    t = t_of(GF3)
    f = dyn(K3, {3: 1, 1: t})
    root = (t * t + RatFunc.one(GF3)).inverse()
    gamma = f.evaluate(root) - root
    assert _k_search(f, gamma, 1, 500) is None
    delta = solve_affine_conjugacy(f, gamma)
    assert isinstance(delta, RatFunc)
    assert f.evaluate(delta) - delta == gamma


def test_solve_affine_conjugacy_root_with_a_pole_of_a_lower_coefficient():
    """The planted root has a pole at t, where gamma has none and the x^2
    coefficient has one: a denominator bound from num(a_k) and den(gamma)
    alone finds no root here, so den(a_e) of the lower terms is needed."""
    t, one = t_of(GF2), RatFunc.one(GF2)
    f = dyn(K2, {4: (t + one) / (t * t + t + one), 2: (t * t).inverse(),
                 1: t * t})
    root = (t * t + t).inverse()
    gamma = f.evaluate(root) - root
    assert gamma.den.terms.get(0)                    # t does not divide it
    delta = solve_affine_conjugacy(f, gamma)
    assert isinstance(delta, RatFunc)
    assert f.evaluate(delta) - delta == gamma


AFFINE_FIELDS = (GF2, GF3, FieldSpec(5), FieldSpec(2, 2, modulus=(1, 1, 1)))


@st.composite
def k_values(draw, spec, height):
    """An element of K of height at most height."""
    coeffs = st.sampled_from(list(spec.all_elements()))

    def poly():
        d = draw(st.integers(0, height))
        return FFPoly.make(spec, {i: draw(coeffs) for i in range(d + 1)})

    num, den = poly(), poly()
    return RatFunc.make(num, den if den else FFPoly.one(spec))


@st.composite
def affine_problems(draw):
    """(f, gamma, planted): f additive with at most three p-power terms,
    and gamma = f(root) - root for a root of height 0-3 when planted."""
    spec = draw(st.sampled_from(AFFINE_FIELDS))
    ring = KRing(spec)
    exps = draw(st.sets(st.sampled_from([1, spec.p, spec.p ** 2]),
                        min_size=1))
    f = DynPoly.make(ring, {e: draw(k_values(spec, 1)) for e in exps})
    planted = draw(st.booleans())
    if planted:
        root = draw(k_values(spec, draw(st.integers(0, 3))))
        gamma = f.evaluate(root) - root
    else:
        gamma = draw(k_values(spec, 2))
    return f, gamma, planted


@given(affine_problems())
@settings(max_examples=60, deadline=None)
def test_solve_affine_conjugacy_matches_the_k_search(problem):
    """A root in K is returned whenever a root of height <= 2 exists among
    the search's first 400 candidates, or was planted, and every root
    returned in K solves the equation."""
    f, gamma, planted = problem
    try:
        delta = solve_affine_conjugacy(f, gamma)
    except DivisionByZero:
        # f = x with gamma != 0: no root anywhere
        assert f == DynPoly.x(f.ring) and gamma
        return
    in_k = isinstance(delta, RatFunc)
    if in_k:
        assert f.evaluate(delta) - delta == gamma
    if planted or _k_search(f, gamma, 2, 400) is not None:
        assert in_k


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
