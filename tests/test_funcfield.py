"""
Tests for K = GF(q)(t): sparse polynomials in t, canonical rational
functions, and the rank-p extension rings K[y]/(M).

The powering code paths get extra attention because they split exponents
in base p instead of plain binary squaring; every fast path is checked
against repeated multiplication.
"""
import importlib.util

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from fforbits.field import (_PACK_SPAN, _PACK_TERMS, FieldElem, FieldSpec,
                            sparse_add, sparse_divmod, sparse_mul, sparse_neg,
                            sparse_xgcd)
from fforbits import funcfield
from fforbits.funcfield import (_GAP_FOR_POWMOD, ExtRing, FFPoly, KRing,
                                RatFunc, weil_height)
from fforbits.dynpoly import DynPoly, k_candidates
from fforbits.errors import DivisionByZero, RingMismatch, ZeroDivisor


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2, modulus=(1, 1, 1))
GF5 = FieldSpec(5)
GF9 = FieldSpec(3, 2, modulus=(1, 0, 1))
GF31 = FieldSpec(31)
GF_BIG = FieldSpec(2 ** 31 - 1)  # product slots wider than 8 bytes
PRIME_FIELDS = (GF2, GF3, GF5, GF31)
FIELDS = PRIME_FIELDS + (GF4, GF9)
ORACLE_FIELDS = (GF2, GF3, GF5, GF9)
HAVE_SYMPY = importlib.util.find_spec("sympy") is not None


def poly(spec, terms):
    return FFPoly.make(spec, terms)


def rat(spec, num_terms, den_terms=None):
    num = poly(spec, num_terms)
    den = poly(spec, den_terms) if den_terms else FFPoly.one(spec)
    return RatFunc.make(num, den)


# Hypothesis strategies: small random polynomials and rational functions.

def ffpoly_strategy(spec, max_deg=6, max_exp=None):
    """Dense up to degree max_deg, or, with max_exp, at most max_deg + 1
    terms with exponents up to max_exp.  Coefficients of GF(p^r) fields
    are drawn as FieldElems, of prime fields as ints."""
    if spec.r == 1:
        coeff = st.integers(min_value=0, max_value=spec.p - 1)
    else:
        coeff = st.sampled_from(list(spec.all_elements()))
    if max_exp is not None:
        return st.dictionaries(st.integers(0, max_exp), coeff,
                               max_size=max_deg + 1).map(
            lambda d: poly(spec, d))
    return st.lists(coeff, min_size=0, max_size=max_deg + 1).map(
        lambda cs: poly(spec, {e: c for e, c in enumerate(cs)}))


def ffpoly_tuples(fields, n, max_deg=6, max_exp=None):
    """n polynomials over one field drawn from fields."""
    return st.sampled_from(fields).flatmap(lambda spec: st.tuples(
        *[ffpoly_strategy(spec, max_deg, max_exp) for _ in range(n)]))


@st.composite
def packable_terms(draw, p, max_terms=3 * _PACK_TERMS, lows=(0, 1, 5, 40)):
    """A canonical dict of n terms over GF(p) spanning span + 1
    exponents from lo up, with n on both sides of _PACK_TERMS and span on
    both sides of _PACK_SPAN * n, so that sparse_mul packs some products
    and multiplies others term by term."""
    n = draw(st.integers(_PACK_TERMS - 2, max_terms))
    span = draw(st.integers(n - 1, (_PACK_SPAN + 1) * n))
    lo = draw(st.sampled_from(lows))
    inner = draw(st.permutations(range(1, span)))[:n - 2]
    # half the values near p - 1, so that product slots fill their top byte
    coeff = st.integers(1, p - 1)
    coeffs = draw(st.lists(coeff | coeff.map(lambda c: p - c), min_size=n,
                           max_size=n))
    return dict(zip([lo, lo + span] + [lo + e for e in inner], coeffs))


def ratfunc_strategy(spec, max_deg=4):
    pair = st.tuples(ffpoly_strategy(spec, max_deg), ffpoly_strategy(spec, max_deg))
    return pair.filter(lambda ab: bool(ab[1])).map(lambda ab: RatFunc.make(ab[0], ab[1]))


# FFPoly

def assert_canonical(a):
    """terms hold ints in [1, p) over GF(p) and nonzero FieldElems of the
    same field over GF(p^r); a FieldElem stored over GF(p) would break ==
    and hashing against the same polynomial built from ints."""
    spec = a.spec
    for c in a.terms.values():
        if spec.r == 1:
            assert type(c) is int and 0 < c < spec.p, (a, c)
        else:
            assert isinstance(c, FieldElem) and c.spec == spec and c, (a, c)


def polys_in(value):
    """Every FFPoly inside a RatFunc, ExtElem, DynPoly or TwistedPoly."""
    if isinstance(value, FFPoly):
        yield value
    elif isinstance(value, RatFunc):
        yield value.num
        yield value.den
    elif isinstance(value, DynPoly):
        for c in value.terms.values():
            yield from polys_in(c)
    else:
        for c in value.coeffs:
            yield from polys_in(c)


def test_constructors_store_canonical_coefficients():
    for spec in FIELDS:
        p = spec.p
        for a in (poly(spec, {0: 1, 3: p + 2, 7: spec.elem(p - 1)}),
                  FFPoly.constant(spec, spec.elem(p - 1)),
                  FFPoly.constant(spec, -1),
                  FFPoly.monomial(spec, 5, spec.one()),
                  FFPoly.monomial(spec, 2 ** 70),
                  FFPoly.one(spec), FFPoly.t(spec)):
            assert a
            assert_canonical(a)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_make_from_field_elems_equals_make_from_ints(spec):
    ints = {0: 1, 2: spec.p - 1, 9: spec.p + 1, 2 ** 65: 1}
    elems = {e: spec.elem(c) for e, c in ints.items()}
    a, b = poly(spec, ints), poly(spec, elems)
    assert a == b
    assert hash(a) == hash(b)
    assert a.terms == b.terms
    assert a.leading_coeff() == spec.one()
    assert isinstance(a.leading_coeff(), FieldElem)


def test_parsed_scenario_values_are_canonical():
    from fforbits.parser import parse_scenario
    for field in ("GF(3)", "GF(9; mod=w^2+1)"):
        sc = parse_scenario(f"""
field = {field}
f = x^3 + (2*t + 1)/(t^2 + 2)*x + 2
g = x^3 + t^4*x^2 + 1
alpha = t/(t + 1)
beta = (t^9 + 2)^3
task = intersect
""")
        for value in (sc.f, sc.g, sc.alpha, sc.beta):
            for a in polys_in(value):
                assert_canonical(a)
        assert sc.alpha == RatFunc.make(poly(sc.spec, {1: 1}),
                                        poly(sc.spec, {1: 1, 0: 1}))


@pytest.mark.parametrize("spec", (GF3, GF4), ids=str)
def test_k_candidates_are_canonical(spec):
    values = list(k_candidates(spec, 2))
    for v in values:
        for a in polys_in(v):
            assert_canonical(a)
    assert len(set(values)) == len(values)


def test_k_candidates_order():
    # recorded from the hand-written enumeration this generator replaced
    assert [str(v) for v in k_candidates(GF2, 1)] == [
        "0", "1", "t", "t + 1", "1/t", "(t + 1)/t", "1/(t + 1)", "t/(t + 1)"]
    assert len(list(k_candidates(GF3, 2))) == 243
    assert len(list(k_candidates(GF4, 2))) == 1024
    assert list(k_candidates(GF3, 2, 50)) == list(k_candidates(GF3, 2))[:50]
    assert list(k_candidates(GF2, 1, 0)) == []


def test_ffpoly_zero_coeffs_dropped():
    a = poly(GF3, {0: 1, 2: 0, 5: 3})
    assert set(a.terms) == {0}
    assert a == FFPoly.one(GF3)
    assert poly(GF2, {}) == FFPoly.zero(GF2)


def test_ffpoly_degree():
    assert poly(GF2, {7: 1, 2: 1}).degree == 7
    assert FFPoly.zero(GF2).degree == -1
    assert FFPoly.one(GF2).degree == 0


@given(abc=ffpoly_tuples(FIELDS, 3))
def test_ffpoly_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == FFPoly.zero(a.spec)
    for v in (a + b, a - b, a * b, -a, a.frobenius()):
        assert_canonical(v)


@given(ab=ffpoly_tuples(FIELDS, 2))
def test_ffpoly_divmod(ab):
    a, b = ab
    if not b:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert_canonical(q)
    assert_canonical(r)


@given(ab=ffpoly_tuples(FIELDS, 2))
def test_ffpoly_gcd_divides_both(ab):
    a, b = ab
    g = a.gcd(b)
    if not g:
        assert not a and not b
        return
    assert_canonical(g)
    assert g.is_monic()
    assert a.divmod(g)[1] == FFPoly.zero(a.spec)
    assert b.divmod(g)[1] == FFPoly.zero(a.spec)


def to_sympy(a):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    terms = {(e,): c for e, c in a.terms.items()} or {(0,): 0}
    return sympy.Poly.from_dict(terms, t, modulus=a.spec.p)


def from_sympy(spec, f):
    return poly(spec, {e: int(c) for (e,), c in f.terms()})


def sympy_gcd(spec, f, g):
    """The monic gcd by sympy's Euclid on dense GF(p) lists, which on the
    dense operands below is far faster than Poly.gcd's subresultants."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    p = spec.p

    def dense(h):
        return gt.gf_strip([int(c) % p for c in h.all_coeffs()])
    return poly(spec, dict(enumerate(reversed(
        gt.gf_gcd(dense(f), dense(g), p, ZZ)))))


def sparse_triple(spec):
    return st.tuples(ffpoly_strategy(spec, max_exp=300),
                     ffpoly_strategy(spec, max_exp=40), ffpoly_strategy(spec))


def packable_triple(spec):
    """a of up to 6 * _PACK_TERMS terms, so that a * b also has very
    unequal lengths, b on both sides of the thresholds, c small."""
    def dense(max_terms):
        return packable_terms(spec.p, max_terms).map(lambda d: poly(spec, d))
    return st.tuples(dense(6 * _PACK_TERMS), dense(2 * _PACK_TERMS),
                     ffpoly_strategy(spec))


@given(abc=st.sampled_from(PRIME_FIELDS + (GF_BIG,)).flatmap(
           lambda spec: st.one_of(sparse_triple(spec), packable_triple(spec))),
       n=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_ffpoly_matches_sympy(abc, n):
    """+, -, *, squaring, divmod, % (on both sides of the pow-mod gap), gcd
    and ** over GF(p) against sympy's Poly(..., modulus=p), for sparse
    operands and for dense ones that sparse_mul packs into one int."""
    a, b, c = abc
    spec = a.spec
    sa, sb, sc = to_sympy(a), to_sympy(b), to_sympy(c)
    assert a + b == from_sympy(spec, sa + sb)
    assert a - b == from_sympy(spec, sa - sb)
    assert a * b == from_sympy(spec, sa * sb)
    assert b * a == from_sympy(spec, sa * sb)
    assert b * b == from_sympy(spec, sb * sb)
    assert_canonical(a * b)
    assert_canonical(b * b)
    assert b ** n == from_sympy(spec, sb ** n)
    assert a.gcd(b) == sympy_gcd(spec, sa, sb)
    assert (a * c).gcd(b * c) == sympy_gcd(spec, sa * sc, sb * sc)
    if b:
        sq, sr = sa.div(sb)
        assert a.divmod(b) == (from_sympy(spec, sq), from_sympy(spec, sr))
        assert a % b == from_sympy(spec, sr)


@given(ab=ffpoly_tuples(FIELDS, 2, max_exp=200),
       k=st.integers(min_value=0, max_value=2 ** 70))
@settings(max_examples=60, deadline=None)
def test_ffpoly_one_term_operand(ab, k):
    """A one-term operand shifts and scales the other, on either side of
    the product; the oracle multiplies each term in FieldElem arithmetic,
    and for prime fields also in sympy."""
    a, b = ab
    spec = a.spec
    if not b:
        return
    lead = b.leading_coeff()
    m = FFPoly.monomial(spec, k, lead)
    want = poly(spec, {e + k: lead * spec.elem(c) for e, c in a.terms.items()})
    assert a * m == want
    assert m * a == want
    assert_canonical(a * m)
    if spec.r == 1 and k < 400:
        assert a * m == from_sympy(spec, to_sympy(a) * to_sympy(m))


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


def gapped_dividend(spec, coeffs, degree, others):
    """The polynomial with the given nonzero coefficients on exponent
    degree and on the exponents others, in that order."""
    return poly(spec, dict(zip([degree] + list(others), coeffs)))


@st.composite
def remainder_operands(draw):
    """(a, b) with a of n terms overhanging b by a gap over
    _GAP_FOR_POWMOD: at most _PACK_SPAN * n (dense, long division) or
    just past it (sparse, term-by-term pow-mod of t)."""
    spec = draw(st.sampled_from(ORACLE_FIELDS))
    n = draw(st.integers(_GAP_FOR_POWMOD // _PACK_SPAN + 1, 48))
    if draw(st.booleans()):
        gap = draw(st.integers(_GAP_FOR_POWMOD + 1, _PACK_SPAN * n))
    else:
        gap = _PACK_SPAN * n + draw(st.integers(1, 3))
    b = draw(ffpoly_strategy(spec, max_deg=8).filter(lambda f: f.degree > 0))
    top = b.degree + gap
    others = draw(st.permutations(range(top)))[:n - 1]
    if spec.r == 1:
        coeff = st.integers(1, spec.p - 1)
    else:
        coeff = st.sampled_from([c for c in spec.all_elements() if c])
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
    return gapped_dividend(spec, coeffs, top, others), b


@given(ab=remainder_operands())
@settings(max_examples=60, deadline=None)
def test_ffpoly_mod_on_both_sides_of_the_density_rule(ab):
    """% equals the long-division remainder, and sympy's over GF(p), for
    dense dividends that take long division across a gap over 64 and
    sparse ones just past the rule that take pow-mod of t."""
    a, b = ab
    spec = a.spec
    got = a % b
    assert got == a.divmod(b)[1]
    assert got.degree < b.degree
    assert_canonical(got)
    if HAVE_SYMPY and spec.r == 1:
        assert got == from_sympy(spec, to_sympy(a).rem(to_sympy(b)))


@pytest.mark.parametrize("spec", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("extra, powmod", ((0, False), (1, True)))
def test_ffpoly_mod_switches_at_the_density_rule(spec, extra, powmod,
                                                 monkeypatch):
    """A dividend of n terms overhanging the divisor by exactly
    _PACK_SPAN * n > _GAP_FOR_POWMOD is divided; one exponent more and
    it is reduced term by term."""
    n = 40
    calls = []
    real = funcfield._t_power_mod

    def counted(*args):
        calls.append(args[1])
        return real(*args)
    monkeypatch.setattr(funcfield, "_t_power_mod", counted)
    b = poly(spec, {3: 1, 1: 1, 0: 1})
    gap = _PACK_SPAN * n + extra
    assert gap > _GAP_FOR_POWMOD
    a = gapped_dividend(spec, [1] * n, 3 + gap, range(0, 2 * (n - 1), 2))
    assert len(a.terms) == n and a.degree == 3 + gap
    got = a % b
    assert bool(calls) == powmod
    assert got == a.divmod(b)[1]


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


@given(a=st.sampled_from(ORACLE_FIELDS).flatmap(lambda spec: st.one_of(
           ffpoly_strategy(spec, 3).map(RatFunc.from_poly),
           ratfunc_strategy(spec, 2))),
       n=st.integers(min_value=-4, max_value=9))
@settings(max_examples=80, deadline=None)
def test_ratfunc_pow_matches_repeated_mul(a, n):
    """a ** n is the n-fold product, for a denominator of 1 (which the
    power leaves as it is) and for any other."""
    assume(a or n >= 0)
    base = a if n >= 0 else a.inverse()
    acc = RatFunc.one(a.spec)
    for _ in range(abs(n)):
        acc = acc * base
    assert a ** n == acc
    assert_reduced(a ** n)


def assert_reduced(x):
    """The canonical form: a monic denominator coprime to the numerator."""
    assert x.den.is_monic(), x
    assert x.num.gcd(x.den).is_one(), x


@st.composite
def ratfunc_pairs(draw):
    """Two reduced fractions over one field.  In most modes both
    denominators carry a forced common factor h, so Henrici's gcd(b, d)
    is not 1; in "cancel" x + y = c/d0 is built with the oracle so that
    the sum also cancels h from the numerator (gcd(t, g) is not 1).
    Sums to zero and operands 0, 1 and polynomials are drawn too."""
    spec = draw(st.sampled_from(ORACLE_FIELDS))
    polys = ffpoly_strategy(spec, max_deg=3)
    nonzero = polys.filter(bool)
    h = draw(polys.filter(lambda f: f.degree > 0))
    a, c = draw(polys), draw(polys)
    b0, d0 = draw(nonzero), draw(nonzero)
    x = RatFunc.make(a, b0 * h)
    mode = draw(st.sampled_from(
        ("shared", "cancel", "negate", "unrelated", "zero", "one", "poly",
         "polys")))
    if mode == "shared":
        y = RatFunc.make(c, d0 * h)
    elif mode == "cancel":
        y = RatFunc.make(c * x.den - x.num * d0, d0 * x.den)
    elif mode == "negate":
        y = -x
    elif mode == "unrelated":
        y = RatFunc.make(c, d0)
    elif mode == "zero":
        y = RatFunc.zero(spec)
    elif mode == "one":
        y = RatFunc.one(spec)
    elif mode == "poly":
        y = RatFunc.from_poly(c)
    else:
        x, y = RatFunc.from_poly(a), RatFunc.from_poly(c)
    if draw(st.booleans()):
        x, y = y, x
    return x, y


@given(xy=ratfunc_pairs())
@settings(max_examples=300, deadline=None)
def test_ratfunc_arithmetic_matches_make(xy):
    """Henrici's add and multiply and the gcd-free inverse give what
    RatFunc.make gives for the unreduced pairs, in canonical form."""
    x, y = xy
    a, b, c, d = x.num, x.den, y.num, y.den
    assert_reduced(x)
    assert_reduced(y)
    total = x + y
    assert total == RatFunc.make(a * d + c * b, b * d)
    assert_reduced(total)
    product = x * y
    assert product == RatFunc.make(a * c, b * d)
    assert_reduced(product)
    if x:
        inv = x.inverse()
        assert inv == RatFunc.make(b, a)
        assert_reduced(inv)
    else:
        with pytest.raises(DivisionByZero):
            x.inverse()


def test_weil_height_accepts_polys():
    assert weil_height(FFPoly.t(GF3) ** 4) == 4


def test_ratfunc_str_parses_back():
    from fforbits.parser import parse_scalar, ParseContext
    ctx = ParseContext(GF3)
    t = RatFunc.t(GF3)
    one = RatFunc.one(GF3)
    for v in (t, one / t, (t + one) / (t * t), RatFunc.constant(GF3, 2), t ** 9 + t):
        assert parse_scalar(str(v), ctx) == v


# The sparse kernels on exponent -> coefficient dicts, with both kinds of
# coefficient: ints mod p (p > 0) and RatFuncs over GF(3) (p = 0), the
# second variable of K[y] behind the extension rings.

def sparse_strategy(coeff, max_terms=6, max_exp=9):
    return st.dictionaries(st.integers(0, max_exp), coeff, max_size=max_terms)


def kernel_operands(n):
    """(p, one, dicts): n sparse polynomials over one coefficient kind."""
    ints = st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(
        st.just(p), st.just(1),
        st.tuples(*[sparse_strategy(st.integers(1, p - 1))
                    for _ in range(n)])))
    nonzero = ratfunc_strategy(GF3, max_deg=2).filter(bool)
    rats = st.tuples(st.just(0), st.just(RatFunc.one(GF3)), st.tuples(
        *[sparse_strategy(nonzero, max_terms=4, max_exp=5)
          for _ in range(n)]))
    return st.one_of(ints, rats)


def sparse_sub(a, b, p):
    return sparse_add(a, sparse_neg(b, p), p)


HUGE = (0, 3, 2 ** 65)  # lowest exponents, one past a machine word


def double_loop(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


@given(st.sampled_from((2, 3, 5, 31, 2 ** 31 - 1)).flatmap(
    lambda p: st.tuples(st.just(p), packable_terms(p, 8 * _PACK_TERMS, HUGE),
                        packable_terms(p, lows=HUGE))))
@settings(max_examples=60, deadline=None)
def test_sparse_mul_matches_double_loop(operands):
    """Packed and term-by-term products, distinct operands and a square of
    one dict, against the schoolbook sum written out here."""
    p, a, b = operands
    assert sparse_mul(a, b, p) == double_loop(a, b, p)
    assert sparse_mul(b, a, p) == double_loop(a, b, p)
    assert sparse_mul(b, b, p) == double_loop(b, b, p)


@pytest.mark.parametrize("p", (2, 3, 5, 31, 2 ** 31 - 1))
# both sides of _PACK_TERMS, then packed sizes up to a long operand
@pytest.mark.parametrize("n", (_PACK_TERMS - 1, _PACK_TERMS, 15, 16, 64))
@pytest.mark.parametrize("stretch", (0, 1))
def test_sparse_mul_at_the_packing_thresholds(p, n, stretch):
    """Operands of n terms with every coefficient p - 1, spanning exactly
    _PACK_SPAN * n exponents or one more, lowest exponent above 0, next to
    a full run of 4n terms: against that run the fullest slot of a packed
    product holds (p-1)^2 * min(len a, len b), the bound its width is
    chosen for."""
    span = _PACK_SPAN * n + stretch
    a = {7 + e * span // (n - 1): p - 1 for e in range(n)}
    assert len(a) == n and max(a) - min(a) == span
    long = {3 + e: p - 1 for e in range(4 * n)}
    for x, y in ((a, a), (a, dict(a)), (a, long), (long, long)):
        assert sparse_mul(x, y, p) == double_loop(x, y, p)


@given(kernel_operands(2))
@settings(max_examples=60, deadline=None)
def test_sparse_divmod_identity(operands):
    p, _, (a, b) = operands
    if not b:
        with pytest.raises(DivisionByZero):
            sparse_divmod(a, b, p)
        return
    q, r = sparse_divmod(a, b, p)
    assert sparse_add(sparse_mul(q, b, p), r, p) == a
    assert not r or max(r) < max(b)
    assert all(q.values()) and all(r.values())


def check_xgcd(a, b, one, p):
    """u*a = g mod b, and g divides a and b; returns g."""
    g, u = sparse_xgcd(a, b, one, p)
    assert g
    assert sparse_divmod(sparse_sub(sparse_mul(u, a, p), g, p), b, p)[1] == {}
    assert sparse_divmod(a, g, p)[1] == {}
    assert sparse_divmod(b, g, p)[1] == {}
    return g


@given(kernel_operands(3))
@settings(max_examples=60, deadline=None)
def test_sparse_xgcd_identity(operands):
    """Also with a common factor c multiplied in, which g then carries."""
    p, one, (a, b, c) = operands
    if b:
        check_xgcd(a, b, one, p)
    if b and c:
        g = check_xgcd(sparse_mul(a, c, p), sparse_mul(b, c, p), one, p)
        assert max(g) >= max(c)


@given(coeffs=st.lists(st.tuples(
           st.one_of(st.just(RatFunc.one(GF3)), ratfunc_strategy(GF3, max_deg=2)),
           st.booleans()), max_size=5),
       x=ratfunc_strategy(GF3, max_deg=2), ext=st.booleans())
@example(coeffs=[], x=RatFunc.t(GF3), ext=True)
@example(coeffs=[(RatFunc.one(GF3), False)], x=RatFunc.t(GF3), ext=False)
@example(coeffs=[(RatFunc.one(GF3), True)], x=RatFunc.t(GF3), ext=True)
@settings(max_examples=40, deadline=None)
def test_dynpoly_evaluate_matches_horner(coeffs, x, ext):
    """Coefficients equal to 1, constant and zero maps included.  With ext,
    over K[y]/(y^2 + y + t) at x + y, and a coefficient drawn with True
    gets y added."""
    ring = KRing(GF3)
    values = [c for c, _ in coeffs]
    if ext:
        ring = ExtRing(GF3, (RatFunc.t(GF3), RatFunc.one(GF3), RatFunc.one(GF3)))
        y = ring.y()
        x = ring.from_K(x) + y
        values = [ring.from_K(c) + y if shift else ring.from_K(c)
                  for c, shift in coeffs]
    want = ring.zero()
    for c in reversed(values):
        want = want * x + c
    f = DynPoly.make(ring, dict(enumerate(values)))
    assert f.evaluate(x) == want


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
        basis = ring.frobenius_basis()
        assert len(basis) == ring.degree
        for i, b in enumerate(basis):
            assert ring.from_terms(b) == brute_pow(y, spec.p * i), i
        assert y ** spec.p == y + t


def test_ext_degree_one_modulus():
    """K[y]/(y + m_0) is K with y = -m_0: y() reduces, and Frobenius is
    Frobenius of K."""
    for spec in (GF2, GF3, GF9):
        m0 = rat(spec, {1: spec.unit, 0: spec.unit}, {2: spec.unit})
        ring = ExtRing(spec, (m0, RatFunc.one(spec)))
        assert ring.y() == ring.from_K(-m0)
        assert ring.frobenius_basis() == ({0: RatFunc.one(spec)},)
        v = ring.from_K(m0 + RatFunc.t(spec))
        assert v.frobenius(2) == ring.from_K((m0 + RatFunc.t(spec)) ** spec.p ** 2)
        assert ring.y() ** spec.p == ring.from_K((-m0) ** spec.p)


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


def test_dynpoly_one_term_product_over_zero_divisors():
    """In K[y]/(y^2 - t^2), (y - t)(y + t) = 0: a one-term factor can kill
    a term of the other, and the zero must not be stored."""
    spec = GF3
    t = RatFunc.t(spec)
    ring = ExtRing(spec, [-(t * t), RatFunc.zero(spec), RatFunc.one(spec)])
    y, tt = ring.y(), ring.from_K(t)
    m = DynPoly(ring, {3: y + tt})
    f = DynPoly(ring, {0: ring.one(), 1: y - tt, 2: y - tt})
    for prod in (m * f, f * m):
        assert set(prod.terms) == {3}
        assert all(prod.terms.values())
        assert prod == DynPoly(ring, {3: y + tt})
    assert (DynPoly(ring, {1: y - tt}) * m).terms == {}


def brute_pow(v, n):
    """Reference powering by repeated multiplication, no shortcuts."""
    acc = v.ring.one()
    for _ in range(n):
        acc = acc * v
    return acc


@st.composite
def ext_elements(draw):
    """An element of K[y]/(M) over GF(2/3/5/9) for M Artin-Schreier,
    y^2 + y + t, the reducible y^2 - t^2, or a random monic modulus of
    degree 1-3 whose coefficients have denominators."""
    spec = draw(st.sampled_from(ORACLE_FIELDS))
    one, t, zero = RatFunc.one(spec), RatFunc.t(spec), RatFunc.zero(spec)
    fixed = (artin_schreier(spec).modulus, (t, one, one),
             (-(t * t), zero, one))
    drawn = st.integers(1, 3).flatmap(lambda d: st.lists(
        ratfunc_strategy(spec, max_deg=1), min_size=d, max_size=d))
    modulus = draw(st.one_of(st.sampled_from(fixed),
                             drawn.map(lambda low: tuple(low) + (one,))))
    ring = ExtRing(spec, modulus)
    return ring.elem(draw(st.lists(ratfunc_strategy(spec, max_deg=1),
                                   min_size=ring.degree,
                                   max_size=ring.degree)))


@given(ext_elements())
@settings(max_examples=60, deadline=None)
def test_ext_frobenius_matches_brute_force(v):
    """v.frobenius(k) = v^(p^k), powered as k rounds of p-fold repeated
    multiplication (one run of p^3 products over GF(5) takes seconds)."""
    want = v
    for k in range(1, 4):
        want = brute_pow(want, v.spec.p)
        assert v.frobenius(k) == want, k


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


def test_ext_mismatched_rings_rejected():
    r2, r3 = artin_schreier(GF2), artin_schreier(GF3)
    with pytest.raises(RingMismatch):
        r2.y() + r3.y()
