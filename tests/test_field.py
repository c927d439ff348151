"""
Tests for the constant-field layer: prime fields, extension fields given by
an explicit modulus, Frobenius, and binomial coefficients mod p.
"""
import copy
import hashlib
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fforbits import field
from fforbits.field import (FieldSpec, binom_mod, sparse_add, sparse_divmod,
                            sparse_lincomb, sparse_mul, sparse_neg,
                            sparse_terms)
from fforbits.errors import DivisionByZero, ParseError, ReducibleModulus, RingMismatch


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
# x^2 + x + 1 over GF(2), the unique irreducible quadratic
GF4 = FieldSpec(2, 2, modulus=(1, 1, 1))
# x^2 + 1 over GF(3)
GF9 = FieldSpec(3, 2, modulus=(1, 0, 1))
# x^3 + x + 1 over GF(2) and x^2 + x + 2 over GF(5)
GF8 = FieldSpec(2, 3, modulus=(1, 1, 0, 1))
GF25 = FieldSpec(5, 2, modulus=(2, 1, 1))
# x^3 + 2x + 1 over GF(3)
GF27 = FieldSpec(3, 3, modulus=(1, 2, 0, 1))
# x^2 + 2x + 4 over GF(5): w has order 12, not 24, so w is no primitive element
GF25_W12 = FieldSpec(5, 2, modulus=(4, 2, 1))


def test_parse_prime_field():
    assert FieldSpec.parse("GF(2)") == GF2
    assert FieldSpec.parse("GF(5)") == GF5
    assert FieldSpec.parse(" GF( 3 ) ") == GF3


def test_parse_extension_field():
    assert FieldSpec.parse("GF(2^2; mod=w^2+w+1)") == GF4
    assert FieldSpec.parse("GF(4; mod=w^2+w+1)") == GF4
    assert FieldSpec.parse("GF(9; mod=w^2+1)") == GF9


def test_parse_rejects_garbage():
    for bad in ("GF(6)", "GF(4)", "GF(2", "FF(2)", "", "GF(0)", "GF(-3)",
                "GF(9; mod=w^-1+w^2)", "GF(9; mod=w^2+x+1)",
                "GF(9; mod=w^2+2*3*w+1)", "GF(9; mod=w^2+w^+2)",
                "GF(9; mod=w^^2+1)"):
        with pytest.raises(ParseError):
            FieldSpec.parse(bad)


def _prime_power(q):
    """(p, r) with p^r == q by trial division, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    return (p, r) if q == 1 else None


def test_parse_order_as_a_prime_power():
    """GF(q) is GF(p^r) for every prime power q < 2^12, and no other q
    below it parses."""
    for q in range(2, 2 ** 12):
        pr = _prime_power(q)
        if pr is None:
            with pytest.raises(ParseError):
                FieldSpec.parse(f"GF({q}; mod=w^2)")
            continue
        p, r = pr
        mod = "" if r == 1 else f"; mod=w^{r}"
        assert FieldSpec.parse(f"GF({q}{mod})") == \
            FieldSpec.parse(f"GF({p}^{r}{mod})"), q


def test_reducible_modulus_detected_on_inversion():
    # w^2 + 1 = (w+1)^2 over GF(2): accepted at parse time, the defect
    # surfaces the first time an inverse walks through the bad factor.
    fake = FieldSpec.parse("GF(4; mod=w^2+1)")
    with pytest.raises(ReducibleModulus):
        fake.elem((1, 1)).inverse()


def test_format_round_trips():
    for spec in (GF2, GF3, GF5, GF4, GF9):
        assert FieldSpec.parse(spec.format()) == spec


def test_order():
    assert GF2.order == 2
    assert GF4.order == 4
    assert GF9.order == 9


def test_all_elements_count_and_distinctness():
    for spec in (GF2, GF5, GF4, GF9):
        elems = list(spec.all_elements())
        assert len(elems) == spec.order
        assert len(set(elems)) == spec.order


@pytest.mark.parametrize("spec", [GF3, GF4, GF9])
def test_field_axioms_exhaustive(spec):
    """Small enough to check the full addition and multiplication tables."""
    elems = list(spec.all_elements())
    zero, one = spec.zero(), spec.one()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inverse() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("spec", [GF4, GF8, GF9, GF25, GF27], ids=str)
def test_products_and_inverses_match_sympy(spec):
    """Every product and inverse, and every sum, difference and Frobenius
    image, against sympy's dense GF(p)[w] arithmetic: gf_mul then gf_rem by
    the modulus, gf_gcdex, gf_add, gf_sub and gf_pow_mod."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    p = spec.p
    modulus = [ZZ(c) for c in reversed(spec.modulus)]

    def dense(a):  # highest degree first, as galoistools takes them
        return gt.gf_strip([ZZ(c) for c in reversed(a.coeffs)])

    def elem(f):
        return spec.elem([int(c) for c in reversed(f)])

    elems = list(spec.all_elements())
    for a in elems:
        for b in elems:
            want = gt.gf_rem(gt.gf_mul(dense(a), dense(b), p, ZZ), modulus,
                             p, ZZ)
            assert a * b == elem(want)
            assert a + b == elem(gt.gf_add(dense(a), dense(b), p, ZZ))
            assert a - b == elem(gt.gf_sub(dense(a), dense(b), p, ZZ))
        if a:
            s, _, h = gt.gf_gcdex(dense(a), modulus, p, ZZ)
            assert h == [1]
            assert a.inverse() == elem(s)
        for k in range(spec.r + 1):
            want = gt.gf_pow_mod(dense(a), p ** k, modulus, p, ZZ)
            assert a.frobenius(k) == elem(want)


@pytest.mark.parametrize("spec", [GF4, GF8, GF9, GF25, GF25_W12, GF27],
                         ids=str)
def test_tables_match_polynomial_arithmetic(spec):
    """The log/antilog, Zech and Frobenius tables against products taken in
    GF(p)[w] with sparse_mul and reduced with sparse_divmod, for every pair:
    sums, differences, negatives, products, inverses (the b with a*b = 1,
    found by search), powers by repeated products and the Frobenius k-fold
    for k = 0..r; each result is the interned element."""
    p, r = spec.p, spec.r
    mod = sparse_terms(spec.modulus)
    assert spec._tab is not None

    def mul(a, b):
        rem = sparse_divmod(sparse_mul(sparse_terms(a), sparse_terms(b), p),
                            mod, p)[1]
        return tuple(rem.get(i, 0) for i in range(r))

    elems = list(spec.all_elements())
    one = (1,) + (0,) * (r - 1)
    for a in elems:
        x = a.coeffs
        assert (-a) is spec.elem([-c for c in x])
        for b in elems:
            y = b.coeffs
            assert a * b is spec.elem(mul(x, y))
            assert a + b is spec.elem([c + d for c, d in zip(x, y)])
            assert a - b is spec.elem([c - d for c, d in zip(x, y)])
        if a:
            inv, = [b for b in elems if mul(x, b.coeffs) == one]
            assert a.inverse() is inv
            assert a ** -3 is inv ** 3
        powers = [one]
        while len(powers) < 2 * spec.order:
            powers.append(mul(powers[-1], x))
        for n, want in enumerate(powers):
            assert a ** n is spec.elem(want)
        for k in range(r + 1):
            assert a.frobenius(k) is spec.elem(powers[p ** k])


def test_elements_are_interned():
    text = "GF(9; mod=w^2+1)"
    first, second = FieldSpec.parse(text), FieldSpec.parse(text)
    assert first is not second
    for a in GF9.all_elements():
        v = a.coeffs
        assert first.elem(v) is first.elem(v) is second.elem(v) is a
        assert pickle.loads(pickle.dumps(a)) is a
        assert copy.deepcopy(a) is a
    assert first.one() is GF9.unit is second.unit


@pytest.mark.parametrize("p,modulus", [
    (2, (1, 0, 1)),                                      # (w + 1)^2
    (2, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1)),        # w^12+w^10+w^3+1
], ids=["GF(4; mod=w^2+1)", "GF(2^12; mod=w^12+w^10+w^3+1)"])
def test_reducible_modulus_gets_no_tables(p, modulus, monkeypatch):
    """Ben-Or's test turns a reducible modulus down before any table is
    built, even under a threshold that admits the field, so it keeps the
    polynomial path: inverting a zero divisor (w + 1 divides both moduli)
    raises ReducibleModulus."""
    for order in (field._TABLE_ORDER, 2 ** 12):
        monkeypatch.setattr(field, "_TABLE_ORDER", order)
        monkeypatch.setattr(field, "_TABLES", {})
        spec = FieldSpec(p, len(modulus) - 1, modulus)
        assert spec._tab is None
        with pytest.raises(ReducibleModulus):
            spec.elem((1, 1)).inverse()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF5.zero().inverse()
    with pytest.raises(DivisionByZero):
        GF4.one() / GF4.zero()


def test_mixed_fields_rejected():
    with pytest.raises(RingMismatch):
        GF2.one() + GF3.one()
    with pytest.raises(RingMismatch):
        GF4.gen() * GF9.gen()


@pytest.mark.parametrize("spec", [GF2, GF3, GF5, GF4, GF9])
def test_frobenius_is_additive_and_multiplicative(spec):
    elems = list(spec.all_elements())
    for a in elems:
        for b in elems:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()


@pytest.mark.parametrize("spec", [GF4, GF9])
def test_frobenius_order(spec):
    """x -> x^p has order r on GF(p^r), and agrees with powering."""
    for a in spec.all_elements():
        assert a.frobenius() == a ** spec.p
        assert a.frobenius(spec.r) == a
        assert a.frobenius(1).frobenius(1) == a.frobenius(2)


def test_frobenius_fixes_prime_field():
    for a in GF9.all_elements():
        if a.in_prime_field():
            assert a.frobenius() == a


def test_pow_matches_repeated_multiplication():
    w = GF9.gen()
    acc = GF9.one()
    for n in range(20):
        assert w ** n == acc
        acc = acc * w


def test_pow_huge_exponent_uses_field_order():
    # a^(q-1) = 1 for nonzero a, so exponents reduce mod q-1
    w = GF4.gen()
    assert w ** (3 * 10**18) == w ** (3 * 10**18 % 3)


def test_as_int_round_trip():
    for spec in (GF2, GF3, GF5):
        for a in spec.all_elements():
            assert spec.elem(a.as_int()) == a


def test_gen_satisfies_modulus():
    w = GF4.gen()
    assert w * w + w + GF4.one() == GF4.zero()
    u = GF9.gen()
    assert u * u + GF9.one() == GF9.zero()



@st.composite
def lincomb_pairs(draw, spec):
    """Pairs of canonical dicts over spec (ints over GF(p), FieldElems over
    GF(p^r)), some repeated with the first factor negated so that whole
    coefficients of the sum cancel."""
    p = spec.int_p
    if p:
        coeff = st.integers(1, p - 1)
    else:
        coeff = st.sampled_from([c for c in spec.all_elements() if c])
    terms = st.dictionaries(st.integers(0, 12), coeff, max_size=6)
    pairs = draw(st.lists(st.tuples(terms, terms), max_size=5))
    if pairs:
        pairs += [(sparse_neg(a, p), b) for a, b in
                  draw(st.lists(st.sampled_from(pairs), max_size=3))]
    return draw(st.permutations(pairs))


@pytest.mark.parametrize("spec", [GF2, GF3, GF5, GF9], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_lincomb_is_sum_of_products(spec, data):
    """The one sum equals sparse_add of the products, each product taken
    one term of the first factor at a time (the one-term path of
    sparse_mul, which does not call sparse_lincomb); GF(9) runs the
    kernel with p = 0 on FieldElem values."""
    pairs = data.draw(lincomb_pairs(spec))
    p = spec.int_p
    want = {}
    for a, b in pairs:
        for e, c in a.items():
            want = sparse_add(want, sparse_mul({e: c}, b, p), p)
    assert sparse_lincomb(pairs, p) == want


@st.composite
def dense_operand(draw, p, least, max_terms=60):
    """A canonical dict over GF(p) dense enough for sparse_mul to pack: n
    terms, n >= least >= _PACK_TERMS, on at most _PACK_SPAN * n exponents
    from a lowest exponent above 0."""
    n = draw(st.integers(least, max_terms))
    span = draw(st.integers(n - 1, field._PACK_SPAN * n))
    lo = draw(st.integers(1, 40))
    inner = draw(st.permutations(range(1, span)))[:n - 2]
    # half the values near p - 1, so that product slots fill their top byte
    coeff = st.integers(1, p - 1)
    coeffs = draw(st.lists(coeff | coeff.map(lambda c: p - c),
                           min_size=n, max_size=n))
    return dict(zip([lo, lo + span] + [lo + e for e in inner], coeffs))


# (p, least n, slot width w): w bytes hold (p-1)^2 * n for every n drawn;
# widths 1, 2, 4 and 8 are array itemsizes, 3, 5 and 9 are not
_SLOT_WIDTHS = [(3, 8, 1), (5, 16, 2), (257, 8, 3), (4099, 8, 4),
                (65521, 8, 5), (268435399, 8, 8), (2**31 - 1, 8, 9)]


@pytest.mark.parametrize("p,least,w", _SLOT_WIDTHS,
                         ids=[f"w{w}" for _, _, w in _SLOT_WIDTHS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_mul_matches_schoolbook(p, least, w, data):
    """sparse_mul's packed product, at each slot width, equals the
    schoolbook sparse_lincomb of the one pair and is canonical; squares
    (a is b) and distinct operands, lowest exponents above 0."""
    a = data.draw(dense_operand(p, least))
    b = a if data.draw(st.booleans()) else data.draw(dense_operand(p, least))
    n = min(len(a), len(b))
    assert ((p - 1) ** 2 * n).bit_length() + 7 >> 3 == w
    got = sparse_mul(a, b, p)
    assert got == sparse_lincomb(((a, b),), p)
    assert all(type(c) is int and 0 < c < p for c in got.values())


def test_dense_orbit_point_through_three_byte_slots():
    """The f-orbit of scenarios/intersect-dense.txt at cap 16: its last step
    squares a point of at least 2^14 terms over GF(3), the first product of
    that run whose slots take 3 bytes.  The digest of str() of that point
    was recorded with the int.from_bytes unpacking of every slot."""
    from fforbits.dynpoly import orbit_prefix
    from fforbits.parser import parse_scenario
    root = Path(__file__).resolve().parents[1]
    sc = parse_scenario(
        (root / "scenarios" / "intersect-dense.txt").read_text())
    orbit = orbit_prefix(sc.f, sc.alpha, 16)
    assert 4 * len(orbit[15].num.terms) >= 1 << 16
    assert hashlib.sha256(str(orbit[16]).encode()).hexdigest() == (
        "aeedf7cf95e9f3093f1ee00c7d88a7416dfc90270518e722f9ddf804b202d97d")


@given(m=st.integers(min_value=0, max_value=2000),
       i=st.integers(min_value=0, max_value=2000),
       p=st.sampled_from([2, 3, 5, 7]))
def test_binom_mod_matches_math_comb(m, i, p):
    want = math.comb(m, i) % p if i <= m else 0
    assert binom_mod(m, i, p) == want


@settings(max_examples=30)
@given(m=st.integers(min_value=0, max_value=10**12),
       p=st.sampled_from([2, 3, 5]))
def test_binom_mod_row_symmetry(m, p):
    """C(m, i) = C(m, m-i), checked along a thin sample of each huge row."""
    for i in (0, 1, m // 3, m // 2):
        assert binom_mod(m, i, p) == binom_mod(m, m - i, p)
    assert binom_mod(m, 0, p) == 1
    assert binom_mod(m, m, p) == 1


def test_binom_mod_pascal_recurrence():
    for p in (2, 3, 5):
        for m in range(1, 60):
            for i in range(1, m + 1):
                lhs = binom_mod(m, i, p)
                rhs = (binom_mod(m - 1, i, p) + binom_mod(m - 1, i - 1, p)) % p
                assert lhs == rhs


def test_element_and_field_strings():
    assert [str(x) for x in GF9.all_elements()] == [
        "0", "1", "2", "w", "w + 1", "w + 2", "2*w", "2*w + 1", "2*w + 2"]
    assert [spec.format() for spec in (GF4, GF8, GF9, GF25, GF27)] == [
        "GF(2^2; mod=w^2+w+1)", "GF(2^3; mod=w^3+w+1)", "GF(3^2; mod=w^2+1)",
        "GF(5^2; mod=w^2+w+2)", "GF(3^3; mod=w^3+2*w+1)"]
