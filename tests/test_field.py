"""
Tests for the constant-field layer: prime fields, extension fields given by
an explicit modulus, Frobenius, and binomial coefficients mod p.
"""
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fforbits.field import FieldSpec, binom_mod
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


def test_parse_prime_field():
    assert FieldSpec.parse("GF(2)") == GF2
    assert FieldSpec.parse("GF(5)") == GF5
    assert FieldSpec.parse(" GF( 3 ) ") == GF3


def test_parse_extension_field():
    assert FieldSpec.parse("GF(2^2; mod=w^2+w+1)") == GF4
    assert FieldSpec.parse("GF(4; mod=w^2+w+1)") == GF4
    assert FieldSpec.parse("GF(9; mod=w^2+1)") == GF9


def test_parse_rejects_garbage():
    for bad in ("GF(6)", "GF(4)", "GF(2", "FF(2)", "", "GF(0)", "GF(-3)"):
        with pytest.raises(ParseError):
            FieldSpec.parse(bad)


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


@pytest.mark.parametrize("spec", [GF4, GF8, GF9, GF25], ids=str)
def test_products_and_inverses_match_sympy(spec):
    """Every product and every inverse against sympy's dense GF(p)[w]
    arithmetic: gf_mul then gf_rem by the modulus, and gf_gcdex."""
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
        if a:
            s, _, h = gt.gf_gcdex(dense(a), modulus, p, ZZ)
            assert h == [1]
            assert a.inverse() == elem(s)


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
