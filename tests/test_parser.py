"""
Tests for the expression and scenario parsers.

The two contracts that matter: no input, however mangled, escapes the
structured error types, and printing any parsed value re-parses to an
equal value.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fforbits.field import FieldSpec
from fforbits.funcfield import ExtRing, RatFunc
from fforbits.dynpoly import DEFAULT_DEGREE_BUDGET, DynPoly, KRing
from fforbits.twisted import DEFAULT_TAU_BUDGET, TwistedPoly
from fforbits.parser import (ParseContext, Scenario, parse_curve, parse_expr,
                             parse_map, parse_modulus, parse_scalar,
                             parse_scenario, print_canonical)
from fforbits.errors import (AlgebraError, DegreeBudgetExceeded,
                             MixedVariables, ParseError, UndefinedSymbol,
                             ValidationError)


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2, modulus=(1, 1, 1))

CTX2 = ParseContext(GF2)
CTX3 = ParseContext(GF3)
CTX4 = ParseContext(GF4)


# Value parsing

def test_parse_integer_reduces_mod_p():
    assert parse_scalar("5", CTX3) == RatFunc.constant(GF3, 2)
    assert parse_scalar("4", CTX2) == RatFunc.zero(GF2)


def test_parse_scalar_arithmetic():
    t = RatFunc.t(GF3)
    one = RatFunc.one(GF3)
    assert parse_scalar("t^2 + 2*t + 1", CTX3) == (t + one) * (t + one)
    assert parse_scalar("(t + 1) * (t + 2)", CTX3) == t * t + RatFunc.constant(GF3, 2)
    assert parse_scalar("1 / t", CTX3) == one / t
    assert parse_scalar("-t", CTX3) == -t


def test_parse_scalar_power_tower():
    # '^' is left-to-right on the same atom: t^2^3 = (t^2)^3
    assert parse_scalar("t^2^3", CTX2) == RatFunc.t(GF2) ** 6


def test_parse_generator_symbol():
    w = RatFunc.constant(GF4, GF4.gen())
    assert parse_scalar("w", CTX4) == w
    assert parse_scalar("w^2 + w", CTX4) == w * w + w


def test_generator_undefined_over_prime_field():
    with pytest.raises(UndefinedSymbol):
        parse_scalar("w", CTX2)


def test_parse_map_basic():
    ring = KRing(GF2)
    f = parse_map("x^2 + x", CTX2)
    assert f == DynPoly.make(ring, {2: RatFunc.one(GF2), 1: RatFunc.one(GF2)})


def test_parse_map_with_t_coefficients():
    f = parse_map("x^2 + (t^2 + t)", CTX2)
    assert f.terms[0] == RatFunc.t(GF2) ** 2 + RatFunc.t(GF2)


def test_parse_map_lifts_plain_scalar():
    f = parse_map("t + 1", CTX2)
    assert f.degree == 0


def test_parse_twisted_operator():
    a = parse_expr("T^2 + t*T + 1", CTX3)
    assert isinstance(a, TwistedPoly)
    assert a.tau_degree == 2
    assert a.coeffs[1] == RatFunc.t(GF3)


def test_twisted_times_scalar_twists():
    left = parse_expr("T * t", CTX3)
    right = parse_expr("t * T", CTX3)
    assert left != right
    assert left == parse_expr("t^3 * T", CTX3)


def test_mixing_x_and_T_rejected():
    with pytest.raises(MixedVariables):
        parse_expr("x + T", CTX2)
    with pytest.raises(MixedVariables):
        parse_expr("x * (T + 1)", CTX2)


def test_unknown_symbol_rejected():
    with pytest.raises(UndefinedSymbol):
        parse_expr("x + q", CTX2)


def test_parse_error_position():
    try:
        parse_expr("t + + 1", CTX2)
    except ParseError as exc:
        assert exc.position == 4
    else:
        pytest.fail("expected a ParseError")


def test_parse_error_is_syntax_error():
    with pytest.raises(SyntaxError):
        parse_expr("((t)", CTX2)


def test_division_only_for_scalars():
    with pytest.raises(ParseError):
        parse_expr("x / t", CTX2)


def test_parse_curve():
    curve = parse_curve("x1 + x2", GF2)
    t = RatFunc.t(GF2)
    assert not curve.evaluate(t, t)
    curve2 = parse_curve("x1^2 + t * x2 + 1", GF3)
    one = RatFunc.one(GF3)
    assert curve2.evaluate(one, one) == one + RatFunc.t(GF3) + one


def test_curve_power_equals_repeated_product():
    base = "(x1 + x2 + t)"
    assert parse_curve(base + "^7", GF3) == parse_curve("*".join([base] * 7),
                                                        GF3)
    assert parse_curve(base + "^1", GF3) == parse_curve(base, GF3)
    assert parse_curve(base + "^0 + x1", GF3) == parse_curve("1 + x1", GF3)


def test_curve_power_past_the_budget_raises():
    base = "(x1^3 + x2^3 + x1^2*x2 + x1*x2^2 + x1^2 + x2^2 + x1*x2 + x1 + x2 + t)"
    with pytest.raises(DegreeBudgetExceeded):
        parse_curve(base + "^1000000", GF3)


def test_curve_vars_rejected_outside_curve_mode():
    with pytest.raises(UndefinedSymbol):
        parse_map("x1 + x2", CTX2)


def test_parse_modulus():
    mod = parse_modulus("y^2 + y + t", GF2)
    t = RatFunc.t(GF2)
    one = RatFunc.one(GF2)
    assert mod == (t, one, one)
    ring = ExtRing(GF2, [-t, -one, one])
    assert ExtRing(GF2, list(mod)) == ring


def test_parse_modulus_requires_y():
    with pytest.raises(ParseError):
        parse_modulus("x^2 + 1", GF2)


def test_parse_values_in_extension():
    t = RatFunc.t(GF2)
    one = RatFunc.one(GF2)
    ring = ExtRing(GF2, [-t, -one, one])
    ctx = ParseContext(GF2, ext=ring)
    v = parse_scalar("y^2 + y", ctx)
    assert v == ring.from_K(t)


def round_trip(value, ctx):
    return parse_expr(print_canonical(value), ctx)


def test_round_trip_handpicked():
    t = RatFunc.t(GF3)
    one = RatFunc.one(GF3)
    values = [
        t ** 5 + t,
        one / (t ** 2 + one),
        (t + one) / t,
        RatFunc.zero(GF3),
        RatFunc.constant(GF3, 2),
    ]
    for v in values:
        assert round_trip(v, CTX3) == v
    f = DynPoly.make(KRing(GF3), {9: t, 3: one, 1: t + one, 0: t ** 2})
    assert round_trip(f, CTX3) == f
    a = TwistedPoly.make(KRing(GF3), [t, one, t + one])
    assert round_trip(a, CTX3) == a


@st.composite
def ratfunc_values(draw):
    spec = GF3
    t = RatFunc.t(spec)
    one = RatFunc.one(spec)
    atoms = [t, one, t + one, t ** 2, RatFunc.constant(spec, 2)]
    v = draw(st.sampled_from(atoms))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        op = draw(st.sampled_from(["add", "mul", "div"]))
        u = draw(st.sampled_from(atoms))
        if op == "add":
            v = v + u
        elif op == "mul":
            v = v * u
        elif u:
            v = v / u
    return v


@given(v=ratfunc_values())
@settings(max_examples=200)
def test_round_trip_random_scalars(v):
    assert round_trip(v, CTX3) == v


@given(terms=st.dictionaries(st.integers(min_value=0, max_value=9),
                             st.integers(min_value=0, max_value=2),
                             max_size=5))
@settings(max_examples=150)
def test_round_trip_random_maps(terms):
    ring = KRing(GF3)
    f = DynPoly.make(ring, {e: RatFunc.constant(GF3, c)
                            for e, c in terms.items()})
    # constant maps print as bare scalars, so reparse in map mode
    assert parse_map(print_canonical(f), CTX3) == f


@given(text=st.text(alphabet="txyTw123+-*/^() ;=", max_size=40))
@settings(max_examples=400)
def test_fuzz_only_structured_errors(text):
    """Any outcome is fine except a raw crash."""
    try:
        parse_expr(text, CTX2)
    except AlgebraError:
        pass


@given(text=st.text(max_size=30))
@settings(max_examples=300)
def test_fuzz_arbitrary_unicode(text):
    try:
        parse_expr(text, CTX3)
    except AlgebraError:
        pass


# Scenario files

GOOD = """
# quadratic pair over GF(2)
field = GF(2)
f = x^2 + x
g = x^2 + (t^2 + t)
alpha = t
beta = 0
task = intersect
capM = 32; capN = 32
"""


def test_scenario_parses():
    sc = parse_scenario(GOOD)
    assert sc.task == "intersect"
    assert sc.cap_m == 32 and sc.cap_n == 32
    assert sc.f.degree == 2
    assert sc.alpha == RatFunc.t(GF2)
    assert sc.spec == GF2


SCENARIO_HEADS = ("field = GF(2); f = x^2+x; alpha = t; task = heights",
                  "example = 2.8; p = 3; nmax = 4")


def test_scenario_defaults():
    for text in SCENARIO_HEADS:
        sc = parse_scenario(text)
        assert sc.cap_m == 64 and sc.cap_n == 64
        assert sc.degree_budget == DEFAULT_DEGREE_BUDGET
        assert sc.tau_budget == DEFAULT_TAU_BUDGET
        assert sc.target_error == Fraction(1, 64)
        assert sc.denominator_bound == 8
        assert not sc.prune


@pytest.mark.parametrize("head", SCENARIO_HEADS)
def test_scenario_limits_are_read(head):
    sc = parse_scenario(head + "\ncapM = 5; capN = 6; degreeBudget = 7\n"
                        "tauBudget = 8; denomBound = 9; targetError = 1/3\n"
                        "prune = on")
    assert (sc.cap_m, sc.cap_n, sc.degree_budget, sc.tau_budget,
            sc.denominator_bound) == (5, 6, 7, 8, 9)
    assert sc.target_error == Fraction(1, 3)
    assert sc.prune


def test_scenario_one_line_verify():
    sc = parse_scenario("example = 2.8; p = 3; nmax = 4")
    assert sc.task == "verify-example"
    assert sc.example == "2.8"
    assert sc.params["p"] == 3 and sc.params["nmax"] == 4


def test_scenario_semicolon_inside_parens():
    sc = parse_scenario(
        "field = GF(4; mod=w^2+w+1)\nf = x^2\nalpha = w\ntask = heights")
    assert sc.spec == GF4
    assert sc.alpha == RatFunc.constant(GF4, GF4.gen())


def test_scenario_duplicate_key():
    with pytest.raises(ValidationError) as info:
        parse_scenario("task = heights; task = intersect")
    assert info.value.field == "task"


def test_scenario_unknown_key():
    with pytest.raises(ValidationError) as info:
        parse_scenario("task = heights; bogus = 3")
    assert info.value.field == "bogus"


def test_scenario_missing_task():
    with pytest.raises(ValidationError):
        parse_scenario("field = GF(2); f = x^2 + x")


def test_scenario_missing_g_for_intersect():
    with pytest.raises(ValidationError) as info:
        parse_scenario("field = GF(2); f = x^2+x; alpha = t; beta = 0\n"
                       "task = intersect")
    assert info.value.field == "g"


def test_scenario_bad_field_value():
    with pytest.raises(ValidationError) as info:
        parse_scenario("field = GF(seven); f = x^2; alpha = t; task = heights")
    assert info.value.field == "field"


def test_scenario_bad_integer():
    with pytest.raises(ValidationError) as info:
        parse_scenario(GOOD + "\ndegreeBudget = lots")
    assert info.value.field == "degreeBudget"


def test_scenario_comments_and_blank_lines():
    sc = parse_scenario("# leading comment\n\n" + GOOD + "\n# trailing\n")
    assert sc.task == "intersect"


def test_scenario_expression_error_carries_key():
    with pytest.raises(ValidationError) as info:
        parse_scenario("field = GF(2); f = x^2 + ; alpha = t; task = heights")
    assert info.value.field == "f"


def test_scenario_echo_preserves_input():
    sc = parse_scenario(GOOD)
    assert sc.echo["f"] == "x^2 + x"
    assert sc.echo["capM"] == "32"


@given(text=st.text(alphabet="abtfgxT=;#\n^+*024 ", max_size=60))
@settings(max_examples=300)
def test_scenario_fuzz(text):
    try:
        parse_scenario(text)
    except AlgebraError:
        pass
