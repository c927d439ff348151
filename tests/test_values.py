"""
The value types are immutable keys: no attribute can be written or deleted
after construction, and copy, deepcopy and pickle (at every protocol, and
across processes whose string hashes differ) give back an equal value with
an equal hash (none, for a value whose dict field field.Frozen refuses to
hash).  The types on the generic constructor of field.Frozen take their
fields by position or keyword and refuse a missing or unknown one, as a
dataclass does.  Equality and hash are Frozen's: same type, equal fields,
with FFPoly, DynPoly and TwistedPoly hashing their terms in sorted order.
"""
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import fforbits
from fforbits.dynpoly import DynPoly
from fforbits.field import FieldSpec
from fforbits.funcfield import ExtRing, FFPoly, KRing, RatFunc
from fforbits.heights import PruningData, canonical_height
from fforbits.orbits import ReturnModel, intersect_orbits
from fforbits.parser import (ParseContext, Scenario, parse_curve, parse_map,
                             parse_modulus, parse_scalar, parse_scenario)
from fforbits.twisted import TwistedPoly
from fforbits.verify import CheckResult

GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2, modulus=(1, 1, 1))
K3 = KRing(GF3)
EXT = ExtRing(GF3, parse_modulus("y^2 + y + t", GF3))
CTX3 = ParseContext(GF3)
CTX4 = ParseContext(GF4)
CTX_EXT = ParseContext(GF3, EXT)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
F = parse_map("x^2 + 1/t", CTX3)
T = parse_scalar("t", CTX3)

VALUES = {
    "FieldSpec GF(3)": GF3,
    "FieldSpec GF(4)": GF4,
    "FieldElem": GF4.gen(),
    "FFPoly GF(3)": FFPoly.make(GF3, {0: 1, 5: 2, 2 ** 70: 1}),
    "FFPoly GF(4)": parse_scalar("w*t^3 + 1", CTX4).num,
    "RatFunc": parse_scalar("(t + 1) / (t^2 + 1)", CTX3),
    "ExtRing": EXT,
    "ExtElem": parse_scalar("t*y + 1/(t + 1)", CTX_EXT),
    "KRing": K3,
    "DynPoly over K": parse_map("x^2 + 1/t", CTX3),
    "DynPoly over ext": parse_map("y*x^3 + t", CTX_EXT),
    "TwistedPoly": parse_map("t*T^2 + T", CTX3),
    "PlaneCurve": parse_curve("x1^2 - t*x2", GF3, None),
    "HeightEstimate": canonical_height(F, T),
    "PruningData": PruningData(Fraction(1, 3), Fraction(-2), Fraction(5)),
    "ReturnSet": intersect_orbits(F, T, F, T, 3, 3),
    "ReturnModel": ReturnModel(3, 40, (5,), ((2, 0),),
                               ((Fraction(1, 2), Fraction(-1, 2), 1),)),
    "CheckResult": CheckResult("2.1", "slug", "PASS", "ok", {"p": 3}),
}
# a dict field makes the hash of the fields raise, as for a frozen dataclass
UNHASHABLE = {"PlaneCurve", "CheckResult"}
# the public slots, in order, name the constructor's fields
FIELDS = {
    "HeightEstimate": ("value", "error_bound", "iterations"),
    "PruningData": ("u1", "u2", "c"),
    "ReturnSet": ("pairs", "cap_m", "cap_n", "exhaustive"),
    "ReturnModel": ("p", "cap", "finite", "aps", "psets"),
    "CheckResult": ("check_id", "slug", "status", "detail", "params"),
    "PlaneCurve": ("ring", "terms"),
}


def _scenarios():
    return {path.stem: parse_scenario(path.read_text())
            for path in sorted(SCENARIOS.glob("*.txt"))}


def _round_trips(value):
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle {proto}", pickle.loads(pickle.dumps(value, proto))
    yield "copy", copy.copy(value)
    yield "deepcopy", copy.deepcopy(value)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_round_trips(name):
    value = VALUES[name]
    for how, back in _round_trips(value):
        assert type(back) is type(value), how
        assert back == value, how
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(back)
        else:
            assert hash(back) == hash(value), how


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_scenario_round_trips(name):
    sc = _scenarios()[name]
    for how, back in _round_trips(sc):
        assert back == sc, how
    with pytest.raises(TypeError):
        hash(sc)


@pytest.mark.parametrize("name", sorted(VALUES) + ["Scenario"])
def test_values_are_immutable(name):
    value = _scenarios()["curve-diagonal"] if name == "Scenario" \
        else VALUES[name]
    for attr in [*type(value).__slots__, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == copy.copy(value)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_construct_by_position_or_keyword(name):
    value = VALUES[name]
    cls, fields = type(value), FIELDS[name]
    args = tuple(getattr(value, field) for field in fields)
    assert cls(*args) == value
    assert cls(**dict(zip(fields, args))) == value
    with pytest.raises(TypeError, match="missing"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match="unexpected"):
        cls(*args, extra=1)
    with pytest.raises(TypeError, match="repeated"):
        cls(*args, **{fields[0]: args[0]})


def test_scenario_defaults_and_required_fields():
    required = {"task": "intersect", "params": {}, "echo": {}}
    bare = Scenario(**required)
    assert (bare.spec, bare.cap_m, bare.prune) == (None, 64, False)
    for field in required:
        with pytest.raises(TypeError, match=f"missing field '{field}'"):
            Scenario(**{k: v for k, v in required.items() if k != field})


_DUMP = """
import pickle, sys
from fforbits.field import FieldSpec
from fforbits.funcfield import ExtRing
from fforbits.parser import (ParseContext, parse_map, parse_modulus,
                             parse_scalar)
spec = FieldSpec(3)
ext = ExtRing(spec, parse_modulus("y^2 + y + t", spec))
values = [parse_map("x^2 + 1/t", ParseContext(spec)),
          parse_scalar("t*y + 1/(t + 1)", ParseContext(spec, ext))]
for v in values:
    hash(v)  # hashed under this process's seed before pickling
sys.stdout.buffer.write(pickle.dumps(values))
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_values_pickled_in_another_process_key_dicts(seed):
    """A hash seeded by strings differs between processes, so a value
    hashed and pickled in one must key dicts by the hash of the other."""
    src = str(Path(fforbits.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _DUMP], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = pickle.loads(proc.stdout)
    fresh = [VALUES["DynPoly over K"], VALUES["ExtElem"]]
    assert loaded == fresh
    for old, new in zip(loaded, fresh):
        assert old in {new: True}
        assert new in {old: True}


@st.composite
def terms_in_two_orders(draw):
    """A field and at least two terms (exponent, nonzero coefficient), to
    be inserted in their drawn order and in reverse."""
    spec = draw(st.sampled_from([GF3, GF4, FieldSpec(5)]))
    nonzero = [c for c in spec.all_elements() if c]
    items = draw(st.lists(st.tuples(st.integers(0, 2 ** 70),
                                    st.sampled_from(nonzero)),
                          min_size=2, max_size=6,
                          unique_by=lambda item: item[0]))
    return spec, items


@given(case=terms_in_two_orders())
@settings(max_examples=60, deadline=None)
def test_values_compare_and_hash_by_type_and_fields(case):
    """FFPoly, DynPoly and TwistedPoly hash their terms whatever order the
    dict keeps them in, and two types with the same fields (a DynPoly and
    a TwistedPoly of the same ring and terms, which hash alike) are never
    equal."""
    spec, items = case
    ring = KRing(spec)
    k_items = [(e, RatFunc.constant(spec, c)) for e, c in items]
    for a, b in [(FFPoly.make(spec, dict(items)),
                  FFPoly.make(spec, dict(items[::-1]))),
                 (DynPoly.make(ring, dict(k_items)),
                  DynPoly.make(ring, dict(k_items[::-1]))),
                 (TwistedPoly(ring, dict(k_items)),
                  TwistedPoly(ring, dict(k_items[::-1])))]:
        assert list(a.terms) != list(b.terms)
        assert a == b and hash(a) == hash(b)
        assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"
    terms = dict(k_items)
    twisted, dyn = TwistedPoly(ring, terms), DynPoly(ring, terms)
    assert twisted != dyn and dyn != twisted
    assert dyn not in {twisted: 1} and twisted not in {dyn: 1}
