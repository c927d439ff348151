"""
The value types are immutable keys: no attribute can be written or deleted
after construction, and copy, deepcopy and pickle (at every protocol, and
across processes whose string hashes differ) give back an equal value with
an equal hash.
"""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fforbits
from fforbits.field import FieldSpec
from fforbits.funcfield import ExtRing, FFPoly, KRing, RatFunc
from fforbits.parser import (ParseContext, parse_curve, parse_map,
                             parse_modulus, parse_scalar, parse_scenario)

GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2, modulus=(1, 1, 1))
K3 = KRing(GF3)
EXT = ExtRing(GF3, parse_modulus("y^2 + y + t", GF3))
CTX3 = ParseContext(GF3)
CTX4 = ParseContext(GF4)
CTX_EXT = ParseContext(GF3, EXT)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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
        if name != "PlaneCurve":  # defines __eq__ only, so unhashable
            assert hash(back) == hash(value), how


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_scenario_round_trips(name):
    sc = _scenarios()[name]
    for how, back in _round_trips(sc):
        assert back == sc, how


@pytest.mark.parametrize("name", sorted(VALUES) + ["Scenario"])
def test_values_are_immutable(name):
    value = _scenarios()["curve-diagonal"] if name == "Scenario" \
        else VALUES[name]
    slots = getattr(type(value), "__slots__", None) \
        or list(type(value).__dataclass_fields__)
    for attr in [*slots, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == copy.copy(value)


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
    hash(v)  # fill the cached hash before pickling
sys.stdout.buffer.write(pickle.dumps(values))
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_values_pickled_in_another_process_key_dicts(seed):
    """A hash seeded by strings differs between processes, so a loaded
    value must not bring its cached hash along."""
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
