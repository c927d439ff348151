"""
Tests for the built-in verification suite: the catalog, parameter
handling, and the result shape.  The mathematical content of each check
is asserted by the check itself; here we make sure the harness around
them behaves.
"""
import math
from itertools import count, repeat

import pytest

from fforbits import verify
from fforbits.dynpoly import DynPoly, orbit_prefix, walk_keys
from fforbits.field import FieldSpec
from fforbits.funcfield import FFPoly, KRing, RatFunc
from fforbits.twisted import TwistedPoly
from fforbits.verify import (CHECKS, SUITE_ORDER, _binomial_sums,
                             _witnesses_15_16, run_example, verify_all)
from fforbits.errors import ValidationError


def test_suite_order_covers_catalog():
    assert set(SUITE_ORDER) == set(CHECKS)
    assert len(SUITE_ORDER) == len(set(SUITE_ORDER))


def test_full_suite_passes():
    results = verify_all()
    assert [r.check_id for r in results] == list(SUITE_ORDER)
    assert all(r.status == "PASS" for r in results), [
        (r.check_id, r.detail) for r in results if r.status != "PASS"]


def test_result_dict_shape():
    (res,) = [r for r in verify_all() if r.check_id == "2.8"]
    d = res.to_dict()
    assert set(d) == {"id", "slug", "status", "detail", "params"}
    assert d["status"] == "PASS"
    assert list(d["params"]) == sorted(d["params"])


def test_run_example_with_overrides():
    res = run_example("2.8", {"p": 3, "nmax": 2})
    assert res.status == "PASS"
    assert res.params.get("p") == 3


def test_run_example_unknown_id():
    with pytest.raises(ValidationError):
        run_example("no-such-example", {})


def test_pmax_skips_larger_primes():
    results = verify_all(pmax=2)
    assert {r.status for r in results} <= {"PASS", "SKIPPED"}
    skipped = [r for r in results if r.params.get("skippedPrimes")]
    assert skipped
    # below every prime a check needs, the check reports itself skipped
    assert {r.status for r in verify_all(pmax=1)} == {"PASS", "SKIPPED"}


def running_binomial_sum(ring, fpts, m, p):
    """sum_{i=1..m} C(m, i) fpts[i] as the running K sum check 15-16 used
    to build, with C(m, i) mod p from math.comb."""
    rhs = ring.from_int(0)
    for i in range(1, m + 1):
        b = math.comb(m, i) % p
        if b:
            rhs = rhs + fpts[i] * ring.from_int(b)
    return rhs


@pytest.mark.parametrize("p", (2, 3))
def test_binomial_sum_matches_running_sum(p):
    spec = FieldSpec(p)
    ring, t = KRing(spec), RatFunc.t(spec)
    for f in _witnesses_15_16(spec):
        fpts = orbit_prefix(f, t, p ** 3)
        sums = _binomial_sums(spec, fpts)
        assert len(sums) == p ** 3 + 1 and not sums[0]
        for m in range(1, p ** 3 + 1):
            assert sums[m] == running_binomial_sum(ring, fpts, m, p)


# (p, points): (p-1)^2 * points just under and at byte boundaries; the
# width w holding it is 1, 2, 3 and 4 bytes, 3 off the array itemsizes
_SUM_WIDTHS = [(3, 63, 1), (3, 64, 2), (5, 15, 1), (5, 16, 2),
               (17, 255, 2), (17, 256, 3), (17, 300, 3), (257, 255, 3),
               (257, 256, 4)]


@pytest.mark.parametrize("p,count,w", _SUM_WIDTHS,
                         ids=[f"GF{p}-{n}" for p, n, _ in _SUM_WIDTHS])
def test_binomial_sums_fill_their_slots(p, count, w):
    """Points whose every coefficient is p - 1, on exponent sets that
    slide and skip around a constant term they all share; each packed sum
    against the running sum in F_p[t].  Where (p-1)^2 * count is just
    under 256^w, the shared slot of some sum needs all w bytes, so w - 1
    would carry."""
    assert ((p - 1) ** 2 * count).bit_length() + 7 >> 3 == w
    spec = FieldSpec(p)
    fpts = [RatFunc.zero(spec)] + [RatFunc.from_poly(FFPoly(spec, {
        e: p - 1 for e in (0, i, i + 1, 2 * i + 5, 3 * (i // 4))}))
        for i in range(1, count + 1)]
    sums = _binomial_sums(spec, fpts)
    peak = 0
    for m in range(1, count + 1):
        raw: dict = {}
        for i in range(1, m + 1):
            b = math.comb(m, i) % p
            for e, c in fpts[i].num.terms.items():
                raw[e] = raw.get(e, 0) + b * c
        peak = max(peak, *raw.values())
        assert sums[m].num.terms == {e: v for e, s in raw.items()
                                     if (v := s % p)}
    assert peak < 256 ** w
    if (p - 1) ** 2 * (count + 1) >= 256 ** w:
        assert peak >= 256 ** (w - 1)


def test_check_15_16_fails_on_a_wrong_orbit_point(monkeypatch):
    """One wrong point of g's orbit (the walk from 0) makes the binomial
    sum at that index disagree."""
    real = verify.orbit_prefix

    def orbit_prefix(f, start, count):
        out = real(f, start, count)
        if not start:
            out[5] = out[5] + RatFunc.one(start.spec)
        return out

    monkeypatch.setattr(verify, "orbit_prefix", orbit_prefix)
    res = run_example("15-16", {"p": 3})
    assert res.status == "FAIL"
    assert res.detail.startswith("p=3, f=")
    assert ": binomial sum at m=5: " in res.detail


def test_check_15_16_fails_on_a_wrong_keyed_power(monkeypatch):
    """One wrong point of the keyed orbit of t under x + f, at m = p,
    makes the third side disagree with the walk of g."""
    real, calls = verify.point_of, count(1)

    def point_of(key, spec):
        out = real(key, spec)
        return out + RatFunc.one(spec) if next(calls) == spec.p else out

    monkeypatch.setattr(verify, "point_of", point_of)
    res = run_example("15-16", {"p": 3})
    assert res.status == "FAIL"
    assert res.detail.startswith("p=3, f=")
    assert ": twisted power at m=3: " in res.detail


def test_check_15_16_fails_on_a_wrong_fallback_power(monkeypatch):
    """Past the slot rule of walk_keys the third side is twisted_pow: one
    wrong power at m = p makes it disagree.  At p = 53 only the second
    witness falls back, so the failure names it."""
    real = verify.twisted_pow

    def twisted_pow(a, n, budget=None):
        out = real(a, n, budget)
        return out + TwistedPoly.one(a.ring) if n == 53 else out

    monkeypatch.setattr(verify, "twisted_pow", twisted_pow)
    res = run_example("15-16", {"p": 53, "nmax": 53})
    assert res.status == "FAIL"
    assert res.detail.startswith("p=53, f=x^148877 + x^2809 + x")
    assert ": twisted power at m=53: " in res.detail


@pytest.mark.parametrize("p,keyed", [(53, [True, False]),
                                     (67, [False, False])],
                         ids=["GF53", "GF67"])
def test_check_15_16_passes_beyond_the_slot_rule(p, keyed):
    """walk_keys declines x + f once (p - 1)(sum_i l_i + 1) > 255: from
    p = 53 for x^(p^3) + x^(p^2) + 2x and from p = 67 for x^p + 2x.  The
    check then takes (x + f)^m(t) from twisted_pow, and still passes."""
    spec = FieldSpec(p)
    ring, t = KRing(spec), RatFunc.t(spec)
    assert [walk_keys(f + DynPoly.x(ring), t) is not None
            for f in _witnesses_15_16(spec)] == keyed
    res = run_example("15-16", {"p": p, "nmax": 3})
    assert res.status == "PASS", res.detail


def test_single_prime_subset_still_passes():
    res = run_example("15-16", {"p": 2, "nmax": 6})
    assert res.status == "PASS"


# (id, status, detail, skippedPrimes) of every check under pmax = 1
_BELOW_EVERY_PRIME = [
    ("101", "PASS", "orbit of 0 matches t^(2^m) + t for 1 <= m <= 12", None),
    ("102", "PASS", "sparse doubling orbit matches for k <= 4", None),
    ("3-4", "SKIPPED", "no prime within pmax", [2, 3]),
    ("15-16", "SKIPPED", "no prime within pmax", [2, 3, 5]),
    ("11-12", "SKIPPED", "no (p, r) pair within bounds", [2, 3]),
    ("exg1", "SKIPPED", "no prime within pmax", [2, 3]),
    ("2.8", "SKIPPED", "no prime within pmax", [2, 3, 5]),
    ("exxp1-exxp2", "SKIPPED", "no prime within pmax", [2, 3]),
    ("2.5", "SKIPPED", "no (p, r) pair within bounds", [2, 3]),
    ("2.1", "SKIPPED", "no prime within pmax", [2, 3, 5]),
]


def test_pmax_below_every_prime_reports_each_check():
    assert [(r.check_id, r.status, r.detail, r.params.get("skippedPrimes"))
            for r in verify_all(pmax=1)] == _BELOW_EVERY_PRIME


def test_skip_reason_names_the_pairs_when_no_pair_is_left():
    """A prime within pmax but with no (p, r) pair, or an r with none."""
    for cid, params in (("11-12", {"p": 5}), ("11-12", {"r": 3}),
                        ("2.5", {"p": 5})):
        res = run_example(cid, params)
        assert (res.status, res.detail) == ("SKIPPED",
                                            "no (p, r) pair within bounds")
    assert run_example("2.5", {"r": 3}).status == "PASS"


def test_failure_inside_a_helper_names_its_identity(monkeypatch):
    """exg1's conjugate-orbit identity, broken by one wrong point of the
    walk from 0 (the conjugate's start, alpha + delta = 0)."""
    real = verify.orbit_element

    def orbit_element(f, start, n):
        out = real(f, start, n)
        return out + RatFunc.one(start.spec) if not start else out

    monkeypatch.setattr(verify, "orbit_element", orbit_element)
    res = run_example("exg1", {"p": 2})
    assert res.status == "FAIL"
    assert res.detail == ("p=2, h=x: conjugate orbit at k=0: "
                          "lhs = t^2 + t + 1 ; rhs = t^2 + t")


def test_failure_of_an_inverted_identity(monkeypatch):
    """Check 2.5 fails when the power map's orbit returns to the fixed
    point: both sides print as that point."""
    real = verify.walk

    def walk(f, start):
        return repeat(start) if len(f.terms) == 1 else real(f, start)

    monkeypatch.setattr(verify, "walk", walk)
    res = run_example("2.5", {})
    assert res.status == "FAIL"
    assert res.detail == ("(p,r)=(2,2): power-map orbit returned at m=1: "
                          "lhs = w*t ; rhs = w*t")


def test_failure_of_a_plain_mismatch(monkeypatch):
    real = verify.orbit_prefix

    def orbit_prefix(f, start, count):
        out = real(f, start, count)
        out[3] = out[3] + RatFunc.one(out[3].spec)
        return out

    monkeypatch.setattr(verify, "orbit_prefix", orbit_prefix)
    res = run_example("101", {})
    assert (res.status, res.detail) == (
        "FAIL", "iterate 3 of 0: lhs = t^8 + t + 1 ; rhs = t^8 + t")
    res = run_example("3-4", {"p": 3})
    assert (res.status, res.detail) == (
        "FAIL", "p=3: affine iterate 3: lhs = (t^4 + 2*t^3 + t + 1)/(t + 2) "
        "; rhs = (t^4 + 2*t^3 + 2)/(t + 2)")
