"""Built-in identity suite.

Each check replays a closed-form identity of the orbit and twisted-algebra
machinery and compares exact values.  Checks carry opaque ids (the ones
scenario files use with `example = ...`) plus a slug describing what the
check actually exercises.  A failing check reports the first mismatching
identity with both sides printed in canonical form.

A check body takes the params dict and returns the detail of a pass; it
raises _Broken at the first identity that fails and _Skip when nothing is
left to check within the bounds.  @check registers the body in CHECKS, in
definition order, and turns each outcome into a CheckResult.
"""

import random
from itertools import islice
from typing import Callable, Dict, List, Optional

from .errors import ValidationError
from .field import FieldSpec, Frozen, binom_mod, pack_slots, unpack_slots
from .funcfield import ExtRing, FFPoly, KRing, RatFunc
from .dynpoly import (DynPoly, conjugate, is_additive, orbit_element,
                      orbit_prefix, point_of, solve_affine_conjugacy, walk,
                      walk_keys)
from .twisted import TwistedPoly, twisted_pow


class CheckResult(Frozen):
    """One check's outcome; status is PASS, FAIL or SKIPPED."""

    __slots__ = ("check_id", "slug", "status", "detail", "params")

    def to_dict(self) -> dict:
        return {"id": self.check_id, "slug": self.slug, "status": self.status,
                "detail": self.detail,
                "params": {k: self.params[k] for k in sorted(self.params)}}


class _Broken(Exception):
    """The first identity that failed: (what, lhs, rhs)."""


class _Skip(Exception):
    """Why nothing is left to check within the bounds."""


# id -> params -> CheckResult; --verify-all runs them in this order, the
# order of the definitions below
CHECKS: Dict[str, Callable[[dict], CheckResult]] = {}


def check(cid: str, slug: str):
    """Register a check body under cid; see the module docstring."""
    def register(body):
        def run(params: dict) -> CheckResult:
            try:
                return CheckResult(cid, slug, "PASS", body(params), params)
            except _Broken as broken:
                what, lhs, rhs = broken.args
                return CheckResult(cid, slug, "FAIL",
                                   f"{what}: lhs = {lhs} ; rhs = {rhs}",
                                   params)
            except _Skip as skip:
                return CheckResult(cid, slug, "SKIPPED", skip.args[0], params)

        CHECKS[cid] = run
        return run
    return register


def _primes(params: dict, defaults) -> list:
    ps = [params["p"]] if "p" in params else list(defaults)
    pmax = params.get("pmax")
    dropped = [p for p in ps if pmax is not None and p > pmax]
    if dropped:
        # lands in the result's params echo, so reports show the cut
        params["skippedPrimes"] = dropped
    return [p for p in ps if p not in dropped]


def _t_powers(spec: FieldSpec, exps) -> RatFunc:
    return RatFunc.from_poly(FFPoly.make(spec, {e: spec.one() for e in exps}))


_EXT_FIELDS = {(2, 2): "GF(4; mod=w^2+w+1)", (3, 2): "GF(9; mod=w^2+1)"}


def _ext_field(p: int, r: int) -> FieldSpec:
    return FieldSpec.parse(_EXT_FIELDS[(p, r)])


def _x_poly(spec: FieldSpec, terms: dict) -> DynPoly:
    return DynPoly.make(KRing(spec), terms)


def _twists(pairs: list):
    """The setup checks 11-12 and 2.5 share.  For each pair (p, r), a key
    of _EXT_FIELDS: over GF(p^r), with lam = w, (p, r, ring, t, lam,
    T^r + lam, f = x^p, g), where g is the map of T^r + lam conjugated by
    the shift by -lam*t, so g fixes -lam*t.  Skips when pairs is empty."""
    if not pairs:
        raise _Skip("no (p, r) pair within bounds")
    for p, r in pairs:
        spec = _ext_field(p, r)
        ring = KRing(spec)
        lam = RatFunc.constant(spec, spec.gen())
        t = RatFunc.t(spec)
        gt = TwistedPoly(ring, {0: lam, r: ring.one()})
        g = conjugate(gt.to_dynpoly(), -(lam * t))
        yield p, r, ring, t, lam, gt, _x_poly(spec, {p: 1}), g


# ---- the checks ----

@check("101", "orbit-of-zero-closed-form")
def check_101(params: dict) -> str:
    mmax = params.get("nmax", 12)
    spec = FieldSpec(2)
    t = RatFunc.t(spec)
    g = _x_poly(spec, {2: 1}) + DynPoly.constant(KRing(spec), t * t + t)
    points = orbit_prefix(g, 0, mmax)
    for m in range(1, mmax + 1):
        rhs = _t_powers(spec, (2 ** m, 1))
        if points[m] != rhs:
            raise _Broken(f"iterate {m} of 0", points[m], rhs)
    return f"orbit of 0 matches t^(2^m) + t for 1 <= m <= {mmax}"


@check("102", "orbit-of-t-closed-form")
def check_102(params: dict) -> str:
    kmax = params.get("nmax", 4)
    spec = FieldSpec(2)
    f = _x_poly(spec, {2: 1, 1: 1})
    t = RatFunc.t(spec)
    for k in range(kmax + 1):
        lhs = orbit_element(f, t, 2 ** k)
        rhs = _t_powers(spec, (2 ** (2 ** k), 1))
        if lhs != rhs:
            raise _Broken(f"iterate 2^{k} of t", lhs, rhs)
    return f"sparse doubling orbit matches for k <= {kmax}"


@check("3-4", "degree-one-orbit-closed-forms")
def check_3_4(params: dict) -> str:
    nmax = params.get("nmax", 10)
    ps = _primes(params, (2, 3))
    if not ps:
        raise _Skip("no prime within pmax")
    for p in ps:
        spec = FieldSpec(p)
        ring = KRing(spec)
        t = RatFunc.t(spec)
        one = ring.from_int(1)
        eps = one / (t - one)
        f = DynPoly.make(ring, {1: t, 0: one})
        alpha = one - eps
        pts = orbit_prefix(f, alpha, nmax)
        for n in range(nmax + 1):
            rhs = t ** n - eps
            if pts[n] != rhs:
                raise _Broken(f"p={p}: affine iterate {n}", pts[n], rhs)
        g = conjugate(_x_poly(spec, {2: 1}), -eps)
        beta = t - eps
        pts = orbit_prefix(g, beta, nmax)
        for n in range(nmax + 1):
            rhs = t ** (2 ** n) - eps
            if pts[n] != rhs:
                raise _Broken(f"p={p}: squaring-conjugate iterate {n}",
                              pts[n], rhs)
    return f"both degree-one closed forms hold for n <= {nmax}, p in {ps}"


def _witnesses_15_16(spec: FieldSpec) -> List[DynPoly]:
    p = spec.p
    return [_x_poly(spec, {p: 1, 1: 1}),
            _x_poly(spec, {p ** 3: 1, p ** 2: 1, 1: 1})]


def _binomial_sums(spec: FieldSpec, fpts: list) -> List[RatFunc]:
    """[sum_{i=1..m} C(m, i) fpts[i] for m = 0..len(fpts) - 1] over GF(p),
    for points of F_p[t].  Each point is packed once into an int X_i with a
    w-byte slot per exponent of the union of the points' exponents; sum m
    is the int sum C(m, i) X_i, unpacked once.  Its slots add at most m
    products below p^2, so w never carries, as in sparse_mul."""
    p, mmax = spec.p, len(fpts) - 1
    exps = sorted(set().union(*(pt.num.terms for pt in fpts[1:])))
    w = ((p - 1) ** 2 * mmax).bit_length() + 7 >> 3
    packed = [0] + [pack_slots([pt.num.terms.get(e, 0) for e in exps], w)
                    for pt in fpts[1:]]
    sums = [RatFunc.zero(spec)]
    for m in range(1, mmax + 1):
        x = sum([b * packed[i] for i in range(1, m + 1)
                 if (b := binom_mod(m, i, p))])
        sums.append(RatFunc.from_poly(FFPoly(spec, {
            exps[s]: v for s, c in enumerate(unpack_slots(x, w, len(exps)))
            if (v := c % p)})))
    return sums


@check("15-16", "shift-conjugate-binomial-orbit")
def check_15_16(params: dict) -> str:
    ps = _primes(params, (2, 3, 5))
    if not ps:
        raise _Skip("no prime within pmax")
    kmax = 3
    for p in ps:
        spec = FieldSpec(p)
        ring = KRing(spec)
        t = RatFunc.t(spec)
        mmax = min(params.get("nmax", p ** 3), p ** 3)
        for f in _witnesses_15_16(spec):
            xf = f + DynPoly.x(ring)
            g = xf + DynPoly.constant(ring, f.evaluate(t))
            # three sides, none built from another, so that a fault in one
            # kernel cannot cancel against itself: the pointwise walk of g
            # from 0 (sparse adds and Frobenius, no packing); the f-orbit of
            # t (in F_p[t], as f is monic additive) mixed by C(m, i) mod p
            # through packed ints; and (x + f)^m(t) - t, the orbit of t
            # under x + f stepped in Frobenius coordinates by walk_keys
            # (combine_keys), or, where its slot rule fails (from p = 53
            # on), each (x + f)^m taken afresh by twisted_pow and evaluated
            gpts = orbit_prefix(g, ring.from_int(0), mmax)
            fpts = orbit_prefix(f, t, mmax)
            assert all(pt.is_poly() for pt in fpts), "f-orbit of t left F_p[t]"
            sums = _binomial_sums(spec, fpts)
            keys = walk_keys(xf, t)
            if keys is None:
                a1 = TwistedPoly.from_dynpoly(xf)
                xfpts = (twisted_pow(a1, m).evaluate(t)
                         for m in range(1, mmax + 1))
            else:
                xfpts = (point_of(key, spec)
                         for key in islice(keys, 1, mmax + 1))
            for m, xfpt in enumerate(xfpts, 1):
                if gpts[m] != sums[m]:
                    raise _Broken(f"p={p}, f={f}: binomial sum at m={m}",
                                  gpts[m], sums[m])
                tw = xfpt - t
                if tw != gpts[m]:
                    raise _Broken(f"p={p}, f={f}: twisted power at m={m}",
                                  tw, gpts[m])
            for k in range(kmax + 1):
                if p ** k > mmax:
                    break
                if gpts[p ** k] != fpts[p ** k]:
                    raise _Broken(f"p={p}, f={f}: prime-power index k={k}",
                                  gpts[p ** k], fpts[p ** k])
    return f"binomial orbit identities hold for p in {ps}"


@check("11-12", "frobenius-twist-binomial-orbit")
def check_11_12(params: dict) -> str:
    ps = _primes(params, (2, 3))
    pairs = [(p, r) for p, r in _EXT_FIELDS
             if p in ps and params.get("r", r) == r]
    mmax = params.get("nmax", 10)
    kmax = 1
    for p, r, ring, t, lam, gt, f, g in _twists(pairs):
        for m in range(1, mmax + 1):
            lhs = twisted_pow(gt, m)
            rhs = TwistedPoly(ring, {r * (m - i): lam ** i * ring.from_int(b)
                                     for i in range(m + 1)
                                     if (b := binom_mod(m, i, p))})
            if lhs != rhs:
                raise _Broken(f"(p,r)=({p},{r}): twisted binomial at m={m}",
                              lhs, rhs)
        start = (ring.from_int(1) - lam) * t
        for k in range(kmax + 1):
            n = p ** (r * k)
            lhs = orbit_element(g, start, n)
            rhs = t ** (p ** (r * n))
            via_f = orbit_element(f, t, r * n)
            if lhs != rhs:
                raise _Broken(f"(p,r)=({p},{r}): orbit identity at k={k}",
                              lhs, rhs)
            if via_f != rhs:
                raise _Broken(f"(p,r)=({p},{r}): power-map orbit at k={k}",
                              via_f, rhs)
    return (f"twisted binomial (m <= {mmax}) and orbit identities hold for "
            f"{pairs}")


@check("exg1", "commuting-pair-conjugate-orbit")
def check_exg1(params: dict) -> str:
    ps = _primes(params, (2, 3))
    if not ps:
        raise _Skip("no prime within pmax")

    def run(spec, f, h, m, alpha, delta, kmax, label):
        base = f.iterate(m) + h
        g = conjugate(base, delta)
        for k in range(kmax + 1):
            n = spec.p ** k
            lhs = orbit_element(g, alpha + delta, n)
            rhs = orbit_element(f, alpha, m * n) \
                + orbit_element(h, alpha, n) + delta
            if lhs != rhs:
                raise _Broken(f"{label}: conjugate orbit at k={k}", lhs, rhs)

    # first specialization: h = x, m = 1, shift by -t
    for p in ps:
        spec = FieldSpec(p)
        ring = KRing(spec)
        t = RatFunc.t(spec)
        f = _x_poly(spec, {p: 1, 1: 1})
        run(spec, f, DynPoly.x(ring), 1, t, -t, 3, f"p={p}, h=x")
    # second specialization: power map with a scalar twist over GF(4)
    if 2 in ps:
        spec = _ext_field(2, 2)
        ring = KRing(spec)
        lam = RatFunc.constant(spec, spec.gen())
        t = RatFunc.t(spec)
        f = _x_poly(spec, {2: 1})
        h = DynPoly.make(ring, {1: lam})
        f2 = f.iterate(2)
        if f2.compose(h) != h.compose(f2):
            raise _Broken("commutation sanity", f2.compose(h), h.compose(f2))
        run(spec, f, h, 2, t, -(lam * t), 2, "GF(4), h=w*x")
    return "conjugates of commuting sums track both orbits"


@check("2.8", "all-ones-power-identity")
def check_2_8(params: dict) -> str:
    ps = _primes(params, (2, 3, 5))
    if not ps:
        raise _Skip("no prime within pmax")
    nmax = params.get("nmax", 4)
    for p in ps:
        spec = FieldSpec(p)
        base = FFPoly.make(spec, {e: spec.one() for e in range(p)})
        for n in range(1, nmax + 1):
            e = (p ** n - 1) // (p - 1)
            lhs = base ** e
            rhs = FFPoly.make(spec, {i: spec.one() for i in range(p ** n)})
            if lhs != rhs:
                raise _Broken(f"p={p}, n={n}",
                              RatFunc.make(lhs, FFPoly.one(spec)),
                              RatFunc.make(rhs, FFPoly.one(spec)))
    return f"all-ones power identity holds for p in {ps}, n <= {nmax}"


@check("exxp1-exxp2", "power-sum-conjugation-orbit")
def check_exxp(params: dict) -> str:
    ps = _primes(params, (2, 3))
    if not ps:
        raise _Skip("no prime within pmax")
    nmax = params.get("nmax", 3)
    for p in ps:
        spec = FieldSpec(p)
        ring = KRing(spec)
        one = ring.from_int(1)
        a = TwistedPoly.make(ring, [one] * p)     # x + x^p + ... + x^(p^(p-1))
        for n in range(1, nmax + 1):
            e = (p ** n - 1) // (p - 1)
            lhs = twisted_pow(a, e)
            rhs = TwistedPoly.make(ring, [one] * (p ** n))
            if lhs != rhs:
                raise _Broken(f"p={p}: all-ones twisted power at n={n}",
                              lhs, rhs)
        # adjoin a root of z^p - z - t and straighten f by conjugation
        zero = ring.from_int(0)
        modulus = [(-RatFunc.t(spec))] + [-one] + [zero] * (p - 2) + [one]
        ext = ExtRing(spec, modulus)
        delta = ext.y()
        t_e = ext.from_K(RatFunc.t(spec))
        f = a.to_dynpoly()
        f1 = conjugate(f, delta)
        g1 = DynPoly.make(ext, {p: ext.one()})
        g = _x_poly(spec, {p: 1}) + DynPoly.constant(ring, RatFunc.t(spec))
        straightened = conjugate(g, delta)
        if straightened != g1:
            raise _Broken(f"p={p}: straightening x^p + t", straightened, g1)
        for n in range(1, nmax + 1):
            e = (p ** n - 1) // (p - 1)
            lhs = orbit_element(f1, t_e + delta, e)
            rhs = ext.from_K(_t_powers(spec, [p ** i
                                              for i in range(p ** n)])) \
                + delta
            via_g = orbit_element(g1, delta, p ** n)
            if lhs != rhs:
                raise _Broken(f"p={p}: conjugated orbit at n={n}", lhs, rhs)
            if via_g != rhs:
                raise _Broken(f"p={p}: power-map orbit at n={n}", via_g, rhs)
    if 3 in ps:
        # odd p: no iterate of the power sum is a two-term additive map.
        # The constant-coefficient shape pins the candidate x^(p^k) + c*x
        # to c = 1, and evaluation at 1 separates the two sides.
        spec = FieldSpec(3)
        ring = KRing(spec)
        one = ring.from_int(1)
        a = TwistedPoly.make(ring, [one] * 3)
        f = a.to_dynpoly()
        for r in range(1, 4):
            ar = twisted_pow(a, r)
            c = ar.terms.get(0, ring.zero())
            at_one = orbit_element(f, one, r)
            h_at_one = one + c
            if at_one == h_at_one:
                raise _Broken(f"r={r}: two-term additive map not excluded",
                              at_one, h_at_one)
    return (f"power-sum twisted and conjugated orbit identities hold for p "
            f"in {ps}, n <= {nmax}")


@check("2.5", "fixed-point-non-sharing")
def check_2_5(params: dict) -> str:
    ps = _primes(params, (2, 3))
    pairs = [(p, r) for p, r in _EXT_FIELDS if p in ps]
    mmax = params.get("nmax", 8)
    for p, r, ring, t, lam, gt, f, g in _twists(pairs):
        fixed = -(lam * t)
        points = zip(walk(g, fixed), walk(f, fixed))
        for m, (gpt, fpt) in enumerate(islice(points, 1, mmax + 1), 1):
            if gpt != fixed:
                raise _Broken(f"(p,r)=({p},{r}): fixed point lost at m={m}",
                              gpt, fixed)
            if fpt == fixed:
                raise _Broken(f"(p,r)=({p},{r}): power-map orbit returned "
                              f"at m={m}", fpt, fixed)
    return (f"one orbit sits at its fixed point, the other never returns, "
            f"for m <= {mmax}, pairs {pairs}")


@check("2.1", "affine-conjugacy-witness")
def check_2_1(params: dict) -> str:
    ps = _primes(params, (2, 3, 5))
    if not ps:
        raise _Skip("no prime within pmax")
    count = params.get("nmax", 5)
    rng = random.Random(7321)
    for trial in range(count):
        p = ps[trial % len(ps)]
        spec = FieldSpec(p)
        ring = KRing(spec)
        t = RatFunc.t(spec)
        one = ring.from_int(1)
        pool = [one, t, t + one, t * t]
        tau_deg = rng.choice([1, 2])
        terms = {p ** tau_deg: rng.choice(pool)}
        for j in range(tau_deg):
            if rng.random() < 0.7:
                terms[p ** j] = rng.choice(pool)
        f = DynPoly.make(ring, terms)
        gamma = rng.choice([t, one, t + one, t * t + t])
        delta = solve_affine_conjugacy(f, gamma)
        lhs = conjugate(f, -delta)
        f1 = f + DynPoly.constant(ring, gamma)
        if not isinstance(delta, RatFunc):
            f1 = f1.lift_to(delta.ring)
        if lhs != f1:
            raise _Broken(f"trial {trial}: p={p}, f={f}, shift={gamma}",
                          lhs, f1)
        if not is_additive(f):
            raise _Broken(f"trial {trial}: witness shape", f,
                          "an additive polynomial")
    return (f"{count} random additive maps conjugate onto their affine "
            f"perturbations")


SUITE_ORDER = tuple(CHECKS)


def run_example(example_id: str, params: Optional[dict] = None) -> CheckResult:
    fn = CHECKS.get(example_id)
    if fn is None:
        raise ValidationError(
            "example", f"unknown example id {example_id!r}; known ids: "
            f"{', '.join(SUITE_ORDER)}")
    return fn(dict(params or {}))


def verify_all(pmax: Optional[int] = None) -> List[CheckResult]:
    params = {} if pmax is None else {"pmax": pmax}
    return [CHECKS[cid](dict(params)) for cid in SUITE_ORDER]
