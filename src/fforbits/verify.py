"""Built-in identity suite.

Each check replays a closed-form identity of the orbit and twisted-algebra
machinery and compares exact values.  Checks carry opaque ids (the ones
scenario files use with `example = ...`) plus a slug describing what the
check actually exercises.  A failing check reports the first mismatching
identity with both sides printed in canonical form.
"""

import random
from typing import Callable, Dict, List, Optional

from .errors import ValidationError
from .field import FieldSpec, Frozen, binom_mod
from .funcfield import ExtRing, FFPoly, KRing, RatFunc
from .dynpoly import (DynPoly, LinearMap, conjugate, is_additive,
                      orbit_element, orbit_prefix, solve_affine_conjugacy)
from .twisted import TwistedPoly, twisted_pow


class CheckResult(Frozen):
    """One check's outcome; status is PASS, FAIL or SKIPPED."""

    __slots__ = ("check_id", "slug", "status", "detail", "params")

    def to_dict(self) -> dict:
        return {"id": self.check_id, "slug": self.slug, "status": self.status,
                "detail": self.detail,
                "params": {k: self.params[k] for k in sorted(self.params)}}


def _passed(cid, slug, params, detail):
    return CheckResult(cid, slug, "PASS", detail, params)


def _failed(cid, slug, params, what, lhs, rhs):
    return CheckResult(cid, slug, "FAIL",
                       f"{what}: lhs = {lhs} ; rhs = {rhs}", params)


def _skipped(cid, slug, params, why):
    return CheckResult(cid, slug, "SKIPPED", why, params)


def _primes(params: dict, defaults) -> list:
    if "p" in params:
        ps = [params["p"]]
    else:
        ps = list(defaults)
    pmax = params.get("pmax")
    if pmax is not None:
        kept = [p for p in ps if p <= pmax]
        dropped = [p for p in ps if p > pmax]
        if dropped:
            # lands in the result's params echo, so reports show the cut
            params["skippedPrimes"] = dropped
        ps = kept
    return ps


def _t_powers(spec: FieldSpec, exps) -> RatFunc:
    one = spec.one()
    return RatFunc.make(FFPoly.make(spec, {e: one for e in exps}),
                        FFPoly.one(spec))


_EXT_FIELDS = {(2, 2): "GF(4; mod=w^2+w+1)", (3, 2): "GF(9; mod=w^2+1)"}


def _ext_field(p: int, r: int) -> FieldSpec:
    return FieldSpec.parse(_EXT_FIELDS[(p, r)])


def _x_poly(spec: FieldSpec, terms: dict) -> DynPoly:
    ring = KRing(spec)
    return DynPoly.make(ring, {e: ring.from_int(c) if isinstance(c, int)
                               else c for e, c in terms.items()})


# ---- the checks ----

def check_101(params: dict) -> CheckResult:
    cid, slug = "101", "orbit-of-zero-closed-form"
    mmax = params.get("nmax", 12)
    spec = FieldSpec(2)
    t = RatFunc.t(spec)
    g = _x_poly(spec, {2: 1}) + DynPoly.constant(KRing(spec), t * t + t)
    points = orbit_prefix(g, KRing(spec).from_int(0), mmax)
    for m in range(1, mmax + 1):
        rhs = _t_powers(spec, (2 ** m, 1))
        if points[m] != rhs:
            return _failed(cid, slug, params, f"iterate {m} of 0",
                           points[m], rhs)
    return _passed(cid, slug, params,
                   f"orbit of 0 matches t^(2^m) + t for 1 <= m <= {mmax}")


def check_102(params: dict) -> CheckResult:
    cid, slug = "102", "orbit-of-t-closed-form"
    kmax = params.get("nmax", 4)
    spec = FieldSpec(2)
    f = _x_poly(spec, {2: 1, 1: 1})
    t = RatFunc.t(spec)
    for k in range(kmax + 1):
        lhs = orbit_element(f, t, 2 ** k)
        rhs = _t_powers(spec, (2 ** (2 ** k), 1))
        if lhs != rhs:
            return _failed(cid, slug, params, f"iterate 2^{k} of t", lhs, rhs)
    return _passed(cid, slug, params,
                   f"sparse doubling orbit matches for k <= {kmax}")


def check_3_4(params: dict) -> CheckResult:
    cid, slug = "3-4", "degree-one-orbit-closed-forms"
    nmax = params.get("nmax", 10)
    ps = _primes(params, (2, 3))
    if not ps:
        return _skipped(cid, slug, params, "no prime within pmax")
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
                return _failed(cid, slug, params,
                               f"p={p}: affine iterate {n}", pts[n], rhs)
        g = conjugate(_x_poly(spec, {2: 1}), LinearMap.shift(ring, -eps))
        beta = t - eps
        pts = orbit_prefix(g, beta, nmax)
        for n in range(nmax + 1):
            rhs = t ** (2 ** n) - eps
            if pts[n] != rhs:
                return _failed(cid, slug, params,
                               f"p={p}: squaring-conjugate iterate {n}",
                               pts[n], rhs)
    return _passed(cid, slug, params,
                   f"both degree-one closed forms hold for n <= {nmax}, "
                   f"p in {ps}")


def _witnesses_15_16(spec: FieldSpec) -> List[DynPoly]:
    p = spec.p
    return [_x_poly(spec, {p: 1, 1: 1}),
            _x_poly(spec, {p ** 3: 1, p ** 2: 1, 1: 1})]


def check_15_16(params: dict) -> CheckResult:
    cid, slug = "15-16", "shift-conjugate-binomial-orbit"
    ps = _primes(params, (2, 3, 5))
    if not ps:
        return _skipped(cid, slug, params, "no prime within pmax")
    kmax = 3
    for p in ps:
        spec = FieldSpec(p)
        ring = KRing(spec)
        t = RatFunc.t(spec)
        mmax = min(params.get("nmax", p ** 3), p ** 3)
        for f in _witnesses_15_16(spec):
            ft = f.evaluate(t)
            g = f + DynPoly.x(ring) + DynPoly.constant(ring, ft)
            gpts = orbit_prefix(g, ring.from_int(0), mmax)
            fpts = orbit_prefix(f, t, mmax)
            # twisted route: (x + f)^m evaluated at t, shifted back
            a1 = TwistedPoly.from_dynpoly(f + DynPoly.x(ring))
            for m in range(1, mmax + 1):
                rhs = ring.from_int(0)
                for i in range(1, m + 1):
                    b = binom_mod(m, i, p)
                    if b:
                        rhs = rhs + fpts[i] * ring.from_int(b)
                if gpts[m] != rhs:
                    return _failed(cid, slug, params,
                                   f"p={p}, f={f}: binomial sum at m={m}",
                                   gpts[m], rhs)
                tw = twisted_pow(a1, m).evaluate(t) - t
                if tw != gpts[m]:
                    return _failed(cid, slug, params,
                                   f"p={p}, f={f}: twisted power at m={m}",
                                   tw, gpts[m])
            for k in range(kmax + 1):
                if p ** k > mmax:
                    break
                if gpts[p ** k] != fpts[p ** k]:
                    return _failed(cid, slug, params,
                                   f"p={p}, f={f}: prime-power index k={k}",
                                   gpts[p ** k], fpts[p ** k])
    return _passed(cid, slug, params,
                   f"binomial orbit identities hold for p in {ps}")


def check_11_12(params: dict) -> CheckResult:
    cid, slug = "11-12", "frobenius-twist-binomial-orbit"
    pairs = [(2, 2), (3, 2)]
    ps = _primes(params, (2, 3))
    pairs = [(p, r) for (p, r) in pairs if p in ps]
    if "r" in params:
        pairs = [(p, r) for (p, r) in pairs if r == params["r"]]
    if not pairs:
        return _skipped(cid, slug, params, "no (p, r) pair within bounds")
    mmax = params.get("nmax", 10)
    kmax = 1
    for p, r in pairs:
        spec = _ext_field(p, r)
        ring = KRing(spec)
        lam = RatFunc.constant(spec, spec.gen())
        t = RatFunc.t(spec)
        gt = TwistedPoly.make(ring, [lam] + [ring.from_int(0)] * (r - 1)
                              + [ring.from_int(1)])
        for m in range(1, mmax + 1):
            lhs = twisted_pow(gt, m)
            coeffs = [ring.from_int(0)] * (r * m + 1)
            for i in range(m + 1):
                b = binom_mod(m, i, p)
                if b:
                    coeffs[r * (m - i)] = lam ** i * ring.from_int(b)
            rhs = TwistedPoly.make(ring, coeffs)
            if lhs != rhs:
                return _failed(cid, slug, params,
                               f"(p,r)=({p},{r}): twisted binomial at m={m}",
                               lhs, rhs)
        f = _x_poly(spec, {p: 1})
        g = conjugate(gt.to_dynpoly(), LinearMap.shift(ring, -(lam * t)))
        start = (ring.from_int(1) - lam) * t
        for k in range(kmax + 1):
            n = p ** (r * k)
            lhs = orbit_element(g, start, n)
            rhs = t ** (p ** (r * n))
            via_f = orbit_element(f, t, r * n)
            if lhs != rhs:
                return _failed(cid, slug, params,
                               f"(p,r)=({p},{r}): orbit identity at k={k}",
                               lhs, rhs)
            if via_f != rhs:
                return _failed(cid, slug, params,
                               f"(p,r)=({p},{r}): power-map orbit at k={k}",
                               via_f, rhs)
    return _passed(cid, slug, params,
                   f"twisted binomial (m <= {mmax}) and orbit identities "
                   f"hold for {pairs}")


def check_exg1(params: dict) -> CheckResult:
    cid, slug = "exg1", "commuting-pair-conjugate-orbit"
    ps = _primes(params, (2, 3))

    def run(spec, f, h, m, alpha, delta, kmax, label):
        ring = f.ring
        base = f.iterate(m) + h
        g = conjugate(base, LinearMap.shift(ring, delta))
        for k in range(kmax + 1):
            n = spec.p ** k
            lhs = orbit_element(g, alpha + delta, n)
            rhs = orbit_element(f, alpha, m * n) \
                + orbit_element(h, alpha, n) + delta
            if lhs != rhs:
                return (f"{label}: conjugate orbit at k={k}", lhs, rhs)
        return None

    # first specialization: h = x, m = 1, shift by -t
    for p in ps:
        spec = FieldSpec(p)
        ring = KRing(spec)
        t = RatFunc.t(spec)
        f = _x_poly(spec, {p: 1, 1: 1})
        bad = run(spec, f, DynPoly.x(ring), 1, t, -t, 3, f"p={p}, h=x")
        if bad:
            return _failed(cid, slug, params, *bad)
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
            return _failed(cid, slug, params, "commutation sanity",
                           f2.compose(h), h.compose(f2))
        bad = run(spec, f, h, 2, t, -(lam * t), 2, "GF(4), h=w*x")
        if bad:
            return _failed(cid, slug, params, *bad)
    if not ps:
        return _skipped(cid, slug, params, "no prime within pmax")
    return _passed(cid, slug, params,
                   "conjugates of commuting sums track both orbits")


def check_2_8(params: dict) -> CheckResult:
    cid, slug = "2.8", "all-ones-power-identity"
    ps = _primes(params, (2, 3, 5))
    if not ps:
        return _skipped(cid, slug, params, "no prime within pmax")
    nmax = params.get("nmax", 4)
    for p in ps:
        spec = FieldSpec(p)
        base = FFPoly.make(spec, {e: spec.one() for e in range(p)})
        for n in range(1, nmax + 1):
            e = (p ** n - 1) // (p - 1)
            lhs = base ** e
            rhs = FFPoly.make(spec, {i: spec.one() for i in range(p ** n)})
            if lhs != rhs:
                return _failed(cid, slug, params, f"p={p}, n={n}",
                               RatFunc.make(lhs, FFPoly.one(spec)),
                               RatFunc.make(rhs, FFPoly.one(spec)))
    return _passed(cid, slug, params,
                   f"all-ones power identity holds for p in {ps}, "
                   f"n <= {nmax}")


def check_exxp(params: dict) -> CheckResult:
    cid, slug = "exxp1-exxp2", "power-sum-conjugation-orbit"
    ps = _primes(params, (2, 3))
    if not ps:
        return _skipped(cid, slug, params, "no prime within pmax")
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
                return _failed(cid, slug, params,
                               f"p={p}: all-ones twisted power at n={n}",
                               lhs, rhs)
        # adjoin a root of z^p - z - t and straighten f by conjugation
        zero = ring.from_int(0)
        modulus = [(-RatFunc.t(spec))] + [-one] + [zero] * (p - 2) + [one]
        ext = ExtRing(spec, modulus)
        delta = ext.y()
        t_e = ext.from_K(RatFunc.t(spec))
        f = a.to_dynpoly()
        f1 = conjugate(f, LinearMap.shift(ext, delta))
        g1 = DynPoly.make(ext, {p: ext.one()})
        g = _x_poly(spec, {p: 1}) + DynPoly.constant(ring, RatFunc.t(spec))
        straightened = conjugate(g, LinearMap.shift(ext, delta))
        if straightened != g1:
            return _failed(cid, slug, params,
                           f"p={p}: straightening x^p + t", straightened, g1)
        for n in range(1, nmax + 1):
            e = (p ** n - 1) // (p - 1)
            lhs = orbit_element(f1, t_e + delta, e)
            rhs = ext.from_K(_t_powers(spec, [p ** i
                                              for i in range(p ** n)])) \
                + delta
            via_g = orbit_element(g1, delta, p ** n)
            if lhs != rhs:
                return _failed(cid, slug, params,
                               f"p={p}: conjugated orbit at n={n}", lhs, rhs)
            if via_g != rhs:
                return _failed(cid, slug, params,
                               f"p={p}: power-map orbit at n={n}", via_g, rhs)
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
            c = ar.coeffs[0]
            at_one = orbit_element(f, one, r)
            h_at_one = one + c
            if at_one == h_at_one:
                return _failed(cid, slug, params,
                               f"r={r}: two-term additive map not excluded",
                               at_one, h_at_one)
    return _passed(cid, slug, params,
                   f"power-sum twisted and conjugated orbit identities hold "
                   f"for p in {ps}, n <= {nmax}")


def check_2_5(params: dict) -> CheckResult:
    cid, slug = "2.5", "fixed-point-non-sharing"
    pairs = [(2, 2), (3, 2)]
    ps = _primes(params, (2, 3))
    pairs = [(p, r) for (p, r) in pairs if p in ps]
    if not pairs:
        return _skipped(cid, slug, params, "no (p, r) pair within bounds")
    mmax = params.get("nmax", 8)
    for p, r in pairs:
        spec = _ext_field(p, r)
        ring = KRing(spec)
        lam = RatFunc.constant(spec, spec.gen())
        t = RatFunc.t(spec)
        gt = TwistedPoly.make(ring, [lam] + [ring.from_int(0)] * (r - 1)
                              + [ring.from_int(1)])
        g = conjugate(gt.to_dynpoly(), LinearMap.shift(ring, -(lam * t)))
        f = _x_poly(spec, {p: 1})
        fixed = -(lam * t)
        gpt = fixed
        fpt = fixed
        for m in range(1, mmax + 1):
            gpt = g.evaluate(gpt)
            if gpt != fixed:
                return _failed(cid, slug, params,
                               f"(p,r)=({p},{r}): fixed point lost at m={m}",
                               gpt, fixed)
            fpt = f.evaluate(fpt)
            if fpt == fixed:
                return _failed(cid, slug, params,
                               f"(p,r)=({p},{r}): power-map orbit returned "
                               f"at m={m}", fpt, fixed)
    return _passed(cid, slug, params,
                   f"one orbit sits at its fixed point, the other never "
                   f"returns, for m <= {mmax}, pairs {pairs}")


def check_2_1(params: dict) -> CheckResult:
    cid, slug = "2.1", "affine-conjugacy-witness"
    ps = _primes(params, (2, 3, 5))
    if not ps:
        return _skipped(cid, slug, params, "no prime within pmax")
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
        # a short K search suffices: most witnesses need the extension root
        # anyway, and the identity does not care where delta lives
        delta = solve_affine_conjugacy(f, gamma, height_bound=1,
                                       max_candidates=500)
        target_ring = ring if isinstance(delta, RatFunc) else delta.ring
        mu = LinearMap.shift(target_ring, -delta)
        lhs = conjugate(f, mu)
        f1 = f + DynPoly.constant(ring, gamma)
        if not isinstance(delta, RatFunc):
            f1 = f1.lift_to(target_ring)
        if lhs != f1:
            return _failed(cid, slug, params,
                           f"trial {trial}: p={p}, f={f}, shift={gamma}",
                           lhs, f1)
        if not is_additive(f):
            return _failed(cid, slug, params, f"trial {trial}: witness shape",
                           f, "an additive polynomial")
    return _passed(cid, slug, params,
                   f"{count} random additive maps conjugate onto their "
                   f"affine perturbations")


CHECKS: Dict[str, Callable[[dict], CheckResult]] = {
    "101": check_101,
    "102": check_102,
    "3-4": check_3_4,
    "15-16": check_15_16,
    "11-12": check_11_12,
    "exg1": check_exg1,
    "2.8": check_2_8,
    "exxp1-exxp2": check_exxp,
    "2.5": check_2_5,
    "2.1": check_2_1,
}

SUITE_ORDER = ("101", "102", "3-4", "15-16", "11-12", "exg1", "2.8",
               "exxp1-exxp2", "2.5", "2.1")


def run_example(example_id: str, params: Optional[dict] = None) -> CheckResult:
    fn = CHECKS.get(example_id)
    if fn is None:
        raise ValidationError(
            "example", f"unknown example id {example_id!r}; known ids: "
            f"{', '.join(SUITE_ORDER)}")
    return fn(dict(params or {}))


def verify_all(pmax: Optional[int] = None,
               params: Optional[dict] = None) -> List[CheckResult]:
    base = dict(params or {})
    if pmax is not None:
        base["pmax"] = pmax
    return [CHECKS[cid](dict(base)) for cid in SUITE_ORDER]
