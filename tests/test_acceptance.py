"""
Acceptance gate: one test per advertised guarantee of the package.

Every check is exact (integer and field arithmetic, no tolerances), and
every expected value comes from an oracle coded independently of the
library path under test: explicit closed-form polynomials, brute-force
double loops over orbit points, binomial sums driven by math.comb, or
literal enumeration.  Each test prints one

    ACCEPTANCE <k>: PASS

line when its guarantee holds; run with `pytest -s` to see them inline.
"""
import json
import math
import random
from fractions import Fraction

from fforbits.field import FieldSpec
from fforbits.funcfield import ExtRing, FFPoly, KRing, RatFunc
from fforbits.dynpoly import (DynPoly, common_iterate, conjugate,
                              orbit_element, orbit_prefix)
from fforbits.twisted import TwistedPoly, twisted_pow
from fforbits.heights import (canonical_height, derive_pruning,
                              height_gap_constant, multiplicative_dependence,
                              pruned_candidates, rationalize)
from fforbits.orbits import (ReturnModel, ap_implies_common_iterate,
                             fit_return_model, intersect_orbits)
from fforbits.parser import ParseContext, parse_expr, parse_scenario
from fforbits.errors import AlgebraError


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec.parse("GF(4; mod=w^2+w+1)")
GF9 = FieldSpec.parse("GF(9; mod=w^2+1)")


def xpoly(spec, terms):
    ring = KRing(spec)
    return DynPoly.make(ring, {
        e: c if isinstance(c, RatFunc) else RatFunc.constant(spec, c)
        for e, c in terms.items()})


def tpowers(spec, exps):
    """The sparse polynomial sum_e t^e as a field element."""
    one = spec.one()
    return RatFunc.from_poly(FFPoly.make(spec, {e: one for e in exps}))


def quadratic_pair():
    """x^2 + x started at t against x^2 + t^2 + t started at 0.

    The first orbit hits the two-term value t^(2^m) + t exactly when m is
    a power of two; the second hits it at every m >= 1.  So the orbits
    meet precisely on the power-of-two diagonal.
    """
    t = RatFunc.t(GF2)
    f = xpoly(GF2, {2: 1, 1: 1})
    g = xpoly(GF2, {2: 1, 0: t * t + t})
    return f, t, g, RatFunc.zero(GF2)


def twist_pair():
    """x^2 against the straightened form of w*x + x^4 over GF(4).

    The second map fixes w*t.  Starting both orbits there leaves one
    pinned forever while the squaring orbit wanders, so the collision set
    is the full column {(0, n)}.
    """
    lam = RatFunc.constant(GF4, GF4.gen())
    t = RatFunc.t(GF4)
    ring = KRing(GF4)
    f = xpoly(GF4, {2: 1})
    gt = TwistedPoly.make(ring, [lam, RatFunc.zero(GF4), RatFunc.one(GF4)])
    g = conjugate(gt.to_dynpoly(), -(lam * t))
    return f, lam * t, g, lam * t


def random_point(spec, rng, max_height=10):
    """A rational function of bounded height with random sparse parts."""
    def rpoly(deg):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(0, deg)] = rng.randint(1, spec.p - 1)
        terms[deg] = rng.randint(1, spec.p - 1)
        return FFPoly.make(spec, terms)
    nd = rng.randint(0, max_height)
    dd = rng.randint(0, max_height - nd) if nd < max_height else 0
    return RatFunc.make(rpoly(nd), rpoly(dd))


def test_acceptance_01_orbit_of_zero_closed_form():
    # one quadratic step doubles the top exponent and keeps the tail: the
    # orbit of 0 under x^2 + t^2 + t is t^(2^m) + t on the nose
    g = xpoly(GF2, {2: 1, 0: tpowers(GF2, (2, 1))})
    for m in range(1, 13):
        assert orbit_element(g, RatFunc.zero(GF2), m) == \
            tpowers(GF2, (2 ** m, 1)), f"step {m}"
    print("ACCEPTANCE 1: PASS")


def test_acceptance_02_additive_iterate_tower():
    # x^2 + x applied 2^k times from t lands on t^(2^(2^k)) + t; the
    # k = 4 case walks through degree 65536 and stays two terms wide
    f = xpoly(GF2, {2: 1, 1: 1})
    t = RatFunc.t(GF2)
    for k in range(5):
        assert orbit_element(f, t, 2 ** k) == \
            tpowers(GF2, (2 ** 2 ** k, 1)), f"k={k}"
    print("ACCEPTANCE 2: PASS")


def test_acceptance_03_return_set_vs_brute_force():
    f, alpha, g, beta = quadratic_pair()
    cap = 64

    # oracle: every orbit point against every other, structural equality
    # only, no keys, no pruning
    xs = [alpha]
    ys = [beta]
    for _ in range(cap):
        xs.append(f.evaluate(xs[-1]))
        ys.append(g.evaluate(ys[-1]))
    oracle = [(m, n) for m in range(cap + 1) for n in range(cap + 1)
              if xs[m] == ys[n]]
    assert oracle == sorted((2 ** k, 2 ** k) for k in range(7))

    plain = intersect_orbits(f, alpha, g, beta, cap, cap)
    assert list(plain.pairs) == oracle

    data = derive_pruning(f, alpha, g, beta, cap, cap)
    pruned = intersect_orbits(f, alpha, g, beta, cap, cap, pruning=data)

    def report_bytes(rs):
        return json.dumps({"pairs": [list(p) for p in rs.pairs],
                           "capM": rs.cap_m, "capN": rs.cap_n,
                           "exhaustive": rs.exhaustive},
                          separators=(",", ":")).encode()

    assert report_bytes(pruned) == report_bytes(plain)
    print("ACCEPTANCE 3: PASS")


def random_additive(spec, rng, t_bearing):
    """A random additive map of twist degree 1..3; when t_bearing is set
    one coefficient picks up a t power, otherwise all stay constants."""
    deg = rng.randint(1, 3)
    coeffs = [RatFunc.constant(spec, rng.randint(0, spec.p - 1))
              for _ in range(deg)]
    coeffs.append(RatFunc.constant(spec, rng.randint(1, spec.p - 1)))
    if t_bearing:
        j = rng.randint(0, deg)
        coeffs[j] = coeffs[j] + RatFunc.t(spec) ** rng.randint(1, 2)
    return TwistedPoly.make(KRing(spec), coeffs)


def apply_additive(coeffs, v):
    """sum_j c_j v^(p^j) computed by direct Frobenius twisting of the
    value, bypassing both polynomial evaluation paths."""
    out = None
    w = v
    for c in coeffs:
        if c:
            term = c * w
            out = term if out is None else out + term
        w = w.frobenius()
    return out


def test_acceptance_04_binomial_orbit_mixing():
    # for additive f and g = f + x + f(t), the orbit of 0 under g mixes
    # the f-orbit of t through binomial coefficients:
    #     g^m(0) = sum_{i=1..m} C(m, i) f^i(t)
    # and at m = p^k everything but the top term vanishes mod p.  The
    # twisted-algebra path under test is (1 + f)^m evaluated at t, minus
    # t; the oracles are direct Frobenius iteration and math.comb.
    #
    # constant-coefficient samples run the full m <= p^3 sweep; samples
    # with t in a coefficient stop earlier because the symbolic
    # coefficients of (1 + f)^m grow exponentially with m.
    rng = random.Random(404)
    for p in (2, 3, 5):
        spec = FieldSpec(p)
        ring = KRing(spec)
        t = RatFunc.t(spec)
        one = RatFunc.one(spec)
        zero = RatFunc.zero(spec)
        cases = [(random_additive(spec, rng, False), p ** 3, 3)
                 for _ in range(3)]
        top = {2: 12, 3: 10, 5: 8}[p]
        kmax = {2: 3, 3: 2, 5: 1}[p]
        cases += [(random_additive(spec, rng, True), top, kmax)
                  for _ in range(3)]
        for ft, mmax, kcap in cases:
            coeffs = [ft.terms.get(i, zero)
                      for i in range(ft.tau_degree + 1)]
            ht = TwistedPoly.make(ring, [coeffs[0] + one] + coeffs[1:])
            f_of_t = apply_additive(coeffs, t)

            orbit = [zero]
            fvals = [t]
            for _ in range(mmax):
                v = orbit[-1]
                orbit.append(apply_additive(coeffs, v) + v + f_of_t)
                fvals.append(apply_additive(coeffs, fvals[-1]))

            for m in range(1, mmax + 1):
                via_twisted = twisted_pow(ht, m).evaluate(t) - t
                assert via_twisted == orbit[m], f"p={p} m={m} orbit"
                mix = zero
                for i in range(1, m + 1):
                    c = math.comb(m, i) % p
                    if c:
                        mix = mix + RatFunc.constant(spec, c) * fvals[i]
                assert via_twisted == mix, f"p={p} m={m} binomial"

            for k in range(kcap + 1):
                n = p ** k
                assert n <= mmax
                lhs = twisted_pow(ht, n).evaluate(t) - t
                assert lhs == twisted_pow(ft, n).evaluate(t), f"p={p} k={k}"
    print("ACCEPTANCE 4: PASS")


def test_acceptance_05_scalar_twist_binomials():
    # w lies in the fixed field of the r-fold twist, so powers of
    # w + T^r expand binomially; the straightened map then reproduces
    # the pure power orbit from the shifted start (1 - w)t
    for spec, p, r in ((GF4, 2, 2), (GF9, 3, 2)):
        ring = KRing(spec)
        lam = RatFunc.constant(spec, spec.gen())
        zero = RatFunc.zero(spec)
        one = RatFunc.one(spec)
        t = RatFunc.t(spec)
        gt = TwistedPoly.make(ring, [lam] + [zero] * (r - 1) + [one])

        for m in range(1, 11):
            want = [zero] * (r * m + 1)
            for i in range(m + 1):
                c = math.comb(m, i) % p
                want[r * (m - i)] = RatFunc.constant(spec, c) * lam ** i
            assert twisted_pow(gt, m) == TwistedPoly.make(ring, want), \
                f"p={p} m={m}"

        g = conjugate(gt.to_dynpoly(), -(lam * t))
        f = xpoly(spec, {p: 1})
        start = (one - lam) * t
        for k in (0, 1):
            n = p ** (r * k)
            want = RatFunc.from_poly(
                FFPoly.make(spec, {p ** (r * n): spec.one()}))
            assert orbit_element(g, start, n) == want, f"p={p} k={k}"
            assert orbit_element(f, t, r * n) == want, f"p={p} k={k} power"
    print("ACCEPTANCE 5: PASS")


def test_acceptance_06_all_ones_power_identity():
    # (1 + t + ... + t^(p-1))^((p^n - 1)/(p - 1)) has every coefficient 1
    # up to degree p^n - 1; both sides collapse to powers of (t - 1)
    for p in (2, 3, 5):
        spec = FieldSpec(p)
        base = FFPoly.make(spec, {e: 1 for e in range(p)})
        for n in range(1, 5):
            e = (p ** n - 1) // (p - 1)
            want = FFPoly.make(spec, {i: 1 for i in range(p ** n)})
            assert base ** e == want, f"p={p} n={n}"
    print("ACCEPTANCE 6: PASS")


def test_acceptance_07_power_sum_extension_orbit():
    for p in (2, 3):
        spec = FieldSpec(p)
        ring = KRing(spec)
        one = RatFunc.one(spec)
        zero = RatFunc.zero(spec)
        a = TwistedPoly.make(ring, [one] * p)

        # the all-ones twisted polynomial raised to (p^n - 1)/(p - 1) is
        # the all-ones twisted polynomial of length p^n
        for n in range(1, 4):
            e = (p ** n - 1) // (p - 1)
            assert twisted_pow(a, e) == \
                TwistedPoly.make(ring, [one] * (p ** n)), f"p={p} n={n}"

        # adjoin delta with delta^p = delta + t and straighten
        ext = ExtRing(spec, [-RatFunc.t(spec), -one] + [zero] * (p - 2)
                      + [one])
        delta = ext.y()
        f1 = conjugate(a.to_dynpoly(), delta)
        g1 = DynPoly.make(ext, {p: ext.one()})
        h = xpoly(spec, {p: 1, 0: RatFunc.t(spec)})
        assert conjugate(h, delta) == g1, f"p={p}"

        t_ext = ext.from_K(RatFunc.t(spec))
        for n in range(1, 4):
            e = (p ** n - 1) // (p - 1)
            want = ext.from_K(tpowers(spec, [p ** i for i in range(p ** n)]))
            want = want + delta
            assert orbit_element(f1, t_ext + delta, e) == want, \
                f"p={p} n={n} conjugated orbit"
            assert orbit_element(g1, delta, p ** n) == want, \
                f"p={p} n={n} power orbit"

    # odd characteristic: no iterate of the power sum collapses to a
    # two-term additive map.  The constant coefficient of a^r pins the
    # candidate to x^(p^k) + x, whose value at 1 is 2 whatever k is,
    # while f^r(1) = 0.
    ring = KRing(GF3)
    one = RatFunc.one(GF3)
    a = TwistedPoly.make(ring, [one, one, one])
    f = a.to_dynpoly()
    for r in range(1, 4):
        c = twisted_pow(a, r).terms.get(0, RatFunc.zero(GF3))
        assert c == one, f"r={r}"
        at_one = orbit_element(f, one, r)
        assert at_one == RatFunc.zero(GF3), f"r={r}"
        assert at_one != one + c, f"r={r}"
    print("ACCEPTANCE 7: PASS")


def test_acceptance_08_heights_and_sieve():
    # the additive quadratic has height defect 0, so the canonical height
    # of t is pinned at the very first iterate
    f = xpoly(GF2, {2: 1, 1: 1})
    est = canonical_height(f, RatFunc.t(GF2))
    assert est.value == Fraction(1)
    assert est.error_bound == 0
    assert est.iterations == 0
    assert rationalize(est, 8) == Fraction(1)

    # defect bound: 10^4 random points spread over eight maps
    rng = random.Random(808)
    cases = []
    for spec in (GF2, GF3):
        tt = RatFunc.t(spec)
        one = RatFunc.one(spec)
        cases.append(xpoly(spec, {2: 1, 1: 1}))
        cases.append(xpoly(spec, {2: 1, 0: tt * tt + tt}))
        cases.append(xpoly(spec, {3: tt, 1: one / tt}))
        cases.append(xpoly(spec, {2: one / (tt + one), 0: tt ** 3}))
    checked = 0
    for fmap in cases:
        spec = fmap.ring.spec
        b = height_gap_constant(fmap)
        d = fmap.degree
        for _ in range(1250):
            gamma = random_point(spec, rng)
            assert abs(fmap.evaluate(gamma).height()
                       - d * gamma.height()) <= b
            checked += 1
    assert checked == 10 ** 4

    # soundness: every brute-force collision survives the height sieve
    for fm, al, gm, be in (quadratic_pair(), twist_pair()):
        cap = 16
        data = derive_pruning(fm, al, gm, be, cap, cap)
        allowed = set(pruned_candidates(data.u1, data.u2, fm.degree,
                                        gm.degree, data.c, cap, cap))
        xs = orbit_prefix(fm, al, cap)
        ys = orbit_prefix(gm, be, cap)
        hits = [(m, n) for m in range(cap + 1) for n in range(cap + 1)
                if xs[m] == ys[n]]
        assert hits
        for pair in hits:
            assert pair in allowed, f"sieve dropped {pair}"
    print("ACCEPTANCE 8: PASS")


def test_acceptance_09_multiplicative_dependence_table():
    assert multiplicative_dependence(8, 4) == (2, 3)
    assert multiplicative_dependence(6, 12) is None
    for d in range(2, 101):
        assert multiplicative_dependence(d, d) == (1, 1)

    table = {b: [b ** k for k in range(21)] for b in range(2, 101)}
    for d in range(2, 101):
        for e in range(2, 101):
            brute = next(((r, s)
                          for r in range(1, 21) for s in range(1, 21)
                          if table[d][r] == table[e][s]), None)
            got = multiplicative_dependence(d, e)
            assert got == brute, f"d={d} e={e}: {got} vs {brute}"
            if got is not None:
                r, s = got
                assert d ** r == e ** s
    print("ACCEPTANCE 9: PASS")


def test_acceptance_10_ap_forces_shared_iterate():
    f = xpoly(GF2, {2: 1, 1: 1})
    g = xpoly(GF2, {2: 1, 1: 1})
    t = RatFunc.t(GF2)
    assert ap_implies_common_iterate(f, g, 1, 0, t, t, 8) == "confirmed"
    assert f.iterate(1) == g.iterate(1)

    # the quadratic pair meets only on the power-of-two diagonal, so any
    # full arithmetic progression of claimed collisions dies on the data
    f2, al, g2, be = quadratic_pair()
    for a, b in ((1, 0), (1, 1), (2, 2), (4, 4), (3, 1)):
        got = ap_implies_common_iterate(f2, g2, a, b, al, be, 6)
        assert got == "refuted-data", f"claim ({a}, {b}): {got}"
    print("ACCEPTANCE 10: PASS")


def test_acceptance_11_model_round_trip():
    rng = random.Random(1111)
    cap = 10 ** 4
    for trial in range(100):
        p = rng.choice((2, 3, 5))
        if trial % 2 == 0:
            model = ReturnModel(p, cap, (),
                                ((rng.randint(1, 10), rng.randint(0, 20)),),
                                ())
        else:
            a = Fraction(rng.randint(1, 8))
            b = Fraction(rng.randint(0, 10))
            model = ReturnModel(p, cap, (), (),
                                ((a, b, rng.randint(1, 2)),))
        members = model.members()
        refit = fit_return_model(members, p, cap)
        assert refit.members() == members, f"trial {trial}: {model}"
    print("ACCEPTANCE 11: PASS")


SCENARIO_KEYS = ("task", "field", "f", "g", "alpha", "beta", "capM", "capN",
                 "expect", "example", "p", "nmax", "modulus", "curve",
                 "prune", "denomBound", "r", "s", "a", "b")


def test_acceptance_12_parser_fuzz_and_round_trip():
    rng = random.Random(1212)
    alphabet = "txyTw0123456789+-*/^()=;, .GF"
    weird = "¹²½α∞"
    contexts = (ParseContext(GF2), ParseContext(GF3), ParseContext(GF4))

    # 10^5 fuzzed inputs end in a value or a structured error, never a
    # stray exception; a sprinkle of non-ASCII keeps the tokenizer honest
    for i in range(70000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        if rng.random() < 0.05:
            pos = rng.randrange(len(s) + 1)
            s = s[:pos] + rng.choice(weird) + s[pos:]
        try:
            parse_expr(s, contexts[i % 3])
        except AlgebraError:
            pass
    for _ in range(30000):
        lines = []
        for _ in range(rng.randint(1, 5)):
            body = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 16)))
            if rng.random() < 0.5:
                body = f"{rng.choice(SCENARIO_KEYS)} = {body}"
            lines.append(body)
        try:
            parse_scenario("\n".join(lines))
        except AlgebraError:
            pass

    # 10^4 random values survive a print/parse round trip unchanged
    specs = (GF2, GF3, GF9)
    reparse = tuple(ParseContext(s) for s in specs)
    for i in range(10000):
        spec = specs[i % 3]
        ring = KRing(spec)
        kind = i % 5
        if kind < 2:
            v = random_point(spec, rng, max_height=8)
        elif kind < 4:
            deg = rng.randint(1, 4)
            terms = {e: random_point(spec, rng, max_height=3)
                     for e in rng.sample(range(deg), rng.randint(0, deg))}
            terms[deg] = random_point(spec, rng, max_height=3)
            v = DynPoly.make(ring, terms)
        else:
            deg = rng.randint(1, 3)
            coeffs = [RatFunc.constant(spec, rng.randrange(spec.p))
                      for _ in range(deg)]
            coeffs.append(RatFunc.constant(spec,
                                           rng.randint(1, spec.p - 1)))
            v = TwistedPoly.make(ring, coeffs)
        back = parse_expr(str(v), reparse[i % 3])
        assert back == v, str(v)
    print("ACCEPTANCE 12: PASS")


def test_acceptance_13_shared_iterate_witnesses():
    f, _, g, _ = quadratic_pair()
    assert common_iterate(f, g, 6, 6) is None
    f4, _, g4, _ = twist_pair()
    assert common_iterate(f4, g4, 6, 6) is None
    assert common_iterate(xpoly(GF2, {2: 1}), xpoly(GF2, {4: 1}),
                          6, 6) == (2, 1)
    print("ACCEPTANCE 13: PASS")
