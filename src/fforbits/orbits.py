"""Orbit intersection and the shape of return sets.

The search primitives are exact: orbits are walked by dynpoly.walk_keys
when both have Frobenius coordinates (affine-additive maps over GF(p) with
F_p coefficients and polynomial data) and by repeated evaluation through
dynpoly.walk otherwise.  Collisions are found by keying a dict with those
keys or with the points themselves; either is canonical, so a dict hit is
an equality of points.  An optional height sieve then tests each pair
found, given the end points; with sound height data it admits every true
collision.

fit_return_model classifies a finite slice of a return set into the shapes
that actually occur here: arithmetic progressions {a*k + b}, geometric
"p-sets" {a*p^(r*k) + b} whose a and b are rationals with denominator
p^r - 1, and a finite remainder.  The fit is greedy and deterministic; it
describes the data within the caps and claims nothing beyond them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, List, Optional, Tuple, Union

from .dynpoly import (Budget, DynPoly, combine_keys, key_of, point_of,
                      walk, walk_keys)
from .errors import RingMismatch
from .field import Frozen, sparse_add, sparse_neg
from .heights import PruningData


class ReturnSet(Frozen):
    """Collision pairs (m, n) with f^m(alpha) = g^n(beta), a sorted tuple,
    within the caps that were searched."""

    __slots__ = ("pairs", "cap_m", "cap_n", "exhaustive")

    def n_values(self) -> List[int]:
        return sorted({n for _, n in self.pairs})

    def __str__(self) -> str:
        inside = ", ".join(f"({m},{n})" for m, n in self.pairs)
        return f"{{{inside}}} for m <= {self.cap_m}, n <= {self.cap_n}"


def _orbits(f: DynPoly, alpha, g: DynPoly, beta) -> tuple:
    """The walk_keys of both orbits and True when both have keys in one
    ring, else their walks and False."""
    if f.ring == g.ring:
        keys = walk_keys(f, alpha), walk_keys(g, beta)
        if None not in keys:
            return keys + (True,)
    return walk(f, alpha), walk(g, beta), False


def intersect_orbits(f: DynPoly, alpha, g: DynPoly, beta,
                     cap_m: int, cap_n: int,
                     pruning: Union[PruningData, Callable, None] = None
                     ) -> ReturnSet:
    """All (m, n) within the caps where the two orbits meet.

    f's orbit is indexed in a dict keyed by its points, or by their
    walk_keys keys, and g's orbit is streamed against that index; with
    pruning, only the joined pairs that the height sieve admits are kept.
    pruning may also be a function that derives the sieve data from the
    walked end points f^cap_m(alpha), g^cap_n(beta), so none is walked
    twice.
    """
    if f.degree < 2 or g.degree < 2:
        raise ValueError("orbit intersection is for degrees >= 2")
    if f.ring != g.ring:
        raise RingMismatch("orbits live in different rings")
    orbit_a, orbit_b, keyed = _orbits(f, alpha, g, beta)
    index = {}
    for m, end_a in enumerate(islice(orbit_a, cap_m + 1)):
        index.setdefault(end_a, []).append(m)
    joined = []
    for n, end_b in enumerate(islice(orbit_b, cap_n + 1)):
        joined.extend((m, n) for m in index.get(end_b, ()))
    if callable(pruning):
        if keyed:
            end_a, end_b = point_of(end_a, f.spec), point_of(end_b, f.spec)
        pruning = pruning(end_a, end_b)
    pairs = sorted(pair for pair in joined if pruning is None
                   or pruning.admits(f.degree, g.degree, *pair))
    return ReturnSet(tuple(pairs), cap_m, cap_n, True)


def synchronized_collisions(f: DynPoly, alpha, g: DynPoly, beta,
                            r: int, s: int, a: int, b: int,
                            cap_n: int) -> List[int]:
    """All n <= cap_n with f^(r*n+a)(alpha) = g^(s*n+b)(beta)."""
    if r < 1 or s < 1 or a < 0 or b < 0:
        raise ValueError("need r, s >= 1 and a, b >= 0")
    orbit_a, orbit_b, _ = _orbits(f, alpha, g, beta)
    points = zip(islice(orbit_a, a, None, r), islice(orbit_b, b, None, s))
    return [n for n, (x, y) in enumerate(islice(points, cap_n + 1))
            if x == y]


class PlaneCurve(Frozen):
    """A nonzero polynomial F(x1, x2) over K, tested for vanishing at
    orbit points of the product map (x1, x2) -> (f(x1), g(x2)).  terms maps
    (e1, e2) to a nonzero coefficient; the sums and products the parser
    builds a curve from may pass through the zero polynomial, which only
    make refuses."""

    __slots__ = ("ring", "terms")

    @classmethod
    def make(cls, ring, terms: dict) -> "PlaneCurve":
        clean = {}
        for (e1, e2), c in terms.items():
            if c:
                clean[(e1, e2)] = c
        if not clean:
            raise ValueError("the zero polynomial does not define a curve")
        return cls(ring, clean)

    @classmethod
    def constant(cls, ring, c) -> "PlaneCurve":
        return cls(ring, {(0, 0): c} if c else {})

    @classmethod
    def diagonal(cls, ring) -> "PlaneCurve":
        return cls.make(ring, {(1, 0): ring.one(), (0, 1): -ring.one()})

    def __add__(self, other: "PlaneCurve") -> "PlaneCurve":
        return PlaneCurve(self.ring, sparse_add(self.terms, other.terms))

    def __neg__(self) -> "PlaneCurve":
        return PlaneCurve(self.ring, sparse_neg(self.terms))

    def __mul__(self, other: "PlaneCurve") -> "PlaneCurve":
        terms: dict = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in other.terms.items():
                e = (a1 + b1, a2 + b2)
                s = terms.get(e)
                terms[e] = c * d if s is None else s + c * d
        return PlaneCurve(self.ring, {e: c for e, c in terms.items() if c})

    def evaluate(self, v1, v2):
        acc = None
        c1: dict = {}
        c2: dict = {}
        for (e1, e2), c in self.terms.items():
            m1 = c1.get(e1)
            if m1 is None:
                m1 = c1[e1] = v1 ** e1
            m2 = c2.get(e2)
            if m2 is None:
                m2 = c2[e2] = v2 ** e2
            v = m1 * m2
            if not c.is_one():
                v = c * v
            acc = v if acc is None else acc + v
        return self.ring.zero() if acc is None else acc

    def __str__(self) -> str:
        parts = []
        for (e1, e2), c in sorted(self.terms.items(), reverse=True):
            c_str = str(c)
            mono = "*".join(
                ([f"x1^{e1}" if e1 > 1 else "x1"] if e1 else []) +
                ([f"x2^{e2}" if e2 > 1 else "x2"] if e2 else []))
            if not mono:
                parts.append(f"({c_str})" if " + " in c_str else c_str)
            elif c_str == "1":
                parts.append(mono)
            else:
                wrap = " + " in c_str or "/" in c_str or "*" in c_str
                parts.append((f"({c_str})" if wrap else c_str) + f"*{mono}")
        return " + ".join(parts)


def curve_return_set(f: DynPoly, g: DynPoly, gamma: Tuple, curve: PlaneCurve,
                     cap_n: int) -> List[int]:
    """All n <= cap_n with F(f^n(gamma1), g^n(gamma2)) = 0."""
    orbit_a, orbit_b, keyed = _orbits(f, gamma[0], g, gamma[1])
    vanishes = keyed and _vanishes_on_keys(curve, f.ring)
    if not vanishes:
        orbit_a, orbit_b = walk(f, gamma[0]), walk(g, gamma[1])

        def vanishes(v1, v2):
            return not curve.evaluate(v1, v2)
    points = zip(orbit_a, orbit_b)
    return [n for n, (v1, v2) in enumerate(islice(points, cap_n + 1))
            if vanishes(v1, v2)]


_LINEAR = ((1, 0), (0, 1), (0, 0))


def _vanishes_on_keys(curve: PlaneCurve, ring) -> Optional[Callable]:
    """For a curve a*x1 + b*x2 + c over the ring of two keyed orbits, with
    a, b in F_p, c in F_p[t] and (p - 1)(a + b + 1) < 256, the test of two
    walk_keys keys for a zero of it; None for every other curve."""
    if curve.ring != ring or not set(curve.terms) <= set(_LINEAR):
        return None
    spec, zero = ring.spec, ring.zero()
    a, b, c = (curve.terms.get(e, zero) for e in _LINEAR)
    c, zero = key_of(c, spec), key_of(zero, spec)
    if c is None or not (a.is_constant() and b.is_constant()):
        return None
    a, b = a.num.terms.get(0, 0), b.num.terms.get(0, 0)
    if (spec.p - 1) * (a + b + 1) > 255:
        return None
    return lambda v1, v2: combine_keys(
        ((a, a, v1), (b, b, v2), (1, 1, c)), spec.p) == zero


class ReturnModel(Frozen):
    """A description of a return set within a cap: a tuple of arithmetic
    progressions (step, start), a tuple of p-sets (a, b, r) with Fractions
    a, b standing for {a*p^(r*k)+b : k >= 0}, and a finite remainder, a
    tuple of ints."""

    __slots__ = ("p", "cap", "finite", "aps", "psets")

    def members(self) -> List[int]:
        """Every modeled value within the cap, sorted and deduplicated."""
        out = set(self.finite)
        for step, start in self.aps:
            out.update(range(start, self.cap + 1, step))
        for a, b, r in self.psets:
            scale = self.p ** r
            val = a + b
            while val <= self.cap:
                out.add(int(val))
                val = (val - b) * scale + b
        return sorted(out)

    def __str__(self) -> str:
        bits = []
        for step, start in self.aps:
            bits.append(f"{{{step}k+{start}}}")
        for a, b, r in self.psets:
            bits.append(f"{{({a})*{self.p}^({r}k)+({b})}}")
        if self.finite:
            bits.append("{" + ", ".join(map(str, self.finite)) + "}")
        return " u ".join(bits) if bits else "{}"


MIN_AP_WITNESSES = 4
MIN_PSET_WITNESSES = 3
MAX_PSET_STRIDE = 3


def fit_return_model(data: Union[ReturnSet, Iterable[int]], p: int,
                     cap: int) -> ReturnModel:
    """Greedy, deterministic classification of the data within the cap.

    Arithmetic progressions are extracted first (smallest start, then
    smallest step, at least 4 members, every member up to the cap present);
    then p-sets are solved from the two smallest uncovered members for the
    smallest stride r that validates (at least 3 members, all present);
    whatever remains is reported as a finite set.  APs win ties by
    construction, and refitting a model's own members reproduces the model
    when the pieces do not overlap.
    """
    if isinstance(data, ReturnSet):
        values = data.n_values()
    else:
        values = sorted(set(data))
    if values and (values[0] < 0 or values[-1] > cap):
        raise ValueError("data outside [0, cap]")
    data_set = set(values)
    covered: set = set()
    aps: List[Tuple[int, int]] = []

    for start in values:
        if start in covered:
            continue
        max_step = (cap - start) // (MIN_AP_WITNESSES - 1)
        for step in range(1, max_step + 1):
            members = range(start, cap + 1, step)
            if all(v in data_set for v in members):
                aps.append((step, start))
                covered.update(members)
                break

    psets: List[Tuple[Fraction, Fraction, int]] = []
    for x0 in values:
        if x0 in covered:
            continue
        hit = None
        for r in range(1, MAX_PSET_STRIDE + 1):
            den = p ** r - 1
            for x1 in values:
                if x1 <= x0 or x1 in covered:
                    continue
                a = Fraction(x1 - x0, den)
                b = x0 - a
                members = []
                val = a + b
                while val <= cap:
                    if val.denominator != 1 or int(val) not in data_set:
                        members = None
                        break
                    members.append(int(val))
                    val = (val - b) * (den + 1) + b
                if members and len(members) >= MIN_PSET_WITNESSES:
                    hit = (a, b, r, members)
                    break
            if hit:
                break
        if hit:
            a, b, r, members = hit
            psets.append((a, b, r))
            covered.update(members)

    finite = tuple(v for v in values if v not in covered)
    return ReturnModel(p, cap, finite, tuple(aps), tuple(psets))


def ap_implies_common_iterate(f: DynPoly, g: DynPoly, a: int, b: int,
                              alpha, beta, cap_n: int,
                              budget: Optional[Budget] = None) -> str:
    """Check a claimed arithmetic progression {a*n+b} of diagonal
    collisions, then the iterate identity it would force.

    'confirmed' means the data holds for n <= cap_n and f^a = g^a
    symbolically; 'refuted-data' means some claimed collision fails;
    'refuted-iterate' means the data held but the iterates differ.
    """
    if a < 1 or b < 0:
        raise ValueError("need a >= 1 and b >= 0")
    points = zip(islice(walk(f, alpha), b, None, a),
                 islice(walk(g, beta), b, None, a))
    if any(x != y for x, y in islice(points, cap_n + 1)):
        return "refuted-data"
    if f.iterate(a, budget) == g.iterate(a, budget):
        return "confirmed"
    return "refuted-iterate"

