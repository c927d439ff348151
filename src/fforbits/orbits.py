"""Orbit intersection and the shape of return sets.

The search primitives are exact and pointwise: orbits are walked by repeated
evaluation, collisions are found by keying a dict with the points themselves
(hash and equality are structural on canonical forms, so a dict hit is a
structural match), and an optional height sieve then tests each pair found;
with sound height data it admits every true collision.

fit_return_model classifies a finite slice of a return set into the shapes
that actually occur here: arithmetic progressions {a*k + b}, geometric
"p-sets" {a*p^(r*k) + b} whose a and b are rationals with denominator
p^r - 1, and a finite remainder.  The fit is greedy and deterministic; it
describes the data within the caps and claims nothing beyond them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .dynpoly import DynPoly, orbit_element, orbit_prefix
from .errors import RingMismatch
from .field import Frozen
from .funcfield import RatFunc
from .heights import PruningData, multiplicative_dependence


class ReturnSet(Frozen):
    """Collision pairs (m, n) with f^m(alpha) = g^n(beta), a sorted tuple,
    within the caps that were searched."""

    __slots__ = ("pairs", "cap_m", "cap_n", "exhaustive")

    def n_values(self) -> List[int]:
        return sorted({n for _, n in self.pairs})

    def __str__(self) -> str:
        inside = ", ".join(f"({m},{n})" for m, n in self.pairs)
        return f"{{{inside}}} for m <= {self.cap_m}, n <= {self.cap_n}"


def intersect_orbits(f: DynPoly, alpha, g: DynPoly, beta,
                     cap_m: int, cap_n: int,
                     pruning: Optional[PruningData] = None) -> ReturnSet:
    """All (m, n) within the caps where the two orbits meet.

    Collisions are found by one dict join of the two walked orbits; with
    pruning, only the joined pairs that the height sieve admits are kept.
    """
    if f.degree < 2 or g.degree < 2:
        raise ValueError("orbit intersection is for degrees >= 2")
    if f.ring != g.ring:
        raise RingMismatch("orbits live in different rings")
    orbit_a = orbit_prefix(f, _point(f, alpha), cap_m)
    orbit_b = orbit_prefix(g, _point(g, beta), cap_n)
    index = {}
    for m, v in enumerate(orbit_a):
        index.setdefault(v, []).append(m)
    pairs = sorted((m, n) for n, v in enumerate(orbit_b)
                   for m in index.get(v, ())
                   if pruning is None
                   or pruning.admits(f.degree, g.degree, m, n))
    return ReturnSet(tuple(pairs), cap_m, cap_n, True)


def _point(f: DynPoly, value):
    # accept raw ints and K values; evaluate() does the ring checking
    if isinstance(value, int):
        return f.ring.from_int(value)
    return value


def synchronized_collisions(f: DynPoly, alpha, g: DynPoly, beta,
                            r: int, s: int, a: int, b: int,
                            cap_n: int) -> List[int]:
    """All n <= cap_n with f^(r*n+a)(alpha) = g^(s*n+b)(beta)."""
    if r < 1 or s < 1 or a < 0 or b < 0:
        raise ValueError("need r, s >= 1 and a, b >= 0")
    x = orbit_element(f, _point(f, alpha), a)
    y = orbit_element(g, _point(g, beta), b)
    out = []
    for n in range(cap_n + 1):
        if x == y:
            out.append(n)
        if n < cap_n:
            for _ in range(r):
                x = f.evaluate(x)
            for _ in range(s):
                y = g.evaluate(y)
    return out


class SameDegreeReduction(Frozen):
    """Replacement data (f1, g1) = (f^r, g^s) with equal degrees, the
    shifted starting points alpha1 = f^a(alpha), beta1 = g^b(beta), and the
    exponents used."""

    __slots__ = ("f1", "g1", "alpha1", "beta1", "r", "s", "a", "b")


def reduce_to_same_degree(f: DynPoly, alpha, g: DynPoly, beta,
                          cap_m: int = 16, cap_n: int = 16,
                          budget: Optional[int] = None
                          ) -> Optional[SameDegreeReduction]:
    """Rewrite the intersection problem with both maps of equal degree.

    None when the degrees are multiplicatively independent (the orbits can
    then meet only finitely often).  The index shifts a, b are the residues
    of the first observed collision within the caps, or 0 if none shows up.
    """
    if f.degree < 2 or g.degree < 2:
        raise ValueError("needs degrees >= 2")
    dep = multiplicative_dependence(f.degree, g.degree)
    if dep is None:
        return None
    r, s = dep
    hits = intersect_orbits(f, alpha, g, beta, cap_m, cap_n)
    if hits.pairs:
        m0, n0 = hits.pairs[0]
        a, b = m0 % r, n0 % s
    else:
        a = b = 0
    return SameDegreeReduction(
        f.iterate(r, budget), g.iterate(s, budget),
        orbit_element(f, _point(f, alpha), a),
        orbit_element(g, _point(g, beta), b),
        r, s, a, b)


class PlaneCurve(Frozen):
    """A nonzero polynomial F(x1, x2) over K, tested for vanishing at
    orbit points of the product map (x1, x2) -> (f(x1), g(x2))."""

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
    def diagonal(cls, ring) -> "PlaneCurve":
        return cls.make(ring, {(1, 0): ring.one(), (0, 1): -ring.one()})

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
    v1, v2 = _point(f, gamma[0]), _point(g, gamma[1])
    out = []
    for n in range(cap_n + 1):
        if not curve.evaluate(v1, v2):
            out.append(n)
        if n < cap_n:
            v1 = f.evaluate(v1)
            v2 = g.evaluate(v2)
    return out


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
                              budget: Optional[int] = None) -> str:
    """Check a claimed arithmetic progression {a*n+b} of diagonal
    collisions, then the iterate identity it would force.

    'confirmed' means the data holds for n <= cap_n and f^a = g^a
    symbolically; 'refuted-data' means some claimed collision fails;
    'refuted-iterate' means the data held but the iterates differ.
    """
    if a < 1 or b < 0:
        raise ValueError("need a >= 1 and b >= 0")
    x = orbit_element(f, _point(f, alpha), b)
    y = orbit_element(g, _point(g, beta), b)
    for n in range(cap_n + 1):
        if x != y:
            return "refuted-data"
        if n < cap_n:
            for _ in range(a):
                x = f.evaluate(x)
                y = g.evaluate(y)
    if f.iterate(a, budget) == g.iterate(a, budget):
        return "confirmed"
    return "refuted-iterate"


def detect_preperiodicity(f: DynPoly, gamma, max_steps: int
                          ) -> Optional[Tuple[int, int]]:
    """(tail length, period) if the orbit revisits a point within
    max_steps evaluations, else None."""
    v = _point(f, gamma)
    seen = {v: 0}
    for i in range(1, max_steps + 1):
        v = f.evaluate(v)
        if v in seen:
            return (seen[v], i - seen[v])
        seen[v] = i
    return None
