"""Weil and canonical heights over K = GF(q)(t), and the degree-growth
sieve that every orbit collision (m, n) passes.

Everything here is exact: heights are integers, canonical-height estimates
are Fractions with an explicit error bound, and the sieve inequality
(PruningData.admits, one index pair at a time) is evaluated in rational
arithmetic.  rationalize pins an estimate down by continued fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from typing import List, Optional, Tuple

from .dynpoly import DynPoly, walk
from .field import Frozen
from .funcfield import FFPoly, KRing, RatFunc

DEFAULT_TARGET_ERROR = Fraction(1, 64)


class HeightEstimate(Frozen):
    """value = h(f^N(gamma)) / d^N, a Fraction within the Fraction
    error_bound of the canonical height, where N = iterations."""

    __slots__ = ("value", "error_bound", "iterations")

    def interval(self) -> Tuple[Fraction, Fraction]:
        return (self.value - self.error_bound, self.value + self.error_bound)

    def __str__(self) -> str:
        return f"{self.value} +/- {self.error_bound} (N={self.iterations})"


def height_gap_constant(f: DynPoly) -> int:
    """A proven two-sided bound on the height defect of one application of
    f: the int B with |h(f(gamma)) - d*h(gamma)| <= B for every gamma in K.

    Write f = sum c_i x^i with leading coefficient c_d, and work place by
    place on K (monic irreducibles and the degree at infinity), where
    h(gamma) = sum over places of deg(v) * max(0, -v(gamma)).

    Upward: -v(f(gamma)) <= max_i(-v(c_i)) + d*max(0, -v(gamma)), and
    summing the coefficient part over places gives at most
    B_up = sum_i h(c_i).

    Downward: at a place where gamma has a pole of order u, either u is
    large enough that the leading term strictly dominates every other
    (threshold (v(c_d)-v(c_i))/(d-i) per term), making the defect at most
    max(0, v(c_d)), or u is below the threshold and d*u is itself small.
    Summing thresholds and using sum_v deg(v)*max(0, v(c_d)) = h(c_d) gives
    B_down = h(c_d) + d * sum_{i<d} h(c_d/c_i) over nonzero c_i.

    B = max(B_up, B_down); it is 0 exactly for monomial-like maps such as
    x^d, where the height transforms with no defect at all.
    """
    if not isinstance(f.ring, KRing):
        raise ValueError("height theory lives over K")
    d = f.degree
    if d < 2:
        raise ValueError("needs degree >= 2")
    lead = f.terms[d]
    b_up = 0
    b_down = lead.height()
    for e, c in f.terms.items():
        b_up += c.height()
        if e < d:
            b_down += d * (lead / c).height()
    return max(b_up, b_down)


def canonical_height(f: DynPoly, gamma: RatFunc,
                     target_error: Fraction = DEFAULT_TARGET_ERROR,
                     gap: Optional[int] = None
                     ) -> HeightEstimate:
    """Estimate lim h(f^n(gamma))/d^n with the smallest N whose guaranteed
    error B/(d^N (d-1)) meets target_error; orbit_height gives h(f^N(gamma)).
    B is gap, height_gap_constant(f) when gap is None.

    The bound telescopes: |h(f^{n+1} x)/d^{n+1} - h(f^n x)/d^n| <= B/d^{n+1},
    and the geometric tail from N sums to B/(d^N (d-1)).
    """
    d = f.degree
    if d < 2:
        raise ValueError("needs degree >= 2")
    b = height_gap_constant(f) if gap is None else gap
    target = Fraction(target_error)
    n = 0
    if b:
        if target <= 0:
            raise ValueError("target_error must be positive")
        while Fraction(b, d ** n * (d - 1)) > target:
            n += 1
    return HeightEstimate(Fraction(orbit_height(f, gamma, n), d ** n),
                          Fraction(b, d ** n * (d - 1)), n)


def orbit_height(f: DynPoly, gamma: RatFunc, n: int) -> int:
    """orbit_element(f, gamma, n).height(), walked until every place settles.

    Write f = sum c_i x^i of degree d >= 2.  Poles of orbit points lie at
    infinity or over a pairwise coprime base of F_q[t] in which den(gamma),
    num(c_d) and each den(c_i) factor.  Over a base element b, let u be the
    pole order of a point in units of b (if one u fits every place over b),
    w the exponent of b in c_d and l_i <= v_b(c_i).  Once (d-i)*u > w - l_i
    for each nonzero c_i with i < d and (d-1)*u > w, c_d x^d dominates
    there ever after and u -> d*u - w (Call-Silverman 1993, Benedetto 2005).
    A place where neither the point nor any c_i has a pole stays pole-free.
    """
    d = f.degree
    if not isinstance(f.ring, KRing) or d < 2 or n < 0:
        raise ValueError("needs a map over K of degree >= 2 and n >= 0")
    lead = f.terms[d]

    def place(b, low, zeros=0):  # low(c) <= v(c), exact at infinity
        w = zeros + low(lead)
        bar = max([Fraction(w, d - 1)] + [Fraction(w - low(c), d - i)
                                          for i, c in f.terms.items() if i < d])
        return b, w, bar, all(low(c) >= 0 for c in f.terms.values())

    places = [place(b, lambda c: -_split(c.den, b)[0], _split(lead.num, b)[0])
              for b in _coprime_base([gamma.den, lead.num]
                                     + [c.den for c in f.terms.values()])]
    places.append(place(None, lambda c: c.den.degree - c.num.degree))
    for k, point in enumerate(walk(f, gamma)):
        h = point.height() if k == n else _later_height(point, places, d,
                                                        d ** (n - k))
        if h is not None:
            return h


def _later_height(point: RatFunc, places: list, d: int, m: int
                  ) -> Optional[int]:
    """The height of the point log_d(m) steps after point, or None while a
    place is neither escaped nor pole-free for good."""
    num, den, h = point.num, point.den, 0
    for b, w, bar, inert in places:
        if b is None:  # infinity comes last; den is now a unit iff it was
            if den.degree > 0 or not num:  # a product of base powers
                return None
            u = num.degree - point.den.degree
        else:
            u, den = _split(den, b)
            if not u and not inert and num.gcd(b).degree > 0:
                return None
        if u > 0 or not inert:
            if u <= bar:
                return None
            h += (1 if b is None else b.degree) * max(
                0, u * m - w * ((m - 1) // (d - 1)))
    return h


def _split(a: FFPoly, b: FFPoly) -> Tuple[int, FFPoly]:
    """(e, a / b^e), e maximal; % first: no dense quotient of a sparse a."""
    e = 0
    while a.degree >= b.degree and not a % b:
        a, e = a.divmod(b)[0], e + 1
    return e, a


def _coprime_base(polys: List[FFPoly]) -> List[FFPoly]:
    """Pairwise coprime factors of degree >= 1 that give each of polys up to
    a constant: factor refinement (Bach-Driscoll-Shallit 1993)."""
    base: List[FFPoly] = []
    while polys:
        a = polys.pop()
        b = next((b for b in base if a.gcd(b).degree > 0), None)
        if b is not None:
            base.remove(b)
            g = a.gcd(b)
            polys += [g, a.divmod(g)[0], b.divmod(g)[0]]
        elif a.degree > 0:
            base.append(a)
    return base


def rationalize(est: HeightEstimate, denominator_bound: int
                ) -> Optional[Fraction]:
    """The unique rational with denominator <= bound inside the estimate's
    closed interval, or None (no candidate, or more than one).

    The candidate is the simplest fraction a/b of the interval, read off
    the continued fractions of its ends (Hardy-Wright, ch. X).  It is the
    only one exactly when neither of its neighbours in the Farey series of
    order bound (Hardy-Wright, ch. III) lies in the interval.  A neighbour
    c/d has b*c - a*d = +-1, with d the largest such denominator up to the
    bound.  Both steps take O(log bound) arithmetic operations.
    """
    n = denominator_bound
    if n < 1:
        raise ValueError("denominator bound must be positive")
    lo, hi = est.interval()
    if lo > hi:
        return None
    # convergents p/q of the continued fraction that lo and hi share
    p0, q0, p1, q1 = 0, 1, 1, 0
    x, y = lo, hi
    while ceil(x) > y and q1 <= n:
        c = floor(x)
        p0, q0, p1, q1 = p1, q1, c * p1 + p0, c * q1 + q0
        x, y = 1 / (y - c), 1 / (x - c)
    a, b = ceil(x) * p1 + p0, ceil(x) * q1 + q0
    if b > n:
        return None
    for sign in (1, -1):
        # the neighbour c/d on the side of sign, with b*c - a*d = sign
        d = n - (n + sign * pow(a, -1, b)) % b
        if lo <= Fraction((a * d + sign) // b, d) <= hi:
            return None
    return Fraction(a, b)


def pruned_candidates(u1: Fraction, u2: Fraction, d: int, e: int,
                      c: Fraction, cap_m: int, cap_n: int
                      ) -> List[Tuple[int, int]]:
    """All (m, n) up to the caps that PruningData(u1, u2, c).admits, in
    lexicographic order."""
    data = PruningData(Fraction(u1), Fraction(u2), Fraction(c))
    return [(m, n) for m in range(cap_m + 1) for n in range(cap_n + 1)
            if data.admits(d, e, m, n)]


def multiplicative_dependence(d: int, e: int) -> Optional[Tuple[int, int]]:
    """Minimal coprime (r, s) with d^r = e^s, or None.

    Exists iff d and e have the same prime radical with proportional
    exponent vectors; then r, s are read off one shared prime.
    """
    if d < 2 or e < 2:
        raise ValueError("needs d, e >= 2")
    fd = _factorize(d)
    fe = _factorize(e)
    if set(fd) != set(fe):
        return None
    primes = sorted(fd)
    a0 = fd[primes[0]]
    b0 = fe[primes[0]]
    for q in primes[1:]:
        if fd[q] * b0 != fe[q] * a0:
            return None
    g = gcd(a0, b0)
    return (b0 // g, a0 // g)


def _factorize(n: int) -> dict:
    out: dict = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PruningData(Frozen):
    """Height data driving the collision sieve: canonical-height values u1,
    u2 for the two starting points and the slack constant c, as Fractions."""

    __slots__ = ("u1", "u2", "c")

    def admits(self, d: int, e: int, m: int, n: int) -> bool:
        """The sieve test |d^m * u1 - e^n * u2| < c for maps of degrees d, e.
        Any true orbit collision (m, n) passes it when u1, u2, c come from
        valid height data, so dropping the pairs that fail never loses one."""
        return abs(d ** m * self.u1 - e ** n * self.u2) < self.c


def derive_pruning(f: DynPoly, alpha: RatFunc, g: DynPoly, beta: RatFunc,
                   cap_m: int, cap_n: int, ends=None) -> PruningData:
    """Sound sieve data for intersecting the two orbits within the caps.

    u_i are the N = cap estimates; their error after scaling by d^m
    (m <= cap) stays within B/(d-1), so a collision at (m, n) satisfies

        |d^m u1 - e^n u2| <= 2 B_f/(d-1) + 2 B_g/(e-1) < 2(B_f + B_g) + 1

    and c = 2(B_f + B_g) + 1 never filters out a real collision.  Given
    ends = (f^cap_m(alpha), g^cap_n(beta)), no orbit is walked here.
    """
    d, e = f.degree, g.degree
    bf = height_gap_constant(f)
    bg = height_gap_constant(g)
    h1, h2 = (end.height() for end in ends) if ends else (
        orbit_height(f, alpha, cap_m), orbit_height(g, beta, cap_n))
    u1 = Fraction(h1, d ** cap_m)
    u2 = Fraction(h2, e ** cap_n)
    return PruningData(u1, u2, Fraction(2 * (bf + bg) + 1))
