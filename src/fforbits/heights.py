"""Weil and canonical heights over K = GF(q)(t), and the degree-growth
sieve that every orbit collision (m, n) passes.

Everything here is exact: heights are integers, canonical-height estimates
are Fractions with an explicit error bound, and the sieve inequality
(PruningData.admits, one index pair at a time) is evaluated in rational
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from .dynpoly import DynPoly, orbit_element
from .field import Frozen
from .funcfield import KRing, RatFunc

DEFAULT_TARGET_ERROR = Fraction(1, 64)


class HeightGapConstant(Frozen):
    """The int B with |h(f(gamma)) - d*h(gamma)| <= B for every gamma in K."""

    __slots__ = ("B",)


class HeightEstimate(Frozen):
    """value = h(f^N(gamma)) / d^N, a Fraction within the Fraction
    error_bound of the canonical height, where N = iterations."""

    __slots__ = ("value", "error_bound", "iterations")

    def interval(self) -> Tuple[Fraction, Fraction]:
        return (self.value - self.error_bound, self.value + self.error_bound)

    def __str__(self) -> str:
        return f"{self.value} +/- {self.error_bound} (N={self.iterations})"


def height_gap_constant(f: DynPoly) -> HeightGapConstant:
    """A proven two-sided bound on the height defect of one application of f.

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
    return HeightGapConstant(max(b_up, b_down))


def canonical_height(f: DynPoly, gamma: RatFunc,
                     target_error: Fraction = DEFAULT_TARGET_ERROR
                     ) -> HeightEstimate:
    """Estimate lim h(f^n(gamma))/d^n with the smallest N whose guaranteed
    error B/(d^N (d-1)) meets target_error.

    The bound telescopes: |h(f^{n+1} x)/d^{n+1} - h(f^n x)/d^n| <= B/d^{n+1},
    and the geometric tail from N sums to B/(d^N (d-1)).
    """
    d = f.degree
    if d < 2:
        raise ValueError("needs degree >= 2")
    b = height_gap_constant(f).B
    target = Fraction(target_error)
    n = 0
    if b:
        if target <= 0:
            raise ValueError("target_error must be positive")
        while Fraction(b, d ** n * (d - 1)) > target:
            n += 1
    point = orbit_element(f, gamma, n)
    return HeightEstimate(Fraction(point.height(), d ** n),
                          Fraction(b, d ** n * (d - 1)), n)


def rationalize(est: HeightEstimate, denominator_bound: int
                ) -> Optional[Fraction]:
    """The unique rational with denominator <= bound inside the estimate's
    closed interval, or None (no candidate, or more than one)."""
    if denominator_bound < 1:
        raise ValueError("denominator bound must be positive")
    lo, hi = est.interval()
    found = None
    for q in range(1, denominator_bound + 1):
        n_lo = -((-lo.numerator * q) // lo.denominator)   # ceil(lo*q)
        n_hi = (hi.numerator * q) // hi.denominator       # floor(hi*q)
        if n_hi - n_lo > 1:
            return None
        for n in range(n_lo, n_hi + 1):
            cand = Fraction(n, q)
            if found is None:
                found = cand
            elif cand != found:
                return None
    return found


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
                   cap_m: int, cap_n: int) -> PruningData:
    """Sound sieve data for intersecting the two orbits within the caps.

    u_i are the N = cap estimates; their error after scaling by d^m
    (m <= cap) stays within B/(d-1), so a collision at (m, n) satisfies

        |d^m u1 - e^n u2| <= 2 B_f/(d-1) + 2 B_g/(e-1) < 2(B_f + B_g) + 1

    and c = 2(B_f + B_g) + 1 never filters out a real collision.
    """
    d, e = f.degree, g.degree
    bf = height_gap_constant(f).B
    bg = height_gap_constant(g).B
    u1 = Fraction(orbit_element(f, alpha, cap_m).height(), d ** cap_m)
    u2 = Fraction(orbit_element(g, beta, cap_n).height(), e ** cap_n)
    return PruningData(u1, u2, Fraction(2 * (bf + bg) + 1))
