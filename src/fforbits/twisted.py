"""The twisted polynomial ring K{T} with the rule T*c = c^p * T.

Elements are stored densely (coefficient tuple, ascending T-degree), which
is the right shape here: products and powers fill in low terms quickly, and
the T-degree budget keeps tuples short.  Multiplication follows

    (sum a_i T^i) * (sum b_j T^j) = sum_i sum_j a_i * b_j^(p^i) * T^(i+j)

so the ring is noncommutative unless every coefficient is fixed by the
p-power map, i.e. lies in the prime field.  A power draws on the T-degree
cap of the caller's dynpoly.Budget rather than on its degree work, because
T-degree n corresponds to x-degree p^n; the default cap is 4096.

A twisted polynomial is the same data as an additive polynomial in x
(T^i standing for x^(p^i)); to_dynpoly / from_dynpoly convert between the
two views.  Over K, at a polynomial point with polynomial coefficients,
evaluation forms the value sum c_i * N^(p^i) as one sum of products
(field.sparse_lincomb); at any other point it evaluates the DynPoly.
"""

from __future__ import annotations

import operator
from typing import Optional, Union

from .errors import NotAdditive, RingMismatch
from .field import (FieldSpec, Frozen, format_terms, power, sparse_lincomb,
                    sparse_mul)
from .funcfield import ExtElem, ExtRing, FFPoly, KRing, RatFunc

from .dynpoly import Budget, DynPoly, is_additive, _scalar_in

Ring = Union[KRing, ExtRing]
Scalar = Union[RatFunc, ExtElem]


class TwistedPoly(Frozen):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def make(cls, ring: Ring, coeffs) -> "TwistedPoly":
        cs = [_scalar_in(ring, c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return cls(ring, tuple(cs))

    @classmethod
    def zero(cls, ring: Ring) -> "TwistedPoly":
        return cls(ring, ())

    @classmethod
    def one(cls, ring: Ring) -> "TwistedPoly":
        return cls(ring, (ring.one(),))

    @classmethod
    def constant(cls, ring: Ring, c) -> "TwistedPoly":
        c = _scalar_in(ring, c)
        return cls(ring, (c,) if c else ())

    @classmethod
    def tau(cls, ring: Ring, k: int = 1) -> "TwistedPoly":
        """The monomial T^k."""
        if k < 0:
            raise ValueError("negative T-degree")
        return cls(ring, (ring.zero(),) * k + (ring.one(),))

    @property
    def spec(self) -> FieldSpec:
        return self.ring.spec

    @property
    def tau_degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def _check(self, other: "TwistedPoly") -> None:
        if self.ring != other.ring:
            raise RingMismatch("twisted polynomials over different rings")

    def __add__(self, other: "TwistedPoly") -> "TwistedPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        while out and not out[-1]:
            out.pop()
        return TwistedPoly(self.ring, tuple(out))

    def __neg__(self) -> "TwistedPoly":
        return TwistedPoly(self.ring, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "TwistedPoly") -> "TwistedPoly":
        return self + (-other)

    def __mul__(self, other: "TwistedPoly") -> "TwistedPoly":
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return TwistedPoly.zero(self.ring)
        zero = self.ring.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        shifted = list(other.coeffs)  # holds b^(p^i) for the current row i
        last = 0
        for i, ai in enumerate(self.coeffs):
            if not ai:
                continue
            if i > last:
                gap = i - last
                shifted = [c.frobenius(gap) for c in shifted]
                last = i
            for j, bj in enumerate(shifted):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        while out and not out[-1]:
            out.pop()
        return TwistedPoly(self.ring, tuple(out))

    def __pow__(self, n: int) -> "TwistedPoly":
        return twisted_pow(self, n)

    def all_prime_field(self) -> bool:
        return all(c.in_prime_field() for c in self.coeffs)

    def evaluate(self, point):
        """Value of the additive polynomial this encodes.  Over K, at a
        polynomial point with polynomial coefficients, one sum of products;
        at any other point, to_dynpoly().evaluate."""
        ring = self.ring
        if isinstance(ring, KRing) and not isinstance(point, ExtElem):
            point = _scalar_in(ring, point)
            if point.is_poly():
                # row i pairs c_i with N^(p^i); q = p^i runs across the rows
                spec, terms, q, last = ring.spec, point.num.terms, 1, 0
                pairs = []
                for i, c in enumerate(self.coeffs):
                    if not (cs := c.num.terms):
                        continue
                    if not c.is_poly():
                        break
                    q, last = q * spec.p ** (i - last), i
                    pairs.append((cs, {e * q: a if spec.int_p
                                       else a.frobenius(i)
                                       for e, a in terms.items()}))
                else:
                    return RatFunc.from_poly(FFPoly(spec, sparse_lincomb(
                        pairs, spec.int_p)))
        # a point with a denominator D does not take the one sum: over the
        # common denominator D^(p^d) term i would need D^(p^d - p^i), a
        # dense product of d - i Frobenius images
        return self.to_dynpoly().evaluate(point)

    def to_dynpoly(self) -> DynPoly:
        p = self.spec.p
        return DynPoly(self.ring,
                       {p ** i: c for i, c in enumerate(self.coeffs) if c})

    @classmethod
    def from_dynpoly(cls, f: DynPoly) -> "TwistedPoly":
        p = f.spec.p
        if not is_additive(f):
            raise NotAdditive(f"{f} has a non-p-power term")
        rows = {}
        for e, c in f.terms.items():
            i = 0
            while e > 1:
                e //= p
                i += 1
            rows[i] = c
        if not rows:
            return cls.zero(f.ring)
        top = max(rows)
        zero = f.ring.zero()
        return cls(f.ring, tuple(rows.get(i, zero) for i in range(top + 1)))

    def __str__(self) -> str:
        return format_terms(dict(enumerate(self.coeffs)), "T",
                            descending=False)

    def __repr__(self) -> str:
        return f"TwistedPoly({self})"


def twisted_pow(a: TwistedPoly, n: int,
                budget: Optional[Budget] = None) -> TwistedPoly:
    """a^n in K{T}, with the result's T-degree capped by the budget.

    When every coefficient lies in the prime field the factors commute and
    the power splits along the base-p digits of n, which keeps things sparse
    even at degree thousands; otherwise binary powering, since K{T} has no
    Frobenius shortcut.
    """
    if n < 0:
        raise ValueError("negative power in K{T}")
    if n == 0:
        return TwistedPoly.one(a.ring)
    d = a.tau_degree
    Budget.of(budget).check_tau(d * n)
    if d < 0:
        return TwistedPoly.zero(a.ring)
    if a.all_prime_field():
        return _prime_field_pow(a, n)
    return power(a, n, operator.mul)


def _prime_field_pow(a: TwistedPoly, n: int) -> TwistedPoly:
    # commutative case: work in GF(p)[T] on plain ints, using that the
    # p-th power just dilates exponents (coefficients are Frobenius-fixed)
    p = a.spec.p
    base = {i: _prime_int(c) for i, c in enumerate(a.coeffs) if c}
    acc = power(base, n, lambda x, y: sparse_mul(x, y, p),
                lambda x, k: {e * p ** k: v for e, v in x.items()}, p)
    ring = a.ring
    scalars = [ring.from_int(v) for v in range(p)]
    coeffs = [scalars[0]] * (max(acc) + 1)
    for i, v in acc.items():
        coeffs[i] = scalars[v]
    return TwistedPoly(ring, tuple(coeffs))


def _prime_int(c) -> int:
    if isinstance(c, ExtElem):
        c = c.as_K()
    return c.constant_value().as_int()

