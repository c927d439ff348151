"""The twisted polynomial ring K{T} with the rule T*c = c^p * T.

Elements are stored sparsely, as every polynomial of the package is: terms
maps each T-degree to its nonzero coefficient, and sums and products go
through field's shared kernels.  Multiplication follows

    (sum a_i T^i) * (sum b_j T^j) = sum_i sum_j a_i * b_j^(p^i) * T^(i+j)

so the ring is noncommutative unless every coefficient is fixed by the
p-power map, i.e. lies in the prime field.  A power draws on the T-degree
cap of the caller's dynpoly.Budget rather than on its degree work, because
T-degree n corresponds to x-degree p^n; the default cap is 4096.

A twisted polynomial is the same data as an additive polynomial in x
(T^i standing for x^(p^i)); to_dynpoly / from_dynpoly convert between the
two views, and its value at a point is the value of that map.  TwistedPoly
and DynPoly share one base, dynpoly._Terms: construction, zero, constant,
the sum, negation and ring check.
"""

from __future__ import annotations

import operator
from typing import Optional, Union

from .errors import NotAdditive
from .field import (Frozen, format_terms, power, sparse_lincomb, sparse_mul,
                    sparse_terms)
from .funcfield import ExtElem, ExtRing, KRing

from .dynpoly import (Budget, DynPoly, is_additive, _p_split, _scalar_in,
                      _Terms)

Ring = Union[KRing, ExtRing]


class TwistedPoly(_Terms, Frozen):
    __slots__ = ("ring", "terms")

    @classmethod
    def make(cls, ring: Ring, coeffs) -> "TwistedPoly":
        """From dense coefficients, lowest T-degree first; zeros drop."""
        return cls(ring, sparse_terms(_scalar_in(ring, c) for c in coeffs))

    @classmethod
    def one(cls, ring: Ring) -> "TwistedPoly":
        return cls(ring, {0: ring.one()})

    @classmethod
    def tau(cls, ring: Ring, k: int = 1) -> "TwistedPoly":
        """The monomial T^k."""
        if k < 0:
            raise ValueError("negative T-degree")
        return cls(ring, {k: ring.one()})

    @property
    def tau_degree(self) -> int:
        return max(self.terms, default=-1)

    def __mul__(self, other: "TwistedPoly") -> "TwistedPoly":
        self._check(other)
        # row i pairs a_i T^i with b^(p^i), twisted from the row before
        rows, shifted, last = [], other.terms, 0
        for i in sorted(self.terms):
            if i > last:
                shifted = {j: c.frobenius(i - last)
                           for j, c in shifted.items()}
                last = i
            rows.append(({i: self.terms[i]}, shifted))
        return TwistedPoly(self.ring, sparse_lincomb(rows))

    def __pow__(self, n: int) -> "TwistedPoly":
        return twisted_pow(self, n)

    def all_prime_field(self) -> bool:
        return all(c.in_prime_field() for c in self.terms.values())

    def evaluate(self, point):
        """Value of the additive polynomial this encodes."""
        return self.to_dynpoly().evaluate(point)

    def to_dynpoly(self) -> DynPoly:
        p = self.spec.p
        return DynPoly(self.ring, {p ** i: c for i, c in self.terms.items()})

    @classmethod
    def from_dynpoly(cls, f: DynPoly) -> "TwistedPoly":
        if not is_additive(f):
            raise NotAdditive(f"{f} has a non-p-power term")
        p = f.spec.p
        return cls(f.ring, {_p_split(e, p)[1]: c for e, c in f.terms.items()})

    def __str__(self) -> str:
        return format_terms(self.terms, "T", descending=False)

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
    base = {i: _prime_int(c) for i, c in a.terms.items()}
    acc = power(base, n, lambda x, y: sparse_mul(x, y, p),
                lambda x, k: {e * p ** k: v for e, v in x.items()}, p)
    ring = a.ring
    scalars = [ring.from_int(v) for v in range(p)]
    return TwistedPoly(ring, {i: scalars[v] for i, v in acc.items()})


def _prime_int(c) -> int:
    if isinstance(c, ExtElem):
        c = c.as_K()
    return c.constant_value().as_int()

