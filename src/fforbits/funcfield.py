"""The rational function field K = GF(q)(t) and finite extensions of it.

Polynomials in t (FFPoly) are kept sparse: a dict from exponent to nonzero
coefficient, with arbitrary-precision exponents.  Over a prime field GF(p)
a coefficient is a plain int residue in [1, p); over GF(p^r) with r > 1 it
is a FieldElem.  Orbit computations routinely produce things like
t^(2^64) + t, so exponents are never assumed to fit any width.  A
remainder uses long division when the dividend is dense, and is taken
term-by-term with modular exponentiation of t only when a sparse dividend
overhangs the divisor by a wide gap.

Rational functions are kept in the canonical reduced form: denominator monic
and coprime to the numerator.  Two equal values are structurally equal, so
the structural equality and hash of field.Frozen hold for every value here
(FFPoly hashes its terms as sorted items), and any element can key a dict.
RatFunc.make normalizes an arbitrary pair; add and multiply keep reduced
operands reduced by Henrici's rules (Knuth, TAOCP vol. 2, 4.5.1), taking
gcds only of the factors that can share one.

ExtRing models K[y]/(M(y)) for a monic M over K.  An element keeps its
coefficient vector below deg M; products and inverses go through the same
sparse kernels of field as FFPoly does, with RatFunc coefficients in y.
The Frobenius is K-semilinear, (sum c_i y^i)^p = sum c_i^p B_i with
B_i = y^(p*i) mod M, so it is one sum of products over a basis cached on
the ring, with no product reduced mod M.
The modulus is not checked for irreducibility; inverting an element that
shares a factor with M raises ZeroDivisor, which is exactly how a
reducible modulus eventually announces itself.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import operator

from .errors import DivisionByZero, RingMismatch, ZeroDivisor
from .field import (_PACK_SPAN, FieldElem, FieldSpec, Frozen, dense_coeffs,
                    format_terms, power, sparse_add, sparse_divmod,
                    sparse_lincomb, sparse_mul, sparse_neg, sparse_terms,
                    sparse_xgcd)

# % takes the long division when the dividend's degree overhangs the divisor
# by at most this much, or by at most _PACK_SPAN exponents per dividend term
# (the density test of sparse_mul); beyond both, the dividend is sparse
# across a wide gap and is reduced term-by-term via pow-mod of t
_GAP_FOR_POWMOD = 64


def _coeff(spec: FieldSpec, c) -> Union[int, FieldElem]:
    """An int or a FieldElem of spec as a value of FFPoly.terms."""
    p = spec.int_p
    if p and isinstance(c, int):
        return c % p
    c = spec.elem(c)
    return c.coeffs[0] if p else c


def _elem(spec: FieldSpec, c) -> FieldElem:
    """A value of FFPoly.terms as a FieldElem."""
    return FieldElem(spec, (c,)) if spec.int_p else c


def _inverse(c, p: int):
    return pow(c, p - 2, p) if p else c.inverse()


class FFPoly(Frozen):
    """Sparse polynomial in t over GF(p^r): terms maps each exponent to a
    nonzero coefficient, an int in [1, p) when r == 1 and a FieldElem
    otherwise."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms: dict):
        # terms must already be canonical: nonzero coefficients, stored as
        # _coeff stores them
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "terms", terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def make(cls, spec: FieldSpec, terms: dict) -> "FFPoly":
        clean = {}
        for e, c in terms.items():
            c = _coeff(spec, c)
            if c:
                if e < 0:
                    raise ValueError("negative exponent in polynomial")
                clean[e] = c
        return cls(spec, clean)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "FFPoly":
        return cls(spec, {})

    @classmethod
    def one(cls, spec: FieldSpec) -> "FFPoly":
        return cls(spec, {0: spec.unit})

    @classmethod
    def t(cls, spec: FieldSpec) -> "FFPoly":
        return cls(spec, {1: spec.unit})

    @classmethod
    def constant(cls, spec: FieldSpec, c) -> "FFPoly":
        c = _coeff(spec, c)
        return cls(spec, {0: c} if c else {})

    @classmethod
    def monomial(cls, spec: FieldSpec, e: int, c=1) -> "FFPoly":
        c = _coeff(spec, c)
        return cls(spec, {e: c} if c else {})

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1."""
        return max(self.terms) if self.terms else -1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(0) == self.spec.unit

    def leading_coeff(self) -> FieldElem:
        if not self.terms:
            return self.spec.zero()
        return _elem(self.spec, self.terms[max(self.terms)])

    def is_monic(self) -> bool:
        return bool(self.terms) \
            and self.terms[max(self.terms)] == self.spec.unit

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), reverse=True)

    def __hash__(self) -> int:
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "FFPoly") -> None:
        if self.spec != other.spec:
            raise RingMismatch("polynomials over different fields")

    def __add__(self, other: "FFPoly") -> "FFPoly":
        self._check(other)
        return FFPoly(self.spec, sparse_add(self.terms, other.terms,
                                            self.spec.int_p))

    def __neg__(self) -> "FFPoly":
        return FFPoly(self.spec, sparse_neg(self.terms, self.spec.int_p))

    def __sub__(self, other: "FFPoly") -> "FFPoly":
        return self + (-other)

    def __mul__(self, other: "FFPoly") -> "FFPoly":
        self._check(other)
        return FFPoly(self.spec, sparse_mul(self.terms, other.terms,
                                            self.spec.int_p))

    def scale(self, c: Union[FieldElem, int]) -> "FFPoly":
        spec = self.spec
        c = _coeff(spec, c)
        if not c:
            return FFPoly.zero(spec)
        return FFPoly(spec, sparse_mul({0: c}, self.terms, spec.int_p))

    def frobenius(self, k: int = 1) -> "FFPoly":
        """self ** (p ** k), via the coefficient-wise p-power map; prime
        field coefficients are fixed by it."""
        q = self.spec.p ** k
        if self.spec.int_p:
            return FFPoly(self.spec, {e * q: c for e, c in self.terms.items()})
        return FFPoly(self.spec,
                      {e * q: c.frobenius(k) for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "FFPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return FFPoly.one(self.spec)
        if n == 1:
            return self
        return power(self, n, operator.mul, FFPoly.frobenius, self.spec.p)

    # -- division -----------------------------------------------------

    def divmod(self, other: "FFPoly") -> tuple:
        """Long division; beware: a huge sparse dividend over a small
        divisor has a dense quotient.  Use % for remainders."""
        self._check(other)
        quo, rem = sparse_divmod(self.terms, other.terms, self.spec.int_p)
        return FFPoly(self.spec, quo), FFPoly(self.spec, rem)

    def __mod__(self, other: "FFPoly") -> "FFPoly":
        self._check(other)
        if not other:
            raise DivisionByZero("polynomial remainder by zero")
        db = other.degree
        if db == 0:
            return FFPoly.zero(self.spec)
        if self.degree - db <= max(_GAP_FOR_POWMOD,
                                   _PACK_SPAN * len(self.terms)):
            return self.divmod(other)[1]
        # term-by-term: sum of c * (t^e mod other), binary powering of t
        acc = FFPoly.zero(self.spec)
        cache: dict = {}
        for e, c in self.terms.items():
            acc = acc + _t_power_mod(self.spec, e, other, cache).scale(c)
        return acc

    def exact_div(self, other: "FFPoly") -> "FFPoly":
        quo, rem = self.divmod(other)
        if rem:
            raise ValueError("exact_div with nonzero remainder")
        return quo

    def gcd(self, other: "FFPoly") -> "FFPoly":
        a, b = self, other
        while b:
            a, b = b, a % b
        if not a:
            return a
        return a.scale(_inverse(a.terms[a.degree], a.spec.int_p))

    # -- misc ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self, "t")

    def __repr__(self) -> str:
        return f"FFPoly({self})"


def _t_power_mod(spec: FieldSpec, e: int, modulus: FFPoly, cache: dict) -> FFPoly:
    got = cache.get(e)
    if got is not None:
        return got
    if e < modulus.degree:
        out = FFPoly.monomial(spec, e)
    else:
        # operands stay below degree 2 * deg(modulus), so long division is
        # cheap; % would re-enter the term-by-term path for the same e
        half = _t_power_mod(spec, e // 2, modulus, cache)
        out = (half * half).divmod(modulus)[1]
        if e & 1:
            out = (out * FFPoly.t(spec)).divmod(modulus)[1]
    cache[e] = out
    return out


def _cancel(a: FFPoly, b: FFPoly) -> tuple:
    """a and b divided by their monic gcd."""
    g = a.gcd(b)
    if g.is_one():
        return a, b
    return a.exact_div(g), b.exact_div(g)


def format_poly(poly: FFPoly, var: str) -> str:
    if not poly.terms:
        return "0"
    parts = []
    for e, c in poly.sorted_terms():
        c_str = str(c)
        multi = " + " in c_str
        if e == 0:
            parts.append(f"({c_str})" if multi else c_str)
            continue
        v = var if e == 1 else f"{var}^{e}"
        if c_str == "1":
            parts.append(v)
        elif multi:
            parts.append(f"({c_str})*{v}")
        else:
            parts.append(f"{c_str}*{v}")
    return " + ".join(parts)


class RatFunc(Frozen):
    """Canonical fraction of FFPoly: monic denominator, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: FFPoly, den: FFPoly):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def make(cls, num: FFPoly, den: Optional[FFPoly] = None) -> "RatFunc":
        spec = num.spec
        if den is None:
            den = FFPoly.one(spec)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            return cls(num, FFPoly.one(spec))
        if den.is_one():
            return cls(num, den)
        return cls._monic(*_cancel(num, den))

    @classmethod
    def _monic(cls, num: FFPoly, den: FFPoly) -> "RatFunc":
        """num/den for a coprime pair, both scaled so den is monic."""
        lead = den.terms[den.degree]
        if lead != den.spec.unit:
            u = _inverse(lead, den.spec.int_p)
            num, den = num.scale(u), den.scale(u)
        return cls(num, den)

    @classmethod
    def from_poly(cls, num: FFPoly) -> "RatFunc":
        return cls(num, FFPoly.one(num.spec))

    @classmethod
    def zero(cls, spec: FieldSpec) -> "RatFunc":
        return cls.from_poly(FFPoly.zero(spec))

    @classmethod
    def one(cls, spec: FieldSpec) -> "RatFunc":
        return cls.from_poly(FFPoly.one(spec))

    @classmethod
    def t(cls, spec: FieldSpec) -> "RatFunc":
        return cls.from_poly(FFPoly.t(spec))

    @classmethod
    def constant(cls, spec: FieldSpec, c) -> "RatFunc":
        return cls.from_poly(FFPoly.constant(spec, c))

    @property
    def spec(self) -> FieldSpec:
        return self.num.spec

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.is_one()

    def constant_value(self) -> FieldElem:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        c = self.num.terms.get(0)
        return self.spec.zero() if c is None else _elem(self.spec, c)

    def height(self) -> int:
        """Weil height: max degree of the reduced pair; 0 iff constant."""
        return max(self.num.degree, self.den.degree, 0)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        # Henrici: with both operands reduced, only gcd(b, d) and then
        # gcd(t, g) can be nontrivial, so no gcd of the full cross sum
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a:
            return other
        if not c:
            return self
        if b.is_one():
            if d.is_one():
                return RatFunc(a + c, b)
            # gcd(a*d + c, d) = gcd(c, d) = 1
            return RatFunc(a * d + c, d)
        if d.is_one():
            return RatFunc(a + c * b, b)
        g = b.gcd(d)
        if g.is_one():
            return RatFunc(a * d + c * b, b * d)
        b = b.exact_div(g)
        t = a * d.exact_div(g) + c * b
        if not t:
            return RatFunc.zero(self.spec)
        g2 = t.gcd(g)
        if not g2.is_one():
            t = t.exact_div(g2)
            d = d.exact_div(g2)
        return RatFunc(t, b * d)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        # Henrici: with both operands reduced, a common factor of the
        # product lies in gcd(a, d) or gcd(c, b), so cancel those first
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or other.is_one():
            return self
        if not c or self.is_one():
            return other
        if b.is_one() and d.is_one():
            return RatFunc(a * c, b)
        if not d.is_one():
            a, d = _cancel(a, d)
        if not b.is_one():
            c, b = _cancel(c, b)
        return RatFunc(a * c, b * d)

    def inverse(self) -> "RatFunc":
        # the swapped pair is still coprime, so no gcd
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return RatFunc._monic(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def frobenius(self, k: int = 1) -> "RatFunc":
        # reduced stays reduced and monic stays monic under x -> x^(p^k)
        return RatFunc(self.num.frobenius(k), self.den.frobenius(k))

    def __pow__(self, n: int) -> "RatFunc":
        # reduced stays reduced and monic stays monic under powers
        if n < 0:
            return self.inverse() ** (-n)
        if n == 1:
            return self
        if self.den.is_one():
            return RatFunc(self.num ** n, self.den)
        return RatFunc(self.num ** n, self.den ** n)

    def in_prime_field(self) -> bool:
        return self.is_constant() and self.constant_value().in_prime_field()

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        num_s = str(self.num)
        den_s = str(self.den)
        if " + " in num_s or "*" in num_s:
            num_s = f"({num_s})"
        if " + " in den_s or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


class ExtRing(Frozen):
    """K[y]/(M(y)) for a monic M of degree >= 1 over K.

    Doubles as the coefficient-ring handle used by DynPoly and TwistedPoly.
    """

    __slots__ = ("spec", "modulus", "_hash", "_mod", "_zero", "_frob_basis")

    def __init__(self, spec: FieldSpec, modulus: Sequence[RatFunc]):
        modulus = tuple(modulus)
        if len(modulus) < 2:
            raise ValueError("extension modulus must have degree >= 1")
        if not modulus[-1].is_one():
            raise ValueError("extension modulus must be monic")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_hash", hash((spec, modulus)))
        object.__setattr__(self, "_mod", sparse_terms(modulus))
        # immutable, so every element pads its vector with this one zero
        object.__setattr__(self, "_zero", RatFunc.zero(spec))
        object.__setattr__(self, "_frob_basis", None)

    def frobenius_basis(self) -> tuple:
        """B_i = y^(p*i) mod M for i below the degree, as sparse dicts,
        cached: (sum c_i y^i)^p = sum c_i^p B_i, so the p-th power map is
        K-semilinear over this basis."""
        if self._frob_basis is None:
            yp = power(self.y(), self.spec.p, operator.mul)
            basis = [self.one()]
            for _ in range(1, self.degree):
                basis.append(basis[-1] * yp)
            object.__setattr__(self, "_frob_basis", tuple(
                sparse_terms(b.coeffs) for b in basis))
        return self._frob_basis

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def elem(self, coeffs: Iterable[RatFunc]) -> "ExtElem":
        return self.from_terms(sparse_terms(coeffs))

    def from_terms(self, terms: dict) -> "ExtElem":
        """The element sum of c * y^e over terms, with every e below the
        degree."""
        if terms and max(terms) >= self.degree:
            raise ValueError("coefficient vector longer than extension degree")
        return ExtElem(self, dense_coeffs(terms, self.degree, self._zero))

    def from_K(self, value: RatFunc) -> "ExtElem":
        return self.elem([value])

    def zero(self) -> "ExtElem":
        return self.elem([])

    def one(self) -> "ExtElem":
        return self.elem([RatFunc.one(self.spec)])

    def from_int(self, n: int) -> "ExtElem":
        return self.from_K(RatFunc.constant(self.spec, n))

    def y(self) -> "ExtElem":
        """The class of y, reduced mod M: -m_0 when M has degree 1."""
        return self.from_terms(sparse_divmod({1: RatFunc.one(self.spec)},
                                             self._mod)[1])

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtRing) and self.spec == other.spec
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def modulus_str(self) -> str:
        return format_terms(dict(enumerate(self.modulus)), "y",
                            descending=True)

    def __repr__(self) -> str:
        return f"ExtRing({self.spec.format()}[y]/({self.modulus_str()}))"


class ExtElem(Frozen):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ExtRing, coeffs: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def spec(self) -> FieldSpec:
        return self.ring.spec

    def _check(self, other: "ExtElem") -> None:
        if self.ring != other.ring:
            raise RingMismatch("elements of different extension rings")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0].is_one() and not any(self.coeffs[1:])

    def in_K(self) -> bool:
        return not any(self.coeffs[1:])

    def as_K(self) -> RatFunc:
        if not self.in_K():
            raise ValueError(f"{self} does not lie in the base field")
        return self.coeffs[0]

    def __add__(self, other: "ExtElem") -> "ExtElem":
        self._check(other)
        return ExtElem(self.ring, tuple(a + b for a, b
                                        in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ExtElem":
        return ExtElem(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "ExtElem") -> "ExtElem":
        self._check(other)
        return ExtElem(self.ring, tuple(a - b for a, b
                                        in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "ExtElem") -> "ExtElem":
        self._check(other)
        ring = self.ring
        prod = sparse_mul(sparse_terms(self.coeffs), sparse_terms(other.coeffs))
        return ring.from_terms(sparse_divmod(prod, ring._mod)[1])

    def inverse(self) -> "ExtElem":
        if not self:
            raise DivisionByZero("inverse of zero in extension ring")
        ring = self.ring
        g, u = sparse_xgcd(sparse_terms(self.coeffs), ring._mod,
                           RatFunc.one(ring.spec))
        if max(g):
            raise ZeroDivisor(
                f"{self} is a zero divisor: shares a degree-{max(g)} "
                f"factor with the modulus")
        inv = g[0].inverse()
        return ring.from_terms({e: c * inv for e, c in u.items()})

    def __truediv__(self, other: "ExtElem") -> "ExtElem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "ExtElem":
        # base p: repeated p-th powers are semilinear in the K-coefficients
        # and keep sparse values sparse, while plain square-and-multiply
        # would walk through dense multinomial blowups
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ring.one()
        return power(self, n, operator.mul, ExtElem.frobenius, self.spec.p)

    def frobenius(self, k: int = 1) -> "ExtElem":
        # each round is one sum of c_i^p * B_i: no product is reduced mod M
        ring = self.ring
        basis = ring.frobenius_basis()
        coeffs = self.coeffs
        for _ in range(k):
            coeffs = dense_coeffs(sparse_lincomb(
                ({0: c.frobenius()}, b) for c, b in zip(coeffs, basis) if c),
                ring.degree, ring._zero)
        return ExtElem(ring, coeffs)

    def in_prime_field(self) -> bool:
        return self.in_K() and self.coeffs[0].in_prime_field()

    def __str__(self) -> str:
        return format_terms(dict(enumerate(self.coeffs)), "y",
                            descending=True)

    def __repr__(self) -> str:
        return f"ExtElem({self})"


class KRing(Frozen):
    """Coefficient-ring handle for the plain base field K = GF(q)(t)."""

    __slots__ = ("spec", "_hash")

    def __init__(self, spec: FieldSpec):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_hash", hash(("K", spec)))

    def zero(self) -> RatFunc:
        return RatFunc.zero(self.spec)

    def one(self) -> RatFunc:
        return RatFunc.one(self.spec)

    def from_int(self, n: int) -> RatFunc:
        return RatFunc.constant(self.spec, n)

    def from_K(self, value: RatFunc) -> RatFunc:
        return value

    def __eq__(self, other) -> bool:
        return isinstance(other, KRing) and self.spec == other.spec

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"KRing({self.spec.format()}(t))"
