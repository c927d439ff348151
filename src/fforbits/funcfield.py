"""The rational function field K = GF(q)(t) and finite extensions of it.

Polynomials in t are kept sparse: a dict from exponent to nonzero
coefficient, with arbitrary-precision exponents.  Over a prime field GF(p)
a coefficient is a plain int residue in [1, p); over GF(p^r) with r > 1 it
is a FieldElem.  Orbit computations routinely produce things like
t^(2^64) + t, so exponents are never assumed to fit any width, and
remainders against small divisors are taken term-by-term with modular
exponentiation of t rather than by long division across the gap.

Rational functions are kept in the canonical reduced form: denominator monic
and coprime to the numerator.  Two equal values are structurally equal, so
__eq__ and __hash__ are structural and any element can key a dict.

ExtRing models K[y]/(M(y)) for a monic M over K.  The modulus is not checked
for irreducibility; inverting an element that shares a factor with M raises
ZeroDivisor, which is exactly how a reducible modulus eventually announces
itself.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import operator

from .errors import DivisionByZero, RingMismatch, ZeroDivisor
from .field import FieldElem, FieldSpec, Frozen, power

# long division is fine when the dividend's degree overhangs the divisor by
# at most this much; beyond it, reduce term-by-term via pow-mod of t
_GAP_FOR_POWMOD = 64


# The sparse kernels below take the modulus p of the values: with p they
# are ints reduced mod p, with p = 0 they bring their own arithmetic
# (FieldElem, RatFunc, ExtElem).
def sparse_add(a: dict, b: dict, p: int = 0) -> dict:
    """Sum of two canonical exponent -> coefficient dicts (no zero values)."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if p:
                s %= p
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def sparse_mul(a: dict, b: dict, p: int = 0) -> dict:
    """Product of two canonical exponent -> coefficient dicts.

    Products are summed raw and reduced mod p (or dropped when zero) once
    at the end.  A one-term operand only shifts and scales the other; a
    product of nonzero values may still vanish there, because an extension
    ring can have zero divisors.
    """
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        (e1, c1), = a.items()
        if p:
            return {e1 + e: c1 * c % p for e, c in b.items()}
        return {e1 + e: v for e, c in b.items() if (v := c1 * c)}
    out: dict = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2
    if p:
        return {e: v for e, s in out.items() if (v := s % p)}
    return {e: s for e, s in out.items() if s}


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


def _one(spec: FieldSpec) -> Union[int, FieldElem]:
    return 1 if spec.int_p else spec.one()


def _inverse(c, p: int):
    return pow(c, p - 2, p) if p else c.inverse()


class FFPoly(Frozen):
    """Sparse polynomial in t over GF(p^r): terms maps each exponent to a
    nonzero coefficient, an int in [1, p) when r == 1 and a FieldElem
    otherwise."""

    __slots__ = ("spec", "terms", "_hash")

    def __init__(self, spec: FieldSpec, terms: dict):
        # terms must already be canonical: nonzero coefficients, stored as
        # _coeff stores them
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

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
        return cls(spec, {0: _one(spec)})

    @classmethod
    def t(cls, spec: FieldSpec) -> "FFPoly":
        return cls(spec, {1: _one(spec)})

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
        return len(self.terms) == 1 and self.terms.get(0) == _one(self.spec)

    def leading_coeff(self) -> FieldElem:
        if not self.terms:
            return self.spec.zero()
        return _elem(self.spec, self.terms[max(self.terms)])

    def is_monic(self) -> bool:
        return bool(self.terms) \
            and self.terms[max(self.terms)] == _one(self.spec)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), reverse=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FFPoly) and self.spec == other.spec
                and self.terms == other.terms)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.spec, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "FFPoly") -> None:
        if self.spec != other.spec:
            raise RingMismatch("polynomials over different fields")

    def __add__(self, other: "FFPoly") -> "FFPoly":
        self._check(other)
        return FFPoly(self.spec, sparse_add(self.terms, other.terms,
                                            self.spec.int_p))

    def __neg__(self) -> "FFPoly":
        p = self.spec.int_p
        if p:
            return FFPoly(self.spec, {e: p - c for e, c in self.terms.items()})
        return FFPoly(self.spec, {e: -c for e, c in self.terms.items()})

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
        return power(self, n, operator.mul, FFPoly.frobenius, self.spec.p)

    # -- division -----------------------------------------------------

    def divmod(self, other: "FFPoly") -> tuple:
        """Long division; beware: a huge sparse dividend over a small
        divisor has a dense quotient.  Use % for remainders."""
        self._check(other)
        if not other:
            raise DivisionByZero("polynomial division by zero")
        p = self.spec.int_p
        db = other.degree
        inv_lead = _inverse(other.terms[db], p)
        quo: dict = {}
        rem = dict(self.terms)
        while rem:
            da = max(rem)
            if da < db:
                break
            c = rem[da] * inv_lead
            if p:
                c %= p
            shift = da - db
            quo[shift] = c
            for e, b in other.terms.items():
                ee = e + shift
                s = rem.get(ee)
                s = -(c * b) if s is None else s - c * b
                if p:
                    s %= p
                if s:
                    rem[ee] = s
                else:
                    del rem[ee]
        return FFPoly(self.spec, quo), FFPoly(self.spec, rem)

    def __mod__(self, other: "FFPoly") -> "FFPoly":
        self._check(other)
        if not other:
            raise DivisionByZero("polynomial remainder by zero")
        db = other.degree
        if db == 0:
            return FFPoly.zero(self.spec)
        if self.degree - db <= _GAP_FOR_POWMOD:
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

    def evaluate(self, x: FieldElem) -> FieldElem:
        acc = self.spec.zero()
        for e, c in self.terms.items():
            acc = acc + _elem(self.spec, c) * x ** e
        return acc

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


def format_terms(terms: dict, var: str, descending: bool) -> str:
    """exponent -> coefficient as a sum in var; zero coefficients are
    skipped and a coefficient printing as a sum, product or fraction is
    parenthesized."""
    parts = []
    for e, c in sorted(terms.items(), reverse=descending):
        if not c:
            continue
        c_str = str(c)
        wrap = " + " in c_str or "/" in c_str or "*" in c_str
        if e == 0:
            parts.append(f"({c_str})" if wrap else c_str)
            continue
        v = var if e == 1 else f"{var}^{e}"
        if c_str == "1":
            parts.append(v)
        else:
            parts.append((f"({c_str})" if wrap else c_str) + f"*{v}")
    return " + ".join(parts) or "0"


class RatFunc(Frozen):
    """Canonical fraction of FFPoly: monic denominator, gcd 1."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: FFPoly, den: FFPoly):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def make(cls, num: FFPoly, den: Optional[FFPoly] = None) -> "RatFunc":
        spec = num.spec
        if den is None:
            den = FFPoly.one(spec)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            return cls(num, FFPoly.one(spec))
        if not den.is_one():
            g = num.gcd(den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.terms[den.degree]
            if lead != _one(spec):
                inv = _inverse(lead, spec.int_p)
                num = num.scale(inv)
                den = den.scale(inv)
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

    def as_poly(self) -> FFPoly:
        if not self.is_poly():
            raise ValueError(f"{self} is not a polynomial")
        return self.num

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num + other.num, self.den)
        return RatFunc.make(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num, self.den)
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return RatFunc.make(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def frobenius(self, k: int = 1) -> "RatFunc":
        # reduced stays reduced and monic stays monic under x -> x^(p^k)
        return RatFunc(self.num.frobenius(k), self.den.frobenius(k))

    def __pow__(self, n: int) -> "RatFunc":
        # reduced stays reduced and monic stays monic under powers
        if n < 0:
            return self.inverse() ** (-n)
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


def weil_height(value: Union[RatFunc, FFPoly]) -> int:
    if isinstance(value, FFPoly):
        return max(value.degree, 0)
    return value.height()


# ---------------------------------------------------------------------------
# dense polynomials over K as coefficient lists (ascending RatFunc entries);
# shared by the extension-ring arithmetic and the shift-parameter search in
# dynpoly


def kx_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def kx_mul(a: Sequence[RatFunc], b: Sequence[RatFunc], spec: FieldSpec) -> list:
    if not a or not b:
        return []
    out = [RatFunc.zero(spec)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return kx_trim(out)


def kx_add(a: Sequence[RatFunc], b: Sequence[RatFunc], spec: FieldSpec) -> list:
    n = max(len(a), len(b))
    zero = RatFunc.zero(spec)
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(x + y)
    return kx_trim(out)


def kx_neg(a: Sequence[RatFunc]) -> list:
    return [-c for c in a]


def kx_divmod(a: Sequence[RatFunc], b: Sequence[RatFunc],
              spec: FieldSpec) -> tuple:
    b = kx_trim(list(b))
    if not b:
        raise DivisionByZero("division by the zero polynomial over K")
    inv_lead = b[-1].inverse()
    rem = list(a)
    kx_trim(rem)
    quo = [RatFunc.zero(spec)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        c = rem[-1] * inv_lead
        shift = len(rem) - len(b)
        quo[shift] = quo[shift] + c
        for j, bj in enumerate(b):
            if bj:
                rem[shift + j] = rem[shift + j] - c * bj
        rem.pop()  # leading term cancels exactly
        kx_trim(rem)
    return kx_trim(quo), rem


def kx_gcd(a: Sequence[RatFunc], b: Sequence[RatFunc], spec: FieldSpec) -> list:
    a, b = kx_trim(list(a)), kx_trim(list(b))
    while b:
        _, r = kx_divmod(a, b, spec)
        a, b = b, r
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def kx_xgcd(a: Sequence[RatFunc], b: Sequence[RatFunc], spec: FieldSpec) -> tuple:
    """(g, u, v) with u*a + v*b = g; g monic when nonzero."""
    one = RatFunc.one(spec)
    r0, r1 = kx_trim(list(a)), kx_trim(list(b))
    u0, u1 = [one], []
    v0, v1 = [], [one]
    while r1:
        q, r = kx_divmod(r0, r1, spec)
        r0, r1 = r1, r
        u0, u1 = u1, kx_add(u0, kx_neg(kx_mul(q, u1, spec)), spec)
        v0, v1 = v1, kx_add(v0, kx_neg(kx_mul(q, v1, spec)), spec)
    if r0:
        inv = r0[-1].inverse()
        r0 = [c * inv for c in r0]
        u0 = [c * inv for c in u0]
        v0 = [c * inv for c in v0]
    return r0, u0, v0


def kx_eval(a: Sequence[RatFunc], x: RatFunc, spec: FieldSpec) -> RatFunc:
    acc = RatFunc.zero(spec)
    for c in reversed(list(a)):
        acc = acc * x + c
    return acc


class ExtRing(Frozen):
    """K[y]/(M(y)) for a monic M of degree >= 1 over K.

    Doubles as the coefficient-ring handle used by DynPoly and TwistedPoly.
    """

    __slots__ = ("spec", "modulus", "generator", "_hash", "_frob_gen")

    def __init__(self, spec: FieldSpec, modulus: Sequence[RatFunc],
                 generator: str = "y"):
        modulus = tuple(modulus)
        if len(modulus) < 2:
            raise ValueError("extension modulus must have degree >= 1")
        if not modulus[-1].is_one():
            raise ValueError("extension modulus must be monic")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "_hash", hash((spec, modulus)))
        object.__setattr__(self, "_frob_gen", None)

    def frobenius_of_generator(self) -> "ExtElem":
        """The reduction of y^p, cached; p-th powers are semilinear over it."""
        if self._frob_gen is None:
            object.__setattr__(self, "_frob_gen",
                               power(self.y(), self.spec.p, operator.mul))
        return self._frob_gen

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def elem(self, coeffs: Iterable[RatFunc]) -> "ExtElem":
        cs = kx_trim(list(coeffs))
        if len(cs) > self.degree:
            raise ValueError("coefficient vector longer than extension degree")
        zero = RatFunc.zero(self.spec)
        cs = cs + [zero] * (self.degree - len(cs))
        return ExtElem(self, tuple(cs))

    def from_K(self, value: RatFunc) -> "ExtElem":
        return self.elem([value])

    def zero(self) -> "ExtElem":
        return self.elem([])

    def one(self) -> "ExtElem":
        return self.elem([RatFunc.one(self.spec)])

    def from_int(self, n: int) -> "ExtElem":
        return self.from_K(RatFunc.constant(self.spec, n))

    def y(self) -> "ExtElem":
        return self.elem([RatFunc.zero(self.spec), RatFunc.one(self.spec)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtRing) and self.spec == other.spec
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def modulus_str(self) -> str:
        return format_terms(dict(enumerate(self.modulus)), self.generator,
                            descending=True)

    def __repr__(self) -> str:
        return f"ExtRing({self.spec.format()}[y]/({self.modulus_str()}))"


class ExtElem(Frozen):
    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring: ExtRing, coeffs: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtElem) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

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
        spec = ring.spec
        prod = kx_mul(list(self.coeffs), list(other.coeffs), spec)
        # reduce by the monic modulus, top down
        s = ring.degree
        mod = ring.modulus
        while len(prod) > s:
            c = prod.pop()
            if not c:
                continue
            shift = len(prod) - s
            for j in range(s):
                if mod[j]:
                    prod[shift + j] = prod[shift + j] - c * mod[j]
        return ring.elem(prod)

    def inverse(self) -> "ExtElem":
        if not self:
            raise DivisionByZero("inverse of zero in extension ring")
        ring = self.ring
        g, u, _ = kx_xgcd(list(self.coeffs), list(ring.modulus), ring.spec)
        if len(g) != 1:
            raise ZeroDivisor(
                f"{self} is a zero divisor: shares a degree-{len(g) - 1} "
                f"factor with the modulus")
        inv = g[0].inverse()
        return ring.elem([c * inv for c in u])

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
        out = self
        for _ in range(k):
            gp = out.ring.frobenius_of_generator()
            acc = out.ring.zero()
            for c in reversed(out.coeffs):
                acc = acc * gp + out.ring.from_K(c.frobenius())
            out = acc
        return out

    def in_prime_field(self) -> bool:
        return self.in_K() and self.coeffs[0].in_prime_field()

    def __str__(self) -> str:
        return format_terms(dict(enumerate(self.coeffs)), self.ring.generator,
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

    def __eq__(self, other) -> bool:
        return isinstance(other, KRing) and self.spec == other.spec

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"KRing({self.spec.format()}(t))"


def ring_of(value) -> Union[KRing, ExtRing]:
    if isinstance(value, RatFunc):
        return KRing(value.spec)
    if isinstance(value, ExtElem):
        return value.ring
    raise TypeError(f"not a ring element: {value!r}")


def scalar_frobenius(value, k: int = 1):
    """value ** (p ** k) for a RatFunc or ExtElem."""
    return value.frobenius(k)
