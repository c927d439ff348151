"""Arithmetic in GF(p) and GF(p^r), the sparse polynomial kernels, the one
power routine, and base-p binomial residues.

A FieldSpec pins down the field: the characteristic p (a prime that fits in
a machine word), the extension degree r, and for r > 1 a monic degree-r
modulus over GF(p) in the generator symbol (default "w").  Elements are
coefficient vectors of length r with entries reduced to least non-negative
residues, so equal elements are structurally equal.

The modulus is trusted to be irreducible.  That is never verified up front;
if it is reducible, some inversion will eventually meet a nontrivial common
factor and raise ReducibleModulus carrying the factor found.

Every polynomial ring of the package (GF(p)[w] behind GF(p^r), F_q[t],
K[y] behind K[y]/(M), and the maps in x) shares one set of kernels on
sparse polynomials: a dict from exponent to nonzero coefficient.
sparse_add, sparse_neg, sparse_mul, sparse_divmod and sparse_xgcd take the
modulus p of the coefficients: with p they are ints reduced mod p, with
p = 0 they are values that bring their own arithmetic (FieldElem, RatFunc,
ExtElem) and have is_one() and inverse().
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import DivisionByZero, ParseError, ReducibleModulus, RingMismatch

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for n < 3.3e24, far beyond machine-word moduli
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Frozen:
    """Base of the immutable value types.

    A subclass lists its state in __slots__ and stores it in __init__ with
    object.__setattr__; after that every attribute write or delete raises.
    Copying and pickling call the constructor again with the public slots,
    in order, as its arguments (a subclass where they differ overrides
    __reduce__), so private caches such as a hash seeded by strings are
    recomputed in the process that loads the value.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        cls = type(self)
        return cls, tuple(getattr(self, name) for name in cls.__slots__
                          if not name.startswith("_"))


class FieldSpec(Frozen):
    """Description of GF(p^r); also the element factory.

    int_p is p when r == 1, where an element is just its residue mod p and
    arithmetic can run on plain ints, and 0 otherwise.
    """

    __slots__ = ("p", "r", "modulus", "generator", "int_p", "_hash", "_mod")

    def __init__(self, p: int, r: int = 1, modulus: Sequence[int] = (),
                 generator: str = "w"):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        modulus = tuple(c % p for c in modulus)
        if r == 1:
            if modulus:
                raise ValueError("prime field takes no modulus")
        else:
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree r")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "int_p", p if r == 1 else 0)
        object.__setattr__(self, "_hash", hash((p, r, modulus)))
        object.__setattr__(self, "_mod", sparse_terms(modulus))

    def __reduce__(self):
        return FieldSpec, (self.p, self.r, self.modulus, self.generator)

    @property
    def order(self) -> int:
        return self.p ** self.r

    def elem(self, value: Union[int, Sequence[int], "FieldElem"]) -> "FieldElem":
        if isinstance(value, FieldElem):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.r - 1)
        else:
            vs = [c % self.p for c in value]
            if len(vs) > self.r:
                raise ValueError("coefficient vector longer than degree")
            coeffs = tuple(vs + [0] * (self.r - len(vs)))
        return FieldElem(self, coeffs)

    def zero(self) -> "FieldElem":
        return self.elem(0)

    def one(self) -> "FieldElem":
        return self.elem(1)

    def gen(self) -> "FieldElem":
        if self.r == 1:
            raise ValueError("prime field has no extension generator")
        return self.elem((0, 1))

    def all_elements(self) -> Iterator["FieldElem"]:
        """All q elements, in lexicographic coefficient order."""
        p, r = self.p, self.r
        for n in range(p ** r):
            digits = []
            m = n
            for _ in range(r):
                digits.append(m % p)
                m //= p
            yield FieldElem(self, tuple(digits))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FieldSpec) and self.p == other.p
            and self.r == other.r and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def format(self) -> str:
        if self.r == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.r}; mod={self._modulus_str()})"

    def _modulus_str(self) -> str:
        parts = []
        for e in range(self.r, -1, -1):
            c = self.modulus[e] if e < len(self.modulus) else 0
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}{self.generator}" + (f"^{e}" if e > 1 else ""))
        return "+".join(parts) or "0"

    def __repr__(self) -> str:
        return self.format()

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse "GF(p)", "GF(p^r; mod=...)" or "GF(q; mod=...)" with q a
        prime power, e.g. GF(4; mod=w^2+w+1)."""
        s = text.strip()
        if not (s.startswith("GF(") and s.endswith(")")):
            raise ParseError(f"not a field spec: {text!r}")
        body = s[3:-1]
        mod_text = None
        if ";" in body:
            body, rest = body.split(";", 1)
            rest = rest.strip()
            if not rest.startswith("mod="):
                raise ParseError(f"expected mod=... in field spec: {text!r}")
            mod_text = rest[4:].strip()
        body = body.strip()
        try:
            if "^" in body:
                p_text, r_text = body.split("^", 1)
                p, r = int(p_text), int(r_text)
            else:
                p, r = _split_prime_power(int(body))
        except ValueError as exc:
            raise ParseError(f"bad field order in {text!r}: {exc}") from None
        if r == 1:
            if mod_text is not None:
                raise ParseError(f"GF({p}) takes no modulus")
            return cls(p)
        if mod_text is None:
            raise ParseError(f"GF({p}^{r}) needs an explicit modulus")
        return cls(p, r, _parse_modulus(mod_text, p, r))


def _split_prime_power(n: int) -> tuple:
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    p = n
    for q in range(2, n):
        if q * q > n:
            break
        if n % q == 0:
            p = q
            break
    r = 0
    m = n
    while m % p == 0 and m > 1:
        m //= p
        r += 1
    if m != 1:
        raise ValueError(f"{n} is not a prime power")
    return p, r


def _parse_modulus(text: str, p: int, r: int) -> tuple:
    coeffs = [0] * (r + 1)
    for raw in text.replace(" ", "").split("+"):
        if not raw:
            raise ParseError(f"empty term in modulus {text!r}")
        c, e = 1, 0
        body = raw
        if "*" in body:
            c_text, body = body.split("*", 1)
            c = int(c_text)
        if body.startswith("w"):
            tail = body[1:]
            e = 1 if not tail else int(tail.lstrip("^") or "1")
            if tail and not tail.startswith("^"):
                raise ParseError(f"bad modulus term {raw!r}")
        elif body:
            c, e = c * int(body), 0
        if e > r:
            raise ParseError(f"modulus degree exceeds {r}")
        coeffs[e] = (coeffs[e] + c) % p
    return tuple(coeffs)


class FieldElem(Frozen):
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", coeffs)

    def _check(self, other: "FieldElem") -> None:
        if self.spec != other.spec:
            raise RingMismatch("elements of different fields")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and self.in_prime_field()

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElem) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a + b) % p for a, b
                                          in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a - b) % p for a, b
                                          in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElem":
        p = self.spec.p
        return FieldElem(self.spec, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        spec = self.spec
        p = spec.p
        if spec.r == 1:
            return FieldElem(spec, (self.coeffs[0] * other.coeffs[0] % p,))
        prod = sparse_mul(sparse_terms(self.coeffs),
                          sparse_terms(other.coeffs), p)
        rem = sparse_divmod(prod, spec._mod, p)[1]
        return FieldElem(spec, dense_coeffs(rem, spec.r, 0))

    def inverse(self) -> "FieldElem":
        if not self:
            raise DivisionByZero("inverse of zero")
        spec = self.spec
        p = spec.p
        if spec.r == 1:
            return FieldElem(spec, (pow(self.coeffs[0], p - 2, p),))
        g, u = sparse_xgcd(sparse_terms(self.coeffs), spec._mod, 1, p)
        if max(g):
            raise ReducibleModulus(
                f"modulus shares factor of degree {max(g)} "
                f"with {self}; field spec is invalid")
        u = sparse_mul({0: pow(g[0], p - 2, p)}, u, p)
        return FieldElem(spec, dense_coeffs(u, spec.r, 0))

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.spec.one()
        # binary: frobenius() below is itself defined through ** p
        return power(self, n, operator.mul)

    def frobenius(self, k: int = 1) -> "FieldElem":
        """The k-fold Frobenius image, self ** (p ** k)."""
        if self.spec.r == 1:
            return self
        out = self
        k %= self.spec.r  # Frobenius has order r on GF(p^r)
        for _ in range(k):
            out = out ** self.spec.p
        return out

    def in_prime_field(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        """Only for prime-field elements: the canonical residue."""
        if not self.in_prime_field():
            raise ValueError(f"{self} is not in the prime field")
        return self.coeffs[0]

    def __str__(self) -> str:
        if self.spec.r == 1:
            return str(self.coeffs[0])
        parts = []
        w = self.spec.generator
        for e in range(self.spec.r - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}{w}" + (f"^{e}" if e > 1 else ""))
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self} in {self.spec.format()}>"


def power(x, n: int, mul: Callable, frobenius: Optional[Callable] = None,
          p: int = 2, small: Optional[dict] = None):
    """x ** n for n >= 1, by Horner over the digits of n.

    With frobenius(y, k) = y ** (p ** k), a ring endomorphism in
    characteristic p, the digits are base p and
    x^n = frobenius(x^(n // p), 1) * x^(n % p), so a run of k zero digits
    costs one frobenius(y, k) call and no multiplication.  Without it the
    digits are binary and each step is a squaring.  small maps d < p to
    x^d; it is filled by repeated multiplication by x, which keeps one
    factor of every product small, and a caller may share it.
    """
    if frobenius is None:
        p = 2

        def frobenius(y, k):
            for _ in range(k):
                y = mul(y, y)
            return y

    if small is None:
        small = {}

    def digit_power(d):
        j = d
        while j > 1 and j not in small:
            j -= 1
        y = small[j] if j > 1 else x
        while j < d:
            y = mul(y, x)
            j += 1
            small[j] = y
        return y

    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    out = digit_power(digits.pop())
    k = 0
    for d in reversed(digits):
        k += 1
        if d:
            out = mul(frobenius(out, k), digit_power(d))
            k = 0
    return frobenius(out, k) if k else out


def sparse_terms(coeffs: Iterable) -> dict:
    """A coefficient vector, lowest degree first, as a sparse dict."""
    return {i: c for i, c in enumerate(coeffs) if c}


def dense_coeffs(terms: dict, n: int, zero) -> tuple:
    """The coefficients of degree below n of a sparse dict, lowest first."""
    return tuple([terms.get(i, zero) for i in range(n)])


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


def sparse_neg(a: dict, p: int = 0) -> dict:
    if p:
        return {e: p - c for e, c in a.items()}
    return {e: -c for e, c in a.items()}


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


def sparse_divmod(a: dict, b: dict, p: int = 0) -> tuple:
    """(q, r) with a = q*b + r and deg r < deg b, by long division.

    Beware: a huge sparse dividend over a small divisor has a dense
    quotient.  Each step cancels the leading term of the remainder exactly,
    so the next leading degree is one lower whenever that term is present;
    the remainder is rescanned only when it is not.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = max(b)
    lead = b[db]
    monic = lead == 1 if p else lead.is_one()
    inv_lead = None if monic else pow(lead, p - 2, p) if p else lead.inverse()
    tail = dict(b)
    del tail[db]
    quo: dict = {}
    rem = dict(a)
    da = max(rem) if rem else -1
    while da >= db:
        c = rem.pop(da)
        if inv_lead is not None:
            c = c * inv_lead % p if p else c * inv_lead
        shift = da - db
        quo[shift] = c
        for e, bc in tail.items():
            e += shift
            s = rem.get(e)
            s = -(c * bc) if s is None else s - c * bc
            if p:
                s %= p
            if s:
                rem[e] = s
            else:
                del rem[e]
        da -= 1
        if da not in rem:
            da = max(rem) if rem else -1
    return quo, rem


def sparse_xgcd(a: dict, b: dict, one, p: int = 0) -> tuple:
    """(g, u) with u*a = g mod b and g a gcd of a and b, not made monic;
    one is the unit of the coefficients."""
    r0, r1 = a, b
    u0, u1 = {0: one}, {}
    while r1:
        q, r = sparse_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, sparse_add(u0, sparse_neg(sparse_mul(q, u1, p), p), p)
    return r0, u0


def binom_mod(m: int, i: int, p: int) -> int:
    """C(m, i) mod p by the base-p digit product.

    m and i may be arbitrary-precision; i outside [0, m] gives 0.
    """
    if i < 0 or i > m:
        return 0
    out = 1
    while i:
        md, idx = m % p, i % p
        if idx > md:
            return 0
        out = out * math.comb(md, idx) % p
        m //= p
        i //= p
    return out
