"""Frozen, the one base of the package's value types; arithmetic in GF(p)
and GF(p^r), the sparse polynomial kernels, the one power routine, base-p
binomial residues, and format_terms, which prints field elements, moduli
and the maps of the other modules.

A FieldSpec pins down the field: the characteristic p (a prime that fits in
a machine word), the extension degree r, and for r > 1 a monic degree-r
modulus over GF(p) in the generator w.  Elements are
coefficient vectors of length r with entries reduced to least non-negative
residues, so equal elements are structurally equal.

For r > 1 and q = p^r <= _TABLE_ORDER with an irreducible modulus (Ben-Or's
test), each element is interned: the one FieldElem per code
n = sum c_i p^i, shared by every equal FieldSpec of the process.  Products,
inverses and powers are one log/antilog lookup against a primitive element,
sums one Zech-logarithm lookup (Huber, IEEE Trans. Inf. Theory 36 (1990)),
and the Frobenius a permutation of the codes.  The tables are built once per
field, from the polynomial arithmetic below, and kept in a module-level
cache.  Larger fields and reducible moduli compute with polynomials in w:
a reducible modulus is accepted, and some inversion will eventually meet a
nontrivial common factor and raise ReducibleModulus carrying the factor.

Every polynomial ring of the package (GF(p)[w] behind GF(p^r), F_q[t],
K[y] behind K[y]/(M), and the maps in x) shares one set of kernels on
sparse polynomials: a dict from exponent to nonzero coefficient.
sparse_add, sparse_neg, sparse_mul, sparse_lincomb (a sum of products, in
one dict), sparse_divmod and sparse_xgcd take the modulus p of the
coefficients: with p they are ints reduced mod p, with p = 0 they are
values that bring their own arithmetic (FieldElem, RatFunc, ExtElem) and
have is_one() and inverse().  Over GF(p), sparse_mul multiplies dense
operands as one product of two ints (Kronecker substitution), exact because
no slot of that product can carry into the next (see sparse_mul);
pack_slots and unpack_slots move the slots, as arrays when 1, 2, 4 or 8
bytes wide.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
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
    """The one base of the package's immutable value types.

    A subclass lists its state in __slots__.  The public slots (names
    without a leading "_"), in order, are its fields: the generic __init__
    takes them positionally or by keyword, with defaults from the class
    mapping _defaults, and a missing or unknown field raises TypeError.
    Equality (same type, equal fields), hash and repr are over the fields
    too, read by one operator.attrgetter per class.  No value caches its
    hash.  FFPoly, DynPoly and TwistedPoly hash their terms as sorted
    items; any other value with a dict field is unhashable.  The rings
    (FieldSpec, KRing, ExtRing), which keep a hash computed at
    construction, and FieldElem keep their own comparisons, since every
    arithmetic op compares them.  A subclass writes its own __init__ with
    object.__setattr__ when it holds private state (tables, that hash) or
    is a hot value type (FFPoly, RatFunc, ExtElem, DynPoly, TwistedPoly),
    which constructs faster by hand.  After construction every attribute
    write or delete raises.  Copying and pickling call the constructor
    again with the fields as its arguments (a subclass where they differ
    overrides __reduce__), so a hash seeded by strings is recomputed in
    the process that loads the value.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__
                            if not name.startswith("_"))
        get = operator.attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = (lambda self: (get(self),)) if len(cls._fields) == 1 \
            else (lambda self: get(self))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} "
                            f"fields, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name in kwargs:
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or "
                                f"repeated field {name!r}")
        values.update(kwargs)
        for name in cls._fields:
            if name in values:
                object.__setattr__(self, name, values[name])
            elif name in cls._defaults:
                object.__setattr__(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inside = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({inside})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()


class FieldSpec(Frozen):
    """Description of GF(p^r); also the element factory.

    int_p is p when r == 1, where an element is just its residue mod p and
    arithmetic can run on plain ints, and 0 otherwise.  unit is the 1 as a
    polynomial over the field stores its coefficients: the int 1 when
    int_p, the FieldElem one otherwise.
    """

    __slots__ = ("p", "r", "modulus", "int_p", "unit", "_hash", "_mod",
                 "_tab")

    def __init__(self, p: int, r: int = 1, modulus: Sequence[int] = ()):
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
        object.__setattr__(self, "int_p", p if r == 1 else 0)
        object.__setattr__(self, "_hash", hash((p, r, modulus)))
        object.__setattr__(self, "_mod", sparse_terms(modulus))
        key = (p, r, modulus)
        if key not in _TABLES:
            _TABLES[key] = (_Tables(self) if 1 < r and p ** r <= _TABLE_ORDER
                            and _irreducible(self._mod, p) else None)
        object.__setattr__(self, "_tab", _TABLES[key])
        object.__setattr__(self, "unit", 1 if r == 1 else self.elem(1))

    def __reduce__(self):
        return FieldSpec, (self.p, self.r, self.modulus)

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
        if self._tab is not None:
            return self._tab.elems[_code(coeffs, self.p)]
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
        if self._tab is not None:
            yield from self._tab.elems
            return
        for n in range(self.order):
            yield FieldElem(self, _digits(n, self.p, self.r))

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
        return format_terms(dict(enumerate(self.modulus)), "w",
                            descending=True).replace(" + ", "+")

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
    """(p, r) with p prime and p^r == n, found from integer r-th roots, so
    that a large prime needs no trial division up to its square root."""
    for r in range(1, n.bit_length()):
        p = _iroot(n, r)
        if p < 2:
            break
        if p ** r == n and _is_prime(p):
            return p, r
    raise ValueError(f"{n} is not a prime power")


def _iroot(n: int, r: int) -> int:
    """floor(n^(1/r)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _parse_modulus(text: str, p: int, r: int) -> tuple:
    coeffs: dict = {}
    for raw in text.replace(" ", "").split("+"):
        if not raw:
            raise ParseError(f"empty term in modulus {text!r}")
        c, e = 1, 0
        body = raw
        try:
            if "*" in body:
                c_text, body = body.split("*", 1)
                c = int(c_text)
            if body.startswith("w"):
                # w alone, or w^ and one int
                tail = body[1:]
                e = int(tail[1:]) if tail[:1] == "^" else -1 if tail else 1
            elif body:
                c, e = c * int(body), 0
        except ValueError:  # a coefficient or exponent that is no int
            e = -1
        if e < 0:
            raise ParseError(f"bad modulus term {raw!r}")
        if e > r:
            raise ParseError(f"modulus degree exceeds {r}")
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    # r comes from the text and may be huge: test the top term before
    # building the r + 1 coefficients
    if coeffs.get(r) != 1:
        raise ParseError(f"modulus must be monic of degree {r}")
    return tuple(coeffs.get(e, 0) for e in range(r + 1))


class FieldElem(Frozen):
    """An element of GF(p^r).  An interned element (see the module
    docstring) also carries its code, its log against the primitive element
    of its field's tables (None for 0) and the tables; every other element
    has None in all three."""

    __slots__ = ("spec", "coeffs", "code", "_log", "_tab")

    def __init__(self, spec: FieldSpec, coeffs: tuple, code=None, log=None,
                 tab=None):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_tab", tab)

    def __reduce__(self):
        # through the factory, so that a loaded element is the interned one
        return self.spec.elem, (self.coeffs,)

    def _check(self, other: "FieldElem") -> None:
        if self.spec != other.spec:
            raise RingMismatch("elements of different fields")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and self.in_prime_field()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldElem):
            return False
        if self._tab is not None and other._tab is self._tab:
            return False  # interned: equal elements are one object
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def __add__(self, other: "FieldElem") -> "FieldElem":
        t = self._tab
        if t is not None and other._tab is t:
            i, j = self._log, other._log
            if i is None:
                return other
            if j is None:
                return self
            z = t.zech[j - i]  # g^i + g^j = g^(i + zech(j - i))
            return t.elems[0] if z is None else t.by_log[i + z]
        self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a + b) % p for a, b
                                          in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        t = self._tab
        if t is not None and other._tab is t:
            i, j = self._log, other._log
            if j is None:
                return self
            j += t.half  # -g^j = g^(j + half)
            if i is None:
                return t.by_log[j]
            z = t.zech[j - i]
            return t.elems[0] if z is None else t.by_log[i + z]
        self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a - b) % p for a, b
                                          in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElem":
        t = self._tab
        if t is not None:
            return self if self._log is None else t.by_log[self._log + t.half]
        p = self.spec.p
        return FieldElem(self.spec, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        t = self._tab
        if t is not None and other._tab is t:
            i, j = self._log, other._log
            if i is None or j is None:
                return t.elems[0]
            return t.by_log[i + j]
        self._check(other)
        spec = self.spec
        p = spec.p
        if spec.r == 1:
            return FieldElem(spec, (self.coeffs[0] * other.coeffs[0] % p,))
        rem = _mod_mul(spec._mod, p)(sparse_terms(self.coeffs),
                                     sparse_terms(other.coeffs))
        return FieldElem(spec, dense_coeffs(rem, spec.r, 0))

    def inverse(self) -> "FieldElem":
        if not self:
            raise DivisionByZero("inverse of zero")
        t = self._tab
        if t is not None:
            return t.by_log[-self._log]
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
        t = self._tab
        if t is not None and self._log is not None:
            return t.by_log[self._log * n % t.period]
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.spec.one()
        # binary: without tables, frobenius() below is defined through ** p
        return power(self, n, operator.mul)

    def frobenius(self, k: int = 1) -> "FieldElem":
        """The k-fold Frobenius image, self ** (p ** k)."""
        if self.spec.r == 1:
            return self
        k %= self.spec.r  # Frobenius has order r on GF(p^r)
        t = self._tab
        if t is not None:
            n = self.code
            for _ in range(k):
                n = t.frob[n]
            return t.elems[n]
        out = self
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
        return format_terms(dict(enumerate(self.coeffs)), "w",
                            descending=True)

    def __repr__(self) -> str:
        return f"<{self} in {self.spec.format()}>"


# GF(p^r) with r > 1 and at most this many elements computes by tables
_TABLE_ORDER = 2 ** 10
# (p, r, modulus) -> the field's _Tables, or None without tables
_TABLES: dict = {}


def _code(coeffs: Sequence[int], p: int) -> int:
    """sum c_i p^i over the coefficient vector, lowest degree first."""
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


def _digits(n: int, p: int, r: int) -> tuple:
    """The coefficient vector of code n, lowest degree first."""
    out = []
    for _ in range(r):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


def _mod_mul(mod: dict, p: int) -> Callable:
    """The product of GF(p)[w] modulo mod, on sparse dicts."""
    return lambda a, b: sparse_divmod(sparse_mul(a, b, p), mod, p)[1]


def _irreducible(mod: dict, p: int) -> bool:
    """Ben-Or's test: mod of degree r over GF(p) is irreducible iff
    gcd(w^(p^i) - w, mod) = 1 for every i <= r/2, since a factor of degree
    i divides w^(p^i) - w."""
    mul = _mod_mul(mod, p)
    x = {1: 1}
    for _ in range(max(mod) // 2):
        x = power(x, p, mul)
        if max(sparse_xgcd(sparse_add(x, {1: p - 1}, p), mod, 1, p)[0]):
            return False
    return True


class _Tables:
    """The interned elements of one GF(p^r) with an irreducible modulus, and
    the tables they compute by, against a primitive element g.

    elems[n] is the element of code n.  by_log[k] is g^(k mod q-1) for
    k < 2(q-1), so a sum of two logs indexes it unreduced.  zech[k] is the
    log of 1 + g^k, None where that is 0, also over two periods, so that
    zech[j - i] is right for -2(q-1) <= j - i < 2(q-1).  frob[n] is the
    code of elems[n] ** p.  half is the log of -1 and period is q - 1.
    """

    __slots__ = ("elems", "by_log", "zech", "frob", "half", "period")

    def __init__(self, spec: FieldSpec):
        p, r = spec.p, spec.r
        mul = _mod_mul(spec._mod, p)
        period = p ** r - 1
        # g is primitive iff g^(period/l) != 1 for every prime l | period;
        # codes below p are the prime field, of order dividing p - 1
        factors = [l for l in range(2, period + 1)
                   if period % l == 0 and _is_prime(l)]
        for n in range(p, period + 1):
            g = sparse_terms(_digits(n, p, r))
            if all(power(g, period // l, mul) != {0: 1} for l in factors):
                break
        codes, x = [], {0: 1}
        for _ in range(period):
            codes.append(_code(dense_coeffs(x, r, 0), p))
            x = mul(x, g)
        log = [None] * (period + 1)
        for k, n in enumerate(codes):
            log[n] = k
        self.elems = [FieldElem(spec, _digits(n, p, r), n, log[n], self)
                      for n in range(period + 1)]
        self.by_log = [self.elems[n] for n in codes] * 2
        # 1 + g^k differs from g^k in the constant digit of its code only
        self.zech = [log[n - n % p + (n + 1) % p] for n in codes] * 2
        self.frob = [0] + [codes[log[n] * p % period]
                           for n in range(1, period + 1)]
        self.half = period // 2 if p > 2 else 0
        self.period = period


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


# sparse_mul packs from this many terms on each side (below, the schoolbook
# loop is as fast; measured over GF(3) and GF(5)) while an operand spans at
# most this many exponents per term
_PACK_TERMS = 8
_PACK_SPAN = 2
# the array type code of each slot width pack_slots moves natively
_SLOT_CODES = {array(c).itemsize: c for c in "QLIHB"}
_BIG_ENDIAN = sys.byteorder == "big"


def pack_slots(coeffs: list, w: int) -> int:
    """Nonnegative ints below 256^w, lowest first, as one int with a w-byte
    slot each: as one array when w is an array itemsize, else one
    int.to_bytes at a time."""
    code = _SLOT_CODES.get(w)
    if code is None:
        return int.from_bytes(b"".join([c.to_bytes(w, "little")
                                        for c in coeffs]), "little")
    return int.from_bytes(_little(array(code, coeffs)), "little")


def unpack_slots(x: int, w: int, n: int) -> Iterable:
    """The n w-byte slots of an int x below 256^(w n), lowest first."""
    raw = x.to_bytes(w * n, "little")
    code = _SLOT_CODES.get(w)
    if code is None:
        return (int.from_bytes(raw[i:i + w], "little")
                for i in range(0, len(raw), w))
    return _little(array(code, raw))


def _little(slots: array) -> array:
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots


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

    The general case is sparse_lincomb of the one pair.  A one-term operand
    only shifts and scales the other; a product of nonzero values may still
    vanish there, because an extension ring can have zero divisors.

    Over GF(p), when both operands have at least _PACK_TERMS terms spread
    over at most _PACK_SPAN exponents per term, each is packed from its
    lowest exponent up into one int with a w-byte slot per exponent, and
    the ints are multiplied (squared when a is b).  A slot of the product
    sums at most min(len a, len b) products below p^2, so w bytes that hold
    (p-1)^2 * min(len a, len b) never carry and each slot, reduced mod p,
    is one coefficient.

    pack_slots and unpack_slots move the slots: as one little-endian array
    when w is an array itemsize (1, 2, 4 or 8 bytes), any other w (3 bytes
    over GF(3) from about 2^14 terms, 9 or more for p near 2^31) slot by
    slot through int.from_bytes.  w is never rounded up to an itemsize: the
    ints grow with it and their product more than linearly.  Squaring 2^16
    terms over GF(3) (2-vCPU Xeon, Python 3.11) took 208-225 ms with 4-byte
    slots against 124-171 ms with 3, more than the array unpack saves
    (14 against 50 ms).  With the array moves the packed product is faster
    than the schoolbook loop from about 8 dense terms on each side, hence
    _PACK_TERMS.
    """
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        (e1, c1), = a.items()
        if p:
            return {e1 + e: c1 * c % p for e, c in b.items()}
        return {e1 + e: v for e, c in b.items() if (v := c1 * c)}
    n = min(len(a), len(b))
    if p and n >= _PACK_TERMS:
        lo_a, lo_b = min(a), min(b)
        span_a, span_b = max(a) - lo_a, max(b) - lo_b
        if span_a <= _PACK_SPAN * len(a) and span_b <= _PACK_SPAN * len(b):
            w = ((p - 1) ** 2 * n).bit_length() + 7 >> 3

            def pack(t, lo, span):
                coeffs = [t.get(e, 0) for e in range(lo, lo + span + 1)]
                return pack_slots(coeffs, w)
            x = pack(a, lo_a, span_a)
            x = x * x if a is b else x * pack(b, lo_b, span_b)
            lo = lo_a + lo_b
            return {lo + i: v for i, s in
                    enumerate(unpack_slots(x, w, span_a + span_b + 1))
                    if (v := s % p)}
    return sparse_lincomb(((a, b),), p)


def sparse_lincomb(pairs: Iterable, p: int = 0) -> dict:
    """Sum of a*b over pairs (a, b) of canonical exponent -> coefficient
    dicts.  Products are summed raw into one dict and reduced mod p (or
    dropped when zero) once at the end, so no partial sum is copied."""
    out: dict = {}
    get = out.get
    for a, b in pairs:
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
