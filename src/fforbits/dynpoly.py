"""Polynomials as dynamical systems: composition, iteration, conjugacy.

A DynPoly is a sparse polynomial in x whose coefficients live either in
K = GF(q)(t) (a KRing handle) or in an extension K[y]/(M) (an ExtRing).
Exponents are arbitrary-precision, which matters: additive polynomials have
only p-power exponents and their iterates reach x^(p^k) for large k while
staying a handful of terms.

Symbolic expansion (compose, iterate, powers) is metered.  The budget is a
single number bounding both the degree of anything expanded and the total
number of coefficient multiplications spent; exceeding it raises
DegreeBudgetExceeded rather than grinding away.  Pointwise orbit evaluation
is never metered since it cannot blow up the same way.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Union

from .errors import (DegreeBudgetExceeded, NotAdditive, RingMismatch)
from .field import (FieldSpec, Frozen, binom_mod, dense_coeffs,
                    format_terms, power, sparse_add, sparse_divmod,
                    sparse_mul, sparse_neg)
from .funcfield import ExtElem, ExtRing, FFPoly, KRing, RatFunc

DEFAULT_DEGREE_BUDGET = 2 ** 20
DEFAULT_ROOT_HEIGHT = 8
DEFAULT_ROOT_CANDIDATES = 200_000

Ring = Union[KRing, ExtRing]
Scalar = Union[RatFunc, ExtElem]


class _WorkMeter:
    __slots__ = ("left",)

    def __init__(self, budget: Optional[int]):
        self.left = DEFAULT_DEGREE_BUDGET if budget is None else budget

    def charge(self, n: int) -> None:
        self.left -= n
        if self.left < 0:
            raise DegreeBudgetExceeded("degree budget exhausted")


def _scalar_in(ring: Ring, value) -> Scalar:
    if isinstance(ring, KRing):
        if isinstance(value, RatFunc) and value.spec == ring.spec:
            return value
        if isinstance(value, int):
            return ring.from_int(value)
    else:
        if isinstance(value, ExtElem) and value.ring == ring:
            return value
        if isinstance(value, RatFunc) and value.spec == ring.spec:
            return ring.from_K(value)
        if isinstance(value, int):
            return ring.from_int(value)
    raise RingMismatch(f"{value!r} is not a scalar of {ring!r}")


def _is_p_power(e: int, p: int) -> bool:
    if e < 1:
        return False
    while e % p == 0:
        e //= p
    return e == 1


class DynPoly(Frozen):
    """Sparse polynomial in x over K or an extension ring of K."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def make(cls, ring: Ring, terms: dict) -> "DynPoly":
        clean = {}
        for e, c in terms.items():
            c = _scalar_in(ring, c)
            if c:
                if e < 0:
                    raise ValueError("negative exponent")
                clean[e] = c
        return cls(ring, clean)

    @classmethod
    def x(cls, ring: Ring) -> "DynPoly":
        return cls(ring, {1: ring.one()})

    @classmethod
    def constant(cls, ring: Ring, c) -> "DynPoly":
        c = _scalar_in(ring, c)
        return cls(ring, {0: c} if c else {})

    @classmethod
    def monomial(cls, ring: Ring, e: int, c=1) -> "DynPoly":
        c = _scalar_in(ring, c)
        return cls(ring, {e: c} if c else {})

    @classmethod
    def zero(cls, ring: Ring) -> "DynPoly":
        return cls(ring, {})

    # -- structure ------------------------------------------------------

    @property
    def spec(self) -> FieldSpec:
        return self.ring.spec

    @property
    def degree(self) -> int:
        return max(self.terms) if self.terms else -1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading_coeff(self) -> Scalar:
        if not self.terms:
            return self.ring.zero()
        return self.terms[max(self.terms)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, DynPoly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, tuple(sorted(
                (e, c) for e, c in self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def _check(self, other: "DynPoly") -> None:
        if self.ring != other.ring:
            raise RingMismatch("polynomials over different rings")

    # -- plain ring operations -------------------------------------------

    def __add__(self, other: "DynPoly") -> "DynPoly":
        self._check(other)
        return DynPoly(self.ring, sparse_add(self.terms, other.terms))

    def __neg__(self) -> "DynPoly":
        return DynPoly(self.ring, sparse_neg(self.terms))

    def __sub__(self, other: "DynPoly") -> "DynPoly":
        return self + (-other)

    def __mul__(self, other: "DynPoly") -> "DynPoly":
        self._check(other)
        return DynPoly(self.ring, sparse_mul(self.terms, other.terms))

    def scale(self, c) -> "DynPoly":
        c = _scalar_in(self.ring, c)
        if not c:
            return DynPoly.zero(self.ring)
        return DynPoly(self.ring, {e: a * c for e, a in self.terms.items()})

    def frobenius(self, k: int = 1) -> "DynPoly":
        """self ** (p ** k): exponents times p^k, coefficients to the p^k.

        Exact because the p-power map is a ring endomorphism in
        characteristic p; it costs no multiplication of polynomials.
        """
        q = self.spec.p ** k
        return DynPoly(self.ring,
                       {e * q: c.frobenius(k) for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "DynPoly":
        return self.pow(n)

    def pow(self, n: int, budget: Optional[int] = None) -> "DynPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return DynPoly.constant(self.ring, 1)
        meter = _WorkMeter(budget)
        if self.degree >= 1:
            _charge_degree(meter, self.degree, n)
        return _poly_power(self, n, meter, {})

    # -- dynamics ---------------------------------------------------------

    def evaluate(self, point):
        """Value at a point of the coefficient ring or of an extension
        ring over the same field."""
        ring = self.ring
        if isinstance(ring, KRing) and isinstance(point, ExtElem) \
                and point.spec == ring.spec:
            return self.lift_to(point.ring).evaluate(point)
        point = _scalar_in(ring, point)
        acc = None
        for e, c in self.terms.items():
            if e:
                v = point ** e
                c = v if c.is_one() else c * v
            acc = c if acc is None else acc + c
        return ring.zero() if acc is None else acc

    def compose(self, inner: "DynPoly", budget: Optional[int] = None) -> "DynPoly":
        """self(inner(x)), metered."""
        self._check(inner)
        meter = _WorkMeter(budget)
        if self.degree >= 1 and inner.degree >= 1:
            _charge_degree(meter, inner.degree, 1, scale=self.degree)
        return _compose_metered(self, inner, meter)

    def iterate(self, n: int, budget: Optional[int] = None) -> "DynPoly":
        """The n-fold compositional power, expanded symbolically."""
        if n < 0:
            raise ValueError("negative iterate")
        if n == 0:
            return DynPoly.x(self.ring)
        if self.degree < 1:
            raise ValueError("iteration needs degree >= 1")
        meter = _WorkMeter(budget)
        d = self.degree
        if d >= 2:
            _charge_degree(meter, d, n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else _compose_metered(
                    result, base, meter)
            n >>= 1
            if n:
                base = _compose_metered(base, base, meter)
        return result

    def lift_to(self, ring: ExtRing) -> "DynPoly":
        if not (isinstance(self.ring, KRing) and self.ring.spec == ring.spec):
            raise RingMismatch("can only lift a polynomial over K")
        return DynPoly(ring, {e: ring.from_K(c)
                              for e, c in self.terms.items()})

    def __str__(self) -> str:
        return format_terms(self.terms, "x", descending=True)

    def __repr__(self) -> str:
        return f"DynPoly({self})"


def _charge_degree(meter: _WorkMeter, d: int, n: int, scale: int = 1) -> None:
    # d^n * scale must stay within budget; avoid giant intermediates
    if d <= 1:
        return
    if n * (d.bit_length() - 1) > 64:
        raise DegreeBudgetExceeded("degree budget exhausted")
    meter.charge(0)
    if d ** n * scale > meter.left:
        raise DegreeBudgetExceeded("degree budget exhausted")


def _mul_metered(a: DynPoly, b: DynPoly, meter: _WorkMeter) -> DynPoly:
    meter.charge(len(a.terms) * len(b.terms))
    return a * b


def _compose_metered(outer: DynPoly, inner: DynPoly, meter: _WorkMeter) -> DynPoly:
    """outer(inner(x)); the body of compose, and of each step of iterate,
    which shares one meter across its compositions."""
    out = DynPoly.zero(outer.ring)
    cache: dict = {}
    for e, c in outer.terms.items():
        pw = _poly_power(inner, e, meter, cache)
        out = out + pw.scale(c)
    return out


def _poly_power(g: DynPoly, e: int, meter: _WorkMeter, cache: dict) -> DynPoly:
    got = cache.get(e)
    if got is not None:
        return got
    if e == 0:
        out = DynPoly.constant(g.ring, 1)
    elif e == 1:
        out = g
    elif len(g.terms) == 1:
        (ge, gc), = g.terms.items()
        out = DynPoly(g.ring, {ge * e: gc ** e})
    elif len(g.terms) == 2:
        out = _binomial_power(g, e, meter)
    else:
        # Frobenius images cost no multiplication, so only the digit powers
        # (kept in the caller's cache) and one product per further nonzero
        # digit are paid for
        out = power(g, e, lambda a, b: _mul_metered(a, b, meter),
                    DynPoly.frobenius, g.spec.p, cache)
    cache[e] = out
    return out


def _binomial_terms(e: int, p: int, meter: _WorkMeter) -> Iterator[tuple]:
    """(j, C(e, j) mod p) for every j whose base-p digits lie under those
    of e, which by Lucas are exactly the j with C(e, j) nonzero mod p.

    Their number, the product over the digits d of e of (d + 1), is charged
    to the meter before the first is yielded.
    """
    digits = []
    m = e
    count = 1
    while m:
        d = m % p
        digits.append(d)
        count *= d + 1
        m //= p
        if count > meter.left:
            raise DegreeBudgetExceeded("degree budget exhausted")
    meter.charge(count)
    for picks in itertools.product(*(range(d + 1) for d in digits)):
        j = 0
        coeff_mod = 1
        for idx in range(len(digits) - 1, -1, -1):
            j = j * p + picks[idx]
            coeff_mod = coeff_mod * binom_mod(digits[idx], picks[idx], p) % p
        yield j, coeff_mod


def _binomial_power(g: DynPoly, e: int, meter: _WorkMeter) -> DynPoly:
    """(u + v)^e expanded through base-p digits of e; exact in char p.

    The number of surviving terms is the product over digits d of (d+1),
    so p-power exponents cost two terms no matter how large they are.
    """
    (e1, c1), (e2, c2) = sorted(g.terms.items())
    out: dict = {}
    for j, coeff_mod in _binomial_terms(e, g.spec.p, meter):
        c = (c1 ** j) * (c2 ** (e - j))
        c = c * _scalar_in(g.ring, coeff_mod)
        exp = e1 * j + e2 * (e - j)
        s = out.get(exp)
        if s is None:
            if c:
                out[exp] = c
        else:
            s = s + c
            if s:
                out[exp] = s
            else:
                del out[exp]
    return DynPoly(g.ring, out)


class LinearMap(Frozen):
    """x -> a*x + b with a invertible; the conjugating maps."""

    __slots__ = ("ring", "a", "b")

    @classmethod
    def make(cls, ring: Ring, a, b) -> "LinearMap":
        a = _scalar_in(ring, a)
        b = _scalar_in(ring, b)
        if not a:
            raise ValueError("linear map needs invertible leading coefficient")
        return cls(ring, a, b)

    @classmethod
    def shift(cls, ring: Ring, b) -> "LinearMap":
        return cls.make(ring, 1, b)

    @classmethod
    def identity(cls, ring: Ring) -> "LinearMap":
        return cls.make(ring, 1, 0)

    def __call__(self, point):
        point = _scalar_in(self.ring, point)
        return self.a * point + self.b

    def inverse(self) -> "LinearMap":
        inv = self.a.inverse()
        return LinearMap(self.ring, inv, -(inv * self.b))

    def compose(self, other: "LinearMap") -> "LinearMap":
        # self after other
        return LinearMap(self.ring, self.a * other.a,
                         self.a * other.b + self.b)

    def as_dynpoly(self) -> DynPoly:
        return DynPoly.make(self.ring, {1: self.a, 0: self.b})

    def __str__(self) -> str:
        return str(self.as_dynpoly())


def orbit_element(f: DynPoly, start, n: int):
    """f^n(start), computed pointwise; never expands f^n."""
    if f.degree < 1:
        raise ValueError("orbits need degree >= 1")
    value = start
    for _ in range(n):
        value = f.evaluate(value)
    return value


def orbit_prefix(f: DynPoly, start, count: int) -> list:
    """[start, f(start), ..., f^(count)(start)], length count+1."""
    if f.degree < 1:
        raise ValueError("orbits need degree >= 1")
    out = [start]
    value = start
    for _ in range(count):
        value = f.evaluate(value)
        out.append(value)
    return out


def conjugate(f: DynPoly, mu: LinearMap, budget: Optional[int] = None) -> DynPoly:
    """mu o f o mu^(-1).

    To move a map written as mu^(-1) o f o mu into this orientation, pass
    the inverse map.  If f lives over K and mu over an extension of the
    same field, f is lifted first.
    """
    if isinstance(f.ring, KRing) and isinstance(mu.ring, ExtRing) \
            and f.ring.spec == mu.ring.spec:
        f = f.lift_to(mu.ring)
    if f.ring != mu.ring:
        raise RingMismatch("conjugating map lives in a different ring")
    inner = f.compose(mu.inverse().as_dynpoly(), budget)
    return inner.scale(mu.a) + DynPoly.constant(f.ring, mu.b)


def is_additive(f: DynPoly) -> bool:
    """True iff every exponent is a power of p (so f(x+y) = f(x)+f(y))."""
    p = f.spec.p
    return all(_is_p_power(e, p) for e in f.terms)


class AdditiveConjugacy(Frozen):
    """Outcome of conjugate_to_additive: additive = map o f o map^(-1).
    When in_extension is True the witness generates K[y]/(G), which need
    not be a field; arithmetic there flags zero divisors lazily."""

    __slots__ = ("map", "additive", "in_extension")


def conjugate_to_additive(f: DynPoly,
                          height_bound: int = DEFAULT_ROOT_HEIGHT,
                          budget: Optional[int] = None,
                          max_candidates: int = DEFAULT_ROOT_CANDIDATES
                          ) -> Optional[AdditiveConjugacy]:
    """Search for a shift taking f to an additive polynomial.

    Scaling conjugations permute coefficients but never change which
    exponents occur, so only the translation part matters.  Expanding
    f(x - b) + b with b left symbolic, every coefficient sitting on a
    non-p-power exponent (the constant term included) is a polynomial in b
    over K; a shift works exactly when it kills all of them, i.e. is a root
    of their gcd G.  G == 0 means f was already additive (take b = 0),
    constant G means no shift exists, and otherwise we look for a root of
    bounded height in K before falling back to the quotient ring K[y]/(G).
    """
    if not isinstance(f.ring, KRing):
        raise RingMismatch("additive-conjugacy search works over K")
    if f.degree < 1:
        raise ValueError("needs degree >= 1")
    spec = f.spec
    p = spec.p
    meter = _WorkMeter(budget)
    zero = RatFunc.zero(spec)

    # coefficient of x^j is a polynomial in b: bpolys[j] maps b-exponent
    # to a K value
    bpolys: dict = {}
    for e, c in f.terms.items():
        for j, coeff_mod in _binomial_terms(e, p, meter):
            if (e - j) & 1:
                coeff_mod = coeff_mod * (p - 1) % p
            val = c * RatFunc.constant(spec, coeff_mod)
            row = bpolys.setdefault(j, {})
            prev = row.get(e - j, zero)
            now = prev + val
            if now:
                row[e - j] = now
            else:
                row.pop(e - j, None)

    # the "+ b" tail of the conjugation
    row = bpolys.setdefault(0, {})
    prev = row.get(1, zero)
    now = prev + RatFunc.one(spec)
    if now:
        row[1] = now
    else:
        row.pop(1, None)

    # G = gcd of the constraints, made monic so that it can be a modulus
    g: dict = {}
    for j, row in bpolys.items():
        if j == 0 or not _is_p_power(j, p):
            meter.charge(max(row) + 1 if row else 0)
            while row:
                g, row = row, sparse_divmod(g, row)[1]
    if not g:
        mu = LinearMap.identity(f.ring)
        return AdditiveConjugacy(mu, f, False)
    top = max(g)
    if not top:
        return None
    inv = g[top].inverse()
    g = {e: c * inv for e, c in g.items()}
    root_test = DynPoly(f.ring, g)
    for beta in k_candidates(spec, height_bound, max_candidates):
        if not root_test.evaluate(beta):
            mu = LinearMap.shift(f.ring, beta)
            return AdditiveConjugacy(mu, conjugate(f, mu, budget), False)
    ext = ExtRing(spec, dense_coeffs(g, top + 1, zero))
    mu = LinearMap.shift(ext, ext.y())
    return AdditiveConjugacy(mu, conjugate(f, mu, budget), True)


def solve_affine_conjugacy(f: DynPoly, gamma: RatFunc,
                           height_bound: int = DEFAULT_ROOT_HEIGHT,
                           max_candidates: int = DEFAULT_ROOT_CANDIDATES
                           ) -> Scalar:
    """A root delta of f(z) - z = gamma, so that adding gamma to an additive
    f is the shift conjugate tau_(-delta) o f o tau_delta.

    Searches K by bounded height first, then adjoins a root of the monic
    normalization of f(z) - z - gamma.
    """
    if not isinstance(f.ring, KRing):
        raise RingMismatch("affine-conjugacy solving works over K")
    if not is_additive(f):
        raise NotAdditive(f"{f} is not additive")
    spec = f.spec
    gamma = _scalar_in(f.ring, gamma)
    for beta in k_candidates(spec, height_bound, max_candidates):
        if f.evaluate(beta) - beta == gamma:
            return beta
    # dense coefficient vector of f(z) - z - gamma, made monic
    deg = f.degree
    zero = RatFunc.zero(spec)
    dense = [zero] * (deg + 1)
    for e, c in f.terms.items():
        dense[e] = dense[e] + c
    dense[1] = dense[1] - RatFunc.one(spec)
    dense[0] = dense[0] - gamma
    lead = dense[-1]
    if not lead.is_one():
        inv = lead.inverse()
        dense = [c * inv for c in dense]
    ext = ExtRing(spec, dense)
    return ext.y()


def k_candidates(spec: FieldSpec, height_bound: int,
                 max_candidates: int = DEFAULT_ROOT_CANDIDATES
                 ) -> Iterator[RatFunc]:
    """Elements of K in deterministic order of increasing height:
    0, the nonzero constants, then per height polynomials before proper
    fractions.  Stops after max_candidates yields."""
    return itertools.islice(_k_elements(spec, height_bound), max_candidates)


def _k_elements(spec: FieldSpec, height_bound: int) -> Iterator[RatFunc]:
    elems = list(spec.all_elements())
    nonzero = elems[1:]
    yield RatFunc.zero(spec)
    for h in range(height_bound + 1):
        # polynomials of degree exactly h, low coefficients varying fastest
        for num in _polys_of_degree(spec, h, elems, nonzero):
            yield RatFunc.from_poly(num)
        # fractions with max(deg num, deg den) == h
        for dd in range(1, h + 1):
            for den in _monic_polys(spec, dd, elems, nonzero):
                lo = h if dd < h else 0
                for dn in range(lo, h + 1):
                    for num in _polys_of_degree(spec, dn, elems, nonzero):
                        if num.gcd(den).degree == 0:
                            yield RatFunc(num, den)


def _polys_of_degree(spec, d, elems, nonzero):
    if d == 0:
        for c in nonzero:
            yield FFPoly.constant(spec, c)
        return
    for lead in nonzero:
        for rest in itertools.product(elems, repeat=d):
            terms = dict(enumerate(rest))
            terms[d] = lead
            yield FFPoly.make(spec, terms)


def _monic_polys(spec, d, elems, nonzero):
    for rest in itertools.product(elems, repeat=d):
        terms = dict(enumerate(rest))
        terms[d] = 1
        yield FFPoly.make(spec, terms)


def common_iterate(f: DynPoly, g: DynPoly, cap_m: int, cap_n: int,
                   budget: Optional[int] = None) -> Optional[tuple]:
    """Least (m, n) with f^m = g^n as polynomials, or None within caps.

    Equal iterates force equal degrees, so only exponent pairs lying on the
    multiplicative-dependence ray of (deg f, deg g) are ever expanded.
    """
    from .heights import multiplicative_dependence

    if f.degree < 2 or g.degree < 2:
        raise ValueError("common iterates are searched for degree >= 2")
    dep = multiplicative_dependence(f.degree, g.degree)
    if dep is None:
        return None
    r, s = dep
    k = 1
    while k * r <= cap_m and k * s <= cap_n:
        if f.iterate(k * r, budget) == g.iterate(k * s, budget):
            return (k * r, k * s)
        k += 1
    return None
