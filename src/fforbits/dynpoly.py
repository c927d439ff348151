"""Polynomials as dynamical systems: composition, iteration, conjugation.

A DynPoly is a sparse polynomial in x whose coefficients live either in
K = GF(q)(t) (a KRing handle) or in an extension K[y]/(M) (an ExtRing).
Exponents are arbitrary-precision, which matters: additive polynomials have
only p-power exponents and their iterates reach x^(p^k) for large k while
staying a handful of terms.  Every power, of a two-term base too, is one
field.power over Frobenius images.  Maps are conjugated by shifts
x -> x + delta, the only conjugations the identity suite needs.  An affine
conjugacy of an additive map is solved for exactly: its root is found in K
whenever K has one.

Symbolic expansion (compose, iterate, powers, here and in twisted and the
parser) draws on one Budget.  Its degree work is a single number bounding
both the degree of anything expanded and the total number of coefficient
multiplications spent; its T-degree cap bounds twisted powers.  Running out
raises DegreeBudgetExceeded or TauDegreeBudgetExceeded rather than grinding
away.  A scenario run builds one Budget from its limits and every
expression of the file draws on it; an entry point called without one gets
a fresh default Budget for that call.  Orbits are walked by walk, the one
loop that evaluates a map point after point, or, for an affine-additive
map over GF(p) with F_p coefficients and polynomial data, by walk_keys,
which steps the point's Frobenius coordinates instead; neither is metered
yet.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Optional, Union

from .errors import (DegreeBudgetExceeded, NotAdditive, RingMismatch,
                     TauDegreeBudgetExceeded)
from .field import (FieldSpec, Frozen, format_terms, power, sparse_add,
                    sparse_lincomb, sparse_mul, sparse_neg)
from .funcfield import ExtElem, ExtRing, FFPoly, KRing, RatFunc, _elem

DEFAULT_DEGREE_BUDGET = 2 ** 20
DEFAULT_TAU_BUDGET = 4096

Ring = Union[KRing, ExtRing]
Scalar = Union[RatFunc, ExtElem]


class Budget:
    """The limits of one run of symbolic expansion: the degree work still
    left, and the cap on the T-degree of a twisted power."""

    __slots__ = ("left", "tau")

    def __init__(self, degree: Optional[int] = None,
                 tau: Optional[int] = None):
        self.left = DEFAULT_DEGREE_BUDGET if degree is None else degree
        self.tau = DEFAULT_TAU_BUDGET if tau is None else tau

    @classmethod
    def of(cls, budget: Optional["Budget"]) -> "Budget":
        return cls() if budget is None else budget

    def check(self, n: int, what: str = "degree budget exhausted") -> None:
        """Raise unless n more units of work fit."""
        if n > self.left:
            raise DegreeBudgetExceeded(what)

    def charge(self, n: int) -> None:
        self.check(n)
        self.left -= n

    def check_degree(self, d: int, n: int, scale: int = 1) -> None:
        """Raise unless d^n * scale fits, without forming a giant d^n."""
        if d > 1 and (n * (d.bit_length() - 1) > 64
                      or d ** n * scale > self.left):
            raise DegreeBudgetExceeded("degree budget exhausted")

    def check_tau(self, degree: int) -> None:
        if degree > self.tau:
            raise TauDegreeBudgetExceeded(
                f"T-degree {degree} exceeds budget {self.tau}")


def _scalar_in(ring: Ring, value) -> Scalar:
    if isinstance(value, int):
        return ring.from_int(value)
    if isinstance(value, RatFunc) and value.spec == ring.spec:
        return ring.from_K(value)
    if isinstance(value, ExtElem) and value.ring == ring:
        return value
    raise RingMismatch(f"{value!r} is not a scalar of {ring!r}")


def _p_split(e: int, p: int) -> tuple:
    """(j, k) with e = j * p^k and p not dividing j, for e >= 1."""
    k = 0
    while e % p == 0:
        e //= p
        k += 1
    return e, k


class DynPoly(Frozen):
    """Sparse polynomial in x over K or an extension ring of K."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

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

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))

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

    def pow(self, n: int, budget: Optional[Budget] = None) -> "DynPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return DynPoly.constant(self.ring, 1)
        budget = Budget.of(budget)
        budget.check(n * self.degree if self.degree > 1 else 0)
        return _poly_power(self, n, budget, {})

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

    def compose(self, inner: "DynPoly",
                budget: Optional[Budget] = None) -> "DynPoly":
        """self(inner(x)), metered."""
        self._check(inner)
        budget = Budget.of(budget)
        if self.degree >= 1:
            budget.check_degree(inner.degree, 1, scale=self.degree)
        return _compose_metered(self, inner, budget)

    def iterate(self, n: int, budget: Optional[Budget] = None) -> "DynPoly":
        """The n-fold compositional power, expanded symbolically."""
        if n < 0:
            raise ValueError("negative iterate")
        if n == 0:
            return DynPoly.x(self.ring)
        if self.degree < 1:
            raise ValueError("iteration needs degree >= 1")
        budget = Budget.of(budget)
        budget.check_degree(self.degree, n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else _compose_metered(
                    result, base, budget)
            n >>= 1
            if n:
                base = _compose_metered(base, base, budget)
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


def _mul_metered(a: DynPoly, b: DynPoly, budget: Budget) -> DynPoly:
    budget.charge(len(a.terms) * len(b.terms))
    return a * b


def _compose_metered(outer: DynPoly, inner: DynPoly,
                     budget: Budget) -> DynPoly:
    """outer(inner(x)); the body of compose, and of each step of iterate,
    which shares one budget across its compositions."""
    out = DynPoly.zero(outer.ring)
    cache: dict = {}
    for e, c in outer.terms.items():
        pw = _poly_power(inner, e, budget, cache)
        out = out + pw.scale(c)
    return out


def _poly_power(g: DynPoly, e: int, budget: Budget, cache: dict) -> DynPoly:
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
    else:
        if len(g.terms) == 2:
            # by Lucas, (u + v)^e has prod(d + 1) terms over the base-p
            # digits d of e; too many are refused before any product
            count, m, p = 1, e, g.spec.p
            while m:
                count *= m % p + 1
                m //= p
                budget.check(count)
        # Frobenius images cost no multiplication, so only the digit powers
        # (kept in the caller's cache) and one product per further nonzero
        # digit are paid for
        out = power(g, e, lambda a, b: _mul_metered(a, b, budget),
                    DynPoly.frobenius, g.spec.p, cache)
    cache[e] = out
    return out


def _orbit_start(f: DynPoly, start):
    """What every orbit walk holds to: f has degree >= 1, and an int start
    is read in the ring of f."""
    if f.degree < 1:
        raise ValueError("orbits need degree >= 1")
    return f.ring.from_int(start) if isinstance(start, int) else start


def walk(f: DynPoly, start) -> Iterator:
    """start, f(start), f^2(start), ...: each point is evaluated only when
    asked for, so a capped consumer never evaluates past its cap."""
    start = _orbit_start(f, start)
    # f.evaluate is looked up at each step, so a patched or wrapped
    # evaluate sees every step
    return itertools.accumulate(itertools.repeat(f),
                                lambda point, f: f.evaluate(point),
                                initial=start)


def walk_keys(f: DynPoly, start) -> Optional[Iterator]:
    """The keys of start, f(start), f^2(start), ..., each computed only when
    asked for, two keys being equal exactly when their points are; or None
    for an orbit not of the kind below, which only walk walks.

    The kind: K = GF(p)(t), f = sum_i l_i x^(p^i) + gamma with every l_i in
    F_p, gamma and the start in F_p[t], and (p - 1)(sum_i l_i + 1) < 256.
    Each exponent n >= 1 of a point is j*p^k for one j prime to p, and
    x^(p^i) sends a*t^(j p^k) to a*t^(j p^(k+i)) and fixes the constant
    term.  So a point is its constant term c0 and, for each j, the
    polynomial A_j = sum_k a_(j p^k) T^k of F_p[T] (Frobenius coordinates,
    Goss, Basic Structures of Function Field Arithmetic, ch. 1), and f
    acts by c0 -> (sum_i l_i) c0 + gamma_0 and A_j -> sum_i l_i T^i A_j +
    G_j, where G_j are gamma's coordinates.  A key is (c0, ((j, A_j),
    ...)) over the nonzero A_j in ascending j, each A_j an int whose byte
    k holds the coefficient of T^k; the bound keeps every byte of a step's
    sum below 256, so no slot carries before the sum is reduced mod p.
    """
    start = _orbit_start(f, start)
    shape = _key_shape(f)
    start = shape and key_of(start, f.spec)
    if not start:
        return None
    return itertools.accumulate(itertools.repeat(shape), _key_step,
                                initial=start)


def _key_shape(f: DynPoly) -> Optional[tuple]:
    """(L, L(1), the key of gamma, p) for a map of the kind walk_keys
    walks, with L = sum_i l_i T^i packed as the A_j are; else None."""
    spec, gamma = f.spec, f.terms.get(0)
    p = spec.int_p if isinstance(f.ring, KRing) else 0
    if not p or (gamma is not None and not gamma.is_poly()):
        return None
    lin = one = 0
    for e, c in f.terms.items():
        if e:
            j, i = _p_split(e, p)
            if j != 1 or not c.is_constant():
                return None
            lin |= c.num.terms[0] << 8 * i
            one += c.num.terms[0]
    if (p - 1) * (one + 1) > 255:
        return None
    return lin, one, key_of(gamma, spec) if gamma else (0, ()), p


def _key_step(key: tuple, shape: tuple) -> tuple:
    """The key of f(point) from the key of the point: one step of
    walk_keys."""
    lin, one, gamma, p = shape
    return combine_keys(((lin, one, key), (1, 1, gamma)), p)


def key_of(x, spec: FieldSpec) -> Optional[tuple]:
    """The walk_keys key of x when x is in F_p[t] for spec = GF(p), else
    None."""
    if not (isinstance(x, RatFunc) and x.spec == spec and x.is_poly()):
        return None
    p, coords = spec.int_p, {}
    for e, c in x.num.terms.items():
        if e:
            j, k = _p_split(e, p)
            coords[j] = coords.get(j, 0) | c << 8 * k
    return x.num.terms.get(0, 0), tuple(sorted(coords.items()))


def point_of(key: tuple, spec: FieldSpec) -> RatFunc:
    """The point of F_p[t] whose walk_keys key is key."""
    c0, coords = key
    p = spec.int_p
    terms = {0: c0} if c0 else {}
    for j, a in coords:
        for k, c in enumerate(a.to_bytes((a.bit_length() + 7) // 8,
                                         "little")):
            if c:
                terms[j * p ** k] = c
    return RatFunc.from_poly(FFPoly(spec, terms))


@functools.lru_cache(maxsize=None)
def _mod_p_bytes(p: int) -> bytes:
    """The bytes.translate table that reduces each byte mod p."""
    return bytes(v % p for v in range(256))


def combine_keys(terms, p: int) -> tuple:
    """The key of sum_i m_i(T) x_i over the (m_i, m_i(1), key of x_i) in
    terms, each m_i in F_p[T] packed as the A_j are.  T fixes c0 and moves
    every slot one byte up, so m(T) multiplies c0 by m(1) and each A_j by
    m, one int product that no slot carries out of while the caller keeps
    each byte of the sum below 256."""
    c0, acc = 0, {}
    for m, m1, (b0, coords) in terms:
        c0 += m1 * b0
        for j, a in coords:
            acc[j] = acc.get(j, 0) + m * a
    table, out = _mod_p_bytes(p), []
    for j in sorted(acc):
        a = acc[j]
        a = int.from_bytes(a.to_bytes((a.bit_length() + 7) // 8, "little")
                           .translate(table), "little")
        if a:
            out.append((j, a))
    return c0 % p, tuple(out)


def orbit_element(f: DynPoly, start, n: int):
    """f^n(start), computed pointwise; never expands f^n."""
    return next(itertools.islice(walk(f, start), n, None))


def orbit_prefix(f: DynPoly, start, count: int) -> list:
    """[start, f(start), ..., f^(count)(start)], length count+1."""
    return list(itertools.islice(walk(f, start), count + 1))


def conjugate(f: DynPoly, delta, budget: Optional[Budget] = None) -> DynPoly:
    """f(x - delta) + delta, the conjugate tau_delta o f o tau_(-delta) of
    f by the shift tau_delta(x) = x + delta.

    If f lives over K and delta in an extension of the same field, f is
    lifted first.
    """
    if isinstance(f.ring, KRing) and isinstance(delta, ExtElem) \
            and f.spec == delta.spec:
        f = f.lift_to(delta.ring)
    delta = _scalar_in(f.ring, delta)
    inner = DynPoly.make(f.ring, {1: 1, 0: -delta})
    return f.compose(inner, budget) + DynPoly.constant(f.ring, delta)


def is_additive(f: DynPoly) -> bool:
    """True iff every exponent is a power of p (so f(x+y) = f(x)+f(y))."""
    p = f.spec.p
    return all(e >= 1 and _p_split(e, p)[0] == 1 for e in f.terms)


def solve_affine_conjugacy(f: DynPoly, gamma: RatFunc) -> Scalar:
    """A root delta of f(z) - z = gamma, so that adding gamma to an additive
    f is the shift conjugate tau_(-delta) o f o tau_delta.

    The root lies in K whenever K has one (see _root_in_K); otherwise it is
    adjoined as a root of the monic normalization of f(z) - z - gamma.
    """
    if not isinstance(f.ring, KRing):
        raise RingMismatch("affine-conjugacy solving works over K")
    if not is_additive(f):
        raise NotAdditive(f"{f} is not additive")
    spec = f.spec
    gamma = _scalar_in(f.ring, gamma)
    zero = RatFunc.zero(spec)
    # L(z) = f(z) - z, F_p-linear as f is additive
    lin = {**f.terms, 1: f.terms.get(1, zero) - RatFunc.one(spec)}
    delta = _root_in_K(DynPoly(f.ring, {e: a for e, a in lin.items() if a}),
                       gamma)
    if delta is not None:
        return delta
    # dense coefficient vector of L(z) - gamma, made monic
    dense = [lin.get(e, zero) for e in range(max(lin) + 1)]
    dense[0] = -gamma
    lead = dense[-1]
    if not lead.is_one():
        inv = lead.inverse()
        dense = [c * inv for c in dense]
    return ExtRing(spec, dense).y()


def _root_in_K(lin: DynPoly, gamma: RatFunc) -> Optional[RatFunc]:
    """A root in K of L(z) = sum a_e z^e = gamma, for an F_p-linear L with
    top exponent k (Goss, Basic Structures of Function Field Arithmetic,
    ch. 1), or None when K has none.

    Where a root has a pole of order u, either a_k z^k alone has the least
    valuation, so v(gamma) = v(a_k) - k*u, or a lower term ties with it or
    beats it, so u <= (v(a_k) - v(a_e))/(k - e).  Hence u <= v(M) at every
    finite place for M = num(a_k) den(gamma) prod_(e<k) den(a_e), and the
    same argument at infinity bounds deg(root).  So a root is N/M, and the
    GF(p) coordinates of N's coefficients solve one linear system.
    """
    if not lin:
        return None if gamma else gamma
    spec, r, k = gamma.spec, gamma.spec.r, lin.degree
    top = lin.terms[k]

    def deg(x: RatFunc) -> int:
        return x.num.degree - x.den.degree

    m, clear = top.num * gamma.den, gamma.den * top.den
    bound = [0, (deg(gamma) - deg(top)) // k] if gamma else [0]
    for e, a in lin.terms.items():
        if e < k:
            m, clear = m * a.den, clear * a.den
            bound.append((deg(a) - deg(top)) // (k - e))
    # L(b/M) * clear and gamma * clear are polynomials for every b in F_q[t]
    clear = RatFunc.from_poly(clear * m ** k)

    def coords(x: RatFunc) -> dict:
        # key i*r + j holds the w^j part of the coefficient of t^i
        return {i * r + j: c for i, a in (x * clear).num.terms.items()
                for j, c in enumerate(_elem(spec, a).coeffs) if c}

    units = [spec.elem([0] * j + [1]) for j in range(r)]
    basis = [FFPoly.monomial(spec, i, w)
             for i in range(m.degree + max(bound) + 1) for w in units]
    x = _solve_mod_p([coords(lin.evaluate(RatFunc.make(b, m))) for b in basis],
                     coords(gamma), spec.p)
    if x is None:
        return None
    return RatFunc.make(sum((basis[i].scale(c) for i, c in x.items()),
                            FFPoly.zero(spec)), m)


def _solve_mod_p(columns: list, target: dict, p: int) -> Optional[dict]:
    """Some x with sum_i x[i] * columns[i] = target over GF(p), or None.
    Vectors are sparse dicts of residues at keys >= 0; x is one too.

    Column i carries its index as the entry 1 at key -1 - i, where no
    pivot is taken, so reducing it records the combination of columns
    taken.  Each pivot row is reduced against those before it, so one pass
    over the pivots in order reduces any vector.
    """
    pivots: dict = {}

    def reduce(vec: dict) -> dict:
        for key, row in pivots.items():
            if vec.get(key):
                vec = sparse_lincomb((({0: 1}, vec), ({0: -vec[key]}, row)), p)
        return vec

    for i, col in enumerate(columns):
        vec = reduce({**col, -1 - i: 1})
        key = max(vec)
        if key >= 0:
            pivots[key] = sparse_mul({0: pow(vec[key], -1, p)}, vec, p)
    vec = reduce(target)
    # now target + sum_i vec[-1 - i] * columns[i] = the part at keys >= 0
    if max(vec, default=-1) >= 0:
        return None
    return {-1 - key: -c % p for key, c in vec.items()}


def common_iterate(f: DynPoly, g: DynPoly, cap_m: int, cap_n: int,
                   budget: Optional[Budget] = None) -> Optional[tuple]:
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
