"""Expression and scenario-file parsing.

The input language is deliberately tiny: fixed generator names (t, w, y,
x, T, and x1/x2 inside curve definitions), integer literals reduced mod p,
and the operators + - * / ^ with parentheses.  Precedence is the usual
sum < product < power; '^' folds left, so a^2^3 means (a^2)^3.  A leading
'-' negates, which over a field of characteristic p is multiplication by
p - 1.  Division is defined between field elements only.

Every value type in the package prints through str() into this grammar,
and parse(print(v)) == v holds for all of them; that round trip is what
pins down the canonical form.
"""

from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (DegreeBudgetExceeded, MixedVariables, ParseError,
                     UndefinedSymbol, ValidationError)
from .field import FieldSpec, Frozen, dense_coeffs, power
from .funcfield import ExtElem, ExtRing, KRing, RatFunc
from .dynpoly import (DEFAULT_DEGREE_BUDGET, DynPoly, _WorkMeter)
from .twisted import DEFAULT_TAU_BUDGET, TwistedPoly
from .orbits import PlaneCurve

MAX_NESTING = 200
_OPS = set("+-*/^()")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> List[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append(_Token("op", ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            # ASCII only: str.isdigit also accepts superscripts and other
            # unicode digits that int() refuses
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            # maximal munch: "tw" is one unknown name, not t*w
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class ParseContext:
    """What the fixed generator names mean for one parse.

    mode "value" is the normal case: x builds a DynPoly, T a TwistedPoly,
    y the extension generator (when ext is set).  mode "modulus" parses an
    extension modulus, where y is a plain polynomial indeterminate and
    x/T are not available.  mode "curve" parses plane-curve equations in
    x1 and x2.
    """

    __slots__ = ("spec", "ext", "mode")

    def __init__(self, spec: FieldSpec, ext: Optional[ExtRing] = None,
                 mode: str = "value"):
        if mode not in ("value", "modulus", "curve"):
            raise ValueError(f"unknown parse mode {mode!r}")
        self.spec = spec
        self.ext = ext
        self.mode = mode

    @property
    def ring(self):
        return self.ext if self.ext is not None else KRing(self.spec)

    def scalar_from_int(self, n: int):
        return self.ring.from_int(n)

    def scalar_t(self):
        t = RatFunc.t(self.spec)
        if self.ext is not None:
            return self.ext.from_K(t)
        return t

    def scalar_w(self, pos: int):
        if self.spec.r == 1:
            raise UndefinedSymbol(
                f"'{self.spec.generator}' is undefined over GF({self.spec.p})",
                pos)
        c = RatFunc.constant(self.spec, self.spec.gen())
        if self.ext is not None:
            return self.ext.from_K(c)
        return c


class _Bivar:
    """Polynomial in x1, x2 built while parsing a curve equation."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def variable(cls, ring, index: int) -> "_Bivar":
        e = (1, 0) if index == 1 else (0, 1)
        return cls(ring, {e: ring.one()})

    def add(self, other: "_Bivar") -> "_Bivar":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return _Bivar(self.ring, terms)

    def neg(self) -> "_Bivar":
        return _Bivar(self.ring, {e: -c for e, c in self.terms.items()})

    def mul(self, other: "_Bivar", meter: _WorkMeter) -> "_Bivar":
        meter.charge(max(1, len(self.terms)) * max(1, len(other.terms)))
        terms = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in other.terms.items():
                e = (a1 + b1, a2 + b2)
                s = terms.get(e)
                v = c * d
                terms[e] = v if s is None else s + v
        return _Bivar(self.ring, terms)


def _kind(v) -> str:
    if isinstance(v, (RatFunc, ExtElem)):
        return "scalar"
    if isinstance(v, DynPoly):
        return "dyn"
    if isinstance(v, TwistedPoly):
        return "tw"
    return "curve"


def _mixed(pos: int) -> MixedVariables:
    return MixedVariables("x and T cannot appear in one expression", pos)


class _Parser:
    def __init__(self, text: str, ctx: ParseContext):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.depth = 0
        self.meter = _WorkMeter(DEFAULT_DEGREE_BUDGET)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, ch: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != ch:
            raise ParseError(f"expected {ch!r}", tok.pos)
        return tok

    # ---- grammar ----

    def parse(self):
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expression(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply",
                             self.peek().pos)
        try:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "-":
                self.next()
                value = self.negate(self.term(), tok.pos)
            else:
                value = self.term()
            while True:
                tok = self.peek()
                if tok.kind == "op" and tok.text in "+-":
                    self.next()
                    rhs = self.term()
                    if tok.text == "-":
                        rhs = self.negate(rhs, tok.pos)
                    value = self.combine_add(value, rhs, tok.pos)
                else:
                    return value
        finally:
            self.depth -= 1

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.next()
                rhs = self.factor()
                if tok.text == "*":
                    value = self.combine_mul(value, rhs, tok.pos)
                else:
                    value = self.combine_div(value, rhs, tok.pos)
            else:
                return value

    def factor(self):
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.next()
                etok = self.next()
                if etok.kind != "int":
                    raise ParseError("exponent must be a nonnegative integer",
                                     etok.pos)
                value = self.power(value, int(etok.text), etok.pos)
            else:
                return value

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return self.ctx.scalar_from_int(int(tok.text))
        if tok.kind == "op" and tok.text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        if tok.kind == "name":
            return self.name_atom(tok)
        raise ParseError(f"expected a value, found {tok.text!r}"
                         if tok.kind != "end" else "unexpected end of input",
                         tok.pos)

    def name_atom(self, tok: _Token):
        ctx, name = self.ctx, tok.text
        if name == "t":
            return ctx.scalar_t()
        if name == ctx.spec.generator and name not in ("t", "y", "x", "T",
                                                       "x1", "x2"):
            return ctx.scalar_w(tok.pos)
        if name == "y":
            if ctx.mode == "modulus":
                return DynPoly.x(KRing(ctx.spec))
            if ctx.ext is not None:
                return ctx.ext.y()
            raise UndefinedSymbol("'y' needs an extension (ext = ...)",
                                  tok.pos)
        if ctx.mode == "curve":
            if name == "x1":
                return _Bivar.variable(ctx.ring, 1)
            if name == "x2":
                return _Bivar.variable(ctx.ring, 2)
            if name in ("x", "T"):
                raise UndefinedSymbol(
                    f"curve equations use x1 and x2, not {name!r}", tok.pos)
        elif ctx.mode == "value":
            if name == "x":
                return DynPoly.x(ctx.ring)
            if name == "T":
                return TwistedPoly.tau(ctx.ring)
        raise UndefinedSymbol(f"undefined symbol {name!r}", tok.pos)

    # ---- combination rules ----

    def negate(self, v, pos: int):
        k = _kind(v)
        if k == "curve":
            return v.neg()
        return -v

    def lift_pair(self, a, b, pos: int):
        """Bring two values to a common kind, preserving order."""
        ka, kb = _kind(a), _kind(b)
        if ka == kb:
            return a, b, ka
        if "curve" in (ka, kb):
            if ka == "scalar":
                return _Bivar(self.ctx.ring, {(0, 0): a}), b, "curve"
            if kb == "scalar":
                return a, _Bivar(self.ctx.ring, {(0, 0): b}), "curve"
            raise _mixed(pos)
        if {ka, kb} == {"dyn", "tw"}:
            raise _mixed(pos)
        if ka == "scalar":
            if kb == "dyn":
                return DynPoly.constant(self.ctx.ring, a), b, "dyn"
            return TwistedPoly.constant(self.ctx.ring, a), b, "tw"
        if kb == "scalar":
            if ka == "dyn":
                return a, DynPoly.constant(self.ctx.ring, b), "dyn"
            return a, TwistedPoly.constant(self.ctx.ring, b), "tw"
        raise _mixed(pos)

    def combine_add(self, a, b, pos: int):
        a, b, k = self.lift_pair(a, b, pos)
        if k == "curve":
            return a.add(b)
        return a + b

    def combine_mul(self, a, b, pos: int):
        a, b, k = self.lift_pair(a, b, pos)
        if k == "curve":
            return a.mul(b, self.meter)
        return a * b

    def combine_div(self, a, b, pos: int):
        if _kind(a) != "scalar" or _kind(b) != "scalar":
            raise ParseError("division is defined for field elements only",
                             pos)
        return a / b

    def power(self, v, n: int, pos: int):
        k = _kind(v)
        if k == "scalar":
            if isinstance(v, RatFunc) and n > DEFAULT_DEGREE_BUDGET and (
                    len(v.num.terms) > 1 or len(v.den.terms) > 1):
                raise DegreeBudgetExceeded(
                    f"{n}th power of a non-monomial exceeds the degree budget")
            return v ** n
        if k == "dyn":
            return v.pow(n, DEFAULT_DEGREE_BUDGET)
        if k == "tw":
            return v ** n
        if n == 0:
            return _Bivar(self.ctx.ring, {(0, 0): self.ctx.ring.one()})
        return power(v, n, lambda a, b: a.mul(b, self.meter))


def parse_expr(text: str, ctx: ParseContext):
    """Parse one expression; the result type depends on which atoms appear."""
    return _Parser(text, ctx).parse()


def parse_scalar(text: str, ctx: ParseContext):
    v = parse_expr(text, ctx)
    if _kind(v) != "scalar":
        raise ParseError("expected a field element, got a polynomial map", 0)
    return v


def parse_map(text: str, ctx: ParseContext):
    """Parse f/g definitions: a DynPoly or TwistedPoly (constants allowed)."""
    v = parse_expr(text, ctx)
    k = _kind(v)
    if k == "scalar":
        return DynPoly.constant(ctx.ring, v)
    if k == "curve":
        raise ParseError("curve variables are not allowed here", 0)
    return v


def parse_curve(text: str, spec: FieldSpec,
                ext: Optional[ExtRing] = None) -> PlaneCurve:
    ctx = ParseContext(spec, ext, mode="curve")
    v = parse_expr(text, ctx)
    if _kind(v) == "scalar":
        v = _Bivar(ctx.ring, {(0, 0): v})
    if _kind(v) != "curve":
        raise ParseError("a curve equation must use x1/x2 only", 0)
    if not v.terms:
        raise ParseError("the zero polynomial does not define a curve", 0)
    return PlaneCurve.make(ctx.ring, v.terms)


def parse_modulus(text: str, spec: FieldSpec) -> Tuple[RatFunc, ...]:
    """Parse an extension modulus in y; returns dense ascending coefficients."""
    v = parse_expr(text, ParseContext(spec, mode="modulus"))
    if isinstance(v, (RatFunc, ExtElem)):
        raise ParseError("an extension modulus must involve y", 0)
    if not isinstance(v, DynPoly):
        raise ParseError("an extension modulus must be a polynomial in y", 0)
    d = v.degree
    if d < 1:
        raise ParseError("an extension modulus must have degree >= 1", 0)
    lead = v.terms[d]
    if not lead.is_constant() or lead.constant_value() != spec.one():
        raise ParseError("an extension modulus must be monic", 0)
    return dense_coeffs(v.terms, d + 1, RatFunc.zero(spec))


def print_canonical(value) -> str:
    """The canonical text form; parse(print_canonical(v)) == v."""
    return str(value)


# ---- scenario files ----

TASKS = ("intersect", "synchronized", "curve-return", "verify-example",
         "heights", "classify")

_INT_KEYS = ("capM", "capN", "r", "s", "a", "b", "p", "nmax", "pmax",
             "denomBound", "degreeBudget", "tauBudget")

# scenario keys that set a Scenario field of the same meaning
_LIMIT_KEYS = {"capM": "cap_m", "capN": "cap_n",
               "degreeBudget": "degree_budget", "tauBudget": "tau_budget",
               "denomBound": "denominator_bound"}


class Scenario(Frozen):
    """A validated unit of work read from one scenario file: the task, its
    field and maps (None where the task takes none), the limits, the int
    params of the task (a dict) and the file's keys as read (the dict
    echo)."""

    __slots__ = ("task", "spec", "ext", "f", "g", "alpha", "beta", "curve",
                 "cap_m", "cap_n", "degree_budget", "tau_budget",
                 "target_error", "denominator_bound", "prune", "example",
                 "params", "expect", "echo")
    _defaults = {"spec": None, "ext": None, "f": None, "g": None,
                 "alpha": None, "beta": None, "curve": None, "cap_m": 64,
                 "cap_n": 64, "degree_budget": DEFAULT_DEGREE_BUDGET,
                 "tau_budget": DEFAULT_TAU_BUDGET,
                 "target_error": Fraction(1, 64), "denominator_bound": 8,
                 "prune": False, "example": None, "expect": None}


def _split_statements(text: str):
    """Yield `key = value` statements: line-oriented, '#' comments, and ';'
    separators that ignore any ';' inside parentheses (field specs contain
    one)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        depth = 0
        start = 0
        pieces = []
        for i, ch in enumerate(line):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth = max(0, depth - 1)
            elif ch == ";" and depth == 0:
                pieces.append(line[start:i])
                start = i + 1
        pieces.append(line[start:])
        for piece in pieces:
            if piece.strip():
                yield lineno, piece.strip()


def _require(values: dict, key: str):
    if key not in values:
        raise ValidationError(key, f"missing required key '{key}'")
    return values[key]


def parse_scenario(text: str) -> Scenario:
    raw = {}
    for lineno, stmt in _split_statements(text):
        if "=" not in stmt:
            raise ParseError(f"line {lineno}: expected 'key = value', got "
                             f"{stmt!r}", 0)
        key, value = stmt.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key", 0)
        if key in raw:
            raise ValidationError(key, f"duplicate key '{key}'")
        raw[key] = value

    known = {"field", "ext", "f", "g", "alpha", "beta", "task", "curve",
             "prune", "targetError", "example", "expect", *_INT_KEYS}
    for key in raw:
        if key not in known:
            raise ValidationError(key, f"unknown key '{key}'")

    if "task" in raw:
        task = raw["task"]
    elif "example" in raw:
        task = "verify-example"
    else:
        raise ValidationError("task", "missing required key 'task'")
    if task not in TASKS:
        raise ValidationError("task", f"unknown task {task!r}; expected one "
                              f"of {', '.join(TASKS)}")

    ints = {}
    for key in _INT_KEYS:
        if key in raw:
            try:
                ints[key] = int(raw[key])
            except ValueError:
                raise ValidationError(key, f"'{key}' must be an integer, got "
                                      f"{raw[key]!r}") from None
            if ints[key] < 0:
                raise ValidationError(key, f"'{key}' must be nonnegative")

    common = {name: ints[key] for key, name in _LIMIT_KEYS.items()
              if key in ints}
    common.update(task=task, expect=raw.get("expect"),
                  echo=dict(sorted(raw.items())))
    if "targetError" in raw:
        try:
            target_error = Fraction(raw["targetError"])
        except (ValueError, ZeroDivisionError):
            raise ValidationError("targetError",
                                  f"bad fraction {raw['targetError']!r}") \
                from None
        if target_error <= 0:
            raise ValidationError("targetError", "targetError must be > 0")
        common["target_error"] = target_error

    if "prune" in raw:
        flag = raw["prune"].lower()
        if flag not in ("on", "off", "true", "false"):
            raise ValidationError("prune", f"bad value {raw['prune']!r}; "
                                  "expected on/off")
        common["prune"] = flag in ("on", "true")

    if task == "verify-example":
        example = _require(raw, "example")
        params = {k: v for k, v in ints.items()
                  if k in ("p", "r", "nmax", "pmax", "capM", "capN")}
        return Scenario(example=example, params=params, **common)

    try:
        spec = FieldSpec.parse(_require(raw, "field"))
    except ParseError as exc:
        raise ValidationError("field", str(exc)) from None

    ext = None
    if "ext" in raw:
        try:
            modulus = parse_modulus(raw["ext"], spec)
        except ParseError as exc:
            raise ValidationError("ext", str(exc)) from None
        ext = ExtRing(spec, modulus)

    ctx = ParseContext(spec, ext)

    def parsed(key, fn, required):
        if key not in raw:
            if required:
                raise ValidationError(key, f"missing required key '{key}'")
            return None
        try:
            return fn(raw[key], ctx)
        except ParseError as exc:
            raise ValidationError(key, str(exc)) from None

    needs_g = task in ("intersect", "synchronized", "curve-return",
                       "classify")
    f = parsed("f", parse_map, required=True)
    g = parsed("g", parse_map, required=needs_g)
    alpha = parsed("alpha", parse_scalar, required=True)
    beta = parsed("beta", parse_scalar, required=needs_g)
    curve = None
    if task == "curve-return":
        if "curve" not in raw:
            raise ValidationError("curve", "missing required key 'curve'")
        try:
            curve = parse_curve(raw["curve"], spec, ext)
        except ParseError as exc:
            raise ValidationError("curve", str(exc)) from None

    if task == "synchronized":
        for key in ("r", "s"):
            if ints.get(key, 1) < 1:
                raise ValidationError(key, f"'{key}' must be >= 1")

    return Scenario(spec=spec, ext=ext, f=f, g=g, alpha=alpha, beta=beta,
                    curve=curve,
                    params={k: ints[k] for k in ("r", "s", "a", "b")
                            if k in ints},
                    **common)
