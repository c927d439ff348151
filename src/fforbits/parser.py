"""Expression and scenario-file parsing.

The input language is deliberately tiny: fixed generator names (t, w, y,
x, T, and x1/x2 inside curve definitions), integer literals reduced mod p,
and the operators + - * / ^ with parentheses.  Precedence is the usual
sum < product < power; '^' folds left, so a^2^3 means (a^2)^3.  A leading
'-' negates, which over a field of characteristic p is multiplication by
p - 1.  Division is defined between field elements only.

Every value type in the package prints through str() into this grammar,
and parse(str(v)) == v holds for all of them; that round trip is what
pins down the canonical form.

Values are built as they are parsed, in their own types: a scalar meeting
a map, a twisted polynomial or a curve becomes its constant term, and a
curve is an orbits.PlaneCurve from the start, added, negated and multiplied
by its own operators.  Powers and curve products are expanded as they are
parsed and draw on the context's dynpoly.Budget; parse_scenario builds one
per file, from its limits after any overrides, before it parses any
expression.
"""

from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (MixedVariables, ParseError, UndefinedSymbol,
                     ValidationError)
from .field import FieldSpec, Frozen, dense_coeffs, power
from .funcfield import ExtElem, ExtRing, KRing, RatFunc
from .dynpoly import (DEFAULT_DEGREE_BUDGET, DEFAULT_TAU_BUDGET, Budget,
                      DynPoly)
from .twisted import TwistedPoly, twisted_pow
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
    x1 and x2.  Every parse with this context draws on budget; without
    one, each parse gets its own default Budget.
    """

    __slots__ = ("spec", "ext", "mode", "budget")

    def __init__(self, spec: FieldSpec, ext: Optional[ExtRing] = None,
                 mode: str = "value", budget: Optional[Budget] = None):
        if mode not in ("value", "modulus", "curve"):
            raise ValueError(f"unknown parse mode {mode!r}")
        self.spec = spec
        self.ext = ext
        self.mode = mode
        self.budget = budget

    @property
    def ring(self):
        return self.ext if self.ext is not None else KRing(self.spec)

    def scalar_from_int(self, n: int):
        return self.ring.from_int(n)

    def scalar_t(self):
        return self.ring.from_K(RatFunc.t(self.spec))

    def scalar_w(self, pos: int):
        if self.spec.r == 1:
            raise UndefinedSymbol(
                f"'w' is undefined over GF({self.spec.p})", pos)
        return self.ring.from_K(RatFunc.constant(self.spec, self.spec.gen()))


def _kind(v) -> str:
    if isinstance(v, (RatFunc, ExtElem)):
        return "scalar"
    if isinstance(v, DynPoly):
        return "dyn"
    if isinstance(v, TwistedPoly):
        return "tw"
    return "curve"


# the type a scalar is lifted to, to meet a value of each other kind
_LIFT = {"dyn": DynPoly, "tw": TwistedPoly, "curve": PlaneCurve}


def _mixed(pos: int) -> MixedVariables:
    return MixedVariables("x and T cannot appear in one expression", pos)


class _Parser:
    def __init__(self, text: str, ctx: ParseContext):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.depth = 0
        self.budget = Budget.of(ctx.budget)

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
                value = -self.term()
            else:
                value = self.term()
            while True:
                tok = self.peek()
                if tok.kind == "op" and tok.text in "+-":
                    self.next()
                    rhs = self.term()
                    if tok.text == "-":
                        rhs = -rhs
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
        if name == "w":
            return ctx.scalar_w(tok.pos)
        if name == "y":
            if ctx.mode == "modulus":
                return DynPoly.x(KRing(ctx.spec))
            if ctx.ext is not None:
                return ctx.ext.y()
            raise UndefinedSymbol("'y' needs an extension (ext = ...)",
                                  tok.pos)
        if ctx.mode == "curve":
            if name in ("x1", "x2"):
                e = (1, 0) if name == "x1" else (0, 1)
                return PlaneCurve(ctx.ring, {e: ctx.ring.one()})
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

    def lift_pair(self, a, b, pos: int):
        """Bring two values to a common kind, preserving order."""
        ka, kb = _kind(a), _kind(b)
        if ka == kb:
            return a, b, ka
        if ka == "scalar":
            return _LIFT[kb].constant(self.ctx.ring, a), b, kb
        if kb == "scalar":
            return a, _LIFT[ka].constant(self.ctx.ring, b), ka
        raise _mixed(pos)

    def combine_add(self, a, b, pos: int):
        a, b, _ = self.lift_pair(a, b, pos)
        return a + b

    def combine_mul(self, a, b, pos: int):
        a, b, k = self.lift_pair(a, b, pos)
        if k == "curve":
            self.budget.charge(max(1, len(a.terms)) * max(1, len(b.terms)))
        return a * b

    def combine_div(self, a, b, pos: int):
        if _kind(a) != "scalar" or _kind(b) != "scalar":
            raise ParseError("division is defined for field elements only",
                             pos)
        return a / b

    def power(self, v, n: int, pos: int):
        k = _kind(v)
        if k == "scalar":
            if isinstance(v, RatFunc) and (
                    len(v.num.terms) > 1 or len(v.den.terms) > 1):
                self.budget.check(n, f"{n}th power of a non-monomial "
                                     "exceeds the degree budget")
            return v ** n
        if k == "dyn":
            return v.pow(n, self.budget)
        if k == "tw":
            return twisted_pow(v, n, self.budget)
        if n == 0:
            return PlaneCurve.constant(self.ctx.ring, self.ctx.ring.one())
        self.budget.check(n * max(map(sum, v.terms), default=0))
        return power(v, n, lambda a, b: self.combine_mul(a, b, pos))


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


def parse_curve(text: str, spec: FieldSpec, ext: Optional[ExtRing] = None,
                budget: Optional[Budget] = None) -> PlaneCurve:
    ctx = ParseContext(spec, ext, mode="curve", budget=budget)
    v = parse_expr(text, ctx)
    if _kind(v) == "scalar":
        v = PlaneCurve.constant(ctx.ring, v)
    if _kind(v) != "curve":
        raise ParseError("a curve equation must use x1/x2 only", 0)
    if not v.terms:
        raise ParseError("the zero polynomial does not define a curve", 0)
    return v


def parse_modulus(text: str, spec: FieldSpec,
                  budget: Optional[Budget] = None) -> Tuple[RatFunc, ...]:
    """Parse an extension modulus in y; returns dense ascending coefficients."""
    v = parse_expr(text, ParseContext(spec, mode="modulus", budget=budget))
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


def parse_scenario(text: str, overrides: Optional[dict] = None) -> Scenario:
    """Read and validate one scenario file.  overrides maps limit keys
    (capM, capN, degreeBudget, tauBudget, denomBound) to values that replace
    the file's; a None value leaves the file's.  The file's expressions are
    expanded under one Budget built from the resulting limits."""
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

    limits = {key: ints[key] for key in _LIMIT_KEYS if key in ints}
    limits.update((key, value) for key, value in (overrides or {}).items()
                  if value is not None)
    common = {_LIMIT_KEYS[key]: value for key, value in limits.items()}
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

    def parsed(key, fn, required=True):
        if key not in raw:
            if required:
                raise ValidationError(key, f"missing required key '{key}'")
            return None
        try:
            return fn(raw[key])
        except ParseError as exc:
            raise ValidationError(key, str(exc)) from None

    if task == "verify-example":
        params = {k: v for k, v in ints.items()
                  if k in ("p", "r", "nmax", "pmax", "capM", "capN")}
        return Scenario(example=parsed("example", str), params=params,
                        **common)

    spec = parsed("field", FieldSpec.parse)
    budget = Budget(limits.get("degreeBudget"), limits.get("tauBudget"))
    ext = parsed("ext", lambda text: ExtRing(
        spec, parse_modulus(text, spec, budget)), required=False)
    ctx = ParseContext(spec, ext, budget=budget)
    needs_g = task in ("intersect", "synchronized", "curve-return",
                       "classify")
    f = parsed("f", lambda text: parse_map(text, ctx))
    g = parsed("g", lambda text: parse_map(text, ctx), required=needs_g)
    alpha = parsed("alpha", lambda text: parse_scalar(text, ctx))
    beta = parsed("beta", lambda text: parse_scalar(text, ctx),
                  required=needs_g)
    curve = None
    if task == "curve-return":
        curve = parsed("curve",
                       lambda text: parse_curve(text, spec, ext, budget))

    if task == "synchronized":
        for key in ("r", "s"):
            if ints.get(key, 1) < 1:
                raise ValidationError(key, f"'{key}' must be >= 1")

    return Scenario(spec=spec, ext=ext, f=f, g=g, alpha=alpha, beta=beta,
                    curve=curve,
                    params={k: ints[k] for k in ("r", "s", "a", "b")
                            if k in ints},
                    **common)
