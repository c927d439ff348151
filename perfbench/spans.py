"""Span recorder and per-layer instrumentation for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions and methods of each fforbits module are wrapped at run
time, and nothing under src/ changes.  A span keeps its name, start, end,
parent span and op id in flat arrays, so a run of a million spans stays
small; they are written out when the run ends.

FieldElem operations are counted, not timed: they run millions of times
per op, each for about a microsecond, and a span around each would cost
more than the work it measures.  Their time is part of the self time of
the enclosing span.
"""

import math
import sys
import time
from array import array
from collections import defaultdict

FIELD_COUNTED = "field ops are counted only, not timed: their time is in " \
                "the self time of the calling layer"

# (metric prefix, module, class or None, attribute)
SPANNED = (
    ("funcfield.poly_mul", "funcfield", "FFPoly", "__mul__"),
    ("funcfield.poly_add", "funcfield", "FFPoly", "__add__"),
    ("funcfield.poly_divmod", "funcfield", "FFPoly", "divmod"),
    ("funcfield.poly_gcd", "funcfield", "FFPoly", "gcd"),
    ("funcfield.ratfunc_make", "funcfield", "RatFunc", "make"),
    ("funcfield.ext_mul", "funcfield", "ExtElem", "__mul__"),
    ("funcfield.ext_inverse", "funcfield", "ExtElem", "inverse"),
    ("dynpoly.evaluate", "dynpoly", "DynPoly", "evaluate"),
    ("dynpoly.compose", "dynpoly", "DynPoly", "compose"),
    ("dynpoly.iterate", "dynpoly", "DynPoly", "iterate"),
    ("dynpoly.pow", "dynpoly", "DynPoly", "pow"),
    ("twisted.mul", "twisted", "TwistedPoly", "__mul__"),
    ("twisted.twisted_pow", "twisted", None, "twisted_pow"),
    ("twisted.evaluate", "twisted", "TwistedPoly", "evaluate"),
    ("heights.canonical_height", "heights", None, "canonical_height"),
    ("heights.derive_pruning", "heights", None, "derive_pruning"),
    ("heights.pruned_candidates", "heights", None, "pruned_candidates"),
    ("orbits.intersect_orbits", "orbits", None, "intersect_orbits"),
    ("orbits.fit_return_model", "orbits", None, "fit_return_model"),
    ("orbits.curve_return_set", "orbits", None, "curve_return_set"),
    ("orbits.synchronized_collisions", "orbits", None,
     "synchronized_collisions"),
    ("parser.parse_scenario", "parser", None, "parse_scenario"),
    ("cli.run_scenario", "cli", None, "run_scenario"),
    ("cli.emit_report", "cli", None, "emit_report"),
)

COUNTED = (
    ("field.mul", "__mul__"),
    ("field.add", "__add__"),
    ("field.add", "__sub__"),
    ("field.inverse", "inverse"),
    ("field.pow", "__pow__"),
)

OP_SPAN = "op"


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.names = []            # span name, indexed by name id
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("q")   # parent span index, -1 for a root
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, observe=None):
        """fn wrapped so that each call records one span; observe(args,
        result) records the counters measured at this boundary."""
        nid = self.name_id(name)

        def wrapper(*args, **kw):
            idx = self.open(nid)
            try:
                result = fn(*args, **kw)
            finally:
                self.close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def parent_name(self) -> str:
        """Name of the innermost open span, "" when none is open."""
        return self.names[self.name_of[self.stack[-1]]] if self.stack else ""

    def self_times(self):
        """Per span name: (calls, total seconds, self seconds), where self
        time is a span's duration minus the time its child spans cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            calls, total, own = out.get(self.name_of[i], (0, 0.0, 0.0))
            out[self.name_of[i]] = (calls + 1, total + dur,
                                    own + dur - child[i])
        return {self.names[k]: v for k, v in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.name_of[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _rebind(original, wrapper) -> None:
    # cli and others do `from .orbits import intersect_orbits`; every module
    # that holds the function under a name must see the wrapper
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "fforbits" and not mod_name.startswith("fforbits."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _height(value) -> int:
    # a point of K (RatFunc) or of an extension ring (ExtElem over K)
    if hasattr(value, "height"):
        return value.height()
    return max((c.height() for c in value.coeffs), default=0)


def _observers(rec: Recorder) -> dict:
    counts, peaks = rec.counts, rec.peaks

    def poly_mul(args, result):
        a, b = args
        products = len(a.terms) * len(b.terms)
        counts["funcfield.poly_mul.term_products"] += products
        if _fills_half(a.terms) and _fills_half(b.terms):
            counts["funcfield.poly_mul.dense_products"] += products
        peaks["funcfield.peak_poly_terms"] = max(
            peaks["funcfield.peak_poly_terms"], len(result.terms))

    def poly_add(args, result):
        peaks["funcfield.peak_poly_terms"] = max(
            peaks["funcfield.peak_poly_terms"], len(result.terms))

    def poly_gcd(args, result):
        if result.terms and max(result.terms) > 0:
            counts["funcfield.poly_gcd.useful"] += 1

    def evaluate(args, result):
        if rec.parent_name() != "dynpoly.evaluate":
            counts["dynpoly.orbit_steps"] += 1
        peaks["funcfield.peak_height"] = max(peaks["funcfield.peak_height"],
                                             _height(result))

    def twisted_pow(args, result):
        if args[0].all_prime_field():
            counts["twisted.pow.prime_field"] += 1

    def pruned_candidates(args, result):
        cap_m, cap_n = args[5], args[6]
        counts["heights.sieve.allowed"] += len(result)
        counts["heights.sieve.pairs"] += (cap_m + 1) * (cap_n + 1)

    def intersect_orbits(args, result):
        counts["orbits.pairs_found"] += len(result.pairs)

    def emit_report(args, result):
        counts["cli.report_bytes"] += len(result)

    return {"funcfield.poly_mul": poly_mul, "funcfield.poly_add": poly_add,
            "funcfield.poly_gcd": poly_gcd, "dynpoly.evaluate": evaluate,
            "twisted.twisted_pow": twisted_pow,
            "heights.pruned_candidates": pruned_candidates,
            "orbits.intersect_orbits": intersect_orbits,
            "cli.emit_report": emit_report}


def _fills_half(terms: dict) -> bool:
    if not terms:
        return False
    return 2 * len(terms) >= max(terms) - min(terms) + 1


def instrument(rec: Recorder) -> None:
    """Wrap every layer boundary of the imported fforbits package."""
    mods = {name: sys.modules[f"fforbits.{name}"]
            for name in ("field", "funcfield", "dynpoly", "twisted",
                         "heights", "orbits", "parser", "cli", "verify")}
    observers = _observers(rec)
    for metric, mod_name, cls_name, attr in SPANNED:
        mod = mods[mod_name]
        observe = observers.get(metric)
        if cls_name is None:
            original = getattr(mod, attr)
            _rebind(original, rec.span(metric, original, observe))
            continue
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr,
                    classmethod(rec.span(metric, raw.__func__, observe)))
        else:
            setattr(cls, attr, rec.span(metric, raw, observe))
    elem = mods["field"].FieldElem
    for metric, attr in COUNTED:
        setattr(elem, attr, rec.counter(metric, elem.__dict__[attr]))
    checks = mods["verify"].CHECKS
    for cid, fn in list(checks.items()):
        checks[cid] = rec.span(f"verify.check.{cid}", fn)


def layer_metrics(rec: Recorder) -> dict:
    """Every per-layer metric of the run, by name: calls, self time in
    seconds and as a share of the traced op time, and the counters taken at
    the boundaries."""
    def ratio(num, den):
        return num / den if den else 0.0

    times = rec.self_times()
    counts, peaks = rec.counts, rec.peaks
    op_time = times.get(OP_SPAN, (0, 0.0, 0.0))[1]
    out = {}
    for metric in [m for m, *_ in SPANNED] + [OP_SPAN]:
        calls, _, own = times.get(metric, (0, 0.0, 0.0))
        out[f"{metric}.calls"] = calls
        out[f"{metric}.self_s"] = own
        out[f"{metric}.self_share"] = ratio(own, op_time)
    for metric in dict.fromkeys(m for m, _ in COUNTED):
        out[f"{metric}.calls"] = counts[metric]
    for cid in sys.modules["fforbits.verify"].SUITE_ORDER:
        total = times.get(f"verify.check.{cid}", (0, 0.0, 0.0))[1]
        out[f"verify.check.{cid}.total_s"] = total
        out[f"verify.check.{cid}.share"] = ratio(total, op_time)
    products = counts["funcfield.poly_mul.term_products"]
    out["funcfield.poly_mul.term_products"] = products
    out["funcfield.poly_mul.dense_share"] = ratio(
        counts["funcfield.poly_mul.dense_products"], products)
    out["funcfield.poly_gcd.useful_ratio"] = ratio(
        counts["funcfield.poly_gcd.useful"], out["funcfield.poly_gcd.calls"])
    out["funcfield.peak_poly_terms"] = peaks["funcfield.peak_poly_terms"]
    # Weil heights of sparse points reach 2^800 and more: report log2
    height = peaks["funcfield.peak_height"]
    out["funcfield.peak_height_log2"] = math.log2(height) if height else 0.0
    out["dynpoly.orbit_steps"] = counts["dynpoly.orbit_steps"]
    out["twisted.pow.prime_field_share"] = ratio(
        counts["twisted.pow.prime_field"], out["twisted.twisted_pow.calls"])
    out["heights.sieve.pass_ratio"] = ratio(counts["heights.sieve.allowed"],
                                            counts["heights.sieve.pairs"])
    out["orbits.pairs_found"] = counts["orbits.pairs_found"]
    out["cli.report_bytes"] = counts["cli.report_bytes"]
    return out
