"""Command-line driver.

Runs scenario files and the built-in identity suite, emitting deterministic
reports: the JSON form is byte-stable across reruns (stable key order, no
wall-clock data; elapsed time goes to stderr).  Exit codes: 0 success,
1 a verification check failed, 2 budget exhausted, 3 invalid input.
"""

import argparse
import json
import sys
import time
from typing import List, Optional

from . import __version__ as VERSION
from .errors import AlgebraError, BudgetExceeded, ParseError, ValidationError
from .dynpoly import DEFAULT_DEGREE_BUDGET, DynPoly
from .twisted import DEFAULT_TAU_BUDGET, TwistedPoly
from .heights import canonical_height, derive_pruning, height_gap_constant, \
    rationalize
from .orbits import curve_return_set, fit_return_model, intersect_orbits, \
    synchronized_collisions
from .parser import Scenario, parse_scenario, print_canonical
from .verify import run_example, verify_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 2
EXIT_INVALID = 3


def _as_dynpoly(value, key: str) -> DynPoly:
    if isinstance(value, TwistedPoly):
        return value.to_dynpoly()
    if isinstance(value, DynPoly):
        return value
    raise ValidationError(key, f"'{key}' must be a polynomial map")


def _verify_summary(checks: List[dict]) -> dict:
    return {"pass": sum(c["status"] == "PASS" for c in checks),
            "fail": sum(c["status"] == "FAIL" for c in checks),
            "skipped": sum(c["status"] == "SKIPPED" for c in checks)}


def run_scenario(sc: Scenario) -> dict:
    """Execute one scenario and package the outcome as a plain dict."""
    if sc.task == "verify-example":
        check = run_example(sc.example, sc.params).to_dict()
        report = {"kind": "verify", "task": sc.task, "scenario": sc.echo,
                  "checks": [check], "summary": _verify_summary([check])}
        if sc.expect is not None:
            report["expected"] = sc.expect
        return report

    report = {"kind": "scenario", "task": sc.task, "scenario": sc.echo,
              "field": sc.spec.format(),
              "ext": sc.ext.modulus_str() if sc.ext else None,
              "caps": {"capM": sc.cap_m, "capN": sc.cap_n},
              "budgets": {"degree": sc.degree_budget, "tau": sc.tau_budget}}

    if sc.task in ("intersect", "classify"):
        f = _as_dynpoly(sc.f, "f")
        g = _as_dynpoly(sc.g, "g")
        pruning = None
        if sc.prune:
            if sc.ext is not None:
                raise ValidationError(
                    "prune", "pruning uses heights over the rational "
                    "function field and cannot run in an extension")
            pruning = derive_pruning(f, sc.alpha, g, sc.beta,
                                     sc.cap_m, sc.cap_n)
            report["pruning"] = {"u1": str(pruning.u1),
                                 "u2": str(pruning.u2),
                                 "c": str(pruning.c)}
        rs = intersect_orbits(f, sc.alpha, g, sc.beta,
                              sc.cap_m, sc.cap_n, pruning)
        report["pruned"] = sc.prune
        report["pairs"] = [[m, n] for m, n in rs.pairs]
        report["count"] = len(rs.pairs)
        report["exhaustive"] = rs.exhaustive
        if sc.task == "classify":
            model = fit_return_model(rs, sc.spec.p, sc.cap_n)
            report["model"] = {
                "aps": [[step, start] for step, start in model.aps],
                "psets": [[str(a), str(b), r] for a, b, r in model.psets],
                "finite": list(model.finite),
                "rendered": str(model)}
        return report

    if sc.task == "synchronized":
        f = _as_dynpoly(sc.f, "f")
        g = _as_dynpoly(sc.g, "g")
        r = sc.params.get("r", 1)
        s = sc.params.get("s", 1)
        a = sc.params.get("a", 0)
        b = sc.params.get("b", 0)
        ns = synchronized_collisions(f, sc.alpha, g, sc.beta, r, s, a, b,
                                     sc.cap_n)
        report["parameters"] = {"r": r, "s": s, "a": a, "b": b}
        report["collisions"] = ns
        report["exhaustive"] = True
        return report

    if sc.task == "curve-return":
        f = _as_dynpoly(sc.f, "f")
        g = _as_dynpoly(sc.g, "g")
        ns = curve_return_set(f, g, (sc.alpha, sc.beta), sc.curve, sc.cap_n)
        report["curve"] = print_canonical(sc.curve)
        report["returns"] = ns
        report["exhaustive"] = True
        return report

    if sc.task == "heights":
        del report["caps"]  # no bounded search happens here
        f = _as_dynpoly(sc.f, "f")
        gap = height_gap_constant(f)
        est = canonical_height(f, sc.alpha, sc.target_error)
        rat = rationalize(est, sc.denominator_bound)
        report["gapConstant"] = str(gap.B)
        report["height"] = {"value": str(est.value),
                            "errorBound": str(est.error_bound),
                            "iterations": est.iterations}
        report["targetError"] = str(sc.target_error)
        report["denomBound"] = sc.denominator_bound
        report["rational"] = None if rat is None else str(rat)
        return report

    raise ValidationError("task", f"unhandled task {sc.task!r}")


def emit_report(report: dict, fmt: str) -> bytes:
    """Deterministic serialization; identical reports give identical bytes."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    return "".join(_text_lines(report)).encode()


def _text_lines(report: dict):
    for i, run in enumerate(report["runs"]):
        if i:
            yield "\n"
        yield from _run_lines(run)
    if len(report["runs"]) > 1:
        yield f"\nruns: {len(report['runs'])}\n"


def _run_lines(run: dict):
    if run["kind"] == "verify":
        if "scenario" in run:
            yield _echo_line(run["scenario"])
        for c in run["checks"]:
            extras = ""
            if c["params"]:
                inner = ", ".join(f"{k}={v}" for k, v in c["params"].items())
                extras = f" [{inner}]"
            yield f"check {c['id']} ({c['slug']}): {c['status']}{extras}\n"
            yield f"  {c['detail']}\n"
        s = run["summary"]
        yield (f"summary: {s['pass']} pass, {s['fail']} fail, "
               f"{s['skipped']} skipped\n")
        if "expected" in run:
            yield f"expected: {run['expected']}\n"
        return

    yield f"task: {run['task']}\n"
    yield _echo_line(run["scenario"])
    yield f"field: {run['field']}\n"
    if run.get("ext"):
        yield f"ext: {run['ext']}\n"
    if "pairs" in run:
        pairs = " ".join(f"({m},{n})" for m, n in run["pairs"])
        yield f"pairs: {pairs if pairs else '(none)'}\n"
        yield f"count: {run['count']}\n"
        if run.get("pruned"):
            pr = run["pruning"]
            yield (f"pruning: u1={pr['u1']} u2={pr['u2']} c={pr['c']}\n")
    if "model" in run:
        yield f"model: {run['model']['rendered']}\n"
    if "collisions" in run:
        ns = " ".join(map(str, run["collisions"]))
        yield f"collisions: {ns if ns else '(none)'}\n"
    if "returns" in run:
        ns = " ".join(map(str, run["returns"]))
        yield f"curve: {run['curve']}\n"
        yield f"returns: {ns if ns else '(none)'}\n"
    if "height" in run:
        h = run["height"]
        yield (f"height: {h['value']} (error bound {h['errorBound']}, "
               f"{h['iterations']} iterations)\n")
        yield f"gap constant: {run['gapConstant']}\n"
        rat = run["rational"]
        yield (f"rational: {rat}\n" if rat is not None
               else f"rational: none within denominator {run['denomBound']}\n")
    caps = run.get("caps")
    if caps and not run.get("exhaustive", True):
        yield (f"note: search truncated before capM={caps['capM']}, "
               f"capN={caps['capN']}\n")
    elif caps:
        yield (f"note: exhaustive only up to capM={caps['capM']}, "
               f"capN={caps['capN']}\n")


def _echo_line(echo: dict) -> str:
    inner = "; ".join(f"{k} = {v}" for k, v in echo.items())
    return f"scenario: {inner}\n"


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for budget
    # exhaustion; bad invocations are invalid input
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _nonnegative(text: str) -> int:
    # the same rule as the scenario keys these flags override
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="fforbits",
        description="Exact orbit-intersection workbench over F_q(t).")
    ap.add_argument("--scenario", action="append", default=[],
                    metavar="FILE", help="scenario file to run (repeatable)")
    ap.add_argument("--verify-all", action="store_true",
                    help="run the built-in identity suite")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--cap-m", type=_nonnegative, default=None, metavar="M",
                    help="override capM for all scenarios")
    ap.add_argument("--cap-n", type=_nonnegative, default=None, metavar="N",
                    help="override capN for all scenarios")
    ap.add_argument("--degree-budget", type=_nonnegative, default=None,
                    metavar="W",
                    help=f"symbolic work limit (default "
                         f"{DEFAULT_DEGREE_BUDGET})")
    ap.add_argument("--tau-budget", type=_nonnegative, default=None,
                    metavar="D",
                    help=f"twisted degree limit (default {DEFAULT_TAU_BUDGET})")
    ap.add_argument("--pmax", type=_nonnegative, default=None,
                    help="restrict --verify-all to primes <= pmax")
    return ap


def _apply_overrides(sc: Scenario, args) -> Scenario:
    return sc.replace(**{
        name: getattr(args, name)
        for name in ("cap_m", "cap_n", "degree_budget", "tau_budget")
        if getattr(args, name) is not None})


def _load(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError("scenario", f"cannot read {path}: {exc}") \
            from None


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.scenario and not args.verify_all:
        sys.stderr.write("nothing to do: pass --scenario and/or "
                         "--verify-all\n")
        return EXIT_INVALID

    started = time.monotonic()
    runs: List[dict] = []
    exit_code = EXIT_OK

    try:
        if args.verify_all:
            checks = [c.to_dict() for c in verify_all(pmax=args.pmax)]
            runs.append({"kind": "verify", "checks": checks,
                         "summary": _verify_summary(checks)})

        scenarios = [_apply_overrides(parse_scenario(_load(path)), args)
                     for path in args.scenario]
        runs.extend(run_scenario(sc) for sc in scenarios)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (ValidationError, ParseError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except (AlgebraError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID

    for run in runs:
        if run["kind"] != "verify":
            continue
        if run["summary"]["fail"]:
            exit_code = EXIT_CHECK_FAILED
        expected = run.get("expected")
        if expected is not None:
            statuses = {c["status"] for c in run["checks"]}
            if statuses != {expected.upper()}:
                exit_code = EXIT_CHECK_FAILED

    report = {"version": VERSION, "runs": runs}
    sys.stdout.write(emit_report(report, args.format).decode())
    sys.stderr.write(f"elapsed: {time.monotonic() - started:.3f}s\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
