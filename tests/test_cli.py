"""
End-to-end tests for the command line: exit codes, the JSON report
schema, determinism of the output bytes, and the per-task report shapes.
"""
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fforbits
from fforbits import cli, dynpoly, heights
from fforbits.cli import (EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_INVALID,
                          EXIT_OK, emit_report, main)
from fforbits.dynpoly import Budget, DynPoly


QUADRATIC = """
field = GF(2)
f = x^2 + x
g = x^2 + (t^2 + t)
alpha = t
beta = 0
task = intersect
capM = 32; capN = 32
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_intersect_scenario_json(tmp_path, capsys):
    sc = write(tmp_path, "quad.txt", QUADRATIC)
    rc, out, err = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["version"]
    (run,) = report["runs"]
    assert run["task"] == "intersect"
    assert run["count"] == 6
    want = [[2 ** k, 2 ** k] for k in range(6)]   # 1, 2, 4, 8, 16, 32
    assert run["pairs"] == want
    assert run["exhaustive"] is True
    assert run["caps"] == {"capM": 32, "capN": 32}


@pytest.mark.parametrize("prune", ("on", "off"))
def test_intersect_walks_each_orbit_once(tmp_path, capsys, monkeypatch,
                                         prune):
    """The sieve's heights come from the orbits that the join walks, so a
    pruned intersect takes cap_m steps of f's orbit and cap_n of g's, as an
    unpruned one does.  Over GF(2) both orbits are walked in walk_keys'
    coordinates; over GF(4) walk_keys declines them and walk evaluates each
    point."""
    steps = Counter()
    real_evaluate, real_step = DynPoly.evaluate, dynpoly._key_step

    def evaluate(self, point):
        steps["points"] += 1
        return real_evaluate(self, point)

    def key_step(key, shape):
        steps["keys"] += 1
        return real_step(key, shape)

    monkeypatch.setattr(DynPoly, "evaluate", evaluate)
    monkeypatch.setattr(dynpoly, "_key_step", key_step)
    for field, walker in (("GF(2)", "keys"), ("GF(4; mod=w^2+w+1)", "points")):
        steps.clear()
        sc = write(tmp_path, "quad.txt", QUADRATIC.replace(
            "capM = 32; capN = 32", f"capM = 12; capN = 9; prune = {prune}")
            .replace("GF(2)", field))
        rc, out, err = run_cli(capsys, "--scenario", sc, "--format", "json")
        assert rc == EXIT_OK, err
        (run,) = json.loads(out)["runs"]
        assert ("pruning" in run) == (prune == "on")
        assert run["pairs"] == [[2 ** k, 2 ** k] for k in range(4)]
        assert steps == {walker: 12 + 9}


def test_version_matches_package_and_pyproject(tmp_path, capsys):
    sc = write(tmp_path, "quad.txt", QUADRATIC)
    _, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                         re.MULTILINE).group(1)
    assert json.loads(out)["version"] == fforbits.__version__ == declared


def test_public_names():
    """The package's public surface, pinned so that a change to it shows
    up in this test's diff."""
    assert sorted(fforbits.__all__) == [
        "AlgebraError", "Budget", "BudgetExceeded", "CheckResult",
        "DEFAULT_DEGREE_BUDGET", "DEFAULT_TAU_BUDGET", "DegreeBudgetExceeded",
        "DivisionByZero", "DynPoly", "ExtElem", "ExtRing", "FFPoly",
        "FieldElem", "FieldSpec", "HeightEstimate", "KRing", "MixedVariables",
        "NotAdditive", "ParseContext", "ParseError", "PlaneCurve",
        "PruningData", "RatFunc", "ReducibleModulus", "ReturnModel",
        "ReturnSet", "RingMismatch", "Scenario", "TauDegreeBudgetExceeded",
        "TwistedPoly", "UndefinedSymbol", "ValidationError", "ZeroDivisor",
        "ap_implies_common_iterate",
        "binom_mod", "canonical_height", "common_iterate", "conjugate",
        "curve_return_set", "derive_pruning", "dynpoly", "errors", "field",
        "fit_return_model", "funcfield", "height_gap_constant", "heights",
        "intersect_orbits", "is_additive", "multiplicative_dependence",
        "orbit_element", "orbit_prefix", "orbits", "parse_curve", "parse_expr",
        "parse_map", "parse_modulus", "parse_scalar", "parse_scenario",
        "parser", "pruned_candidates", "rationalize", "run_example",
        "solve_affine_conjugacy", "synchronized_collisions", "twisted",
        "twisted_pow", "verify", "verify_all", "walk"]


def test_extension_point_with_denominator(tmp_path, capsys):
    """Reducing the denominators of 1/y's orbit takes remainders across
    gaps over 64 below the divisor degree."""
    sc = write(tmp_path, "inv.txt",
               "field = GF(2); ext = y^2 + y + t; f = x^2 + x; g = x^2 + x\n"
               "alpha = 1/y; beta = (1/y)^2 + 1/y; task = intersect\n"
               "capM = 7; capN = 7")
    rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert rc == EXIT_OK
    (run,) = json.loads(out)["runs"]
    assert run["pairs"] == [[n + 1, n] for n in range(7)]


def test_degree_one_extension_matches_base_field(tmp_path, capsys):
    """K[y]/(y + t) is K itself, so a degree-1 modulus leaves the pairs of
    the same scenario without ext unchanged."""
    body = ("f = x^2 + x; g = x^2 + x; alpha = t + 1; beta = t\n"
            "task = intersect; capM = 4; capN = 4")
    pairs = []
    for head in ("field = GF(2)\n", "field = GF(2); ext = y + t\n"):
        sc = write(tmp_path, "deg1.txt", head + body)
        rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
        assert rc == EXIT_OK
        (run,) = json.loads(out)["runs"]
        pairs.append(run["pairs"])
    assert pairs[0] == pairs[1] == [[n, n] for n in range(1, 5)]


def test_json_output_is_byte_deterministic(tmp_path, capsys):
    sc = write(tmp_path, "quad.txt", QUADRATIC)
    _, out1, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    _, out2, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert out1 == out2


def test_timing_goes_to_stderr_only(tmp_path, capsys):
    sc = write(tmp_path, "quad.txt", QUADRATIC)
    rc, out, err = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert "elapsed" in err
    assert "elapsed" not in out


def test_text_format(tmp_path, capsys):
    sc = write(tmp_path, "quad.txt", QUADRATIC)
    rc, out, _ = run_cli(capsys, "--scenario", sc)
    assert rc == EXIT_OK
    assert "task: intersect" in out
    assert "count: 6" in out
    assert "note: exhaustive only up to capM=32, capN=32" in out


def test_cap_overrides(tmp_path, capsys):
    sc = write(tmp_path, "quad.txt", QUADRATIC)
    rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json",
                         "--cap-m", "8", "--cap-n", "8")
    report = json.loads(out)
    (run,) = report["runs"]
    assert run["caps"] == {"capM": 8, "capN": 8}
    assert run["count"] == 4


_LIMIT_FLAGS = [("--cap-m", "capM"), ("--cap-n", "capN"),
                ("--degree-budget", "degreeBudget"),
                ("--tau-budget", "tauBudget"), ("--pmax", "pmax")]


@pytest.mark.parametrize("flag", [f for f, _ in _LIMIT_FLAGS])
def test_negative_limit_flag_is_invalid(tmp_path, capsys, flag):
    """Each limit flag refuses -1 as the scenario key does: exit 3 before
    any work, nothing on stdout."""
    sc = write(tmp_path, "quad.txt", QUADRATIC)
    with pytest.raises(SystemExit) as info:
        main(["--scenario", sc, "--verify-all", flag, "-1"])
    assert info.value.code == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert flag in err and "nonnegative" in err


@pytest.mark.parametrize("flag,key", _LIMIT_FLAGS[:4])
def test_zero_limit_flag_runs_as_the_scenario_key(tmp_path, capsys, flag,
                                                  key):
    """A flag at 0 gives the report and exit code of the same key at 0 in
    the file, less the file's echo of its own keys."""
    text = QUADRATIC.replace("capM = 32; capN = 32\n", "")
    limits = {"capM": 32, "capN": 32}
    plain = write(tmp_path, "plain.txt", text + "".join(
        f"{k} = {v}\n" for k, v in limits.items()))
    keyed = write(tmp_path, "keyed.txt", text + "".join(
        f"{k} = {v}\n" for k, v in {**limits, key: 0}.items()))
    reports = []
    for args in (["--scenario", keyed], ["--scenario", plain, flag, "0"]):
        rc, out, _ = run_cli(capsys, *args, "--format", "json")
        report = json.loads(out)
        for run in report["runs"]:
            run.pop("scenario")
        reports.append((rc, report))
    assert reports[0] == reports[1]
    assert reports[0][0] == EXIT_OK


def test_zero_pmax_runs_as_the_scenario_key(tmp_path, capsys):
    """--pmax 0 cuts check 2.8 of the suite as `pmax = 0` cuts that example."""
    sc = write(tmp_path, "v.txt", "example = 2.8; pmax = 0")
    rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    (run,) = json.loads(out)["runs"]
    assert rc == EXIT_OK
    rc, out, _ = run_cli(capsys, "--verify-all", "--pmax", "0",
                         "--format", "json")
    (suite,) = json.loads(out)["runs"]
    assert rc == EXIT_OK
    assert [c for c in suite["checks"] if c["id"] == "2.8"] == run["checks"]


def test_multiple_scenarios_preserve_order(tmp_path, capsys):
    a = write(tmp_path, "a.txt", QUADRATIC)
    b = write(tmp_path, "b.txt",
              "field = GF(2); f = x^2+x; alpha = t; task = heights")
    rc, out, _ = run_cli(capsys, "--scenario", a, "--scenario", b,
                         "--format", "json")
    assert rc == EXIT_OK
    runs = json.loads(out)["runs"]
    assert [r["task"] for r in runs] == ["intersect", "heights"]


def test_jobs_flag_is_rejected(tmp_path, capsys):
    sc = write(tmp_path, "a.txt", QUADRATIC)
    with pytest.raises(SystemExit) as info:
        main(["--scenario", sc, "--jobs", "2"])
    assert info.value.code == EXIT_INVALID
    assert "--jobs" in capsys.readouterr().err


def test_heights_report_schema(tmp_path, capsys):
    sc = write(tmp_path, "h.txt",
               "field = GF(2); f = x^2+x; alpha = t; task = heights")
    rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert rc == EXIT_OK
    (run,) = json.loads(out)["runs"]
    assert run["gapConstant"] == "0"
    assert run["height"] == {"value": "1", "errorBound": "0", "iterations": 0}
    assert run["rational"] == "1"
    assert "caps" not in run


def test_heights_computes_the_gap_constant_once(tmp_path, capsys,
                                                monkeypatch):
    """The run's gap constant both fills gapConstant and sets the number
    of iterations, from one height_gap_constant call."""
    real, calls = heights.height_gap_constant, []

    def height_gap_constant(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(heights, "height_gap_constant", height_gap_constant)
    monkeypatch.setattr(cli, "height_gap_constant", height_gap_constant)
    sc = write(tmp_path, "h.txt",
               "field = GF(3); f = x^2 + t; alpha = t + 1; task = heights")
    rc, out, err = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert rc == EXIT_OK, err
    (run,) = json.loads(out)["runs"]
    assert run["gapConstant"] != "0" and run["height"]["iterations"] > 0
    assert len(calls) == 1


def test_heights_with_a_huge_denominator_bound(tmp_path, capsys):
    # a bound this large cannot be walked denominator by denominator
    sc = write(tmp_path, "h.txt",
               "field = GF(2); f = x^2; alpha = t + 1; task = heights\n"
               "denomBound = 1000000000000\n")
    rc, out, _ = run_cli(capsys, "--scenario", sc)
    assert rc == EXIT_OK
    assert "rational: 1\n" in out


@pytest.mark.parametrize("text,value,iterations", [
    ("field = GF(3); f = x^2 + t; alpha = t + 1\n"
     "targetError = 1/1099511627776\n", "1", 41),
    ("field = GF(5); f = x^3 + 1/(t^2 + 1); alpha = (t + 2)/(t^2 + 3)\n"
     "targetError = 1/1099511627776\n", "8/3", 27),
    ("field = GF(3); f = (x^2 + x + t)^25; alpha = t\n", "1", 3),
], ids=["gf3-n41", "gf5-n27", "power-25"])
def test_deep_heights_runs_end(tmp_path, capsys, text, value, iterations):
    """f^N(alpha) is far too large to form in each of these runs; its height
    comes from the pole orders once every place has escaped."""
    sc = write(tmp_path, "h.txt", text + "task = heights\n")
    rc, out, err = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert rc == EXIT_OK, err
    (run,) = json.loads(out)["runs"]
    assert run["height"]["value"] == value
    assert run["height"]["iterations"] == iterations
    assert run["rational"] == value


def test_classify_report(tmp_path, capsys):
    sc = write(tmp_path, "c.txt", QUADRATIC.replace("task = intersect",
                                                    "task = classify"))
    rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert rc == EXIT_OK
    (run,) = json.loads(out)["runs"]
    assert run["model"]["psets"] == [["1", "0", 1]]
    assert run["model"]["aps"] == []
    assert run["model"]["finite"] == []


def test_synchronized_report(tmp_path, capsys):
    sc = write(tmp_path, "s.txt", QUADRATIC.replace("task = intersect",
                                                    "task = synchronized"))
    rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json",
                         "--cap-n", "16")
    assert rc == EXIT_OK
    (run,) = json.loads(out)["runs"]
    assert run["collisions"] == [1, 2, 4, 8, 16]


def test_curve_return_report(tmp_path, capsys):
    sc = write(tmp_path, "cr.txt", """
field = GF(2)
f = x^2 + x
g = x^2 + (t^2 + t)
alpha = t
beta = 0
curve = x1 + x2
task = curve-return
capN = 16
""")
    rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert rc == EXIT_OK
    (run,) = json.loads(out)["runs"]
    assert run["returns"] == [1, 2, 4, 8, 16]


def test_verify_example(tmp_path, capsys):
    sc = write(tmp_path, "v.txt", "example = 2.8; p = 3; nmax = 4")
    rc, out, _ = run_cli(capsys, "--scenario", sc, "--format", "json")
    assert rc == EXIT_OK
    (run,) = json.loads(out)["runs"]
    assert run["kind"] == "verify"
    assert all(c["status"] == "PASS" for c in run["checks"])


def test_verify_all(capsys):
    rc, out, _ = run_cli(capsys, "--verify-all", "--format", "json")
    assert rc == EXIT_OK
    (run,) = json.loads(out)["runs"]
    statuses = {c["id"]: c["status"] for c in run["checks"]}
    assert statuses and set(statuses.values()) == {"PASS"}


def test_verify_all_pmax_reports_skips(capsys):
    rc, out, _ = run_cli(capsys, "--verify-all", "--format", "json",
                         "--pmax", "2")
    assert rc == EXIT_OK
    (run,) = json.loads(out)["runs"]
    skipped = [c for c in run["checks"]
               if c["params"].get("skippedPrimes")]
    assert skipped, "restricting primes should be reported"


def test_exit_invalid_without_work(capsys):
    rc, _, _ = run_cli(capsys)
    assert rc == EXIT_INVALID


def test_exit_invalid_on_missing_file(capsys):
    rc, _, _ = run_cli(capsys, "--scenario", "/nonexistent/path.txt")
    assert rc == EXIT_INVALID


def test_exit_invalid_on_malformed_scenario(tmp_path, capsys):
    sc = write(tmp_path, "bad.txt", "this is not a scenario")
    rc, _, _ = run_cli(capsys, "--scenario", sc)
    assert rc == EXIT_INVALID


@pytest.mark.parametrize("mod", ["w^-1+w^2", "w^2+x+1", "w^2+2*3*w+1",
                                 "w^2+w^+2", "w^^2+1"])
def test_exit_invalid_on_bad_modulus_term(tmp_path, capsys, mod):
    """A modulus term with a negative exponent, a number that is no int, or
    a caret with no exponent or more than one caret is invalid input under
    the field key, not a different field."""
    sc = write(tmp_path, "mod.txt",
               f"field = GF(9; mod={mod})\nf = x^2 + t; alpha = t\n"
               "task = heights\n")
    rc, out, err = run_cli(capsys, "--scenario", sc)
    assert rc == EXIT_INVALID
    assert out == ""
    assert err.startswith("invalid input: field: bad modulus term ")


def test_exit_invalid_on_missing_g(tmp_path, capsys):
    sc = write(tmp_path, "nog.txt",
               "field = GF(2); f = x^2+x; alpha = t; beta = 0\n"
               "task = intersect")
    rc, _, _ = run_cli(capsys, "--scenario", sc)
    assert rc == EXIT_INVALID


@pytest.mark.parametrize("task", ["synchronized", "curve-return"])
def test_exit_invalid_on_constant_map(tmp_path, capsys, task):
    """Every orbit walk needs degree >= 1, whichever task walks it."""
    curve = "\ncurve = x1 + x2" if task == "curve-return" else ""
    text = QUADRATIC.replace("f = x^2 + x", "f = t").replace(
        "task = intersect", f"task = {task}{curve}")
    sc = write(tmp_path, "const.txt", text)
    rc, out, err = run_cli(capsys, "--scenario", sc)
    assert rc == EXIT_INVALID
    assert "degree >= 1" in err
    assert out == ""


def test_exit_invalid_on_bad_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--no-such-flag"])
    assert info.value.code == EXIT_INVALID


def test_exit_budget_on_monster_expansion(tmp_path, capsys):
    sc = write(tmp_path, "big.txt",
               "field = GF(2); f = x^2 + (t+1)^2000000; alpha = t\n"
               "task = heights")
    rc, _, err = run_cli(capsys, "--scenario", sc)
    assert rc == EXIT_BUDGET


HEIGHTS_CUBE = ("field = GF(3); f = (x^2 + x + t)^3; alpha = t\n"
                "task = heights; degreeBudget = 4\n")
# f costs 9: one product of 3 by 3 terms; caps stay small, as the orbit
# walks are not metered
INTERSECT_SQUARE = ("field = GF(3); f = (x^2 + x + t)^2; g = {g}\n"
                    "alpha = t; beta = 0; task = intersect\n"
                    "capM = 3; capN = 3; degreeBudget = 10\n")


@pytest.mark.parametrize("text,flags,code", [
    (HEIGHTS_CUBE, (), EXIT_BUDGET),
    (HEIGHTS_CUBE, ("--degree-budget", "1048576"), EXIT_OK),
    ("field = GF(3); f = (T + t)^5; alpha = t; task = heights\n",
     ("--tau-budget", "4"), EXIT_BUDGET),
    ("field = GF(2); f = x^2 + x; g = x^2 + t; alpha = t; beta = 0\n"
     "task = curve-return; capN = 4; degreeBudget = 8\n"
     "curve = (x1 + x2 + t)^3\n", (), EXIT_BUDGET),
    (INTERSECT_SQUARE.format(g="x^2 + t"), (), EXIT_OK),
    (INTERSECT_SQUARE.format(g="(x^2 + x + t)^2"), (), EXIT_BUDGET),
], ids=["degree-key", "degree-flag-overrides-key", "tau-flag", "curve-power",
        "one-square", "two-squares-share-the-budget"])
def test_scenario_budgets_bind(tmp_path, capsys, text, flags, code):
    sc = write(tmp_path, "budget.txt", text)
    rc, out, err = run_cli(capsys, "--scenario", sc, *flags)
    assert rc == code, err
    if code == EXIT_BUDGET:
        assert out == "" and "budget exhausted" in err


def test_each_scenario_of_a_run_has_its_own_budget(tmp_path, capsys):
    sc = write(tmp_path, "budget.txt", INTERSECT_SQUARE.format(g="x^2 + t"))
    rc, out, err = run_cli(capsys, "--scenario", sc, "--scenario", sc)
    assert rc == EXIT_OK, err
    assert "runs: 2" in out


def test_budget_error_names_its_scenario_file(tmp_path, capsys):
    good = write(tmp_path, "good.txt", INTERSECT_SQUARE.format(g="x^2 + t"))
    bad = write(tmp_path, "cube.txt", HEIGHTS_CUBE)
    rc, out, err = run_cli(capsys, "--scenario", good, "--scenario", bad)
    assert rc == EXIT_BUDGET
    assert out == ""
    assert err == f"budget exhausted: {bad}: degree budget exhausted\n"


def test_budget_error_while_running_names_its_scenario_file(
        tmp_path, capsys, monkeypatch):
    # no shipped check runs out at run time within seconds, so the run of
    # the second scenario is replaced by one that spends more than is left
    good = write(tmp_path, "good.txt", INTERSECT_SQUARE.format(g="x^2 + t"))
    second = write(tmp_path, "second.txt",
                   INTERSECT_SQUARE.format(g="x^2 + t"))
    real, ran = cli.run_scenario, []

    def run_scenario(sc):
        ran.append(sc)
        if len(ran) == 2:
            Budget(degree=0).charge(1)
        return real(sc)

    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    rc, out, err = run_cli(capsys, "--scenario", good, "--scenario", second)
    assert rc == EXIT_BUDGET
    assert out == ""
    assert err == f"budget exhausted: {second}: degree budget exhausted\n"


def test_exit_check_failed_on_wrong_expectation(tmp_path, capsys):
    sc = write(tmp_path, "exp.txt",
               "example = 2.8; p = 3; nmax = 4; expect = FAIL")
    rc, _, _ = run_cli(capsys, "--scenario", sc)
    assert rc == EXIT_CHECK_FAILED


def test_emit_report_stable_bytes():
    report = {"version": "0.1.0", "runs": [{"task": "demo", "zz": 1, "aa": 2}]}
    b1 = emit_report(report, "json")
    b2 = emit_report(report, "json")
    assert b1 == b2
    assert json.loads(b1.decode()) == report


def _source_env():
    src = str(Path(fforbits.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_word_sized_prime_field_round_trips():
    """GF(2^61 - 1) parses at once, as GF(p^1) does, and its printed form
    reads back; a subprocess bounds a regression to the timeout."""
    code = ("from fforbits.field import FieldSpec\n"
            "q = 2 ** 61 - 1\n"
            "spec = FieldSpec.parse(f'GF({q})')\n"
            "assert spec == FieldSpec.parse(f'GF({q}^1)')\n"
            "assert FieldSpec.parse(spec.format()) == spec\n"
            "print(spec.format())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_source_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "GF(2305843009213693951)\n"


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


def test_huge_extension_degree_is_invalid_input(tmp_path):
    """A modulus whose top term is not w^r is refused before r + 1
    coefficients are allocated; the run is held to 2 GiB of address space
    so that a regression fails instead of eating memory."""
    sc = write(tmp_path, "huge.txt",
               "field = GF(2^10000000000; mod=w + 1)\n"
               "f = x^2 + x; alpha = t; task = heights\n")
    proc = subprocess.run([sys.executable, "-m", "fforbits", "--scenario", sc],
                          capture_output=True, env=_source_env(), timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.decode().startswith("invalid input: ")
    assert b"Traceback" not in proc.stderr


def test_python_dash_m_runs_the_cli(capsys):
    """python -m fforbits runs from the source tree, no install needed."""
    args = ["--verify-all", "--pmax", "2", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "fforbits", *args],
                          capture_output=True, env=_source_env(), timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    _, out, _ = run_cli(capsys, *args)
    assert proc.stdout.decode() == out
    assert json.loads(out)["runs"][0]["summary"]["fail"] == 0


def test_cli_import_leaves_dataclasses_out():
    """The value types share field.Frozen, so a run does not pay for
    importing dataclasses (and, before Python 3.13, inspect); -S keeps
    site-packages' .pth hooks out of the count."""
    code = "import sys, fforbits.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, env=_source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "False"
