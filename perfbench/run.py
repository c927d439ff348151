"""Benchmark for fforbits: one closed-loop client calling fforbits.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --record 1 2 3   # rewrite the reference digests
                                              # (of one workload with --workload)

Each op is one in-process call of fforbits.cli.main(argv), which is what the
`fforbits` command runs; the next op starts when the previous one returns
(one process, one thread, no --jobs).  The seed only chooses the scenario
files written during set-up.  Every op's output is checked, and the last
line of stdout is one JSON object with the metrics that BENCHMARK.json
names: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_REPEATS = 5
# an op that runs longer than this has hung and counts as failed
DEADLINE_S = {"scenario-batch": 10, "dense-intersect": 20,
              "rational-heights": 20, "verify-all": 60}
TRACE_SLOWDOWN = 4          # deadline allowance while every layer is wrapped
# ops in the traced pass: fixed, so its counts repeat exactly run to run
TRACE_OPS = {"scenario-batch": 32, "dense-intersect": 24,
             "rational-heights": 24, "verify-all": 1}
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
# end-to-end times are reported as if calibration_loop() took this long
CALIBRATION_REF_S = 0.004
CALIBRATION_SHARE = 0.05

# the layer each workload was chosen for, predicted to cover at least half
# of its traced op time: (span name, what the span stands for)
PREDICTIONS = {
    "dense-intersect": ("funcfield.poly_mul", "poly_mul with the field ops "
                        "inside it"),
    "rational-heights": ("funcfield.poly_gcd", "poly_gcd with the "
                         "poly_divmod inside it"),
    "verify-all": ("verify.check.15-16", "check 15-16"),
    "scenario-batch": ("dynpoly.evaluate", "dynpoly.evaluate"),
}


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op that overran its deadline.  A
    BaseException, so the program's own `except Exception` cannot swallow
    it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def import_fforbits():
    """A fresh import of the package under test, as a new process would
    do it (bytecode caches on disk are reused)."""
    for name in [m for m in sys.modules
                 if m == "fforbits" or m.startswith("fforbits.")]:
        del sys.modules[name]
    return importlib.import_module("fforbits.cli")


def write_files(workload, directory):
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in workload.files.items():
        paths[name] = os.path.join(directory, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()[:16]


# ---- output checks ------------------------------------------------------

_SUMMARY = re.compile(r"^summary: (\d+) pass, (\d+) fail", re.M)
_HEIGHT = re.compile(r"^height: (\S+) \(error bound (\S+), ", re.M)
_RATIONAL = re.compile(r"^rational: (\S+)$", re.M)
_TARGET = re.compile(r"targetError = ([^;\n]+)")


def _facts(op, out: str):
    """Per run of the report: the fields the checks need, read from the
    JSON or the text form."""
    facts = []
    if op.fmt == "json":
        for run in json.loads(out)["runs"]:
            if "summary" in run:
                facts.append({"fail": run["summary"]["fail"]})
            elif "height" in run:
                facts.append({"value": run["height"]["value"],
                              "bound": run["height"]["errorBound"],
                              "target": run["targetError"],
                              "rational": run["rational"],
                              "pairs": None})
            else:
                facts.append({"pairs": run.get("pairs")})
        return facts
    for block in out.split("\n\n"):
        s = _SUMMARY.search(block)
        h = _HEIGHT.search(block)
        if s:
            facts.append({"fail": int(s.group(2))})
        elif h:
            r = _RATIONAL.search(block)
            t = _TARGET.search(block)
            facts.append({"value": h.group(1), "bound": h.group(2),
                          "target": t.group(1).strip() if t else "1/64",
                          "rational": r.group(1) if r else None})
    return facts


def problems(op, rc, out: bytes, want_digest=None):
    """What is wrong with one op's result; empty when it is right."""
    if rc != 0:
        return [f"exit code {rc}"]
    found = []
    if want_digest is not None and digest(out) != want_digest:
        found.append(f"output digest {digest(out)} != reference {want_digest}")
    try:
        facts = _facts(op, out.decode())
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return found + [f"unreadable report: {exc!r}"]
    for fact in facts:
        if fact.get("fail"):
            found.append(f"verify summary reports {fact['fail']} FAIL")
        if "bound" in fact:
            value, bound = Fraction(fact["value"]), Fraction(fact["bound"])
            if bound > Fraction(fact["target"]):
                found.append(f"errorBound {bound} > targetError "
                             f"{fact['target']}")
            rat = fact["rational"]
            if rat is not None and abs(Fraction(rat) - value) > bound:
                found.append(f"rational {rat} outside {value} +/- {bound}")
    if op.planted:
        pairs = {tuple(p) for p in facts[0]["pairs"]}
        missing = [(n + 1, n) for n in range(op.planted["capN"] + 1)
                   if n + 1 <= op.planted["capM"] and (n + 1, n) not in pairs]
        if missing:
            found.append(f"planted pairs missing: {missing}")
    return found


# ---- running ops --------------------------------------------------------

class Runner:
    """Runs and checks the ops of one workload against one import of the
    package; counts attempts and failures."""

    def __init__(self, cli, workload, seed, paths, refs, deadline):
        self.cli = cli
        self.workload = workload
        self.paths = paths
        self.deadline = deadline
        known = refs.get(workload.name, {})
        self.want = known.get(str(seed), known.get("any"))
        self.first_digest = {}
        self.attempted = 0
        self.failed = 0
        self.recorder = None

    def call(self, argv, deadline):
        """(exit code, stdout bytes, seconds); exit code None when the op
        raised or overran its deadline."""
        out, err = io.StringIO(), io.StringIO()
        rec = self.recorder
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(deadline)
        started = time.perf_counter()
        rc = None
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                idx = rec.open(rec.name_id(spans.OP_SPAN)) if rec else None
                try:
                    rc = self.cli.main(argv)
                finally:
                    if rec:
                        rec.close(idx)
        except OpDeadline:
            err.write(f"deadline of {deadline} s expired\n")
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:   # the program failed; the run goes on
            err.write(f"{type(exc).__name__}: {exc}\n"[:500])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - started
        if rc != 0:
            sys.stderr.write(err.getvalue()[-500:])
        return rc, out.getvalue().encode(), seconds

    def run(self, i, scale=1):
        """Run op i (cycling through the list) and check it; returns its
        latency in seconds and whether it was right."""
        idx = i % len(self.workload.ops)
        op = self.workload.ops[idx]
        rc, out, seconds = self.call(op.argv(self.paths),
                                     self.deadline * scale)
        want = self.want[idx] if self.want else None
        found = problems(op, rc, out, want)
        if not found and rc == 0:
            first = self.first_digest.setdefault(idx, digest(out))
            if first != digest(out):
                found.append("output differs from this op's first run")
        self.attempted += 1
        if found:
            self.failed += 1
            sys.stderr.write(f"op {idx} FAILED: {'; '.join(found)}\n")
        return seconds, not found

    def warm_up(self):
        op = self.workload.warmup
        rc, out, _ = self.call(op.argv(self.paths), self.deadline)
        found = problems(op, rc, out)
        self.attempted += 1
        if found:
            self.failed += 1
            sys.stderr.write(f"warm-up FAILED: {'; '.join(found)}\n")


def set_up(name, seed, work_dir, refs):
    """Import, generate and warm up, SETUP_REPEATS times; the runner of the
    last round is used.  Returns (runner, set-up times)."""
    times = []
    attempted = failed = 0
    runner = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cli = import_fforbits()
        workload = workloads.generate(name, seed)
        paths = write_files(workload, work_dir)
        runner = Runner(cli, workload, seed, paths, refs, DEADLINE_S[name])
        runner.warm_up()
        times.append(time.perf_counter() - started)
        attempted += runner.attempted
        failed += runner.failed
    runner.attempted, runner.failed = attempted, failed
    return runner, times


def tail(latencies):
    """(value, percentile, samples beyond it): the highest percentile of
    TAIL_LADDER with at least ten samples beyond it, else the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        idx = max(0, math.ceil(pct / 100 * n) - 1)
        if n - idx - 1 >= 10:
            return ordered[idx], pct, n - idx - 1
    return ordered[-1], 100.0, 0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibration_loop():
    """Fixed pure-Python work (integer arithmetic and dict updates, like the
    program's inner loops) that uses no part of fforbits, so a change to the
    program cannot move it.  It allocates no containers, so the garbage
    left by the previous op does not slow it down."""
    table = {}
    for i in range(24000):
        key = i * 7 % 251
        table[key] = (table.get(key, 0) + i * i) % 65521
    return len(table)


def timed_loop(runner, seconds):
    """Ops back to back for `seconds`.  After each op the calibration loop
    runs for about CALIBRATION_SHARE of that op's time, at least once, so
    the loop samples the host's speed evenly over the run.  Returns the op
    latencies, the count of correct ops, the wall time spent in ops and the
    calibration loop times."""
    latencies, calibration, ok = [], [], 0
    started = time.perf_counter()
    i = 0
    while time.perf_counter() - started < seconds:
        latency, good = runner.run(i)
        latencies.append(latency)
        ok += good
        spent = 0.0
        while not spent or spent < CALIBRATION_SHARE * latency:
            t0 = time.perf_counter()
            calibration_loop()
            calibration.append(time.perf_counter() - t0)
            spent += calibration[-1]
        i += 1
    wall = time.perf_counter() - started - sum(calibration)
    return latencies, ok, wall, calibration


def measure(name, seed, seconds, runner, setup_times):
    """End-to-end metrics.  Times are rescaled to a machine on which the
    calibration loop takes CALIBRATION_REF_S: the speed of this host drifts
    by tens of percent from minute to minute, and program and loop slow
    down together.  The raw values are printed next to them."""
    latencies, ok, wall, calibration = timed_loop(runner, seconds)
    value, pct, beyond = tail(latencies)
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    raw = {"setup_s": statistics.median(setup_times),
           "ops_per_s": ok / wall,
           "op_p50_s": statistics.median(latencies),
           "op_tail_s": value}
    metrics = {key: (v / scale if key == "ops_per_s" else v * scale)
               for key, v in raw.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    ratio = runner.failed / runner.attempted
    print(f"workload {name}, seed {seed}: {len(latencies)} ops in "
          f"{wall:.2f} s, closed loop, 1 client, 1 thread")
    print(f"  machine speed: calibration loop median "
          f"{statistics.median(calibration) * 1e3:.3f} ms against "
          f"{CALIBRATION_REF_S * 1e3:g} ms; times below are rescaled by "
          f"{scale:.4f}, raw values in brackets")
    print(f"  setup_s      {metrics['setup_s']:.4f} s  [{raw['setup_s']:.4f}] "
          f"(median of {len(setup_times)}: import, generate, warm up)")
    print(f"  ops_per_s    {metrics['ops_per_s']:.4f} 1/s  "
          f"[{raw['ops_per_s']:.4f}]")
    print(f"  op_p50_s     {metrics['op_p50_s']:.4f} s  "
          f"[{raw['op_p50_s']:.4f}]")
    print(f"  op_tail_s    {metrics['op_tail_s']:.4f} s  [{value:.4f}] "
          f"(p{pct:g}, {beyond} samples beyond, n = {len(latencies)})")
    print(f"  failed_ratio {ratio:.4f}  ({runner.failed} of "
          f"{runner.attempted} attempted, warm-ups included)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB")
    return metrics


def covered(rec, name):
    """Wall time covered by spans of one name, counting nested ones once."""
    nid = rec.name_id(name)
    total, reach = 0.0, -1.0
    for i in range(len(rec.start)):
        if rec.name_of[i] == nid and rec.end[i] > reach:
            total += rec.end[i] - max(rec.start[i], reach)
            reach = rec.end[i]
    return total


def trace(name, seed, seconds, runner):
    """Untraced passes over the first TRACE_OPS ops for a third of the run,
    then one traced pass over the same ops."""
    count = TRACE_OPS[name]
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds / 3:
        t0 = time.perf_counter()
        for i in range(count):
            runner.run(i)
        passes.append(time.perf_counter() - t0)
    rec = spans.Recorder()
    spans.instrument(rec)
    runner.recorder = rec
    t0 = time.perf_counter()
    for i in range(count):
        rec.op_id = i
        runner.run(i, TRACE_SLOWDOWN)
    traced = time.perf_counter() - t0
    runner.recorder = None

    layers = spans.layer_metrics(rec)
    layers["trace.overhead_ratio"] = traced / statistics.median(passes)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{name}-{seed}.tsv")
    rec.write(span_file)

    print(f"workload {name}, seed {seed}: traced pass of {count} ops, "
          f"{len(rec.start)} spans written to {span_file}")
    print(f"  {spans.FIELD_COUNTED}")
    for key, value in layers.items():
        print(f"  {key:45s} {value:.6g}" if isinstance(value, float)
              else f"  {key:45s} {value}")
    span, what = PREDICTIONS[name]
    share = covered(rec, span) / covered(rec, spans.OP_SPAN)
    verdict = "HELD" if share >= 0.5 else "DID NOT HOLD"
    print(f"  prediction: {what} covers at least half of the op time: "
          f"{verdict} ({share:.1%})")
    return layers


# ---- entry points -------------------------------------------------------

def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_refs():
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_one(args):
    config = load_config()
    refs = load_refs()
    work_dir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-"
                                     f"{os.getpid()}")
    try:
        runner, setup_times = set_up(args.workload, args.seed, work_dir, refs)
        if runner.want is None:
            print(f"digests: no reference for seed {args.seed}; each "
                  f"repeated op is checked against its first run")
        else:
            print(f"digests: checked against the reference for seed "
                  f"{args.seed}")
        if args.trace:
            values = trace(args.workload, args.seed, args.seconds, runner)
            wanted = config["per_layer"]
        else:
            values = measure(args.workload, args.seed, args.seconds, runner,
                             setup_times)
            wanted = config["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


def record(seeds, names):
    """Run every op of the named workloads once per seed and store the
    digest of each output as the reference."""
    refs = load_refs()
    for name in names:
        per_seed = refs.setdefault(name, {})
        for seed in (["any"] if name == "verify-all" else seeds):
            workload = workloads.generate(name, 0 if seed == "any" else seed)
            work_dir = os.path.join(OUT_DIR, f"record-{name}-{os.getpid()}")
            try:
                paths = write_files(workload, work_dir)
                runner = Runner(import_fforbits(), workload, seed, paths,
                                {}, DEADLINE_S[name])
                digests = []
                for i, op in enumerate(workload.ops):
                    rc, out, _ = runner.call(op.argv(paths), runner.deadline)
                    found = problems(op, rc, out)
                    if found:
                        sys.stderr.write(f"{name} seed {seed} op {i}: "
                                         f"{'; '.join(found)}\n")
                        return 1
                    digests.append(digest(out))
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            per_seed[str(seed)] = digests
            print(f"recorded {name} seed {seed}: {len(digests)} ops")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in workloads.WORKLOADS:
        for trace_flag in ("0", "1"):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", trace_flag], check=False)
            worst = max(worst, done.returncode)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "fforbits")):
        sys.stderr.write(f"fforbits sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    if args.seconds is None:
        args.seconds = load_config()["run_seconds"]
    if args.record:
        return record(args.record, [args.workload] if args.workload
                      else workloads.WORKLOADS)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
