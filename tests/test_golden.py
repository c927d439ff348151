"""
Golden outputs: the stdout bytes and exit code of fixed command-line runs.

Each run (every scenarios/*.txt alone, all of them in one run, and
--verify-all, in both output formats) is replayed in process through
cli.main and compared byte for byte with the files under tests/golden/.
A change that moves a single output byte fails here.  After an intended
change of output, rewrite the files from the current tree with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fforbits.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.txt"))


def _runs() -> dict:
    runs = {}
    for fmt in ("json", "text"):
        for path in SCENARIOS:
            runs[f"{path.stem}.{fmt}"] = ["--scenario", str(path),
                                          "--format", fmt]
        every = [arg for path in SCENARIOS for arg in ("--scenario", str(path))]
        runs[f"all-scenarios.{fmt}"] = every + ["--format", fmt]
        runs[f"verify-all.{fmt}"] = ["--verify-all", "--format", fmt]
    return runs


RUNS = _runs()


def replay(args: list) -> tuple:
    """(exit code, stdout) of one in-process run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(args)
    return rc, out.getvalue()


def test_every_scenario_has_golden_runs():
    assert SCENARIOS
    assert sorted(json.loads(EXIT_CODES.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_golden(name):
    rc, out = replay(RUNS[name])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert rc == json.loads(EXIT_CODES.read_text())[name]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, args in sorted(RUNS.items()):
        codes[name], out = replay(args)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
