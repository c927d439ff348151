"""Tests of the benchmark itself: seeded inputs, self-time arithmetic and
the output checks.  Run with `python3 -m pytest perfbench`."""

import json

import pytest

import run
import spans
import workloads


@pytest.mark.parametrize("name", ["scenario-batch", "dense-intersect",
                                  "rational-heights"])
def test_generator_is_a_function_of_the_seed(name):
    first = workloads.generate(name, 7)
    again = workloads.generate(name, 7)
    other = workloads.generate(name, 8)
    assert first.files == again.files
    assert first.ops == again.ops
    assert first.files != other.files
    assert len(first.ops) == workloads.OPS_PER_SEED[name]


def test_dense_caps_reach_the_target_degree():
    # degree start * d^cap is within a factor sqrt(d) of the target
    for start, d in ((2, 2), (4, 2), (1, 3), (3, 3), (5, 3)):
        deg = start * d ** workloads._dense_cap(start, d)
        assert deg ** 2 <= workloads.DENSE_DEGREE ** 2 * d
        assert deg ** 2 * d >= workloads.DENSE_DEGREE ** 2


def _tree(rec, spans_):
    """Append (name, parent, start, end) spans to a recorder by hand."""
    for name, parent, start, end in spans_:
        rec.name_of.append(rec.name_id(name))
        rec.parent.append(parent)
        rec.op.append(0)
        rec.start.append(start)
        rec.end.append(end)


def test_self_time_subtracts_direct_children_only():
    rec = spans.Recorder()
    _tree(rec, [("op", -1, 0.0, 10.0),
                ("a", 0, 1.0, 6.0),
                ("b", 1, 2.0, 3.0),
                ("b", 1, 4.0, 5.5),
                ("c", 0, 7.0, 9.0)])
    times = rec.self_times()
    assert times["op"] == pytest.approx((1, 10.0, 3.0))
    assert times["a"] == pytest.approx((1, 5.0, 2.5))
    assert times["b"] == pytest.approx((2, 2.5, 2.5))
    assert times["c"] == pytest.approx((1, 2.0, 2.0))


def test_covered_counts_nested_spans_of_one_name_once():
    rec = spans.Recorder()
    _tree(rec, [("e", -1, 0.0, 4.0), ("e", 0, 1.0, 2.0),
                ("e", -1, 5.0, 6.0)])
    assert run.covered(rec, "e") == pytest.approx(5.0)


def _report(runs):
    return (json.dumps({"runs": runs, "version": "0.1.0"}, sort_keys=True,
                       indent=2) + "\n").encode()


def test_digest_check_trips_on_one_changed_byte():
    op = workloads.Op(["x.txt"], [], "json")
    out = _report([{"kind": "scenario", "pairs": [[1, 0]]}])
    want = run.digest(out)
    assert run.problems(op, 0, out, want) == []
    changed = out.replace(b"[\n", b"[ \n", 1)
    assert len(changed) == len(out) + 1
    flipped = out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]
    for bad in (changed, flipped):
        assert any("digest" in p for p in run.problems(op, 0, bad, want))


def test_checks_catch_wrong_results():
    planted = workloads.Op(["x.txt"], [], "json", {"capM": 2, "capN": 1})
    good = _report([{"pairs": [[1, 0], [2, 1]]}])
    assert run.problems(planted, 0, good) == []
    assert run.problems(planted, 0, _report([{"pairs": [[1, 0]]}]))
    assert run.problems(planted, 2, good) == ["exit code 2"]

    op = workloads.Op(["x.txt"], [], "json")

    def heights(bound, rational):
        return _report([{"height": {"value": "3/2", "errorBound": bound,
                                    "iterations": 5},
                         "targetError": "1/16", "rational": rational}])
    assert run.problems(op, 0, heights("1/16", "3/2")) == []
    assert run.problems(op, 0, heights("1/8", None))
    assert run.problems(op, 0, heights("1/32", "7/4"))
    failing = _report([{"kind": "verify", "summary": {"pass": 9, "fail": 1,
                                                      "skipped": 0}}])
    assert run.problems(op, 0, failing)


def test_text_reports_are_checked_too():
    op = workloads.Op(["x.txt"], [], "text")
    text = ("task: heights\nscenario: targetError = 1/16\n"
            "height: 3/2 (error bound 1/8, 4 iterations)\n"
            "rational: none within denominator 8\n\n"
            "summary: 1 pass, 0 fail, 0 skipped\n")
    assert run.problems(op, 0, text.encode()) == [
        "errorBound 1/8 > targetError 1/16"]
    assert run.problems(op, 0, text.replace("0 fail", "1 fail")
                        .replace("1/8", "1/16").encode())


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(i) for i in range(99)])[1] == 50.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)
