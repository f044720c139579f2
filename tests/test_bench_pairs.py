"""The verdict of `scripts/bench_pairs.py` on synthetic pairs."""

import argparse
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten parent runs: median 50.5, quartiles 49.25 and 51.75 (distance 2.5)
PARENT = [48.0, 49.0, 50.0, 51.0, 52.0, 53.0, 47.0, 50.0, 51.0, 54.0]


@pytest.mark.parametrize("change,lower,met", [
    ([37.0] * 10, 10, True),
    # one pair lost still meets 9 of 10
    ([37.0] * 9 + [60.0], 9, True),
    # two lost do not
    ([37.0] * 8 + [60.0, 60.0], 8, False),
    # a tie counts for neither side
    ([37.0] * 8 + [60.0, 54.0], 8, False),
    # every pair won, but the medians differ by less than the parent's
    # quartile distance
    ([v - 2.0 for v in PARENT], 10, False),
    ([v - 2.6 for v in PARENT], 10, True),
])
def test_verdict_needs_nine_tenths_and_a_gap_wider_than_the_quartiles(
        change, lower, met):
    v = bench_pairs.verdict(PARENT, change)
    assert v["change_lower_in_pairs"] == lower and v["of_pairs"] == 10
    assert v["parent_quartile_distance"] == pytest.approx(2.5)
    assert v["met"] is met


def test_verdict_needs_ten_pairs():
    assert not bench_pairs.verdict(PARENT[:9], [1.0] * 9)["met"]
    assert bench_pairs.verdict(PARENT[:9] + [50.0], [1.0] * 10)["met"]


def _result(**metrics):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": "ms"}
                        for k, v in metrics.items()}}


def test_report_has_the_layout_of_the_committed_files():
    pairs = [{"pair": i, "first": ("parent", "change")[i % 2],
              "parent": _result(job_p90_ms=p, wall_s=1.0),
              "change": _result(job_p90_ms=c, wall_s=1.0)}
             for i, (p, c) in enumerate(zip(PARENT, [37.0] * 10))]
    args = argparse.Namespace(workload="queries", seed=3, claim="job_p90_ms")
    obj = bench_pairs.report(args, pairs)
    assert set(obj) == {"what", "command", "seed", "machine", "quartiles",
                        "runs", "claim", "no_regression", "queries"}
    # every bounded metric but the claimed one gets a no-regression verdict
    assert set(obj["no_regression"]) == {"wall_s"}
    assert obj["no_regression"]["wall_s"]["verdict"] == "held"
    assert obj["command"] == "python3 perfbench/run.py --workload queries " \
                             "--seed 3 --seconds 20 --trace 0"
    assert obj["claim"]["met"] and obj["claim"]["metric"] == "job_p90_ms"
    s = obj["queries"]["summary"]
    assert s["job_p90_ms"]["parent_median"] == 50.5
    assert s["job_p90_ms"]["change_lower_in_pairs"] == 10
    assert s["wall_s"]["change_lower_in_pairs"] == 0
    assert obj["queries"]["pairs"] == pairs


# PARENT's quartile distance over its median is 2.5 / 50.5 = 0.0495
@pytest.mark.parametrize("change,bound,result", [
    # the median 63.0 against a limit of 50.5 * 1.25 = 63.125
    ([63.0] * 10, 0.25, "held"),
    ([63.2] * 10, 0.25, "regressed"),
    # a bound narrower than the parent's spread decides nothing ...
    ([50.5] * 10, 0.04, "unresolved"),
    ([80.0] * 10, 0.04, "unresolved"),
    # ... unless every change run reads lower than every parent run
    ([46.9] * 10, 0.04, "held"),
    ([46.9] * 9 + [47.0], 0.04, "unresolved"),
])
def test_no_regression_holds_the_median_to_its_bound(change, bound, result):
    v = bench_pairs.no_regression(PARENT, change, bound)
    assert v["verdict"] == result
    assert v["limit"] == pytest.approx(50.5 * (1 + bound))
    assert v["parent_quartile_distance"] == pytest.approx(2.5)


def test_report_without_a_claim_has_a_verdict_per_bounded_metric():
    pairs = [{"pair": i, "first": ("parent", "change")[i % 2],
              "parent": _result(job_p90_ms=p, wall_s=1.0, extra=1.0),
              "change": _result(job_p90_ms=p * 1.3, wall_s=1.0, extra=9.0)}
             for i, p in enumerate(PARENT)]
    args = argparse.Namespace(workload="queries", seed=3, claim=None)
    obj = bench_pairs.report(args, pairs)
    assert "claim" not in obj
    verdicts = obj["no_regression"]
    # `extra` has no bound in BENCHMARK.json
    assert set(verdicts) == {"job_p90_ms", "wall_s"}
    assert verdicts["job_p90_ms"]["bound"] == 0.25
    assert verdicts["job_p90_ms"]["verdict"] == "regressed"
    assert verdicts["wall_s"]["verdict"] == "held"


@pytest.mark.parametrize("changed,sound", [
    ({}, True),
    # one incorrect change run
    ({"change": {"correct": False}}, False),
    # one incorrect parent run
    ({"parent": {"correct": False}}, False),
    # one failed operation of the change's 100
    ({"change": {"failed": 1}}, False),
    # the same share failed on both sides
    ({"change": {"failed": 1}, "parent": {"failed": 1}}, True),
])
def test_verdicts_need_correct_runs_and_no_larger_failed_share(changed,
                                                                sound):
    # the change wins every pair by far, so only its runs' soundness
    # decides the claim and the no-regression verdicts
    pairs = [{"pair": i, "first": ("parent", "change")[i % 2],
              "parent": _result(job_p90_ms=p, wall_s=1.0),
              "change": _result(job_p90_ms=37.0, wall_s=1.0)}
             for i, p in enumerate(PARENT)]
    for side, fields in changed.items():
        pairs[3][side].update(fields)
    args = argparse.Namespace(workload="queries", seed=3, claim="job_p90_ms")
    obj = bench_pairs.report(args, pairs)
    assert obj["runs"]["sound"] is sound
    assert obj["runs"]["all_correct"] is not any(
        f.get("correct") is False for f in changed.values())
    assert obj["runs"]["failed_share"] == {
        s: changed.get(s, {}).get("failed", 0) / 100 for s in
        ("parent", "change")}
    assert obj["claim"]["met"] is sound
    args.claim = None
    verdicts = bench_pairs.report(args, pairs)["no_regression"]
    assert {v["verdict"] for v in verdicts.values()} == \
        {"held" if sound else "incorrect"}
