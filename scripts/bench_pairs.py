#!/usr/bin/env python3
"""Alternating benchmark runs in two checkouts, and the verdict on a gain.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload queries \\
        --seed 811 --claim job_p90_ms --out BENCH_27_queries.json

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in each checkout, one process at a time, for `--pairs` pairs (default 10):
the parent first in even pairs, the change first in odd ones.  T is the
`run_seconds` of BENCHMARK.json.  After each pair it rewrites `--out` in
the layout of the committed `BENCH_*.json` files: both sides' results per
pair, and per
metric each side's median and quartiles and the number of pairs in which
the change reads lower.  With `--claim METRIC` it adds the verdict on that
metric: the change must read lower in at least nine tenths of at least ten
pairs (a tie counts for neither side), and its median must lie below the
parent's by more than the distance between the parent's quartiles.
Every end-to-end metric but the claimed one (every one, without
`--claim`) gets a no-regression verdict:
"held" if the change's median is at most the parent's median times
(1 + bound), the bound taken from BENCHMARK.json, and "regressed" if it
is more; "unresolved" if the parent's quartile distance is wider than the
bound times its median, unless every change run reads lower than every
parent run ("held").  Every end-to-end metric of this benchmark is better
when lower.  Either verdict needs sound runs: every run on both sides
reported `correct: true`, and the change failed no larger share of its
attempted operations than the parent.  Otherwise no claim is met and every
metric reads "incorrect"; the report's "runs" entry says which held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
MIN_PAIRS = 10
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
QUARTILES = "statistics.quantiles(n=4, method='inclusive') over each " \
            "side's runs"


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def soundness(pairs: list[dict]) -> dict:
    """Whether the runs admit a verdict: every run on both sides correct,
    and the change's share of failed operations at most the parent's."""
    runs = {s: [p[s] for p in pairs] for s in ("parent", "change")}
    share = {s: sum(r["failed"] for r in rs)
             / max(1, sum(r["attempted"] for r in rs))
             for s, rs in runs.items()}
    correct = all(r["correct"] for rs in runs.values() for r in rs)
    return {"all_correct": correct, "failed_share": share,
            "sound": correct and share["change"] <= share["parent"]}


def verdict(parent: list[float], change: list[float],
            sound: bool = True) -> dict:
    """The claim that a lower-is-better metric dropped, from its values in
    pairs (parent[i], change[i]) of runs that are `sound`."""
    lower = sum(c < p for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    diff = statistics.median(parent) - statistics.median(change)
    return {
        "change_lower_in_pairs": lower,
        "of_pairs": len(parent),
        "median_difference": diff,
        "parent_quartile_distance": q3 - q1,
        "met": (sound and len(parent) >= MIN_PAIRS
                and 10 * lower >= 9 * len(parent) and diff > q3 - q1),
    }


def no_regression(parent: list[float], change: list[float],
                  bound: float, sound: bool = True) -> dict:
    """Whether a lower-is-better metric stayed within its relative bound,
    from each side's runs, which must be `sound`."""
    median = statistics.median(parent)
    q1, q3 = quartiles(parent)
    limit = median * (1.0 + bound)
    if not sound:
        result = "incorrect"
    elif max(change) < min(parent):
        result = "held"
    elif q3 - q1 > bound * median:
        result = "unresolved"
    else:
        result = "held" if statistics.median(change) <= limit else \
            "regressed"
    return {"bound": bound, "limit": limit,
            "parent_quartile_distance": q3 - q1,
            "change_median": statistics.median(change), "verdict": result}


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        out[name] = {
            "parent_median": statistics.median(side["parent"]),
            "change_median": statistics.median(side["change"]),
            "parent_quartiles": quartiles(side["parent"]),
            "change_quartiles": quartiles(side["change"]),
            "change_lower_in_pairs": sum(
                c < p for p, c in zip(side["parent"], side["change"])),
        }
    return out


def run_once(checkout: str, args) -> dict:
    """The result line of one benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(args, pairs: list[dict]) -> dict:
    obj = {
        "what": "perfbench end-to-end metrics, parent against change, "
                "alternating pairs"
                + (f"; claimed gain: {args.claim} on {args.workload}"
                   if args.claim else "; no gain claimed"),
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --seconds "
                   f"{BENCHMARK['run_seconds']} "
                   "--trace 0",
        "seed": args.seed,
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python "
                   f"{platform.python_version()}, numpy "
                   f"{metadata.version('numpy')}",
        "quartiles": QUARTILES,
    }

    def values(name):
        return ([p[s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change"))

    obj["runs"] = soundness(pairs)
    sound = obj["runs"]["sound"]
    if args.claim:
        obj["claim"] = {"metric": args.claim, "workload": args.workload,
                        **verdict(*values(args.claim), sound)}
    obj["no_regression"] = {
        name: no_regression(*values(name), BOUNDS[name], sound)
        for name in pairs[0]["parent"]["metrics"]
        if name in BOUNDS and name != args.claim}
    obj[args.workload] = {"pairs": pairs, "summary": summary(pairs)}
    return obj


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--claim", help="end-to-end metric claimed to drop",
                   choices=[m["name"] for m in BENCHMARK["end_to_end"]
                            if m["better"] == "lower"])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs needs at least 2 for quartiles")
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], args)
            m = pair[side]["metrics"]
            print(f"pair {i} {side}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in m.items()),
                file=sys.stderr)
        pairs.append(pair)
        if i:
            tmp = args.out + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(report(args, pairs), fh, indent=1)
                fh.write("\n")
            os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
