#!/usr/bin/env python3
"""Print, as one JSON line, the in-process cost of `homeo.evaluate` in µs
per point on the four maps of the queries workload, for deep and uniform
points apart.

Usage: PYTHONPATH=TREE/src python3 scripts/evaluate_cost.py
           [--seed S] [--points N] [--repeats R]

The maps and points are those of the queries workload, made as
`scripts/artifact_digests.py` makes them from perfbench/inputs.py and
perfbench/oracles.py: N points per map (default 400) from `_query_points`
at seed [S, 11], the even-numbered ones jittered around random
deepest-level centres ("deep"), the odd-numbered ones uniform over a box
10% wider than the level-0 square ("uniform").  Each map is built and
evaluated at every point once before timing, so that its descent table
and locators exist.  Then, R times (default 15), each kind's points are
evaluated in one loop under `time.perf_counter`, their `Point`s made
beforehand; a kind's cost is the least of its R loop times divided by its
point count.  The output holds the cost per map and kind, the cost per
kind over all four maps (the least of R summed loop times over all
their points), and `point_us`, the cost of making one `Point` the same
way.  The package is imported from PYTHONPATH, not from this checkout,
so one copy of the script times any tree.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "perfbench"))

from inputs import QUERY_MAPS, _query_points  # noqa: E402
from oracles import build_map  # noqa: E402
from qcforge.geometry import Point  # noqa: E402
from qcforge.homeo import evaluate  # noqa: E402

KINDS = ("deep", "uniform")


def _loop_s(m, points) -> float:
    start = time.perf_counter()
    for z in points:
        evaluate(m, z)
    return time.perf_counter() - start


def _points_s(coords) -> float:
    start = time.perf_counter()
    for x, y in coords:
        Point(x, y)
    return time.perf_counter() - start


def measure(seed: int, count: int, repeats: int) -> dict:
    rng = np.random.default_rng([seed, 11])
    cases = []  # (map key, kind, map, points)
    for spec in QUERY_MAPS:
        coords = _query_points(spec, count, rng).tolist()
        m = build_map(spec)
        for kind, part in zip(KINDS, (coords[0::2], coords[1::2])):
            points = [Point(x, y) for x, y in part]
            _loop_s(m, points)  # makes the descent table and locators
            cases.append((spec.key, kind, m, points))
    times = {(key, kind): [] for key, kind, _, _ in cases}
    coords = [(z.x, z.y) for *_, points in cases for z in points]
    made = []
    for _ in range(repeats):
        for key, kind, m, points in cases:
            times[key, kind].append(_loop_s(m, points))
        made.append(_points_s(coords))
    us = {kind: {} for kind in KINDS}
    for key, kind, _, points in cases:
        us[kind][key] = 1e6 * min(times[key, kind]) / len(points)
    for kind in KINDS:
        keys = [key for key, k, _, _ in cases if k == kind]
        total = sum(len(p) for _, k, _, p in cases if k == kind)
        us[kind]["all"] = 1e6 * min(
            sum(times[key, kind][r] for key in keys)
            for r in range(repeats)) / total
    return {"seed": seed, "points": count, "repeats": repeats,
            "deep_us": us["deep"], "uniform_us": us["uniform"],
            "point_us": 1e6 * min(made) / len(coords)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--repeats", type=int, default=15)
    args = p.parse_args(argv)
    if args.points < 2 or args.repeats < 1:
        p.error("need --points >= 2 and --repeats >= 1")
    print(json.dumps(measure(args.seed, args.points, args.repeats),
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
