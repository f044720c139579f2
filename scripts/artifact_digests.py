#!/usr/bin/env python3
"""Print one line `job rc bytes blake2b` per CLI artifact, and per point
evaluation and square-center list of the query maps, for byte-identity
checks between two checkouts.

Usage: python3 scripts/artifact_digests.py SEED [SEED ...]

The jobs are every CLI job of the three benchmark workloads at each seed
(from perfbench/inputs.py), `curve --depth 0..8`, the depth-0 profile in
both formats and its vacuous David check, deep maps (theoremB reports at
depths 64, 200 and 896, the table bound, and its profile at 600;
slow-to-fast at 200, slow-to-geometric:1 at 100 and 600, depth-100
profiles), maps that invert
their templates at some levels only, Frostman profiles at levels 0 and 9,
box counts (`dims --box-depths`) on thin, thick and tiny-side gauges up
to depth 9 and on the 8-adic row up to the row cap (depth 11), dimension
bounds deep enough that the sides underflow to 0 (`dims --levels 300` on
fast, 896 on geometric:1), large
level and profile exports (`cantor --gauge geometric:1 --depth 8`,
`sigma --depth 8`, a depth-150 inverse profile, and the
David check of that map at K0 = 100), annulus templates that fail
validation (exit 2), a twist at a = 1e-12, and inputs that must exit 1
(a traceback shows as exit code `raised`), among them `dims` requests
with no result: overflowing gauge exponents, a parameter given to a gauge
that takes none, and 8-adic inputs that name another gauge or no
estimate.
Each runs in process through `qcforge.cli.run`, writing into a temporary
directory; a job that writes no artifact is digested by its stderr text
instead.  The lines after them digest the float64 bytes of `evaluate`
(x, y, error bound) at 200 seeded points on the four maps of the queries
workload, built at depths 0, 1 and 12 and cut from depth 12 to 5 by
`truncate`, and of `corresponding_centers(k)` (source, then target) for
k = 0..6 on the depth-12 maps.  The `evaluate-edges` lines digest
`evaluate` on the depth-12 maps at the vertices and edge midpoints of every
level-1..3 template cell, placed in every parent of the source: points on
edges that cells share, where the first matching cell gives the image.
The `evaluate-deep` lines digest `evaluate` on the four query maps built at
depth 40, at 200 seeded points and at the vertices, edge midpoints and
centroids of the template cells of levels 1, 2, 15-18, 31-34, 39 and 40,
placed in three random parents each.  On S and B-inv, whose source squares
stay wide in floating point, these resolve at every one of those levels;
on B and S-inv the deep ones round onto shallower points.
Run it in both checkouts and `diff` the outputs.  The package and perfbench are imported from the checkout the
script lives in.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from inputs import QUERY_MAPS, WORKLOADS, _query_points, \
    make_workload  # noqa: E402
from oracles import build_map  # noqa: E402
from qcforge import cli  # noqa: E402
from qcforge.geometry import Point  # noqa: E402
from qcforge.homeo import evaluate  # noqa: E402

# (name, argv, extra environment)
FIXED = (
    [(f"curve-{d}.{fmt}", ("curve", "--depth", str(d), "--format", fmt), {})
     for d in range(9) for fmt in ("csv", "json")]
    + [(f"profile-0.{fmt}", ("profile", "--case", "slow-to-fast",
                             "--depth", "0", "--format", fmt), {})
       for fmt in ("csv", "json")]
    + [("david-0", ("david", "--case", "slow-to-fast", "--depth", "0"), {})]
    # deep and mixed-orientation maps: templates inverted at some levels
    # only, masses and areas past float range, theorem B at the table depth
    + [("report-theoremB-64", ("report", "--case", "theoremB",
                               "--depth", "64"), {}),
       ("report-slow-to-geometric-100", ("report", "--case",
                                         "slow-to-geometric:1",
                                         "--depth", "100"), {}),
       ("report-theoremB-200", ("report", "--case", "theoremB",
                                "--depth", "200"), {}),
       ("report-slow-to-fast-200", ("report", "--case", "slow-to-fast",
                                    "--depth", "200"), {}),
       ("profile-theoremB-600", ("profile", "--case", "theoremB",
                                 "--depth", "600"), {}),
       ("report-theoremB-896", ("report", "--case", "theoremB",
                                "--depth", "896"), {}),
       ("report-slow-to-geometric-600", ("report", "--case",
                                         "slow-to-geometric:1",
                                         "--depth", "600"), {})]
    + [(f"profile-100-inverse-image.{fmt}",
        ("profile", "--case", "slow-to-fast", "--depth", "100", "--direction",
         "inverse", "--side", "image", "--format", fmt), {})
       for fmt in ("csv", "json")]
    + [(f"homeo-{a}-to-{b}", ("homeo", "--src", f"geometric:{a}", "--dst",
                              f"geometric:{b}", "--depth", "40"), {})
       for a, b in (("0.25", "4"), ("4", "0.25"))]
    + [("david-geometric-to-fast-inverse",
        ("david", "--case", "geometric-to-fast:1", "--depth", "3",
         "--direction", "inverse"), {}),
       ("homeo-theorem-b-1", ("homeo", "--theorem-b", "--depth", "1"), {})]
    + [("exit1-nan-gauge", ("cantor", "--gauge", "geometric:nan",
                            "--depth", "1"), {}),
       ("exit1-depth-guard", ("cantor", "--gauge", "slow", "--depth", "1"),
        {"QCFORGE_DEPTH_GUARD": "abc"}),
       ("exit1-degenerate-annulus",
        ("david", "--case", "slow-to-geometric:50", "--depth", "10"), {}),
       ("exit1-flat-annulus",
        ("annulus", "--a", "0.1", "--b", "0.4999999999999999"), {}),
       ("exit1-negative-samples",
        ("dims", "--gauge", "geometric:1", "--frostman-s", "0.5",
         "--samples", "-1"), {}),
       ("exit1-negative-seed",
        ("dims", "--gauge", "geometric:1", "--frostman-s", "0.5",
         "--seed", "-1"), {}),
       # the level-1 template error comes before the level-22 underflow
       ("exit1-degenerate-before-underflow",
        ("homeo", "--src", "slow", "--dst", "geometric:50",
         "--depth", "30"), {}),
       ("exit1-case-parameter",
        ("profile", "--case", "slow-to-geometric:abc", "--depth", "3"), {}),
       ("exit1-gauge-parameter",
        ("dims", "--gauge", "slow:7", "--levels", "3"), {}),
       ("exit1-curve-depth-guard", ("curve", "--depth", "4"),
        {"QCFORGE_DEPTH_GUARD": "3"})]
    # Frostman walks past the workloads' levels 5-7: a thick gauge, tiny
    # sides, the root alone, and square indices past int64
    + [("frostman-sqrt-9",
        ("dims", "--gauge", "sqrt", "--frostman-s", "1.5",
         "--frostman-level", "9", "--samples", "8"), {}),
       ("frostman-geometric-1.4-9",
        ("dims", "--gauge", "geometric:1.4", "--frostman-s", "0.9",
         "--frostman-level", "9", "--samples", "8"), {}),
       ("frostman-level-0",
        ("dims", "--gauge", "geometric:1", "--frostman-s", "0.5",
         "--frostman-level", "0", "--samples", "4"), {}),
       ("exit1-frostman-int64",
        ("dims", "--gauge", "geometric:1", "--frostman-s", "0.5",
         "--frostman-level", "32", "--samples", "2"),
        {"QCFORGE_DEPTH_GUARD": "40"})]
    # sides that are 0 in floating point, grid indices past int64
    + [("exit1-zero-side-level",
        ("cantor", "--gauge", "geometric:2000", "--depth", "2"), {}),
       ("exit1-zero-side-frostman",
        ("dims", "--gauge", "geometric:2000", "--frostman-s", "0.5",
         "--frostman-level", "2", "--samples", "2"), {}),
       ("exit1-box-index-int64",
        ("dims", "--gauge", "geometric:80", "--box-depths", "2,3"), {})]
    # box counting past the workloads' gauges and depths: overlapping and
    # tiny squares, depth 0, and levels past the row cap
    + [(f"box-{argv[1]}-{argv[3]}", ("dims",) + argv, {})
       for argv in (("--gauge", "fast", "--box-depths", "1,5,9"),
                    ("--gauge", "sqrt", "--box-depths", "2,9"),
                    ("--family", "sigma", "--box-depths", "3,9"),
                    ("--family", "sigma", "--box-depths", "9,10,11"),
                    ("--gauge", "geometric:0.05", "--box-depths", "3,9"),
                    ("--gauge", "geometric:5", "--box-depths", "2,9"),
                    ("--gauge", "slow", "--box-depths", "0,4"))]
    + [("exit1-box-row-cap",
        ("dims", "--gauge", "geometric:1", "--box-depths", "3,12"), {}),
       ("exit1-box-row-cap-sigma",
        ("dims", "--family", "sigma", "--box-depths", "3,12"), {})]
    # large exports: few distinct values per column (level centers), one
    # all-distinct and one constant column (sigma), repeated zero areas
    # (a deep inverse profile), and a curve past the row cap
    + [(f"cantor-geometric-1-8.{fmt}", ("cantor", "--gauge", "geometric:1",
                                        "--depth", "8", "--format", fmt), {})
       for fmt in ("csv", "json")]
    + [("sigma-8.csv", ("sigma", "--depth", "8", "--format", "csv"), {})]
    + [(f"profile-150-geometric-to-fast-inverse.{fmt}",
        ("profile", "--case", "geometric-to-fast", "--direction", "inverse",
         "--depth", "150", "--format", fmt), {})
       for fmt in ("csv", "json")]
    + [("exit1-curve-row-cap", ("curve", "--depth", "10"), {})]
    # template verdicts: discontinuous cells, failed boundary data, and a
    # valid twist at an extreme parameter
    + [(f"annulus-{a}-{b}", ("annulus", "--a", a, "--b", b), {})
       for a, b in (("0.1", "1e-12"), ("1e-12", "0.1"))]
    + [("twist-1e-12", ("twist", "--a", "1e-12"), {})]
    # --format where no CSV exists, non-finite David parameters, and a
    # truncation depth past the bound of map depths
    + [("exit1-dims-format", ("dims", "--gauge", "sqrt", "--format", "csv"),
        {}),
       ("exit1-annulus-format", ("annulus", "--a", "0.1", "--b", "0.3",
                                 "--format", "json"), {}),
       ("exit1-david-infinite-C",
        ("david", "--case", "slow-to-fast", "--depth", "8", "--C", "inf",
         "--K0", "1"), {}),
       ("exit1-david-infinite-K0",
        ("david", "--case", "slow-to-fast", "--depth", "8", "--K0", "inf"),
        {}),
       ("exit1-dims-levels", ("dims", "--gauge", "sqrt", "--levels", "65"),
        {"QCFORGE_DEPTH_GUARD": "1"}),
       ("exit1-frostman-sigma",
        ("dims", "--family", "sigma", "--gauge", "geometric:1",
         "--frostman-s", "0.5"), {})]
    # bounds whose exponents overflow, and 8-adic inputs with no result:
    # another gauge than the row's, and no estimate asked for
    + [("exit1-dims-infinite-exponent",
        ("dims", "--gauge", "geometric:1e308"), {}),
       ("exit1-dims-sigma-gauge",
        ("dims", "--family", "sigma", "--gauge", "slow",
         "--box-depths", "1,2"), {}),
       ("exit1-dims-sigma-nothing", ("dims", "--family", "sigma"), {})]
    # bounds past the levels where the sides underflow to 0 (fast from
    # level 175, geometric:1 from level 538)
    + [(f"dims-{gauge}-{levels}", ("dims", "--gauge", gauge,
                                   "--levels", levels), {})
       for gauge, levels in (("fast", "300"), ("geometric:1", "896"))]
    # a deep check whose masses, truncation area and bounds are 0 in
    # floating point (the depth-150 profile of this map is pinned above)
    + [("david-150-geometric-to-fast-inverse",
        ("david", "--case", "geometric-to-fast", "--direction", "inverse",
         "--depth", "150", "--K0", "100"), {})]
)


def jobs(seeds):
    for seed in seeds:
        for w in WORKLOADS:
            for job in make_workload(w, seed).jobs:
                if job.is_cli:
                    yield f"{w}-{seed}/{job.name}", job.argv, {}
    yield from FIXED


def digest(argv, env, path) -> tuple[int | str, bytes]:
    """Exit code and artifact of one job; a job that raises out of
    `cli.run` gets the code `raised` and the exception's text."""
    err = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(argv) + ["--out", path])
        except Exception as e:
            return "raised", repr(e).encode()
    if os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
    else:
        data = err.getvalue().encode()
    return rc, data


def edge_points(m, k) -> np.ndarray:
    """Vertices and edge midpoints of the level-k template cells, placed in
    every level-k parent of the source: an (n, 2) array."""
    lv, side = m.levels[k - 1], m.src.sides[k - 1]
    centers = m.corresponding_centers(k - 1)[0]
    out = []
    for ti, x, y, scale in m.slots:
        cells = lv.templates[ti].cells
        mids = (cells + np.roll(cells, -1, axis=1)) / 2.0
        u = np.concatenate([cells, mids]).reshape(-1, 2)
        out.append((centers[:, None, :] + (x * side, y * side)
                    + u[None] * (side * scale)).reshape(-1, 2))
    return np.concatenate(out)


def deep_points(m, levels, parents, rng) -> np.ndarray:
    """Vertices, edge midpoints and centroids of the level-k template cells
    for each k in `levels`, placed in `parents` level-(k - 1) source squares
    along random digit paths: an (n, 2) array."""
    out = []
    for k in levels:
        lv, side = m.levels[k - 1], m.src.sides[k - 1]
        centers = np.zeros((parents, 2))
        for offsets in m.src.offsets[:k - 1]:
            centers += np.array(offsets)[rng.integers(0, 4, parents)]
        for ti, x, y, scale in m.slots:
            cells = lv.templates[ti].cells
            u = np.concatenate([cells, (cells + np.roll(cells, -1, axis=1))
                                / 2.0, cells.mean(axis=1, keepdims=True)],
                               axis=1).reshape(-1, 2)
            out.append((centers[:, None, :] + (x * side, y * side)
                        + u[None] * (side * scale)).reshape(-1, 2))
    return np.concatenate(out)


def evaluate_rows(m, pts) -> bytes:
    """float64 bytes of (x, y, error bound) of `evaluate` at each point."""
    rows = [(r.point.x, r.point.y, r.error_bound) for r in
            (evaluate(m, Point(x, y)) for x, y in pts)]
    return np.array(rows).tobytes()


def map_outputs(seeds):
    """(name, bytes) of point evaluations and center lists of the query
    maps."""
    deep = {spec.key: build_map(spec) for spec in QUERY_MAPS}
    for seed in seeds:
        rng = np.random.default_rng([seed, 11])
        for spec in QUERY_MAPS:
            pts = _query_points(spec, 200, rng).tolist()
            maps = [(f"depth-{d}", build_map(replace(spec, depth=d)))
                    for d in (0, 1)]
            maps += [(f"depth-{spec.depth}", deep[spec.key]),
                     ("truncated-5", deep[spec.key].truncate(5))]
            for name, m in maps:
                yield f"evaluate-{seed}/{spec.key}/{name}", \
                    evaluate_rows(m, pts)
    for key, m in deep.items():
        for k in (1, 2, 3):
            yield f"evaluate-edges/{key}/level-{k}", \
                evaluate_rows(m, edge_points(m, k).tolist())
    rng = np.random.default_rng([40, 11])
    for spec in QUERY_MAPS:
        spec = replace(spec, depth=40)
        m = build_map(spec)
        pts = np.concatenate([_query_points(spec, 200, rng), deep_points(
            m, (1, 2, 15, 16, 17, 18, 31, 32, 33, 34, 39, 40), 3, rng)])
        yield f"evaluate-deep/{spec.key}/depth-40", \
            evaluate_rows(m, pts.tolist())
    for key, m in deep.items():
        for k in range(7):
            src, dst = m.corresponding_centers(k)
            yield f"centers/{key}/{k}", src.tobytes() + dst.tobytes()


def main():
    seeds = [int(s) for s in sys.argv[1:]]
    if not seeds:
        sys.exit("usage: python3 scripts/artifact_digests.py SEED [SEED ...]")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact")
        for name, argv, env in jobs(seeds):
            rc, data = digest(argv, env, path)
            print(name, rc, len(data),
                  hashlib.blake2b(data, digest_size=16).hexdigest())
    for name, data in map_outputs(seeds):
        print(name, 0, len(data),
              hashlib.blake2b(data, digest_size=16).hexdigest())


if __name__ == "__main__":
    main()
