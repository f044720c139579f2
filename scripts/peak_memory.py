#!/usr/bin/env python3
"""Print one line `command rc bytes peak_mb` per large CLI export, each run
in a fresh interpreter, and the same line for the in-memory build that the
export starts from (rc and bytes `-`).

Usage: python3 scripts/peak_memory.py [outdir]   (default: a temporary
directory, removed at the end)

peak_mb is the child's own peak resident set size (`ru_maxrss`, in MB of
2^20 bytes), read just before it exits; bytes is the size of the artifact
that `--out` wrote.  The commands are `cantor --gauge sqrt --depth 10` and
`11` and `curve --depth 8` and `9`, each in both formats, and the box count
`dims --family sigma --box-depths 10,11` of the 8-adic row.  Each artifact
is deleted once measured, so at most one is on disk at a time.  The last
build is the first `evaluate` on a depth-400 map, which makes the map's
descent table and the point-location rows of the one template that holds
the point.  The package is imported from the checkout the script lives in.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = [["cantor", "--gauge", "sqrt", "--depth", str(d), "--format", f]
            for d in (10, 11) for f in ("json", "csv")] + \
           [["curve", "--depth", str(d), "--format", f]
            for d in (8, 9) for f in ("json", "csv")] + \
           [["dims", "--family", "sigma", "--box-depths", "10,11"]]
# the in-memory builds: the level centers, the map and its curve, and a
# deep map with its first point
BUILDS = [(f"build_level(sqrt, {d})",
           f"cantor.build_level(cantor.make_gauge('sqrt'), {d})")
          for d in (10, 11)] + \
         [(f"curve_polyline(theoremB_homeo({d}))",
           f"homeo.curve_polyline(homeo.theoremB_homeo({d}))")
          for d in (8, 9)] + \
         [("evaluate(invert(theoremB_homeo(400)), (0.45, 0.4))",
           "homeo.evaluate(homeo.invert(homeo.theoremB_homeo(400)), "
           "homeo.Point(0.45, 0.4))")]

_CHILD = """
import json, resource, sys
from qcforge import cantor, cli, homeo
{statement}
print(json.dumps([rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def _measure(statement: str, argv=()) -> tuple:
    """(rc, peak MB) of a fresh interpreter that runs `statement`, which
    sets `rc`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = _CHILD.format(statement=statement)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    rc, kib = json.loads(done.stdout.splitlines()[-1])
    return rc, kib / 1024


def main():
    with tempfile.TemporaryDirectory() as tmp:
        outdir = sys.argv[1] if len(sys.argv) > 1 else tmp
        os.makedirs(outdir, exist_ok=True)
        for argv in COMMANDS:
            path = os.path.join(outdir, "artifact")
            rc, peak = _measure("rc = cli.run(sys.argv[1:])",
                                [*argv, "--out", path])
            size = os.path.getsize(path) if os.path.exists(path) else 0
            if os.path.exists(path):
                os.remove(path)
            print(f"{' '.join(argv)} {rc} {size} {peak:.1f}", flush=True)
        for name, expr in BUILDS:
            _, peak = _measure(f"built = {expr}; rc = None")
            print(f"{name} - - {peak:.1f}", flush=True)


if __name__ == "__main__":
    main()
