#!/usr/bin/env python3
"""Print one line `what rc bytes peak_mb excess_mb` per in-memory build and
per large CLI export, each run in a fresh interpreter, and check the
streaming budget: each export peaks at most `MARGIN_MB` above the build it
starts from.

Usage: python3 scripts/peak_memory.py [outdir]   (default: a temporary
directory, removed at the end)

peak_mb is the child's own peak resident set size (`ru_maxrss`, in MB of
2^20 bytes), read just before it exits.  The builds come first, with rc,
bytes and excess `-`: the level centers `build_level(sqrt, d)`, the curve
`curve_polyline(theoremB_homeo(d))`, and a deep map with its first point
(the first `evaluate` on a depth-400 map, which makes the map's descent
table and the point-location rows of the one template that holds the
point).  Then the exports `cantor --gauge sqrt --depth 10` and `11` and
`curve --depth 8` and `9`, each in both formats, and the box count
`dims --family sigma --box-depths 10,11` of the 8-adic row; rc is the
exit code, bytes the size of the artifact that `--out` wrote, and
excess_mb the export's peak less its build's (`-` for the box count,
which builds no level).  Each artifact is deleted once measured, so at
most one is on disk at a time.  The script exits 1 if an excess is over
`MARGIN_MB`, naming each such export on stderr, and 0 otherwise.  The
package is imported from the checkout the script lives in.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the streaming budget: an export holds at most this much beyond the
# arrays it writes
MARGIN_MB = 32.0

BUILDS = [(f"build_level(sqrt, {d})",
           f"cantor.build_level(cantor.make_gauge('sqrt'), {d})")
          for d in (10, 11)] + \
         [(f"curve_polyline(theoremB_homeo({d}))",
           f"homeo.curve_polyline(homeo.theoremB_homeo({d}))")
          for d in (8, 9)] + \
         [("evaluate(invert(theoremB_homeo(400)), (0.45, 0.4))",
           "homeo.evaluate(homeo.invert(homeo.theoremB_homeo(400)), "
           "homeo.Point(0.45, 0.4))")]
# each export and the build it is held to, if any
COMMANDS = [(["cantor", "--gauge", "sqrt", "--depth", str(d), "--format", f],
             f"build_level(sqrt, {d})")
            for d in (10, 11) for f in ("json", "csv")] + \
           [(["curve", "--depth", str(d), "--format", f],
             f"curve_polyline(theoremB_homeo({d}))")
            for d in (8, 9) for f in ("json", "csv")] + \
           [(["dims", "--family", "sigma", "--box-depths", "10,11"], None)]

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    over = []
    with tempfile.TemporaryDirectory() as tmp:
        outdir = argv[0] if argv else tmp
        os.makedirs(outdir, exist_ok=True)
        built = {}
        for name, expr in BUILDS:
            _, built[name] = _measure(f"built = {expr}; rc = None")
            print(f"{name} - - {built[name]:.1f} -", flush=True)
        for command, build in COMMANDS:
            path = os.path.join(outdir, "artifact")
            rc, peak = _measure("rc = cli.run(sys.argv[1:])",
                                [*command, "--out", path])
            size = os.path.getsize(path) if os.path.exists(path) else 0
            if os.path.exists(path):
                os.remove(path)
            excess = "-"
            if build is not None:
                extra = peak - built[build]
                excess = f"{extra:.1f}"
                if extra > MARGIN_MB:
                    over.append(f"{' '.join(command)}: {excess} MB over "
                                f"{build}")
            print(f"{' '.join(command)} {rc} {size} {peak:.1f} {excess}",
                  flush=True)
    for line in over:
        print(f"over the {MARGIN_MB:g} MB budget: {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
