"""Byte identity as a check: `scripts/artifact_digests.py 1` prints the
lines committed in `tests/data/artifact_digests_seed1.txt`, one
`job rc bytes blake2b` line per CLI artifact, point evaluation and
centre list (see the script's docstring).

A change that alters artifacts or point images on purpose regenerates the
file with

    python scripts/artifact_digests.py 1 > tests/data/artifact_digests_seed1.txt

and lists each changed line in `CHANGES.md`.
"""

import difflib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "artifact_digests.py")
PINNED = os.path.join(ROOT, "tests", "data", "artifact_digests_seed1.txt")


def test_artifact_digests_of_seed_1_are_unchanged():
    env = dict(os.environ)
    env.pop("QCFORGE_DEPTH_GUARD", None)  # the jobs set their own guards
    got = subprocess.run([sys.executable, SCRIPT, "1"], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    with open(PINNED) as fh:
        want = fh.read()
    assert got == want, "\n".join(difflib.unified_diff(
        want.splitlines(), got.splitlines(), "pinned", "now", lineterm="",
        n=0))
