"""The maintenance scripts still run: `scripts/measure_frozen_constants.py`
prints its bands, and `scripts/theorem_reports.py` writes every report and
the curve."""

import os
import subprocess
import sys

import qcforge
from qcforge import analysis

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _script(name, *args):
    src = os.path.dirname(os.path.dirname(qcforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("QCFORGE_DEPTH_GUARD", None)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)


def test_measure_frozen_constants_runs():
    proc = _script("measure_frozen_constants.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "ANNULUS_BAND measured", "TWIST_BAND measured", *analysis.CASES,
        "DIL_RATIO_BAND measured", "FROSTMAN_BOUND measured"]
    assert not any("fit" in ln for ln in lines)


def test_theorem_reports_writes_every_report_and_the_curve(tmp_path):
    proc = _script("theorem_reports.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = [f"{case}.json" for case in analysis.CASES] + ["curve_depth6.csv"]
    assert len(names) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).stat().st_size > 0
        assert f"wrote {name} (exit code " in proc.stdout
