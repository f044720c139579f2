"""The maintenance scripts still run: `scripts/measure_frozen_constants.py`
prints its bands, and `scripts/theorem_reports.py` writes every report and
the curve; `scripts/peak_memory.py` checks its streaming budget, and
`scripts/evaluate_cost.py` prints the cost of `evaluate` per point."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

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


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name[:-3], os.path.join(ROOT, "scripts", name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("excess,rc", [(32.0, 0), (32.5, 1)])
def test_peak_memory_checks_the_streaming_budget(capsys, tmp_path, excess,
                                                 rc):
    # every build peaks at 100 MB and every export 1 MB above it, except
    # the depth-9 curve CSV, which peaks `excess` MB above it
    script = _load("peak_memory.py")

    def measure(statement, argv=()):
        if "curve --depth 9 --format csv" in " ".join(argv):
            return 0, 100.0 + excess
        return (0, 101.0) if argv else (None, 100.0)

    script._measure = measure
    assert script.main([str(tmp_path)]) == rc
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == len(script.BUILDS) + len(script.COMMANDS)
    assert lines[0] == "build_level(sqrt, 10) - - 100.0 -"
    assert "cantor --gauge sqrt --depth 11 --format json 0 0 101.0 1.0" \
        in lines
    assert f"curve --depth 9 --format csv 0 0 {100 + excess:.1f} " \
        f"{excess:.1f}" in lines
    assert lines[-1] == "dims --family sigma --box-depths 10,11 0 0 101.0 -"
    assert ("over the 32 MB budget: curve --depth 9 --format csv: 32.5 MB "
            "over curve_polyline(theoremB_homeo(9))" in err) == bool(rc)


def test_evaluate_cost_prints_one_json_line():
    proc = _script("evaluate_cost.py", "--seed", "3", "--points", "6",
                   "--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert (out["seed"], out["points"], out["repeats"]) == (3, 6, 2)
    for kind in ("deep_us", "uniform_us"):
        assert sorted(out[kind]) == ["B", "B-inv", "S", "S-inv", "all"]
        assert all(0.0 < us < 1e5 for us in out[kind].values())
    assert 0.0 < out["point_us"] < 1e5
    assert _script("evaluate_cost.py", "--points", "1").returncode == 2
