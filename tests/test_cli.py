import json
import math
import os
import subprocess
import sys

import pytest

import qcforge
from qcforge import analysis, cantor, qcmaps
from qcforge.cli import build_parser, run
from qcforge.errors import DepthLimitError


def _capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert run([]) == 1
    assert run(["cantor", "--gauge", "geometric:1"]) == 1  # missing depth


def test_bad_gauge_is_usage_error(capsys):
    assert run(["cantor", "--gauge", "nope", "--depth", "2"]) == 1
    assert run(["cantor", "--gauge", "geometric", "--depth", "2"]) == 1


@pytest.mark.parametrize("gauge", ["slow:7", "fast:0.5", "sqrt:2"])
def test_a_parameterless_gauge_with_a_parameter_is_usage_error(capsys, gauge):
    code = run(["dims", "--gauge", gauge, "--levels", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    kind, _, param = gauge.partition(":")
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: argument --gauge: {kind} gauge takes no "
                      f"parameter, got {param}"]
    assert captured.err.endswith(errors[0] + "\n")


def test_cantor_json(capsys):
    code, out = _capture(capsys, ["cantor", "--gauge", "geometric:1",
                                  "--depth", "3"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["squares"]) == 64
    assert obj["side"] == 2.0 ** -3 * 2.0 ** -3
    assert out.endswith("\n") and "\r" not in out


def test_sigma_csv(capsys):
    code, out = _capture(capsys, ["sigma", "--depth", "1",
                                  "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "cx,cy"
    assert len(lines) == 5


def test_output_is_byte_identical(capsys, tmp_path):
    argv = ["dims", "--gauge", "geometric:1", "--levels", "50",
            "--frostman-s", "0.9", "--seed", "7"]
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert run(argv + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_dims_bounds(capsys):
    code, out = _capture(capsys, ["dims", "--gauge", "geometric:1"])
    obj = json.loads(out)
    assert code == 0
    assert obj["bounds"]["lower"] <= 1.0 <= obj["bounds"]["upper"]


def test_dims_sigma_box(capsys):
    code, out = _capture(capsys, ["dims", "--family", "sigma",
                                  "--box-depths", "4,6"])
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["box"]["value"] - 2 / 3) < 0.1


def test_annulus_and_twist_verdicts(capsys):
    code, out = _capture(capsys, ["annulus", "--a", "0.1", "--b", "0.3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] is True
    assert obj["max_K"] > 1
    code, out = _capture(capsys, ["twist", "--a", "0.1"])
    assert code == 0
    assert json.loads(out)["valid"] is True
    assert run(["twist", "--a", "0.7"]) == 1  # out of range: usage error


def test_failed_template_verdict(capsys):
    # an inner square of side 1 - 2e-12 leaves the cells discontinuous
    code, out = _capture(capsys, ["annulus", "--a", "0.1", "--b", "1e-12"])
    assert code == 2
    assert json.loads(out)["valid"] is False
    assert '"valid":false' in out


# (template arguments, exit code): valid templates, thin annuli that fail
# validation, and inputs out of range
TEMPLATE_RUNS = (
    [(["annulus", "--a", a, "--b", b], code) for a, b, code in (
        ("0.1", "0.3", 0), ("0.3", "0.1", 0), ("0.2", "0.2", 0),
        ("0.0412", "0.4437", 0), ("0.4311", "0.0263", 0),
        ("1e-12", "0.1", 2), ("0.1", "1e-12", 2), ("0.6", "0.1", 1),
        ("0.1", "0.5", 1), ("0", "0.1", 1), ("nan", "0.1", 1))]
    + [(["twist", "--a", a], code) for a, code in (
        ("1e-12", 0), ("0.0213", 0), ("0.1", 0), ("0.1899", 0), ("0.2", 1),
        ("0.6", 1), ("-0.1", 1), ("nan", 1))])


@pytest.mark.parametrize("argv, code", TEMPLATE_RUNS,
                         ids=[" ".join(argv) for argv, _ in TEMPLATE_RUNS])
def test_templates_come_from_one_level_stacks(capsys, monkeypatch, argv,
                                              code):
    # `annulus` and `twist` build a one-level stack and call no scalar
    # builder, unless the stack refuses the input and falls back to one for
    # its error; JSON, exit code and error text are those of the scalar
    # builders
    calls = []
    for name in ("annulus_extension_any", "twist_extension"):
        real = getattr(qcmaps, name)
        monkeypatch.setattr(qcmaps, name, lambda *a, real=real:
                            calls.append(a) or real(*a))
    got = run(argv), capsys.readouterr()
    assert got[0] == code and len(calls) == (code == 1)
    monkeypatch.setattr(qcmaps, "annulus_templates", lambda a, b: qcmaps.
                        _stack_of([[qcmaps.annulus_extension_any(*a, *b)]]))
    monkeypatch.setattr(qcmaps, "twist_templates", lambda a: qcmaps.
                        _stack_of([[qcmaps.twist_extension(*a)]]))
    assert got == (run(argv), capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["dims", "--gauge", "sqrt"],
    ["annulus", "--a", "0.1", "--b", "0.3"],
    ["twist", "--a", "0.1"],
    ["homeo", "--theorem-b", "--depth", "2"],
    ["david", "--case", "slow-to-fast", "--depth", "3"],
    ["report", "--case", "slow-to-fast", "--depth", "3"],
], ids=lambda argv: argv[0])
def test_format_only_where_a_csv_exists(capsys, argv):
    # these subcommands write JSON only, so --format is a usage error
    assert run(argv + ["--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format csv" in captured.err


@pytest.mark.parametrize("flags", [["--C", "inf", "--K0", "1"],
                                   ["--K0", "inf"], ["--alpha", "inf"]],
                         ids=["C", "K0", "alpha"])
def test_david_parameters_must_be_finite(capsys, flags):
    err = _one_line_error(capsys, ["david", "--case", "slow-to-fast",
                                   "--depth", "8"] + flags)
    assert "need finite C > 0" in err


def test_dims_levels_are_bounded(capsys, monkeypatch):
    # the bound of map depths: 64 levels per unit of the guard
    monkeypatch.setenv("QCFORGE_DEPTH_GUARD", "1")
    assert _capture(capsys, ["dims", "--gauge", "sqrt",
                             "--levels", "64"])[0] == 0
    err = _one_line_error(capsys, ["dims", "--gauge", "sqrt",
                                   "--levels", "65"])
    assert err == "error: depth 65 is unreasonably large\n"
    assert _one_line_error(capsys, ["homeo", "--theorem-b",
                                    "--depth", "65"]) == err


def test_homeo_summary(capsys):
    code, out = _capture(capsys, ["homeo", "--src", "sqrt", "--dst",
                                  "geometric:1", "--depth", "4"])
    assert code == 0
    obj = json.loads(out)
    assert [e["level"] for e in obj["per_level"]] == [1, 2, 3, 4]
    assert run(["homeo", "--depth", "3"]) == 1  # needs gauges or --theorem-b
    code, out = _capture(capsys, ["homeo", "--theorem-b", "--depth", "3"])
    assert code == 0
    assert json.loads(out)["source"] == "sigma"


def test_david_verdict_exit_codes(capsys):
    code, out = _capture(capsys, ["david", "--case", "slow-to-geometric:1",
                                  "--depth", "10"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    # forcing a non-vacuous regime with a tiny cutoff must fail with exit 2
    code, out = _capture(capsys, ["david", "--case", "slow-to-geometric:1",
                                  "--depth", "10", "--K0", "1.0",
                                  "--direction", "inverse"])
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_david_margin_past_float_range_of_its_ratios(capsys):
    # every bound / area ratio overflows at C = 1e308; at C = 1e280 they do
    # not, and the margin is 28 ln 10 less
    argv = ["david", "--case", "slow-to-fast", "--depth", "40",
            "--alpha", "1e-300"]
    assert run(argv + ["--C", "1e280"]) == 0
    low = json.loads(capsys.readouterr().out)["margin"]
    code = run(argv + ["--C", "1e308"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    margin = json.loads(captured.out)["margin"]
    assert margin == pytest.approx(low + 28 * math.log(10), rel=1e-12)
    assert margin == pytest.approx(651.69233920909562 + 28 * math.log(10),
                                   rel=1e-12)


def test_profile_csv(capsys):
    code, out = _capture(capsys, ["profile", "--case", "slow-to-fast",
                                  "--depth", "6", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "K,exceedance_area,bound_C_alpha,truncation"
    assert len(lines) > 3


@pytest.mark.parametrize("case", [*analysis.CASES])
def test_profile_json_and_csv_carry_the_same_columns(capsys, case):
    def hexes(values):
        return [float.hex(float(v)) for v in values]

    for direction in ("forward", "inverse"):
        for side in ("domain", "image"):
            argv = ["profile", "--case", case, "--depth", "12",
                    "--direction", direction, "--side", side]
            code, out = _capture(capsys, argv + ["--format", "json"])
            assert code == 0
            obj = json.loads(out)
            code, out = _capture(capsys, argv + ["--format", "csv"])
            assert code == 0
            header, *lines = out.splitlines()
            assert header == "K,exceedance_area,bound_C_alpha,truncation"
            k, area, bound, truncation = zip(*(x.split(",") for x in lines))
            entries = obj["entries"]
            assert len(entries) > 12
            assert hexes(k) == hexes(e["K"] for e in entries)
            assert hexes(area) == hexes(e["exceedance_area"]
                                        for e in entries)
            assert hexes(bound) == hexes(e["bound"] for e in entries)
            assert set(hexes(truncation)) == \
                set(hexes([obj["truncation_bound"]]))


def test_david_on_an_empty_profile_passes_vacuously(capsys):
    # depth 0 has no threshold, so nothing above K0 has positive area
    m = analysis.CASES["slow_to_fast"].build(0, None)
    p = analysis.dilatation_profile(m)
    assert len(p.thresholds) == len(p.exceedances) == 0
    assert analysis.check_david(p, analysis.DavidParams(1.0, 1.0, 1.0)) \
        == (True, math.inf)
    code, out = _capture(capsys, ["david", "--case", "slow-to-fast",
                                  "--depth", "0"])
    assert code == 0
    assert '"passed":true' in out and '"margin":"inf"' in out


def test_profile_depth_zero_has_no_entries(capsys):
    argv = ["profile", "--case", "slow-to-fast", "--depth", "0"]
    code, out = _capture(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert out == "K,exceedance_area,bound_C_alpha,truncation\n"
    code, out = _capture(capsys, argv + ["--format", "json"])
    assert code == 0
    assert '"entries":[]' in out
    assert json.loads(out)["entries"] == []


def test_curve_csv(capsys):
    code, out = _capture(capsys, ["curve", "--depth", "1",
                                  "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x,y"
    assert lines[1].startswith("-0.5,")
    assert lines[-1].startswith("0.5,")


def test_report_runs(capsys):
    code, out = _capture(capsys, ["report", "--case", "theoremB",
                                  "--depth", "6"])
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "theoremB"


def _one_line_error(capsys, argv):
    """Runs argv, which must exit 1 with one `error:` line on stderr."""
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    return captured.err


def test_theorem_b_runs_to_the_table_depth(capsys, monkeypatch):
    # masses read the level areas, so no level count stands between a
    # profile or report and the table bound, 64 x the default guard
    monkeypatch.delenv("QCFORGE_DEPTH_GUARD", raising=False)
    code, _ = _capture(capsys, ["profile", "--case", "theoremB",
                                "--depth", "896"])
    assert code == 0
    code = run(["report", "--case", "theoremB", "--depth", "896"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert [e["level"] for e in rep["levels"]] == list(range(1, 897))
    for direction in ("forward", "inverse"):
        checks = rep["david"][direction]["checks"]
        assert [c["depth"] for c in checks] == list(range(3, 897))
    code = run(["report", "--case", "slow-to-geometric:1", "--depth", "600"])
    assert (code, capsys.readouterr().err) == (2, "")
    err = _one_line_error(capsys, ["report", "--case", "theoremB",
                                   "--depth", "897"])
    assert err == "error: depth 897 is unreasonably large\n"


@pytest.mark.parametrize("argv,gauge,k", [
    (["homeo", "--src", "slow", "--dst", "geometric:1e-17", "--depth", "3"],
     "geometric:1e-17", 1),
    (["homeo", "--src", "geometric:1e-17", "--dst", "slow", "--depth", "3"],
     "geometric:1e-17", 1),
    (["report", "--case", "slow-to-geometric:1e-300", "--depth", "4"],
     "geometric:1e-300", 1),
    (["profile", "--case", "geometric-to-fast:1e-300", "--depth", "2"],
     "geometric:1e-300", 1),
    # d_1 < d_0 = 1, but d_2 == d_1
    (["homeo", "--src", "geometric:1e-16", "--dst", "slow", "--depth", "3"],
     "geometric:1e-16", 2),
])
def test_a_flat_gauge_is_named(capsys, argv, gauge, k):
    assert _one_line_error(capsys, argv) == (
        f"error: gauge {gauge} is flat at level {k}: d_{k}/d_{k - 1} is 1 in "
        "floating point\n")


def test_an_earlier_level_raises_before_a_flat_one(capsys):
    # geometric:1e-16 is flat at level 2, and geometric:50 makes level 1's
    # template degenerate
    argv = ["homeo", "--src", "geometric:1e-16", "--dst", "geometric:50"]
    err = _one_line_error(capsys, argv + ["--depth", "1"])
    assert "flat" not in err
    assert _one_line_error(capsys, argv + ["--depth", "3"]) == err


def test_frostman_needs_a_sample(capsys):
    for samples in ("-1", "0"):
        err = _one_line_error(capsys, ["dims", "--gauge", "geometric:1",
                                       "--frostman-s", "0.5",
                                       "--samples", samples])
        assert "samples" in err


def test_frostman_needs_a_nonnegative_seed(capsys):
    err = _one_line_error(capsys, ["dims", "--gauge", "geometric:1",
                                   "--frostman-s", "0.5", "--seed", "-1"])
    assert "seed" in err


def test_frostman_ratios_of_the_8adic_row_are_refused(capsys):
    # the walk covers the square nest of the gauge only, so a sigma request
    # would print the ratios of another set
    for gauge in ([], ["--gauge", "geometric:1"]):
        err = _one_line_error(capsys, ["dims", "--family", "sigma", *gauge,
                                       "--frostman-s", "0.5"])
        assert "square family" in err


def test_frostman_root_frontier_is_capped_before_sampling(capsys,
                                                          monkeypatch):
    # 10^8 samples at 29 radii are about 2.9e9 root rows: the walk exits 1
    # before it draws a sample, instead of allocating tens of GB first
    def no_draw(*args):
        raise AssertionError("samples drawn before the row cap was checked")

    monkeypatch.setattr(cantor.np.random, "default_rng", no_draw)
    err = _one_line_error(capsys, ["dims", "--gauge", "geometric:1",
                                   "--frostman-s", "0.5",
                                   "--frostman-level", "14",
                                   "--samples", "100000000"])
    assert "rows" in err and str(cantor._MAX_ROWS) in err


def test_case_parameter_must_be_a_number(capsys):
    for argv in (["profile", "--case", "slow-to-geometric:abc"],
                 ["david", "--case", "slow-to-fast:x"],
                 ["report", "--case", "geometric-to-fast:1,5"]):
        err = _one_line_error(capsys, argv + ["--depth", "3"])
        assert "is not a number" in err


def test_parameters_that_change_nothing_are_usage_errors(capsys):
    # slow-to-fast and theoremB build the same map whatever nu is
    for argv, want in (
            (["report", "--case", "slow-to-fast:3"],
             "case 'slow-to-fast' takes no parameter, got '3'"),
            (["david", "--case", "theoremB:2"],
             "case 'theoremB' takes no parameter, got '2'"),
            (["profile", "--case", "theorem-b:0.5"],
             "case 'theorem-b' takes no parameter, got '0.5'"),
            (["report", "--case", "theoremB:abc"],
             "case parameter 'abc' is not a number"),
            (["report", "--case", "slow-to-geometric:"],
             "case parameter '' is not a number")):
        assert _one_line_error(capsys, argv + ["--depth", "3"]) == \
            f"error: {want}\n"
    for gauges in (["--src", "slow"], ["--dst", "fast"],
                   ["--src", "slow", "--dst", "fast"]):
        assert _one_line_error(
            capsys, ["homeo", "--theorem-b", "--depth", "3"] + gauges) == \
            "error: --src and --dst do not apply to --theorem-b\n"
    # the Frostman options without --frostman-s, and --levels on the
    # 8-adic row, which has no dimension bounds
    for argv, want in (
            (["--gauge", "slow", "--levels", "5", "--frostman-level", "5",
              "--samples", "3", "--seed", "9"],
             "--frostman-level, --samples, --seed given without "
             "--frostman-s"),
            (["--gauge", "slow", "--seed", "0"],
             "--seed given without --frostman-s"),
            (["--gauge", "sqrt", "--box-depths", "2,3", "--samples", "4"],
             "--samples given without --frostman-s"),
            (["--family", "sigma", "--box-depths", "2,3", "--frostman-level",
              "3"], "--frostman-level given without --frostman-s"),
            (["--family", "sigma", "--levels", "5", "--box-depths", "2,3"],
             "--levels does not apply to --family sigma"),
            (["--family", "sigma", "--levels", "50"],
             "--levels does not apply to --family sigma")):
        assert _one_line_error(capsys, ["dims"] + argv) == f"error: {want}\n"
    # without a parameter, or with one where it counts, both still run
    for argv in (["report", "--case", "slow-to-fast"],
                 ["report", "--case", "theoremB"],
                 ["profile", "--case", "geometric-to-fast:1.5"]):
        assert _capture(capsys, argv + ["--depth", "3"])[0] in (0, 2)
    # given where they count, each of them runs, and the defaults they
    # leave out are the ones written in the artifact
    code, out = _capture(capsys, ["dims", "--gauge", "slow", "--levels", "5",
                                  "--frostman-s", "0.5", "--samples", "2"])
    frostman = json.loads(out)["frostman"]
    assert code == 0 and (frostman["level"], frostman["seed"]) == (8, 0)
    assert _capture(capsys, ["dims", "--family", "sigma",
                             "--box-depths", "2,3"])[0] == 0


def test_curve_obeys_the_depth_guard(capsys, monkeypatch):
    # the curve materializes the 4^n deepest squares, like `cantor`
    monkeypatch.setenv("QCFORGE_DEPTH_GUARD", "3")
    want = _one_line_error(capsys, ["cantor", "--gauge", "geometric:1",
                                    "--depth", "4"])
    assert _one_line_error(capsys, ["curve", "--depth", "4"]) == want
    code, _ = _capture(capsys, ["curve", "--depth", "3"])
    assert code == 0


def test_bad_gauge_names_the_reason(capsys):
    for gauge, reason in (("geometric:nan", "finite nu > 0"),
                          ("geometric:abc", "gauge parameter 'abc' is not "
                                            "a number"),
                          ("nope", "unknown gauge kind 'nope'")):
        assert run(["cantor", "--gauge", gauge, "--depth", "1"]) == 1
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1 and reason in lines[0], err
        assert "_parse_gauge" not in err


def test_frostman_level_past_int64_indices(capsys, monkeypatch):
    # the walk builds no level, so a raised guard reaches level 32, whose
    # 4^32 square indices do not fit int64
    monkeypatch.setenv("QCFORGE_DEPTH_GUARD", "40")
    err = _one_line_error(capsys, ["dims", "--gauge", "geometric:1",
                                   "--frostman-s", "0.5",
                                   "--frostman-level", "32",
                                   "--samples", "2"])
    assert "level 32" in err and "int64" in err


def test_frostman_frontier_cap(capsys, monkeypatch):
    # a level whose walk would pass the row cap exits 1 before it is built
    argv = ["dims", "--gauge", "geometric:1", "--frostman-s", "0.5",
            "--frostman-level", "8", "--samples", "2"]
    assert _capture(capsys, argv)[0] == 0
    monkeypatch.setattr(cantor, "_MAX_ROWS", 64)
    err = _one_line_error(capsys, argv)
    assert "level " in err and "rows" in err and "64" in err


@pytest.mark.parametrize("argv, reason", [
    (["cantor", "--gauge", "geometric:2000", "--depth", "2"],
     "level 2 has side 0"),
    (["dims", "--gauge", "geometric:2000", "--frostman-s", "0.5",
      "--frostman-level", "2", "--samples", "2"], "level 2 has side 0"),
    # sides of 2^-162 put the level-2 grid indices near 2^160
    (["dims", "--gauge", "geometric:80", "--box-depths", "2,3"], "int64"),
], ids=["cantor", "frostman", "box-counting"])
def test_sides_below_float_range_are_errors(capsys, argv, reason):
    assert reason in _one_line_error(capsys, argv)


_ROW_CAP_12 = "level 12 has 4^12 squares, more than the cap of 8388608 rows"


@pytest.mark.parametrize("argv, message", [
    # the cap counts the level's 4^12 squares, not the rows box counting
    # builds
    (["--gauge", "geometric:1", "--box-depths", "3,12"], _ROW_CAP_12),
    (["--family", "sigma", "--box-depths", "3,12"], _ROW_CAP_12),
    # depths are checked in the order given: the cap before the guard
    (["--gauge", "geometric:1", "--box-depths", "12,15"], _ROW_CAP_12),
    (["--gauge", "geometric:2000", "--box-depths", "1,2"],
     "level 1 has side 0 in floating point"),
    (["--gauge", "geometric:80", "--box-depths", "2,3"],
     "grid indices of box size 1.7105694144590052e-49 pass int64"),
], ids=["row-cap", "row-cap-sigma", "row-cap-before-guard", "side-0",
        "int64"])
def test_box_counting_errors(capsys, argv, message):
    assert _one_line_error(capsys, ["dims"] + argv) == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--gauge", "geometric:1e308"],
     "-log d_34 of gauge geometric:1e+308 is not finite in floating point"),
    (["--family", "sigma", "--gauge", "slow", "--box-depths", "1,2"],
     "the 8-adic row has the gauge geometric:2, not slow"),
    (["--family", "sigma"], "--family sigma needs --box-depths"),
], ids=["infinite-exponent", "sigma-gauge", "sigma-nothing"])
def test_dims_inputs_without_a_result_are_errors(capsys, argv, message):
    assert _one_line_error(capsys, ["dims"] + argv) == f"error: {message}\n"


def test_dims_huge_finite_exponent_has_bounds_0(capsys):
    code, out = _capture(capsys, ["dims", "--gauge", "geometric:1e300"])
    bounds = json.loads(out)["bounds"]
    assert code == 0
    assert (bounds["value"], bounds["lower"], bounds["upper"]) == (0, 0, 0)


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_out_path_is_an_error(capsys, tmp_path, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" \
        else tmp_path
    err = _one_line_error(capsys, ["sigma", "--depth", "1", "--out",
                                   str(out)])
    assert err.startswith(f"error: cannot write {str(out)!r}: ")
    assert not os.path.exists(f"{out}.tmp")
    assert not list(tmp_path.rglob("*.tmp"))


def test_box_depths_must_be_integers(capsys):
    assert run(["dims", "--family", "sigma", "--box-depths", "3,a"]) == 1
    err = capsys.readouterr().err
    assert err.endswith("error: argument --box-depths: expected "
                        "comma-separated integers, got '3,a'\n")


def test_level_row_cap(capsys, monkeypatch):
    # a level of more squares than the cap exits 1 before it is built
    monkeypatch.setattr(cantor, "_MAX_ROWS", 4 ** 3)
    assert _capture(capsys, ["sigma", "--depth", "3"])[0] == 0
    for argv in (["sigma", "--depth", "4"], ["curve", "--depth", "4"],
                 ["cantor", "--gauge", "sqrt", "--depth", "4"]):
        err = _one_line_error(capsys, argv)
        assert "level 4 has 4^4 squares" in err and "cap of 64 rows" in err
    # the default cap stops the default guard's deepest levels; offsets
    # that fail at once when used show that nothing was built
    monkeypatch.undo()
    for n in (12, 13, 14):
        with pytest.raises(DepthLimitError, match=f"level {n} has 4\\^{n}"):
            cantor.nest_centers([None] * n)



def test_curve_row_cap(capsys, monkeypatch):
    # the cap counts the rows before the merge: the depth-3 curve has 1136
    # of them (569 vertices), so it is written at a cap of 1136 rows and
    # exits 1 at 1135
    monkeypatch.setattr(cantor, "_MAX_ROWS", 1136)
    assert _capture(capsys, ["curve", "--depth", "3"])[0] == 0
    monkeypatch.setattr(cantor, "_MAX_ROWS", 1135)
    err = _one_line_error(capsys, ["curve", "--depth", "3"])
    assert "curve of depth 3 has 1136 rows" in err
    assert "cap of 1135 rows" in err
    # the default cap: depth 9 has 4,718,576 rows, depth 10 about four times
    # as many
    monkeypatch.undo()
    err = _one_line_error(capsys, ["curve", "--depth", "10"])
    assert "curve of depth 10 has 18874352 rows" in err

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _fresh_env(**extra):
    """The environment of a new process that imports this qcforge."""
    src = os.path.dirname(os.path.dirname(qcforge.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _fresh_run(argv, columns):
    """argv run by `python -m qcforge.cli` in a new process."""
    proc = subprocess.run([sys.executable, "-m", "qcforge.cli", *argv],
                          capture_output=True, text=True,
                          env=_fresh_env(COLUMNS=columns))
    return proc.returncode, proc.stdout, proc.stderr


def test_a_closed_stdout_exits_1_with_one_error_line():
    # the depth-6 curve's CSV is 2.24 MB, more than a pipe holds: the
    # writer is still writing when the reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcforge.cli", "curve", "--depth", "6",
         "--format", "csv"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_fresh_env())
    assert proc.stdout.readline() == b"t,x,y\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: stdout closed before the artifact ended\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    # a write fails while the artifact is written; a short one fails only
    # in the flush at exit
    ["curve", "--depth", "3", "--format", "csv"],
    ["dims", "--gauge", "slow", "--levels", "3"]])
def test_a_full_stdout_exits_1_with_one_error_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qcforge.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=_fresh_env())
    assert proc.returncode == 1
    assert proc.stderr == \
        "error: cannot write stdout: No space left on device\n"


def test_shared_parser_matches_a_fresh_process(capsys, monkeypatch):
    # a usage error first, then artifacts and a failed verdict from the
    # same parser: bytes and exit codes as in a new process each
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["nope"],
                 ["profile", "--case", "slow-to-fast", "--depth", "6"],
                 ["report", "--case", "theoremB", "--depth", "5"],
                 ["report", "--case", "slow-to-geometric:1", "--depth", "5"]):
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_run(argv, "80")
    assert code == 2


def test_help_wraps_at_the_width_of_each_call(capsys, monkeypatch):
    build_parser()
    description = ("Cantor constructions, piecewise-affine homeomorphisms, "
                   "and dilatation statistics.")
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert (description in out) == (columns == "200")
        assert (0, out, "") == _fresh_run(["--help"], columns)
