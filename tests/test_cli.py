import json

from qcforge.cli import run


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


def test_profile_csv(capsys):
    code, out = _capture(capsys, ["profile", "--case", "slow-to-fast",
                                  "--depth", "6", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "K,exceedance_area,bound_C_alpha,truncation"
    assert len(lines) > 3


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


def test_instance_count_overflow_is_a_depth_error(capsys):
    # level 513 of theorem B has 4^512 instances per template, more than a
    # float holds; the standard maps reach 4^512 at level 512
    err = _one_line_error(capsys, ["profile", "--case", "theoremB",
                                   "--depth", "600"])
    assert "level 513" in err
    err = _one_line_error(capsys, ["report", "--case", "slow-to-geometric:1",
                                   "--depth", "600"])
    assert "level 512" in err
    code, _ = _capture(capsys, ["profile", "--case", "theoremB",
                                "--depth", "512"])
    assert code == 0


def test_frostman_needs_a_sample(capsys):
    for samples in ("-1", "0"):
        err = _one_line_error(capsys, ["dims", "--gauge", "geometric:1",
                                       "--frostman-s", "0.5",
                                       "--samples", samples])
        assert "samples" in err


def test_case_parameter_must_be_a_number(capsys):
    for argv in (["profile", "--case", "slow-to-geometric:abc"],
                 ["david", "--case", "slow-to-fast:x"],
                 ["report", "--case", "geometric-to-fast:1,5"]):
        err = _one_line_error(capsys, argv + ["--depth", "3"])
        assert "is not a number" in err


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
