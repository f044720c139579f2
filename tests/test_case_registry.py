"""`analysis.CASES` is the one table of the scenario cases.

Every row is reachable from the CLI under its name and its dash form, takes
a `:nu` suffix only if it has a parameter, and has its frozen cutoffs.  A
row added to the table is a new `--case` of `profile`, `david` and `report`
with no other change.
"""

import json
import math

import pytest

from qcforge import analysis, cli
from qcforge.cantor import make_gauge
from qcforge.errors import DomainError, QCForgeError
from qcforge.frozen import FROZEN_K0
from qcforge.homeo import invert, max_dilatation_per_level, standard_homeo

DIRECTIONS = ("forward", "inverse")


def _error(capsys, argv):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def _help(capsys, cmd):
    assert cli.run([cmd, "--help"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", list(analysis.CASES))
def test_every_row_parses_under_its_names(name):
    row = analysis.CASES[name]
    for given in (name, name.replace("_", "-"), *row.aliases,
                  *(a.replace("_", "-") for a in row.aliases)):
        assert cli._parse_case(given) == (name, row.default)
        with pytest.raises(QCForgeError) as e:
            cli._parse_case(f"{given}:abc")
        assert str(e.value) == "case parameter 'abc' is not a number"
        if row.default is None:
            with pytest.raises(QCForgeError) as e:
                cli._parse_case(f"{given}:3")
            assert str(e.value) == \
                f"case {given!r} takes no parameter, got '3'"
        else:
            assert cli._parse_case(f"{given}:0.25") == (name, 0.25)


def test_frozen_k0_has_one_key_per_row_and_direction():
    assert set(FROZEN_K0) == {(name, d) for name in analysis.CASES
                              for d in DIRECTIONS}
    for name, row in analysis.CASES.items():
        assert row.K0 == {d: FROZEN_K0[(name, d)] for d in DIRECTIONS}


def test_the_case_texts_come_from_the_rows(capsys):
    choices = ("slow-to-geometric[:nu], geometric-to-fast[:nu], "
               "slow-to-fast, or theoremB")
    for cmd in ("profile", "david", "report"):
        assert _error(capsys, [cmd, "--case", "nope", "--depth", "3"]) == \
            f"error: unknown case 'nope'; choose {choices}\n"
        # argparse wraps the help, also at the dashes of a name
        assert "".join(choices.split()) in \
            "".join(_help(capsys, cmd).split())
    assert _error(capsys, ["report", "--case", "slow-to-fast",
                           "--depth", "2"]) == \
        "error: n_max must be >= 3, got 2\n"
    # a nu that the gauge refuses keeps the gauge's own text
    assert _error(capsys, ["report", "--case", "slow-to-geometric:-1",
                           "--depth", "3"]) == \
        "error: geometric gauge needs a finite nu > 0\n"


def test_the_report_wrappers_are_report():
    assert analysis.theoremA_report("slow_to_fast", 4) == \
        analysis.report("slow_to_fast", 4)
    assert analysis.theoremA_report("geometric_to_fast", 4, 0.5) == \
        analysis.report("geometric_to_fast", 4, 0.5)
    assert analysis.theoremB_report(4) == analysis.report("theoremB", 4)
    with pytest.raises(DomainError):
        analysis.report("nope", 4)


# geometric:1 -> geometric:nu, a bounded-K pairing that no built-in case
# covers, with cutoffs of its own
HALF = analysis.Case(
    lambda n, nu: standard_homeo(make_gauge("geometric", 1.0),
                                 make_gauge("geometric", nu), n),
    0.5, "1", lambda k: 1.0, {"forward": 2.0, "inverse": 3.0},
    endpoints=True)


def _run_json(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


def test_a_new_row_is_a_new_case(capsys, monkeypatch):
    monkeypatch.setitem(analysis.CASES, "geometric_to_half", HALF)
    base = ["--case", "geometric-to-half", "--depth", "6"]
    fwd = standard_homeo(make_gauge("geometric", 1.0),
                         make_gauge("geometric", 0.5), 6)

    code, rep = _run_json(capsys, ["report", *base])
    assert list(rep) == ["case", "nu", "rate", "levels", "endpoints",
                         "david"]
    assert (rep["case"], rep["nu"], rep["rate"]) == \
        ("geometric_to_half", 0.5, "1")
    Ks = max_dilatation_per_level(fwd)
    assert [(e["level"], e["K"], e["ratio"]) for e in rep["levels"]] == \
        [(k, K, K) for k, K in Ks]
    assert rep["endpoints"]["target"]["gauge"] == "geometric:0.5"
    # geometric:nu has dimension 2 / (1 + nu)
    assert rep["endpoints"]["target"]["lower"] <= 4 / 3 <= \
        rep["endpoints"]["target"]["upper"]
    for direction in DIRECTIONS:
        assert rep["david"][direction]["K0"] == HALF.K0[direction]
    assert code == (0 if all(c["passed"] for d in rep["david"].values()
                             for c in d["checks"]) else 2)

    code, rep = _run_json(capsys, ["report", "--case", "geometric-to-half:1",
                                   "--depth", "3"])
    # nu = 1 is the identity pairing: every cell has K = 1
    assert rep["nu"] == 1 and all(e["K"] == 1 for e in rep["levels"])

    for direction, m in (("forward", fwd), ("inverse", invert(fwd))):
        code, dav = _run_json(capsys, ["david", *base,
                                       "--direction", direction])
        assert dav["K0"] == HALF.K0[direction]
        prof = analysis.dilatation_profile(m)
        passed, margin = analysis.check_david(
            prof, analysis.DavidParams(1.0, 1.0, HALF.K0[direction]))
        assert (dav["passed"], code) == (passed, 0 if passed else 2)
        assert dav["margin"] == (margin if math.isfinite(margin)
                                 else str(margin))

        code, pro = _run_json(capsys, ["profile", *base,
                                       "--direction", direction])
        assert code == 0
        assert [(e["K"], e["exceedance_area"]) for e in pro["entries"]] \
            == list(zip(prof.thresholds.tolist(), prof.exceedances.tolist()))

    # the unknown-case text lists it
    choices = _error(capsys, ["report", "--case", "nope", "--depth", "3"])
    assert choices.endswith("slow-to-fast, theoremB, or "
                            "geometric-to-half[:nu]\n")
