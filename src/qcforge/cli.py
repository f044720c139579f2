"""Command-line front end.

Every subcommand writes a deterministic JSON or CSV artifact (stdout by
default, `--out` for a file).  Exit codes: 0 on success, 2 when a verdict
subcommand fails its check, 1 on usage errors and an unwritable stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import analysis, cantor, export, homeo, qcmaps
from .errors import QCForgeError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; reserve 2 for failed verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _parse_gauge(text: str) -> cantor.GaugeSequence:
    # argparse shows the text of an ArgumentTypeError, but replaces that of
    # any other error raised here by "invalid <function name> value"
    kind, _, param = text.partition(":")
    try:
        nu = float(param) if param else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"gauge parameter {param!r} is not a number") from None
    try:
        return cantor.make_gauge(kind, nu)
    except QCForgeError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_depths(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _case_choices() -> str:
    """The `--case` names of `analysis.CASES`, '[:nu]' marking a parameter."""
    names = [name.replace("_", "-") + ("" if c.default is None else "[:nu]")
             for name, c in analysis.CASES.items()]
    return ", ".join(names[:-1]) + ", or " + names[-1]


def _parse_case(text: str) -> tuple[str, float | None]:
    """`--case` text as (a name of `analysis.CASES`, its nu): the given
    parameter, else the case's default (None for a case that takes none)."""
    given, colon, param = text.partition(":")
    key = given.replace("-", "_")
    name = next((n for n, c in analysis.CASES.items()
                 if key == n or key in c.aliases), None)
    if name is None:
        raise QCForgeError(f"unknown case {text!r}; choose {_case_choices()}")
    case = analysis.CASES[name]
    try:
        nu = float(param) if colon else case.default
    except ValueError:
        raise QCForgeError(f"case parameter {param!r} is not a number") \
            from None
    if colon and case.default is None:
        raise QCForgeError(f"case {given!r} takes no parameter, got {param!r}")
    return name, nu


def _case_map(args) -> tuple[str, homeo.HierarchicalMap]:
    """The case of `--case` and its map at `--depth` in `--direction`."""
    case, nu = _parse_case(args.case)
    m = analysis.CASES[case].build(args.depth, nu)
    return case, homeo.invert(m) if args.direction == "inverse" else m


def _emit(parts, out: str | None):
    """Write an artifact's text parts in order to `out`, or to stdout."""
    if out:
        try:
            export.write_parts(out, parts)
        except OSError as e:
            raise QCForgeError(f"cannot write {out!r}: {e.strerror or e}")
    else:
        sys.stdout.writelines(parts)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later `run`
    in the process.  Parsing does not change it, and the error and help
    output read `sys.stderr` and the terminal width when they are written.
    """
    p = _Parser(prog="qcforge",
                description="Cantor constructions, piecewise-affine "
                            "homeomorphisms, and dilatation statistics.")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def add(name, help_, runner, csv=False, case=False):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(runner=runner)
        sp.add_argument("--out", help="output path (default: stdout)")
        if csv:
            sp.add_argument("--format", choices=("json", "csv"),
                            default="json")
        if case:
            sp.add_argument("--case", required=True,
                            help=f"the scenario: {_case_choices()}")
            sp.add_argument("--depth", required=True, type=int)
        return sp

    sp = add("cantor", "materialize one level of a square-nest construction",
             _run_cantor, csv=True)
    sp.add_argument("--gauge", required=True, type=_parse_gauge)
    sp.add_argument("--depth", required=True, type=int)

    sp = add("sigma", "materialize one level of the linear 8-adic set",
             _run_cantor, csv=True)
    sp.add_argument("--depth", required=True, type=int)

    sp = add("dims", "dimension bounds, box counting, and Frostman ratios",
             _run_dims)
    sp.add_argument("--gauge", type=_parse_gauge)
    sp.add_argument("--family", choices=("lambda", "sigma"), default="lambda")
    # these four default to None: `_run_dims` fills in `_DIMS_DEFAULTS`
    sp.add_argument("--levels", type=int)
    sp.add_argument("--box-depths", type=_parse_depths)
    sp.add_argument("--frostman-s", type=float)
    sp.add_argument("--frostman-level", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)

    sp = add("annulus", "concentric-annulus extension template", _run_template)
    sp.add_argument("--a", required=True, type=float)
    sp.add_argument("--b", required=True, type=float)

    sp = add("twist", "two-hole twist extension template", _run_template)
    sp.add_argument("--a", required=True, type=float)

    sp = add("homeo", "hierarchical map summary", _run_homeo)
    sp.add_argument("--src", type=_parse_gauge)
    sp.add_argument("--dst", type=_parse_gauge)
    sp.add_argument("--depth", required=True, type=int)
    sp.add_argument("--theorem-b", action="store_true")

    sp = add("profile", "dilatation exceedance profile", _run_profile,
             csv=True, case=True)
    sp.add_argument("--side", choices=("domain", "image"), default="domain")
    sp.add_argument("--direction", choices=("forward", "inverse"),
                    default="forward")

    sp = add("david", "exponential exceedance-decay verdict", _run_david,
             case=True)
    sp.add_argument("--direction", choices=("forward", "inverse"),
                    default="forward")
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--K0", type=float, help="override the frozen cutoff")

    sp = add("curve", "image polyline of the horizontal midline", _run_curve,
             csv=True)
    sp.add_argument("--depth", required=True, type=int)

    add("report", "scenario report: rates, exceedance checks, bounds",
        _run_report, case=True)

    return p


def _run_cantor(args) -> int:
    if args.cmd == "sigma":
        level = cantor.build_sigma_level(args.depth)
    else:
        level = cantor.build_level(args.gauge, args.depth)
    if args.format == "csv":
        parts = export.csv_parts(("cx", "cy"), tuple(level.centers.T))
    else:
        parts = export.json_parts(level.to_json_obj())
    _emit(parts, args.out)
    return 0


# `dims` options that are None where not given, and their defaults
_DIMS_DEFAULTS = {"frostman_level": 8, "samples": 32, "seed": 0,
                  "levels": 50}


def _run_dims(args) -> int:
    # an option that would change nothing is a usage error
    given = [f"--{name.replace('_', '-')}" for name in _DIMS_DEFAULTS
             if name != "levels" and getattr(args, name) is not None]
    if given and args.frostman_s is None:
        raise QCForgeError(f"{', '.join(given)} given without --frostman-s")
    if args.family == "sigma" and args.levels is not None:
        raise QCForgeError("--levels does not apply to --family sigma")
    for name, default in _DIMS_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    obj = {}
    if args.family == "lambda":
        if args.gauge is None:
            raise QCForgeError("--gauge is required for the square family")
        est = cantor.dimension_bounds(args.gauge, args.levels)
        obj["bounds"] = est.to_json_obj()
    elif not args.box_depths and args.frostman_s is None:
        raise QCForgeError("--family sigma needs --box-depths")
    if args.box_depths:
        est = cantor.box_dimension(cantor.Construction(args.family,
                                                       args.gauge),
                                   args.box_depths)
        obj["box"] = est.to_json_obj()
    if args.frostman_s is not None:
        if args.family != "lambda":
            raise QCForgeError("Frostman ratios need the square family")
        prof = cantor.frostman_profile(args.gauge, args.frostman_level,
                                       args.frostman_s, args.samples,
                                       args.seed)
        obj["frostman"] = {
            "s": args.frostman_s,
            "level": args.frostman_level,
            "seed": args.seed,
            "max_ratio": max(r for _, r in prof),
            "ratios": [{"eps": e, "ratio": r} for e, r in prof],
        }
    _emit(export.json_parts(obj), args.out)
    return 0


def _run_template(args) -> int:
    # one-level stacks; an input they refuse gets the scalar builder's error
    if args.cmd == "annulus":
        pmap = qcmaps.annulus_templates([args.a], [args.b]).template(0, 0)
        target = 1.0 - (1.0 - 2.0 * args.b) ** 2
    else:
        pmap = qcmaps.twist_templates([args.a]).template(0, 0)
        target = 0.5 - 2.0 * (0.5 - 2.0 * args.a) ** 2
    report = qcmaps.validate(pmap, target_area=target)
    obj = pmap.to_json_obj()
    obj["max_K"] = pmap.max_dilatation
    obj["valid"] = report.ok
    _emit(export.json_parts(obj), args.out)
    return 0 if report.ok else 2


def _run_homeo(args) -> int:
    if args.theorem_b:
        if args.src is not None or args.dst is not None:
            raise QCForgeError("--src and --dst do not apply to --theorem-b")
        m = homeo.theoremB_homeo(args.depth)
    else:
        if args.src is None or args.dst is None:
            raise QCForgeError("--src and --dst are required without "
                               "--theorem-b")
        m = homeo.standard_homeo(args.src, args.dst, args.depth)
    _emit(export.json_parts(m.summary_json_obj()), args.out)
    return 0


def _run_profile(args) -> int:
    _, m = _case_map(args)
    prof = analysis.dilatation_profile(m, args.side)
    # the bound column C e^(-alpha K) does not read K0
    params = analysis.DavidParams(1.0, 1.0, 1.0)
    if args.format == "csv":
        parts = export.profile_csv_parts(prof, params)
    else:
        ks = prof.thresholds
        parts = export.json_parts({
            "side": prof.side,
            "classified_area": prof.classified_area,
            "truncation_bound": prof.truncation_bound,
            "entries": export.Columns(
                (ks, prof.exceedances, params.bounds(ks)),
                ("K", "exceedance_area", "bound")),
        })
    _emit(parts, args.out)
    return 0


def _run_david(args) -> int:
    case, m = _case_map(args)
    k0 = args.K0 if args.K0 is not None \
        else analysis.CASES[case].K0[args.direction]
    params = analysis.DavidParams(args.C, args.alpha, k0)
    prof = analysis.dilatation_profile(m, "domain")
    passed, margin = analysis.check_david(prof, params)
    _emit(export.json_parts({
        "case": case,
        "direction": args.direction,
        "depth": args.depth,
        "C": params.C,
        "alpha": params.alpha,
        "K0": params.K0,
        "passed": passed,
        "margin": margin,
    }), args.out)
    return 0 if passed else 2


def _run_curve(args) -> int:
    m = homeo.theoremB_homeo(args.depth)
    pl = homeo.curve_polyline(m)
    if args.format == "json":
        parts = export.json_parts({
            "depth": args.depth,
            "vertices": export.Columns((pl.params, *pl.vertices.T),
                                       ("t", "x", "y")),
        })
    else:
        parts = export.polyline_csv_parts(pl)
    _emit(parts, args.out)
    return 0


def _run_report(args) -> int:
    case, nu = _parse_case(args.case)
    obj = analysis.report(case, args.depth, nu)
    _emit(export.json_parts(obj), args.out)
    ok = all(c["passed"]
             for d in obj["david"].values() for c in d["checks"])
    return 0 if ok else 2


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.runner(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except QCForgeError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def main():  # console-script entry point
    try:
        code = run()
        sys.stdout.flush()
    except OSError as e:  # stdout closed or full: its exit flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("error: stdout closed before the artifact ended\n"
                         if isinstance(e, BrokenPipeError) else
                         f"error: cannot write stdout: {e.strerror or e}\n")
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
