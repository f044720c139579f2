#!/usr/bin/env python3
"""Write the scenario reports and the midline curve as JSON/CSV files, one
`qcforge report` per case of `qcforge.analysis.CASES` and one
`qcforge curve`.

Usage: python3 scripts/theorem_reports.py [outdir]   (default: ./reports)

A report whose David verdict fails (exit code 2) is still written; the
script stops only on exit code 1, an input error.
"""

import os
import sys

from qcforge import analysis, cli

# (file name, CLI arguments): one report per case of `analysis.CASES`
RUNS = ([(f"{case}.json", ("report", "--case", case, "--depth", "12"))
         for case in analysis.CASES]
        + [("curve_depth6.csv", ("curve", "--depth", "6", "--format", "csv"))])


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "reports"
    os.makedirs(outdir, exist_ok=True)
    for name, argv in RUNS:
        rc = cli.run([*argv, "--out", os.path.join(outdir, name)])
        if rc == 1:
            sys.exit(f"{' '.join(argv)}: exit code 1")
        print(f"wrote {name} (exit code {rc})")


if __name__ == "__main__":
    main()
