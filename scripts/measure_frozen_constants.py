#!/usr/bin/env python3
"""Re-measure the pinned constants in qcforge.frozen.

Run after any change to template geometry or gauge tables, compare the
output against src/qcforge/frozen.py, and update the bands deliberately
(keep a little slack around the measured extremes).
"""

import math

import numpy as np

from qcforge.analysis import (CASES, DavidParams, check_david,
                              dilatation_profile, level_ratio)
from qcforge.cantor import frostman_profile, make_gauge
from qcforge.homeo import invert, max_dilatation_per_level
from qcforge.qcmaps import annulus_extension_any, twist_extension


def min_k0(m, depths=range(6, 13)):
    """Smallest cutoff making the (1, 1, K0) check pass at all depths."""
    need = 1.0
    for n in depths:
        prof = dilatation_profile(m.truncate(n), "domain")
        for K0 in [1.0, *prof.thresholds.tolist()]:
            if check_david(prof, DavidParams(1.0, 1.0, max(1.0, K0)))[0]:
                need = max(need, max(1.0, K0))
                break
        else:
            need = math.inf
    return need


def main():
    grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    ratios = []
    for a in grid:
        for b in grid:
            if a == b:
                continue
            k = annulus_extension_any(a, b).max_dilatation
            form = max(b * (1 - 2 * a) / (a * (1 - 2 * b)),
                       a * (1 - 2 * b) / (b * (1 - 2 * a)))
            ratios.append(k / form)
    print(f"ANNULUS_BAND measured: [{min(ratios):.4f}, {max(ratios):.4f}]")

    ka = [twist_extension(a).max_dilatation * a
          for a in np.arange(0.005, 0.2, 0.005)]
    print(f"TWIST_BAND measured:   [{min(ka):.4f}, {max(ka):.4f}]")

    # every case at its default nu: the rate bands over levels 3..14 of a
    # gauge pairing (THEOREM_A_RATE_BANDS) and 2..20 of theorem B's map
    # (THEOREM_B_RATE_BAND), DIL_RATIO_BAND over levels 1..14 of the
    # pairings, and the K0 of FROZEN_K0 per case and direction
    levels = {"lambda": range(3, 15), "sigma": range(2, 21)}
    dil_ratios = []
    for case, row in CASES.items():
        m = row.build(20, row.default)
        kl = max_dilatation_per_level(m)
        rr = [K / row.rate_of(k) for k, K in kl
              if k in levels[m.source.family]]
        if m.source.family == "lambda":
            src, dst = m.source.gauge, m.target.gauge
            dil_ratios += [K / level_ratio(src, dst, k)
                           for k, K in kl if k <= 14]
        print(f"{case}: rate band [{min(rr):.4f}, {max(rr):.4f}]"
              f"  K0 fwd {min_k0(m):.4f}  inv {min_k0(invert(m)):.4f}")
    print(f"DIL_RATIO_BAND measured: [{min(dil_ratios):.4f}, "
          f"{max(dil_ratios):.4f}]")

    prof = frostman_profile(make_gauge("geometric", 1.0), 8, 0.9,
                            samples=32, seed=12345)
    print(f"FROSTMAN_BOUND measured: {max(r for _, r in prof):.4f}")


if __name__ == "__main__":
    main()
