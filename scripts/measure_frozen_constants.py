#!/usr/bin/env python3
"""Re-measure the pinned constants in qcforge.frozen.

Run after any change to template geometry or gauge tables, compare the
output against src/qcforge/frozen.py, and update the bands deliberately
(keep a little slack around the measured extremes).
"""

import math

import numpy as np

from qcforge.analysis import (DavidParams, _closed_exceedances, check_david,
                              dilatation_profile, fit_david, level_ratio,
                              THEOREM_A_CASES)
from qcforge.cantor import frostman_profile, make_gauge
from qcforge.homeo import (invert, max_dilatation_per_level, standard_homeo,
                           theoremB_homeo)
from qcforge.qcmaps import annulus_extension_any, twist_extension


def min_k0(m, depths=range(6, 13)):
    """Smallest cutoff making the (1, 1, K0) check pass at all depths."""
    need = 1.0
    for n in depths:
        prof = dilatation_profile(m.truncate(n), "domain")
        for K0 in [1.0] + [k for k, _ in _closed_exceedances(prof)]:
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

    dil_ratios = []
    for case, (gauges, _, rate) in THEOREM_A_CASES.items():
        src, dst = gauges(1.0)
        m = standard_homeo(src, dst, 14)
        kl = max_dilatation_per_level(m)
        rr = [K / rate(k) for k, K in kl if 3 <= k <= 14]
        dil_ratios += [K / level_ratio(src, dst, k) for k, K in kl]
        print(f"{case}: rate band [{min(rr):.4f}, {max(rr):.4f}]"
              f"  K0 fwd {min_k0(m):.4f}  inv {min_k0(invert(m)):.4f}")
    print(f"DIL_RATIO_BAND measured: [{min(dil_ratios):.4f}, "
          f"{max(dil_ratios):.4f}]")

    tb = theoremB_homeo(20)
    rr = [K / math.sqrt(k)
          for k, K in max_dilatation_per_level(tb) if 2 <= k <= 20]
    print(f"THEOREM_B_RATE_BAND measured: [{min(rr):.4f}, {max(rr):.4f}]"
          f"  K0 fwd {min_k0(tb):.4f}  inv {min_k0(invert(tb)):.4f}")

    m = standard_homeo(make_gauge("slow"), make_gauge("geometric", 1.0), 12)
    fit = fit_david(dilatation_profile(m, "domain"))
    print(f"case-1 depth-12 fit: alpha={fit.alpha:.4f} C={fit.C:.4f} "
          f"K0={fit.K0:.4f}")

    prof = frostman_profile(make_gauge("geometric", 1.0), 8, 0.9,
                            samples=32, seed=12345)
    print(f"FROSTMAN_BOUND measured: {max(r for _, r in prof):.4f}")


if __name__ == "__main__":
    main()
