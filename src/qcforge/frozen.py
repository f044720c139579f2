"""Measured regression constants.

These are implementation-specific bands and thresholds, measured once with
``scripts/measure_frozen_constants.py`` and then pinned.  They encode how
*this* code behaves (template geometry, gauge tables, seeds), not published
values; regenerate them only after deliberate geometry changes.
"""

# K(a, b) divided by the modulus-ratio form b(1-2a) / (a(1-2b)),
# over the validation grid of annulus parameters.  Measured [1.178, 1.976].
ANNULUS_BAND = (1.1, 2.1)

# K(a) * a for the two-hole twist template over a in [0.005, 0.199].
# Measured [26.0, 30.3].
TWIST_BAND = (25.0, 31.0)

# Per-level K divided by the explicit modulus mismatch
# max{a'_k d_k / (a_k d'_k), a_k d'_k / (a'_k d_k)}, all standard gauge
# pairings, levels 1..14.  Measured within [1.05, 1.97].
DIL_RATIO_BAND = (1.0, 2.0)

# K_k divided by the scenario growth rate, levels 3..14 (forward and
# inverse agree exactly).  Measured: [3.319, 3.820], [1.983, 3.286],
# [6.285, 7.008].
THEOREM_A_RATE_BANDS = {
    "slow_to_geometric": (3.2, 3.95),  # rate log k
    "geometric_to_fast": (1.9, 3.4),   # rate k^log 2
    "slow_to_fast": (6.1, 7.2),        # rate k^log 2 * log k
}

# K_k / sqrt(k) for the twist construction, levels 2..20.
# Measured [325.39, 353.62].
THEOREM_B_RATE_BAND = (320.0, 360.0)

# Smallest dilatation cutoffs making the (C, alpha) = (1, 1) exceedance
# check pass at every depth 6..12, rounded up.  At desk depths several of
# these sit above the largest attained threshold, so the corresponding
# checks are vacuously true: the exceedance areas still shrink with depth,
# but not yet below e^{-K}.  Measured minima: 8.33 / 4.20, 17.94 / 1.97,
# 97.41 / 97.41, 1222.53 / 1222.53.
FROZEN_K0 = {
    ("slow_to_geometric", "forward"): 8.5,
    ("slow_to_geometric", "inverse"): 4.5,
    ("geometric_to_fast", "forward"): 18.0,
    ("geometric_to_fast", "inverse"): 2.5,
    ("slow_to_fast", "forward"): 98.0,
    ("slow_to_fast", "inverse"): 98.0,
    ("theoremB", "forward"): 1223.0,
    ("theoremB", "inverse"): 1223.0,
}

# Max Frostman ratio mu(D(x, eps)) / eps^s for geometric(1) at level 8
# with s = 0.9 (0.1 below the dimension), seed 12345.  Measured 1.22.
FROSTMAN_BOUND = 1.5
