import math
from dataclasses import dataclass

import numpy as np
import pytest

from qcforge.errors import DomainError
from qcforge.geometry import AffineMap, Point


def svd_dilatation(m: AffineMap) -> float:
    """Independent dilatation oracle: ratio of singular values of the
    linear part."""
    s = np.linalg.svd(np.array([[m.m11, m.m12], [m.m21, m.m22]]),
                      compute_uv=False)
    return float(s[0] / s[1])


def dilatation_three_point(z: Point, w: Point) -> float:
    """Dilatation of the affine map fixing 0 and 1 and sending z to w.

    Requires both points strictly in the upper half-plane; the value is
    (|z - conj(w)| + |z - w|) / (|z - conj(w)| - |z - w|).
    """
    if z.y <= 0 or w.y <= 0:
        raise DomainError("z and w must lie in the open upper half-plane")
    zc = complex(z.x, z.y)
    wc = complex(w.x, w.y)
    num = abs(zc - wc.conjugate())
    dif = abs(zc - wc)
    return (num + dif) / (num - dif)


def random_affines(count: int, seed: int = 0):
    """Seeded orientation-preserving affine maps with well-separated
    singular values."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        e = rng.uniform(-2.0, 2.0, size=6)
        m = AffineMap(*e)
        # keep the condition number moderate; near-singular matrices cost
        # both algorithms ~K^2 ulps and would only compare noise
        if m.det > 0.05:
            out.append(m)
    return out


@dataclass(frozen=True)
class TableGauge:
    """A gauge of chosen values d_0, d_1, ..., for tests that need squares
    of given sizes: the `_exponent`, -log2 d_n, and `describe` of a gauge,
    read from a table.  A level table forms its d_n as 2^-e_n, so the
    sizes it builds are the chosen ones to within an ulp or so."""

    table: tuple[float, ...]

    def _exponent(self, n: int) -> float:
        return -math.log2(self.table[n])

    def describe(self) -> str:
        return "custom"


def gauge_d(g, k: int) -> float:
    """The gauge value d_k = 2^-e_k, formed as the level table forms it."""
    return 2.0 ** -g._exponent(k)


def profile_bits(p):
    """A `DilatationProfile` as bytes and hex floats, for comparing two
    profiles bit for bit: its columns, its areas and its side."""
    return (p.thresholds.tobytes(), p.exceedances.tobytes(),
            float.hex(p.classified_area), float.hex(p.truncation_bound),
            p.side)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
