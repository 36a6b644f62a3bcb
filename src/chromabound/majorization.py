"""Majorization preorder on real vectors and the minimal scaling factor tau.

For a traceless Hermitian M with spectrum s sorted non-increasing, the
smallest tau > 0 with Spec(-M) majorized by tau * Spec(M) is the maximum
over m of (sum of the m largest) / (minus the sum of the m smallest).
That condition is homogeneous in M, so its one tolerance, TAU_RTOL, is
relative to the norm of the spectrum and no caller sets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class MajorizationReport:
    """Outcome of a majorization test x ~< y."""

    holds: bool
    first_violation: Optional[Tuple[int, float, float]]  # (m, prefix_x, prefix_y)
    sum_gap: float


def sort_descending(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise ValueError("vector contains NaN")
    return -np.sort(-x)


def majorizes(x, y, tol=1e-9) -> MajorizationReport:
    """Test whether x is majorized by y (prefix sums plus equal totals)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    px = np.cumsum(sort_descending(x))
    py = np.cumsum(sort_descending(y))
    n = len(px)
    sum_gap = abs(px[-1] - py[-1])
    for m in range(1, n):
        if px[m - 1] > py[m - 1] + tol:
            return MajorizationReport(False, (m, float(px[m - 1]), float(py[m - 1])), sum_gap)
    if sum_gap > tol:
        return MajorizationReport(False, None, sum_gap)
    return MajorizationReport(True, None, sum_gap)


class DegenerateSpectrumError(ValueError):
    """All-zero spectrum: no edges, or W vanishing on every edge."""


# Trace and denominators below TAU_RTOL * ||spec|| count as zero.
TAU_RTOL = 1e-9


def minimal_tau(spec) -> float:
    """Smallest tau > 0 with reverse-negate(spec) majorized by tau * spec.

    Equals max over m = 1..n-1 of prefix-top-m / (-prefix-bottom-m);
    denominators below TAU_RTOL * ||spec|| are skipped, and the spectrum
    must sum to within that of zero. Both rules scale with the spectrum,
    so scaling spec by any c > 0 leaves tau unchanged up to rounding.
    """
    s = sort_descending(spec)
    n = len(s)
    scale = float(np.linalg.norm(s))
    if scale == 0.0:
        raise DegenerateSpectrumError("spectrum is identically zero")
    if abs(s.sum()) > TAU_RTOL * scale:
        raise ValueError(f"spectrum is not traceless (sum {s.sum():.3e})")
    if n < 2:
        raise ValueError("need at least a 2-dimensional spectrum")
    top = np.cumsum(s)[:-1]
    denom = -np.cumsum(s[::-1])[:-1]
    keep = ~(denom < TAU_RTOL * scale)
    if not keep.any():
        raise DegenerateSpectrumError("all denominators vanish; spectrum has no negative mass")
    return float(np.max(top[keep] / denom[keep]))
