"""Majorization preorder on real vectors and the minimal scaling factor tau.

For a traceless Hermitian M with spectrum s sorted non-increasing, the
smallest tau > 0 with Spec(-M) majorized by tau * Spec(M) is the maximum
over m of (sum of the m largest) / (minus the sum of the m smallest).
That condition is homogeneous in M, so its one tolerance, TAU_RTOL, is
relative to the norm of the spectrum and no caller sets it. Its trace
rule is also the package's rule for a traceless matrix: for Hermitian M
the eigenvalues sum to tr M and their 2-norm is ||M||_F, so
|sum s| <= TAU_RTOL * ||s|| reads |tr M| <= TAU_RTOL * ||M||_F.
"""

from __future__ import annotations

import math
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
    """Test whether x is majorized by y (prefix sums plus equal totals).

    Prefix sums and totals are compared up to tol * max(||x||, ||y||), so
    scaling both vectors by any c > 0 leaves the verdict unchanged.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    px = np.cumsum(sort_descending(x))
    py = np.cumsum(sort_descending(y))
    slack = tol * max(np.linalg.norm(x), np.linalg.norm(y))
    sum_gap = abs(px[-1] - py[-1])
    violated = np.flatnonzero(px[:-1] > py[:-1] + slack)
    if violated.size:
        k = violated[0]
        return MajorizationReport(False, (int(k) + 1, float(px[k]), float(py[k])), sum_gap)
    if sum_gap > slack:
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
    s = -np.sort(-np.asarray(spec, dtype=float))
    n = len(s)
    scale = math.sqrt(s.dot(s))  # as np.linalg.norm(s) forms it; NaN if any entry is
    if scale != scale:
        raise ValueError("vector contains NaN")
    if scale == 0.0:
        raise DegenerateSpectrumError("spectrum is identically zero")
    total = np.add.reduce(s)
    if abs(total) > TAU_RTOL * scale:
        raise ValueError(f"spectrum is not traceless (sum {total:.3e})")
    if n < 2:
        raise ValueError("need at least a 2-dimensional spectrum")
    top = np.add.accumulate(s)[:-1]
    denom = -np.add.accumulate(s[::-1])[:-1]
    drop = denom < TAU_RTOL * scale
    if drop.any():  # the fancy index only where a denominator is skipped
        if drop.all():
            raise DegenerateSpectrumError("all denominators vanish; spectrum has no negative mass")
        keep = ~drop
        top, denom = top[keep], denom[keep]
    return float((top / denom).max())
