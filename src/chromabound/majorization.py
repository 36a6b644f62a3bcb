"""Majorization preorder on real vectors and the minimal scaling factor tau.

For a traceless Hermitian M with spectrum s sorted non-increasing, the
smallest tau > 0 with Spec(-M) majorized by tau * Spec(M) is the maximum
over m of (sum of the m largest) / (minus the sum of the m smallest).
That condition is homogeneous in M, so the module's one tolerance,
TAU_RTOL, is relative to the norms compared, and no caller sets it. The
trace rule of `minimal_tau` is also the package's rule for a traceless
matrix: for Hermitian M the eigenvalues sum to tr M and their 2-norm is
||M||_F, so |sum s| <= TAU_RTOL * ||s|| reads |tr M| <= TAU_RTOL * ||M||_F.
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
    if not np.all(np.isfinite(x)):
        raise ValueError("vector contains NaN or infinity")
    return -np.sort(-x)


# Prefix sums, totals, the trace and denominators within TAU_RTOL * ||vector|| count as equal.
TAU_RTOL = 1e-9


def majorizes(x, y) -> MajorizationReport:
    """Test whether x is majorized by y (prefix sums plus equal totals).

    Prefix sums and totals are compared up to TAU_RTOL * max(||x||, ||y||), which
    must be finite, so scaling both vectors by any c > 0 leaves the verdict unchanged.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    sx, sy = sort_descending(x), sort_descending(y)
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
        slack = TAU_RTOL * max(np.linalg.norm(x), np.linalg.norm(y))
    if not math.isfinite(slack):
        raise ValueError("vector norm overflows")
    # a finite 2-norm bounds every entry by 1.4e154, so no prefix sum overflows
    px, py = np.cumsum(sx), np.cumsum(sy)
    sum_gap = abs(px[-1] - py[-1])
    violated = np.flatnonzero(px[:-1] > py[:-1] + slack)
    if violated.size:
        k = violated[0]
        return MajorizationReport(False, (int(k) + 1, float(px[k]), float(py[k])), sum_gap)
    return MajorizationReport(bool(sum_gap <= slack), None, sum_gap)


class DegenerateSpectrumError(ValueError):
    """All-zero spectrum: no edges, or W vanishing on every edge."""


def minimal_tau(spec) -> float:
    """Smallest tau > 0 with reverse-negate(spec) majorized by tau * spec.

    Equals max over m = 1..n-1 of prefix-top-m / (-prefix-bottom-m). The spectrum
    must have a finite nonzero norm and sum to within TAU_RTOL * ||spec|| of zero,
    a rule that scales with it, so spec and c * spec (c > 0) give tau alike up to rounding.
    """
    s = -np.sort(-np.asarray(spec, dtype=float))
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
        scale = math.sqrt(s.dot(s))  # as np.linalg.norm(s) forms it; not finite if an entry is
    if not math.isfinite(scale):
        raise ValueError("spectrum contains NaN or infinity, or its norm overflows")
    if scale == 0.0:
        raise DegenerateSpectrumError("spectrum is identically zero")
    total = np.add.reduce(s)
    if abs(total) > TAU_RTOL * scale:
        raise ValueError(f"spectrum is not traceless (sum {total:.3e})")
    # No denominator needs a skip: with e = TAU_RTOL and |sum s| <= e ||s||, the positive and
    # the negative entries each sum to at least ||s|| (1 - e) / 2 in magnitude, so for 0 < m < n
    # -(sum of the m smallest) >= ||s|| ((1 - e) / (2n) - e), above e ||s|| for every n up to
    # 10^6 with worst-case rounding of the sums. n <= 1 fails the zero test or the trace test.
    top = np.add.accumulate(s)[:-1]
    denom = -np.add.accumulate(s[::-1])[:-1]
    return float((top / denom).max())
