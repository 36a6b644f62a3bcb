import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import linalg
from chromabound.graphs import adjacency_matrix, complete, cycle, petersen
from chromabound.majorization import (
    TAU_RTOL,
    DegenerateSpectrumError,
    majorizes,
    minimal_tau,
    sort_descending,
)


def brute_force_tau(spec):
    """Independent oracle: enumerate every prefix-sum ratio directly."""
    s = sorted(spec, reverse=True)
    n = len(s)
    ratios = []
    for m in range(1, n):
        num = sum(s[:m])
        den = -sum(sorted(spec)[:m])
        if den > 1e-12:
            ratios.append(num / den)
    return max(ratios)


def loop_tau(spec, tol=1e-9):
    """Reference: the per-m loop minimal_tau replaced, with its relative skip rule."""
    s = sort_descending(spec)
    scale = float(np.linalg.norm(s))
    top = np.cumsum(s)
    bottom = np.cumsum(s[::-1])
    best = None
    for m in range(1, len(s)):
        denom = -bottom[m - 1]
        if denom < tol * scale:
            continue
        ratio = top[m - 1] / denom
        if best is None or ratio > best:
            best = ratio
    return float(best)


class TestSortDescending:
    def test_basic(self):
        assert list(sort_descending([1, 3, 2])) == [3, 2, 1]

    def test_singleton(self):
        assert list(sort_descending([5])) == [5]

    def test_constant(self):
        assert list(sort_descending([2, 2, 2])) == [2, 2, 2]

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            sort_descending([1.0, float("nan")])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_is_sorted_permutation(self, xs):
        out = sort_descending(xs)
        assert np.all(np.diff(out) <= 0)
        assert sorted(out) == sorted(xs)


class TestMajorizes:
    def test_nested(self):
        assert majorizes([1, 0, -1], [2, 0, -2]).holds

    def test_violation_at_m2(self):
        # prefix sums of x: 1, 2, 0; of y: 3.8, 1.9, 0 -> fails at m = 2, at any scale
        for scale in (1.0, 1e-12):
            report = majorizes(scale * np.array([1, 1, -2]), scale * np.array([3.8, -1.9, -1.9]))
            assert not report.holds
            assert report.first_violation[0] == 2
            assert report.first_violation[1] == pytest.approx(2.0 * scale)
            assert report.first_violation[2] == pytest.approx(1.9 * scale)

    def test_reflexive(self):
        assert majorizes([3, 1, -4], [3, 1, -4]).holds

    def test_sum_mismatch(self):
        report = majorizes([1, 0], [1, 1])
        assert not report.holds
        assert report.sum_gap == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            majorizes([1], [1, 2])

    def test_infinite_entry_rejected(self):
        """[inf, 0] would otherwise be majorized by [1, 0]."""
        for x, y in (([np.inf, 0.0], [1.0, 0.0]), ([1.0, 0.0], [1.0, -np.inf])):
            with pytest.raises(ValueError, match="infinity"):
                majorizes(x, y)

    def test_norm_overflow_rejected(self):
        """Refused with the ValueError, not a RuntimeWarning from the norm."""
        with pytest.raises(ValueError, match="overflows"):
            majorizes([1e200, -1e200], [1.0, -1.0])

    def test_prefix_sum_overflow_rejected(self):
        """Vectors whose prefix sums would overflow are refused by the norm test first."""
        with pytest.raises(ValueError, match="overflows"):
            majorizes([1e308, 1e308, 0.0], [1e308, 1e308, 0.0])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_any_vector_majorized_by_own_sort(self, xs):
        assert majorizes(xs, xs).holds


class TestMinimalTau:
    def test_symmetric_pair(self):
        assert minimal_tau([1, -1]) == pytest.approx(1.0)

    def test_k3_spectrum(self):
        # ratios: m=1 -> 2/1, m=2 -> 1/2
        assert minimal_tau([2, -1, -1]) == pytest.approx(2.0)

    def test_petersen_spectrum(self):
        spec = [3] + [1] * 5 + [-2] * 4
        assert minimal_tau(spec) == pytest.approx(1.5)
        assert minimal_tau(spec) == pytest.approx(brute_force_tau(spec))

    def test_matches_brute_force_on_random_traceless(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            s = rng.standard_normal(n)
            s -= s.mean()
            if np.linalg.norm(s) < 1e-6:
                continue
            assert minimal_tau(s) == pytest.approx(brute_force_tau(s), rel=1e-9)

    def test_equals_loop_reference(self, corpus):
        """Same floats, same skip rule: bit-identical to the loop."""
        spectra = [linalg.spectrum(adjacency_matrix(g)) for _name, g in corpus if g.num_edges]
        for seed in range(50):
            rng = np.random.default_rng(seed)
            s = rng.standard_normal(int(rng.integers(2, 24)))
            spectra.append(s - s.mean())
        for s in spectra:
            assert minimal_tau(s) == loop_tau(s)

    def test_scale_invariance(self):
        spec = [3, 1, 1, -2, -3]
        base = minimal_tau(spec)
        for c in (1e-12, 0.1, 2.0, 1e4):
            assert minimal_tau(np.asarray(spec) * c) == pytest.approx(base, rel=1e-12)

    def test_at_least_hoffman_ratio(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            s = rng.standard_normal(8)
            s -= s.mean()
            assert minimal_tau(s) >= s.max() / abs(s.min()) - 1e-12

    def test_symmetric_spectrum_gives_one(self):
        # bipartite adjacency spectra are symmetric about zero
        for g in (cycle(4), cycle(6), complete(2)):
            spec = linalg.spectrum(adjacency_matrix(g))
            assert minimal_tau(spec) == pytest.approx(1.0, abs=1e-9)

    def test_consistency_with_majorizes(self):
        for g in (complete(3), complete(5), petersen(), cycle(7)):
            spec = linalg.spectrum(adjacency_matrix(g))
            tau = minimal_tau(spec)
            reverse_negate = -spec[::-1]
            assert majorizes(reverse_negate, tau * spec).holds
            assert not majorizes(reverse_negate, (tau - 1e-5) * spec).holds

    def test_zero_spectrum_rejected(self):
        for spec in ([0.0, 0.0, 0.0], [], [0.0]):
            with pytest.raises(DegenerateSpectrumError):
                minimal_tau(spec)

    def test_non_traceless_rejected(self):
        for spec in ([1.0, 1.0], [1.0]):
            with pytest.raises(ValueError, match="traceless"):
                minimal_tau(spec)

    @pytest.mark.parametrize(
        "spec",
        [[np.inf, -np.inf], [np.inf, 0.0, -1.0], [np.nan, 0.0], [1e308, 1e308, -1e308, -1e308]],
    )
    def test_non_finite_norm_rejected(self, spec):
        """An infinity, a NaN or a norm that overflows is refused before any division."""
        with pytest.raises(ValueError, match="NaN or infinity"):
            minimal_tau(spec)


def _traceless_shapes(rng, n):
    """Traceless vectors of length n, each centred: Gaussian, one large positive entry
    against n - 1 equal negatives and the reverse, signed exponentials, and half 1e-12
    entries with half unit entries."""
    spike = np.full(n, -1.0)
    spike[0] = n - 1.0
    half = np.where(np.arange(n) < n // 2, 1e-12, 1.0)
    signed = rng.choice([-1.0, 1.0], n) * rng.exponential(size=n)
    for s in (rng.standard_normal(n), spike, -spike, signed, half):
        yield s - s.mean()


@pytest.mark.parametrize("n", [2, 3, 5, 24, 257, 2048])
def test_denominators_stay_above_the_skip_threshold(n):
    """The bound that lets minimal_tau divide without a skip: for a traceless s, every
    denominator -(sum of the m smallest), 0 < m < n, is at least ||s|| ((1 - e) / (2n) - e)
    with e = TAU_RTOL, which exceeds e ||s||."""
    eps = TAU_RTOL
    rng = np.random.default_rng(n)
    for c in (1e-100, 1e-10, 1.0, 1e10, 1e100):
        for s in _traceless_shapes(rng, n):
            s = -np.sort(-c * s)
            scale = np.linalg.norm(s)
            assert abs(s.sum()) <= eps * scale
            denom = -np.add.accumulate(s[::-1])[:-1]
            floor = scale * ((1.0 - eps) / (2 * n) - eps)
            assert floor > eps * scale
            assert denom.min() >= floor, (n, c)
            assert 0.0 < minimal_tau(s) < math.inf
