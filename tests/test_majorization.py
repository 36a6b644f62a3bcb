import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import linalg
from chromabound.graphs import adjacency_matrix, complete, cycle, petersen
from chromabound.majorization import (
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
        # prefix sums of x: 1, 2, 0; of y: 3.8, 1.9, 0 -> fails at m = 2
        report = majorizes([1, 1, -2], [3.8, -1.9, -1.9])
        assert not report.holds
        assert report.first_violation[0] == 2
        assert report.first_violation[1] == pytest.approx(2.0)
        assert report.first_violation[2] == pytest.approx(1.9)

    def test_reflexive(self):
        assert majorizes([3, 1, -4], [3, 1, -4]).holds

    def test_sum_mismatch(self):
        report = majorizes([1, 0], [1, 1])
        assert not report.holds
        assert report.sum_gap == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            majorizes([1], [1, 2])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_any_vector_majorized_by_own_sort(self, xs):
        assert majorizes(xs, xs, tol=1e-9).holds


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
            assert majorizes(reverse_negate, tau * spec, tol=1e-8).holds
            assert not majorizes(reverse_negate, (tau - 1e-5) * spec, tol=1e-9).holds

    def test_zero_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            minimal_tau([0.0, 0.0, 0.0])

    def test_non_traceless_rejected(self):
        with pytest.raises(ValueError, match="traceless"):
            minimal_tau([1.0, 1.0])
