import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import linalg
from chromabound.graphs import adjacency_matrix, complete, cycle, petersen
from chromabound.majorization import majorizes


class TestSpectrum:
    def test_k3(self):
        # closed form: A(K3) = J - I on 3 vertices, spectrum (2, -1, -1)
        assert linalg.spectrum(adjacency_matrix(complete(3))) == pytest.approx([2, -1, -1], abs=1e-10)

    def test_c4_circulant(self):
        # circulant eigenvalues 2 cos(2 pi k / 4)
        expected = sorted((2 * math.cos(2 * math.pi * k / 4) for k in range(4)), reverse=True)
        assert linalg.spectrum(adjacency_matrix(cycle(4))) == pytest.approx(expected, abs=1e-10)

    def test_c5_closed_form(self):
        expected = sorted((2 * math.cos(2 * math.pi * k / 5) for k in range(5)), reverse=True)
        assert linalg.spectrum(adjacency_matrix(cycle(5))) == pytest.approx(expected, abs=1e-10)

    def test_petersen_strongly_regular(self):
        got = linalg.spectrum(adjacency_matrix(petersen()))
        assert got == pytest.approx([3] + [1] * 5 + [-2] * 4, abs=1e-9)

    def test_min_eigenvalue(self):
        assert linalg.spectrum(adjacency_matrix(complete(2)))[-1] == pytest.approx(-1, abs=1e-12)
        assert linalg.spectrum(np.eye(3))[-1] == pytest.approx(1, abs=1e-12)
        assert linalg.spectrum(np.zeros((3, 3)))[-1] == 0.0

    def test_sorted_nonincreasing(self):
        w = linalg.spectrum(linalg.random_hermitian(12, 3))
        assert np.all(np.diff(w) <= 1e-12)

    def test_trace_matches_sum(self):
        for seed in range(10):
            h = linalg.random_hermitian(9, seed)
            w = linalg.spectrum(h)
            assert abs(w.sum() - np.trace(h).real) <= 1e-9 * 9 * np.linalg.norm(h)

    def test_residuals_real_and_complex(self):
        for seed in range(20):
            for complex_entries in (False, True):
                h = linalg.random_hermitian(2 + seed % 14, 100 + seed, complex_entries)
                w, v = linalg.eigh(h)
                res = linalg.eigen_residuals(h, w, v)
                assert res.max() <= 1e-9 * np.linalg.norm(h)

    def test_scaling(self):
        h = linalg.random_hermitian(7, 11)
        assert linalg.spectrum(3.5 * h) == pytest.approx(3.5 * linalg.spectrum(h), abs=1e-9)

    def test_negation_reverses(self):
        # mu_i = lambda_{n+1-i}
        h = linalg.random_hermitian(8, 12)
        w = linalg.spectrum(h)
        assert linalg.spectrum(-h) == pytest.approx(-w[::-1], abs=1e-9)

    def test_non_finite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.spectrum(m)

    def test_norm_overflow_rejected(self):
        """Both warned "overflow encountered"; the second's norm is finite, its deviation not."""
        for m, message in (([[0.0, 1e308], [1e308, 0.0]], "norm overflows"),
                           ([[0.0, 9e153], [-9e153, 0.0]], "not Hermitian")):
            with pytest.raises(ValueError, match=message):
                linalg.spectrum(np.array(m))

    def test_non_symmetric_rejected(self):
        # LAPACK reads one triangle only, so the deviation check is the sole guard;
        # it is relative to ||M||_F, so it holds at small scale too
        triangular = np.array([[0.0, 1.0], [0.0, 0.0]])
        for m in (triangular, 1e-12 * triangular, np.array([[0.0, 1j], [1j, 0.0]])):
            with pytest.raises(ValueError, match="not Hermitian"):
                linalg.spectrum(m)
            with pytest.raises(ValueError, match="not Hermitian"):
                linalg.eigh(m)


class TestEigensolve:
    """The one solver entry: numpy.linalg's gufuncs without their Python wrapper."""

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 10, 23, 47])
    def test_bit_identical_to_numpy(self, n, complex_entries):
        h = linalg.random_hermitian(n, 100 + n, complex_entries)
        w = linalg.eigensolve(h)
        assert w.dtype == np.float64 and np.array_equal(w, np.linalg.eigvalsh(h))
        w, v = linalg.eigensolve(h, vectors=True)
        w_ref, v_ref = np.linalg.eigh(h)
        assert w.dtype == np.float64 and np.array_equal(w, w_ref)
        assert v.dtype == h.dtype and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("vectors", [False, True], ids=["eigvalsh", "eigh"])
    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_nonconvergence_raises_linalgerror(self, vectors, action):
        """A NaN entry makes LAPACK fail: the gufunc returns NaN and raises the invalid flag,
        which the "error" filter (the test suite's own) turns into a RuntimeWarning."""
        m = np.eye(4)
        m[1, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                linalg.eigensolve(m, vectors)

    def test_empty(self):
        assert linalg.eigensolve(np.zeros((0, 0))).shape == (0,)


class TestKyFan:
    """Spec(sum) is majorized by the sum of sorted spectra."""

    @pytest.mark.parametrize("terms", [2, 3])
    def test_random_sums(self, terms):
        count = 0
        for seed in range(100):
            n = 2 + seed % 9
            mats = [linalg.random_hermitian(n, seed * 10 + j) for j in range(terms)]
            left = linalg.spectrum(sum(mats))
            right = sum(linalg.spectrum(m) for m in mats)
            assert majorizes(left, right).holds
            count += 1
        assert count == 100


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None)
def test_hermitian_spectrum_is_real_and_complete(seed, n):
    h = linalg.random_hermitian(n, seed)
    w = linalg.spectrum(h)
    assert w.dtype == float
    assert len(w) == n


def test_random_edge_weights():
    """One seeded complex weight per edge, spread as random_hermitian's off-diagonal entries:
    E|w|^2 = 1, half of it in each part."""
    w = linalg.random_edge_weights(20_000, 4)
    assert w.shape == (20_000,) and w.dtype == complex
    assert np.array_equal(w, linalg.random_edge_weights(20_000, 4))
    assert abs(np.mean(w.real**2) - 0.5) < 0.02 and abs(np.mean(w.imag**2) - 0.5) < 0.02
    dense = linalg.random_hermitian(200, 4)[np.triu_indices(200, 1)]
    assert abs(np.mean(np.abs(dense) ** 2) - 1) < 0.04
