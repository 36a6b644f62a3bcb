"""Dense Hermitian matrix helpers and the eigensolver.

Eigen-decompositions go to LAPACK through numpy.linalg.eigh/eigvalsh,
which handles real symmetric and complex Hermitian input alike. Every
input passes one validation path first: square, finite, and Hermitian
up to a deviation of HERMITIAN_RTOL times its own Frobenius norm. Like
every matrix check in the package, that rule has no absolute floor, so
it means the same at every scale. UNITARY_TOL alone is absolute: the
sign-reversal maps compare each phase's ||d_k| - 1| with it, and that
has the fixed scale of 1.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_RTOL = 1e-8  # allowed ||M - M^H||_F relative to ||M||_F
UNITARY_TOL = 1e-10


def fmt12(x):
    """Round to 12 significant digits, the precision of every JSON document; None passes."""
    if x is None:
        return None
    return float(f"{x:.12g}")


def check_finite(m):
    if not np.all(np.isfinite(np.asarray(m))):
        raise ValueError("matrix has non-finite entries")


def hermitize(m):
    """(M + M^H) / 2 for a square, finite, nearly Hermitian M; reject the rest.

    Nearly Hermitian means ||M - M^H||_F <= HERMITIAN_RTOL * ||M||_F, so
    the zero matrix passes and scaling M never changes the verdict. Real
    input stays real; complex input whose imaginary part is zero
    everywhere is reduced to its real part.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    check_finite(m)
    if not np.iscomplexobj(m) or not np.any(m.imag):
        m = m.real.astype(float)
    mh = m.conj().T
    dev = np.linalg.norm(m - mh)
    if dev > HERMITIAN_RTOL * np.linalg.norm(m):
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return (m + mh) / 2.0


def hadamard_product(x, y):
    """Entrywise product; Hermitian whenever one factor is real symmetric."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return x * y


def eigh(m):
    """Full spectrum (sorted non-increasing) and eigenvectors as columns.

    Input must be Hermitian; eigenvalues are real by construction.
    """
    w, v = np.linalg.eigh(hermitize(m))
    return w[::-1], v[:, ::-1]


def spectrum(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted non-increasing."""
    return np.linalg.eigvalsh(hermitize(m))[::-1]


def min_eigenvalue(m) -> float:
    return float(spectrum(m)[-1])


def eigen_residuals(m, w, v):
    """Per-eigenpair residuals ||M v_k - w_k v_k||_2 (verification mode)."""
    m = np.asarray(m, dtype=complex)
    r = m @ v - v * w[np.newaxis, :]
    return np.linalg.norm(r, axis=0)


def random_hermitian(n, seed, complex_entries=True):
    """Seeded random Hermitian matrix (Gaussian entries, symmetrized)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0
