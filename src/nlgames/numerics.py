"""Dense complex linear algebra used on game matrices.

Matrices are plain 2-D numpy complex128 arrays.  The Hermitian eigensolver
is a cyclic Jacobi iteration rather than a LAPACK call: the matrices here
are at most a few hundred rows, and Jacobi gives the same result for the
same input on every build, which keeps reports byte-reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_cmatrix",
    "matmul_adjoint",
    "hermitian_eigen",
    "singular_values",
    "singular_value_rank",
    "spectral_norm",
    "numerical_rank",
]

HERMITICITY_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-8

_CONVERGENCE_EPS = 1e-14
_MAX_SWEEPS = 100


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a nonempty 2-D complex128 array with finite entries."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def matmul_adjoint(a) -> np.ndarray:
    """Return A^dagger A, symmetrized as (M + M^dagger)/2 after the product."""
    m = as_cmatrix(a)
    h = m.conj().T @ m
    return 0.5 * (h + h.conj().T)


def _jacobi(h: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Each rotation first phases the (p, q) entry real, then applies the real
    Jacobi rotation that annihilates it.  Sweeps run in a fixed row-major
    order until the off-diagonal Frobenius mass falls below a fixed multiple
    of the matrix scale, so the result is deterministic for fixed input.
    """
    a = np.array(h, dtype=np.complex128, copy=True)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128) if want_vectors else None
    scale = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    if scale == 0.0 or n == 1:
        w = a.diagonal().real.copy()
        order = np.argsort(-w, kind="stable")
        return w[order], (v[:, order] if want_vectors else None)

    diag_mask = ~np.eye(n, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        off = float(np.sqrt(np.sum(np.abs(a[diag_mask]) ** 2)))
        if off <= _CONVERGENCE_EPS * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= 1e-18 * scale:
                    continue
                # Phase step: make a[p, q] real and nonnegative.
                e = (apq / r).conjugate()
                a[:, q] *= e
                a[q, :] *= e.conjugate()
                if want_vectors:
                    v[:, q] *= e
                # Real rotation annihilating the now-real off-diagonal entry.
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * r)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                if want_vectors:
                    vp = v[:, p].copy()
                    vq = v[:, q].copy()
                    v[:, p] = c * vp - s * vq
                    v[:, q] = s * vp + c * vq
    else:
        raise ArithmeticError("Jacobi iteration did not converge")

    w = a.diagonal().real.copy()
    order = np.argsort(-w, kind="stable")
    return w[order], (v[:, order] if want_vectors else None)


def hermitian_eigen(m, hermiticity_tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvectors as orthonormal columns in matching order.  Rejects
    inputs whose deviation from Hermiticity exceeds `hermiticity_tol`.
    """
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > hermiticity_tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return _jacobi(0.5 * (a + a.conj().T), want_vectors=True)


def singular_values(a) -> np.ndarray:
    """Singular values in descending order: one Jacobi solve of A^dagger A,
    without eigenvectors."""
    w, _ = _jacobi(matmul_adjoint(a), want_vectors=False)
    return np.sqrt(np.clip(w, 0.0, None))


def singular_value_rank(s: np.ndarray, tol: float) -> int:
    """Number of descending singular values `s` exceeding tol * s[0]; 0 when all vanish."""
    if tol <= 0:
        raise ValueError(f"rank tolerance must be positive, got {tol}")
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def spectral_norm(a) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def numerical_rank(a, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values exceeding tol * sigma_max; 0 for the zero matrix."""
    return singular_value_rank(singular_values(a), tol)
