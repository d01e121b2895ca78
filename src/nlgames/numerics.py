"""Dense complex linear algebra used on game matrices.

Matrices are plain 2-D numpy complex128 arrays.  Singular values come from
one-sided (Hestenes) Jacobi on the matrix itself, which keeps small singular
values accurate (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992)
where the eigenvalues of A^dagger A cannot.  Pairs are rotated in a fixed
round-robin order (Brent and Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985)
with numpy elementwise arithmetic.  BLAS computes only the convergence
gate's product A^dagger A, whose diagonal also gives the final norms.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "as_cmatrix",
    "matmul_adjoint",
    "singular_values",
    "singular_value_rank",
    "spectral_norm",
    "numerical_rank",
]

DEFAULT_RANK_TOL = 1e-8

_CONVERGENCE_EPS = 1e-14
_MAX_SWEEPS = 100
# Pairs whose inner product is below this fraction of ||A||_F^2 are left
# alone: rotating them only stirs rounding noise, and the rotation formula
# divides by the inner product.
_FLOOR_EPS = float(np.finfo(np.float64).eps)


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


@functools.cache
def _round_robin(size: int) -> np.ndarray:
    """Row permutation from one round of a round-robin tournament on `size`
    (even) rows, where row i meets row i + size/2, to the next.  Row 0 stays
    and the others circle, so `size - 1` rounds pair all rows once each."""
    half = size // 2
    following = [0, size - 1, *range(1, size - 1)]

    def stored(order):
        return order[:half] + order[::-1][:half]

    position = {player: i for i, player in enumerate(stored(list(range(size))))}
    return np.array([position[player] for player in stored(following)], dtype=np.intp)


def _sweep(rows: np.ndarray, floor: float):
    """One round-robin sweep over `rows` in place, each round rotating its
    disjoint pairs at once; returns whether any pair rotated."""
    size = rows.shape[0]
    half = size // 2
    follow = _round_robin(size)
    rotated = False
    for _ in range(size - 1):
        x, y = rows[:half], rows[half:]
        flat = rows.view(np.float64)
        norms2 = np.einsum("ij,ij->i", flat, flat)
        alpha, beta = norms2[:half], norms2[half:]
        gamma = np.einsum("ij,ij->i", x.conj(), y)
        r = np.abs(gamma)
        act = np.flatnonzero(r > np.maximum(_CONVERGENCE_EPS * np.sqrt(alpha * beta), floor))
        if act.size:
            rotated = True
            # Phase y so that <x, y> is real and positive, then apply the
            # real Jacobi rotation that annihilates it.
            x, y, alpha, beta, r = x[act], y[act], alpha[act], beta[act], r[act]
            y = y * (gamma[act].conj() / r)[:, None]
            tau = (beta - alpha) / (2.0 * r)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s, c = (t * c)[:, None], c[:, None]
            xf, yf = x.view(np.float64), y.view(np.float64)
            rows[act] = (c * xf - s * yf).view(np.complex128)
            rows[half + act] = (s * xf + c * yf).view(np.complex128)
        rows[:] = rows[follow]
    return rotated


def singular_values(a) -> np.ndarray:
    """Singular values in descending order, by one-sided Jacobi.

    The rows of `a`, or its columns when it is taller than wide, are rotated
    pairwise until they are mutually orthogonal; the singular values are then
    their norms.  Working on the rows is working on the columns of A^dagger
    up to a conjugation, and a conjugated input gives bit-identical output.
    Raises `ArithmeticError` after `_MAX_SWEEPS` sweeps without convergence.
    """
    m = as_cmatrix(a)
    vectors = m if m.shape[0] < m.shape[1] else m.T
    n = vectors.shape[0]
    # An odd count gets a zero row, which never rotates.
    rows = np.zeros((n + n % 2, vectors.shape[1]), dtype=np.complex128)
    rows[:n] = vectors
    for _ in range(_MAX_SWEEPS):
        # Gate: stop when no pair would pass the rotation test on this product.
        gram = rows.conj() @ rows.T
        d = gram.diagonal().real
        floor = _FLOOR_EPS * float(d.sum())
        limit = np.maximum(_CONVERGENCE_EPS * np.sqrt(np.outer(d, d)), floor)
        np.fill_diagonal(limit, np.inf)
        if np.all(np.abs(gram) <= limit):
            break
        if not _sweep(rows, floor):
            break
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    return np.sort(np.sqrt(d))[::-1][:n]


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
