"""Dense complex linear algebra used on game matrices.

Matrices are plain 2-D numpy complex128 arrays.  Singular values come from
one-sided (Hestenes) Jacobi on the matrix itself, which keeps small singular
values accurate (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992)
where the eigenvalues of A^dagger A cannot.  Pairs are rotated in a fixed
round-robin order (Brent and Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985)
with numpy elementwise arithmetic.  BLAS computes only the convergence
gate's product A^dagger A, whose diagonal also gives the final norms.

The solver works on a (batch, rows, cols) stack of same-shape matrices, so
one Python round loop serves every matrix of the stack, and one matrix is
solved as a stack of one.  Each matrix keeps its own gate and floor and
leaves the stack once it has converged, so it goes through exactly the
rotations of its solo solve and its singular values carry the same bits.
Callers bound the size of a stack (see `bounds.STACK_ENTRIES`).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "stacked_singular_values",
    "singular_value_rank",
]

DEFAULT_RANK_TOL = 1e-8

_CONVERGENCE_EPS = 1e-14
_MAX_SWEEPS = 100
# Pairs whose inner product is below this fraction of ||A||_F^2 are left
# alone: rotating them only stirs rounding noise, and the rotation formula
# divides by the inner product.
_FLOOR_EPS = float(np.finfo(np.float64).eps)


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


def _rotation(x, y, gamma, alpha, beta, r):
    """Rows x[i] and y[i] after the rotation that makes them orthogonal, given
    their inner product gamma[i], squared norms alpha[i] and beta[i], and
    r[i] = |gamma[i]|."""
    # Phase y so that <x, y> is real and positive, then apply the real
    # Jacobi rotation that annihilates it.
    y = y * (gamma.conj() / r)[:, None]
    tau = (beta - alpha) / (2.0 * r)
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.hypot(1.0, t)
    s, c = (t * c)[:, None], c[:, None]
    xf, yf = x.view(np.float64), y.view(np.float64)
    return (c * xf - s * yf).view(np.complex128), (s * xf + c * yf).view(np.complex128)


@functools.cache
def _stack_layout(size: int, batch: int):
    """For `batch` matrices of `size` rows held position-major (row p of
    matrix j at p * batch + j): the row permutation of one round, and the
    matrix of each first member of a pair."""
    follow = (_round_robin(size)[:, None] * batch + np.arange(batch)).ravel()
    return follow, np.arange(size // 2 * batch) % batch


def _sweep(rows: np.ndarray, floor: np.ndarray):
    """One round-robin sweep over each matrix of the (size, batch, cols)
    stack `rows`, whose row p of matrix j is rows[p, j].

    Each round rotates the disjoint pairs of every matrix at once.  Rows are
    held position-major, so the first members of all pairs, and the second
    members, are each one contiguous block, and a round is the arithmetic of
    a solo solve on longer arrays, applied to the blocks in place with no
    gather.  `floor` holds each matrix's rotation floor.  Returns the swept
    stack and, per matrix, whether any of its pairs rotated.
    """
    size, batch, cols = rows.shape
    half = size // 2 * batch
    follow, owner = _stack_layout(size, batch)
    rows = rows.reshape(size * batch, cols)
    floor = floor[owner]
    acted = np.zeros(half, dtype=bool)
    for _ in range(size - 1):
        x, y = rows[:half], rows[half:]
        flat = rows.view(np.float64)
        norms2 = np.einsum("ij,ij->i", flat, flat)
        alpha, beta = norms2[:half], norms2[half:]
        gamma = np.einsum("ij,ij->i", x.conj(), y)
        r = np.abs(gamma)
        act = r > np.maximum(_CONVERGENCE_EPS * np.sqrt(alpha * beta), floor)
        count = np.count_nonzero(act)
        if count == half:
            x[:], y[:] = _rotation(x, y, gamma, alpha, beta, r)
            acted[:] = True
        elif count:
            # Rotate every pair, dividing by 1 where |gamma| fails the test,
            # and keep the rotated rows of the pairs that pass it.
            new_x, new_y = _rotation(x, y, gamma, alpha, beta, np.where(act, r, 1.0))
            np.copyto(x, new_x, where=act[:, None])
            np.copyto(y, new_y, where=act[:, None])
            acted |= act
        rows = rows[follow]
    return rows.reshape(size, batch, cols), acted.reshape(size // 2, batch).any(axis=0)


def stacked_singular_values(stack) -> np.ndarray:
    """Singular values of each matrix of a (batch, rows, cols) stack, one
    descending row per matrix, by one-sided Jacobi.

    The rows of each matrix, or its columns when it is taller than wide, are
    rotated pairwise until they are mutually orthogonal; the singular values
    are then their norms.  Working on the rows is working on the columns of
    A^dagger up to a conjugation, and a conjugated input gives bit-identical
    output.  Every matrix is gated on its own product A^dagger A, with its
    own floor, and leaves the stack when its gate passes or a sweep rotates
    none of its pairs, so its values are bit-identical to those of its solo
    solve.  Raises `ArithmeticError`, naming the first matrix left, after
    `_MAX_SWEEPS` sweeps without convergence.
    """
    m = np.asarray(stack, dtype=np.complex128, order="C")
    if m.ndim != 3 or m.size == 0:
        raise ValueError(f"expected a nonempty 3-D stack of matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return _jacobi(m)


def _jacobi(m: np.ndarray) -> np.ndarray:
    """`stacked_singular_values` on a checked complex128 stack."""
    vectors = m if m.shape[1] < m.shape[2] else m.transpose(0, 2, 1)
    batch, n, cols = vectors.shape
    # An odd count gets a zero row, which never rotates.
    rows = np.zeros((n + n % 2, batch, cols), dtype=np.complex128)
    rows[:n] = vectors.transpose(1, 0, 2)
    values = np.empty((batch, n))
    live = np.arange(batch)  # stack index of each matrix in `rows`
    rotated = np.ones(batch, dtype=bool)
    for sweep in range(_MAX_SWEEPS + 1):
        if sweep:
            rows, rotated = _sweep(rows, floor)
        mats = np.ascontiguousarray(rows.transpose(1, 0, 2))
        gram = mats.conj() @ mats.transpose(0, 2, 1)
        d = gram.diagonal(axis1=1, axis2=2).real
        # A matrix is done when the last sweep rotated none of its pairs and
        # so left it as the previous gate saw it or, while sweeps remain,
        # when no pair would pass the rotation test on this product.
        done = ~rotated
        if sweep < _MAX_SWEEPS:
            floor = _FLOOR_EPS * d.sum(axis=1)
            limit = np.maximum(
                _CONVERGENCE_EPS * np.sqrt(d[:, :, None] * d[:, None, :]), floor[:, None, None]
            )
            limit.reshape(len(limit), -1)[:, :: rows.shape[0] + 1] = np.inf  # the diagonals
            done |= np.all(np.abs(gram) <= limit, axis=(1, 2))
        if done.any():
            values[live[done]] = np.sort(np.sqrt(d[done]), axis=1)[:, ::-1][:, :n]
            if done.all():
                return values
            keep = ~done
            live, rows, floor = live[keep], rows[:, keep], floor[keep]
    raise ArithmeticError(
        f"Jacobi iteration did not converge on matrix {live[0]} of a stack of {batch}"
    )


def singular_value_rank(s: np.ndarray, tol: float) -> int:
    """Number of descending singular values `s` exceeding tol * s[0]; 0 when all vanish."""
    if not tol > 0:
        raise ValueError(f"rank tolerance must be positive, got {tol}")
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
