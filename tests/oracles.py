"""Independent oracle implementations used to check library results.

Everything here deliberately avoids the code paths under test: norms come
from power iteration, classical optima from full double enumeration over
both players, win probabilities from direct sums over the constraint set,
and the rank-1 test of Phi_1 from exact 2 x 2 minors in integers.
"""

from __future__ import annotations

import itertools

import numpy as np


def chsh_phi(d: int, k: int) -> np.ndarray:
    """Game matrix of CHSH over Z_d (prime d): entries w^(k*u*v) / d^2."""
    w = np.exp(2j * np.pi / d)
    u = np.arange(d)
    return (w ** ((k * np.outer(u, u)) % d)) / (d * d)


def power_iteration_norm(a, iters: int = 5000, seed: int = 7) -> float:
    """Spectral norm via power iteration on A^H A with a Rayleigh quotient."""
    a = np.asarray(a, dtype=np.complex128)
    h = a.conj().T @ a
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = h @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    rayleigh = float(np.real(v.conj() @ h @ v))
    return float(np.sqrt(max(rayleigh, 0.0)))


def phi1_rank_at_most_one(game) -> bool:
    """Exact test of rank(Phi_1) <= 1 for a game over Z_d with exact weights.

    Phi_1 has entries q(u, v) * w^f(u, v) with w a primitive d-th root of
    unity, so the 2 x 2 minor on rows u, u' and columns v, v' vanishes
    exactly when q(u,v) q(u',v') = q(u,v') q(u',v) and either that product
    is 0 or f(u,v) + f(u',v') = f(u,v') + f(u',v) mod d.  Integers only.
    """
    d = game.order
    q = game.q_num.tolist()
    f = game.f_idx.tolist()
    for u, u2 in itertools.combinations(range(game.mA), 2):
        for v, v2 in itertools.combinations(range(game.mB), 2):
            product = q[u][v] * q[u2][v2]
            if product != q[u][v2] * q[u2][v]:
                return False
            if product and (f[u][v] + f[u2][v2] - f[u][v2] - f[u2][v]) % d:
                return False
    return True


def random_box_table(rng, m_a: int, m_b: int, n: int) -> np.ndarray:
    t = rng.random((m_a, m_b, n, n))
    return t / t.sum(axis=(2, 3), keepdims=True)


def direct_win_sum(game, box, u: int, v: int) -> float:
    """P(a + b = f(u,v) | u,v) summed straight off the box table."""
    group = game.group
    target = game.f_element(u, v)
    total = 0.0
    for ia, a in enumerate(group.elements):
        for ib, b in enumerate(group.elements):
            if group.add(a, b) == target:
                total += box.table[u, v, ia, ib]
    return total


def evaluate_box_directly(game, box) -> float:
    return sum(
        game.q[u, v] * direct_win_sum(game, box, u, v)
        for u in range(game.mA)
        for v in range(game.mB)
    )


def double_enumeration_optimum(game):
    """Exact classical optimum over all (Alice, Bob) assignment pairs.

    Exponential in mA + mB; only for small cross-check instances.
    """
    group = game.group
    n = group.order
    add = group.addition_table()
    best = -1.0
    for alice in itertools.product(range(n), repeat=game.mA):
        for bob in itertools.product(range(n), repeat=game.mB):
            score = 0.0
            for u in range(game.mA):
                for v in range(game.mB):
                    if add[alice[u], bob[v]] == game.f_idx[u, v]:
                        score += game.q[u, v]
            if score > best:
                best = score
    return best


def correlators_directly(game, box) -> np.ndarray:
    """Elementwise Fourier transform of the box, written as explicit loops."""
    group = game.group
    n = group.order
    out = np.zeros((game.mA, game.mB, n, n), dtype=np.complex128)
    for u in range(game.mA):
        for v in range(game.mB):
            for ix, x in enumerate(group.elements):
                for iy, y in enumerate(group.elements):
                    acc = 0.0 + 0.0j
                    for ia, a in enumerate(group.elements):
                        for ib, b in enumerate(group.elements):
                            acc += (
                                np.conj(group.character(x, a))
                                * np.conj(group.character(y, b))
                                * box.table[u, v, ia, ib]
                            )
                    out[u, v, ix, iy] = acc
    return out
