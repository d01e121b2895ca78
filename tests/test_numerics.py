import numpy as np
import pytest

from nlgames import numerics
from nlgames.numerics import (
    as_cmatrix,
    matmul_adjoint,
    numerical_rank,
    singular_values,
    spectral_norm,
)
from oracles import chsh_phi, power_iteration_norm


def random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_as_cmatrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_cmatrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_cmatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_cmatrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_cmatrix([[complex(0, np.nan), 0.0], [0.0, 1.0]])


def test_matmul_adjoint_examples():
    assert np.allclose(matmul_adjoint(np.eye(2)), np.eye(2))
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matmul_adjoint(a), np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_matmul_adjoint_is_hermitian_psd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        h = matmul_adjoint(a)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        assert np.linalg.eigvalsh(h)[0] > -1e-12


def test_chsh3_gram_is_scaled_identity():
    # Phi_1 for the d = 3 field-multiplication game, built independently.
    gram = matmul_adjoint(chsh_phi(3, 1))
    assert np.max(np.abs(gram - np.eye(3) / 27.0)) < 1e-15


def test_round_robin_meets_every_pair_once_per_sweep():
    for size in (2, 4, 6, 10, 16):
        order = np.arange(size)
        met = []
        for _ in range(size - 1):
            met += [frozenset(pair) for pair in zip(order[: size // 2], order[size // 2 :])]
            order = order[numerics._round_robin(size)]
        assert sorted(met, key=sorted) == sorted(
            (frozenset((i, j)) for i in range(size) for j in range(i + 1, size)), key=sorted
        )
        assert np.array_equal(order, np.arange(size))


def singular_value_cases():
    rng = np.random.default_rng(17)
    column = random_complex(rng, (6, 1))
    for shape in [(1, 1), (1, 5), (5, 1), (7, 4), (4, 7), (5, 5), (6, 6), (9, 3), (12, 11)]:
        yield random_complex(rng, shape)
    yield np.zeros((3, 4))
    yield np.hstack([column, column, 2 * column, column])
    yield np.hstack([random_complex(rng, (8, 3))] * 2)


def test_singular_values_match_lapack():
    for a in singular_value_cases():
        s = singular_values(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert s.shape == ref.shape
        assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))
        assert np.max(np.abs(s - ref)) <= 1e-14 * max(ref[0], 1.0)
    assert np.array_equal(singular_values(np.zeros((3, 4))), np.zeros(3))


def test_smallest_singular_value_has_small_relative_error():
    a = random_complex(np.random.default_rng(160), (160, 160))
    s = singular_values(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert abs(s[-1] - ref[-1]) <= 1e-13 * ref[-1]


def test_conjugate_input_gives_identical_bits():
    rng = np.random.default_rng(23)
    cases = [*singular_value_cases(), random_complex(rng, (40, 31)), chsh_phi(7, 3)]
    for a in cases:
        s = singular_values(a)
        assert np.array_equal(singular_values(a.conj()), s)
        assert np.array_equal(singular_values(a.copy()), s)


def test_nonconverging_solver_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_SWEEPS", 0)
    with pytest.raises(ArithmeticError, match="did not converge"):
        singular_values(np.eye(2))


def test_spectral_norm_identity():
    for n in (1, 2, 5):
        assert spectral_norm(np.eye(n)) == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_spectral_norm_chsh_matrices(d):
    for k in range(1, d):
        assert spectral_norm(chsh_phi(d, k)) == pytest.approx(
            1.0 / (d * np.sqrt(d)), abs=1e-12
        )


def test_spectral_norm_vs_power_iteration():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    assert spectral_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-9)


def test_spectral_norm_properties():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        na = spectral_norm(a)
        assert spectral_norm(a.conj().T) == pytest.approx(na, rel=1e-12)
        c = -2.5
        assert spectral_norm(c * a) == pytest.approx(abs(c) * na, rel=1e-12)
        assert na >= np.max(np.abs(a)) - 1e-12
        assert na <= np.linalg.norm(a) + 1e-12
        assert spectral_norm(a @ b) <= na * spectral_norm(b) + 1e-10
        col = np.max(np.abs(a).sum(axis=0))
        row = np.max(np.abs(a).sum(axis=1))
        assert na <= np.sqrt(col * row) + 1e-12


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(3)) == 3
    u = np.array([1.0, 2.0, -1.0])[:, None]
    v = np.array([0.5, 1.5])[None, :]
    assert numerical_rank(u @ v) == 1
    assert numerical_rank(np.zeros((3, 4))) == 0
    assert numerical_rank(chsh_phi(3, 1)) == 3


def test_numerical_rank_tolerance():
    m = np.diag([1.0, 1e-5, 1e-12])
    assert numerical_rank(m, tol=1e-8) == 2
    assert numerical_rank(m, tol=1e-6) == 2
    assert numerical_rank(m, tol=1e-3) == 1
    with pytest.raises(ValueError):
        numerical_rank(m, tol=0.0)
