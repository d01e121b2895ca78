import numpy as np
import pytest

from nlgames import numerics
from nlgames.numerics import DEFAULT_RANK_TOL, singular_value_rank, stacked_singular_values
from oracles import chsh_phi, power_iteration_norm


def random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def singular_values(a) -> np.ndarray:
    """One matrix's singular values, solved as a stack of one."""
    return stacked_singular_values(np.asarray(a)[None])[0]


def test_chsh3_gram_is_scaled_identity():
    # Phi_1 for the d = 3 field-multiplication game, built independently.
    phi = chsh_phi(3, 1)
    gram = phi.conj().T @ phi
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


def swept_batches(monkeypatch, stack) -> list:
    """The number of matrices in each sweep of a solve of `stack`."""
    batches = []
    original = numerics._sweep

    def counted(rows, floor):
        batches.append(rows.shape[1])
        return original(rows, floor)

    monkeypatch.setattr(numerics, "_sweep", counted)
    stacked_singular_values(stack)
    monkeypatch.undo()
    return batches


def test_stack_members_needing_different_sweeps_keep_their_solo_bits(monkeypatch):
    # An already orthogonal matrix passes its first gate, the others leave
    # the stack after different numbers of sweeps, each with the bits of
    # its solo solve, wherever it sits in the stack, and each takes part in
    # as many sweeps as alone.
    rng = np.random.default_rng(29)
    members = [
        np.exp(2j * np.pi * np.outer(range(6), range(6)) / 6),
        random_complex(rng, (6, 6)),
        np.diag([3.0, 1.0, 1e-9, 0.0, 2.0, 5.0]) + 1e-3 * random_complex(rng, (6, 6)),
        random_complex(rng, (6, 6)) * 1e-100,
        np.hstack([random_complex(rng, (6, 2))] * 3),
    ]
    sweeps = [len(swept_batches(monkeypatch, a[None])) for a in members]
    assert sweeps[0] == 0 and len(set(sweeps)) >= 4, sweeps
    solo = [singular_values(a) for a in members]
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
        stack = np.array([members[i] for i in order])
        assert sum(swept_batches(monkeypatch, stack)) == sum(sweeps)
        for row, i in zip(stacked_singular_values(stack), order):
            assert np.array_equal(row, solo[i])


def test_nonconverging_stack_names_its_matrix(monkeypatch):
    # With one sweep allowed, the orthogonal matrix converges at its first
    # gate and the random one does not.
    rng = np.random.default_rng(31)
    stack = np.array([np.eye(5), random_complex(rng, (5, 5))])
    monkeypatch.setattr(numerics, "_MAX_SWEEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge on matrix 1 of a stack of 2"):
        stacked_singular_values(stack)
    with pytest.raises(ArithmeticError, match="did not converge on matrix 0 of a stack of 2"):
        stacked_singular_values(stack[::-1])


def test_stacked_singular_values_reject_bad_input():
    bad_inputs = (
        np.zeros((3, 4)),
        np.zeros((0, 3, 3)),
        np.zeros((1, 0, 3)),
        np.full((2, 2, 2), np.nan),
    )
    for bad in bad_inputs:
        with pytest.raises(ValueError):
            stacked_singular_values(bad)


def test_stack_of_one_rejects_bad_input():
    bad_inputs = (
        [1, 2, 3],
        np.zeros((0, 3)),
        [[np.inf, 0.0], [0.0, 1.0]],
        [[complex(0, np.nan), 0.0], [0.0, 1.0]],
    )
    for bad in bad_inputs:
        with pytest.raises(ValueError):
            singular_values(bad)


def test_spectral_norm_identity():
    for n in (1, 2, 5):
        assert singular_values(np.eye(n))[0] == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_spectral_norm_chsh_matrices(d):
    for k in range(1, d):
        assert singular_values(chsh_phi(d, k))[0] == pytest.approx(
            1.0 / (d * np.sqrt(d)), abs=1e-12
        )


def test_spectral_norm_vs_power_iteration():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    assert singular_values(a)[0] == pytest.approx(power_iteration_norm(a), abs=1e-9)


def test_spectral_norm_properties():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        na = singular_values(a)[0]
        assert singular_values(a.conj().T)[0] == pytest.approx(na, rel=1e-12)
        c = -2.5
        assert singular_values(c * a)[0] == pytest.approx(abs(c) * na, rel=1e-12)
        assert na >= np.max(np.abs(a)) - 1e-12
        assert na <= np.linalg.norm(a) + 1e-12
        assert singular_values(a @ b)[0] <= na * singular_values(b)[0] + 1e-10
        col = np.max(np.abs(a).sum(axis=0))
        row = np.max(np.abs(a).sum(axis=1))
        assert na <= np.sqrt(col * row) + 1e-12


def rank(a, tol=DEFAULT_RANK_TOL) -> int:
    return singular_value_rank(singular_values(a), tol)


def test_numerical_rank_examples():
    assert rank(np.eye(3)) == 3
    u = np.array([1.0, 2.0, -1.0])[:, None]
    v = np.array([0.5, 1.5])[None, :]
    assert rank(u @ v) == 1
    assert rank(np.zeros((3, 4))) == 0
    assert rank(chsh_phi(3, 1)) == 3


def test_numerical_rank_tolerance():
    m = np.diag([1.0, 1e-5, 1e-12])
    assert rank(m, tol=1e-8) == 2
    assert rank(m, tol=1e-6) == 2
    assert rank(m, tol=1e-3) == 1
    for tol in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            rank(m, tol=tol)
