import itertools
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nlgames import bounds
from nlgames.algebra import FiniteAbelianGroup, FiniteField
from nlgames.bounds import (
    ChainViolationError,
    EnumerationBudgetError,
    analyze,
    classical_value,
    lemma1_bound,
    phi_norms,
    phi_spectra,
)
from nlgames.games import (
    LinearGame,
    chsh_d,
    game_from_json,
    game_from_tables,
    random_xor_game,
)
from nlgames.nlc import nlc_game, nlc_spec
from nlgames.rng import SplitMix64
from oracles import (
    add,
    alice_side_classical_value,
    double_enumeration_optimum,
    elements,
    evaluate_box,
    game_matrix,
    ns_winning_box,
    phi1_rank_at_most_one,
    product_game,
    quantum_bound,
    random_f_game,
    response_scores,
    score_table_by_question,
    signaling_defect,
    strategy_box,
)

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])
GOLDEN = Path(__file__).parent / "golden"
GAME_FILES = sorted(p for p in GOLDEN.glob("*.json") if not p.name.startswith("nlc_"))


def game_matrices(game) -> list:
    """Phi_x for x = 1..|G|-1 in canonical order."""
    chars = game.group.character_table()
    return [game_matrix(game, chars, x) for x in range(1, game.order)]


def uniform_game(group, f):
    m_a, m_b = len(f), len(f[0])
    q = [[Fraction(1, m_a * m_b)] * m_b for _ in range(m_a)]
    return game_from_tables(group, q, f)


def rank_one_game(group, s, t):
    """f(u, v) = s(u) + t(v): winnable by playing the summands directly."""
    els = elements(group)
    f = [[list(add(group, els[su], els[tv]).coords) for tv in t] for su in s]
    return uniform_game(group, f)


def in_chunks(game, chunk):
    """`classical_value` with chunks of `chunk` scored assignments: the chunk
    buffer is sized to `chunk` entries of the game's score type, the
    narrowest integer type that holds q_den for exact weights, else float64.
    None keeps DEFAULT_CHUNK_BYTES."""
    if chunk is None:
        return classical_value(game)
    if game.has_exact_q:
        ints = (np.int8, np.int16, np.int32, np.int64)
        itemsize = next(np.dtype(t).itemsize for t in ints if np.iinfo(t).max >= game.q_den)
    else:
        itemsize = 8
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "DEFAULT_CHUNK_BYTES", chunk * itemsize)
        return classical_value(game)


CHSH2 = chsh_d(2, 1)
CHSH3 = chsh_d(3, 1)


# ---------------------------------------------------------------------------
# Game matrices
# ---------------------------------------------------------------------------


def test_game_matrix_chsh2():
    phi = game_matrices(CHSH2)[0]
    assert np.allclose(phi, np.array([[1, 1], [1, -1]]) / 4.0)


def test_chsh3_matrices_equal_up_to_row_permutation():
    phi1, phi2 = game_matrices(CHSH3)
    perms = [
        perm
        for perm in ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0])
        if np.max(np.abs(phi1[perm, :] - phi2)) < 1e-14
    ]
    assert perms, "no row permutation matches"


def test_uniform_game_row_and_column_sums():
    rng = SplitMix64(3)
    for _ in range(5):
        game = random_xor_game(rng, 3, 4)
        for phi in game_matrices(game):
            assert np.max(np.abs(phi).sum(axis=0)) == pytest.approx(1.0 / 4)
            assert np.max(np.abs(phi).sum(axis=1)) == pytest.approx(1.0 / 4)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_chsh_d_gram_identity(p, r):
    game = chsh_d(p, r)
    d = game.order
    for phi in game_matrices(game):
        gram = phi.conj().T @ phi
        assert np.max(np.abs(gram - np.eye(d) / d**3)) < 1e-12


# ---------------------------------------------------------------------------
# Quantum bound
# ---------------------------------------------------------------------------


def test_chsh2_bound_value():
    assert quantum_bound(CHSH2) == pytest.approx(0.8535533906, abs=1e-9)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)])
def test_chsh_d_closed_form(p, r):
    game = chsh_d(p, r)
    d = game.order
    assert quantum_bound(game) == pytest.approx(1 / d + (d - 1) / (d * np.sqrt(d)), abs=1e-10)
    for norm in phi_norms(game):
        assert norm == pytest.approx(1.0 / (d * np.sqrt(d)), abs=1e-10)


def test_rank_one_game_bound_is_one():
    game = rank_one_game(Z3, [0, 1, 2], [2, 1, 0])
    for norm in phi_norms(game):
        assert norm == pytest.approx(1.0 / 3, abs=1e-12)
    assert quantum_bound(game) == pytest.approx(1.0, abs=1e-12)


def test_bound_invariant_under_question_permutation():
    rng = SplitMix64(12)
    game = random_xor_game(rng, 3, 3)
    base = quantum_bound(game)
    perm_u, perm_v = [2, 0, 1], [1, 2, 0]
    f = [[int(game.f_idx[u, v]) for v in perm_v] for u in perm_u]
    permuted = uniform_game(Z3, f)
    assert quantum_bound(permuted) == pytest.approx(base, abs=1e-12)


def test_bound_invariant_under_output_automorphism():
    rng = SplitMix64(13)
    game = random_xor_game(rng, 3, 3)
    base = quantum_bound(game)
    f = [[(2 * int(game.f_idx[u, v])) % 3 for v in range(3)] for u in range(3)]
    relabeled = uniform_game(Z3, f)
    assert quantum_bound(relabeled) == pytest.approx(base, abs=1e-12)


def test_bound_invariant_under_character_reindexing():
    # The same winning table over GF(4)'s additive group, once with trace
    # characters and once with componentwise Z2 x Z2 characters.
    field_game = chsh_d(2, 2)
    product_game = uniform_game(
        FiniteAbelianGroup([2, 2]),
        [[int(field_game.f_idx[u, v]) for v in range(4)] for u in range(4)],
    )
    assert quantum_bound(product_game) == pytest.approx(
        quantum_bound(field_game), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Classical value
# ---------------------------------------------------------------------------


def test_chsh2_classical_value():
    opt = classical_value(CHSH2)
    assert opt.exact == Fraction(3, 4)
    assert opt.value == 0.75
    box = strategy_box(CHSH2, opt.alice, opt.bob)
    assert evaluate_box(CHSH2, box) == pytest.approx(0.75)


def test_rank_one_game_is_classically_winnable():
    game = rank_one_game(Z3, [0, 1, 2], [2, 1, 0])
    opt = classical_value(game)
    assert opt.exact == 1
    # The returned pair wins with certainty, as does playing the summands.
    assert evaluate_box(game, strategy_box(game, opt.alice, opt.bob)) == pytest.approx(1.0)
    assert evaluate_box(game, strategy_box(game, [0, 1, 2], [2, 1, 0])) == pytest.approx(1.0)


def test_chsh3_matches_double_enumeration():
    opt = classical_value(CHSH3)
    assert opt.value == pytest.approx(double_enumeration_optimum(CHSH3), abs=1e-12)
    assert opt.value >= 5.0 / 9 - 1e-12
    assert opt.exact == Fraction(2, 3)


def test_best_response_matches_double_enumeration_corpus():
    rng = SplitMix64(0)
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        m = 2 + (i % 3)
        if d == 3:
            m = min(m, 3)
        game = random_xor_game(rng, d, m)
        opt = classical_value(game)
        assert opt.value == pytest.approx(double_enumeration_optimum(game), abs=1e-12)
        box = strategy_box(game, opt.alice, opt.bob)
        assert evaluate_box(game, box) == pytest.approx(opt.value, abs=1e-12)


def test_classical_value_independent_of_chunking():
    # The 5 x 3 game enumerates Bob, so ties also meet across his chunks.  The
    # 6 x 6 game has 3^3 = 27 assignments per high-digit block, so chunk sizes
    # 16 and 26 fall below one block and 28 rounds down to one.  With uniform
    # float weights, ties in real arithmetic fall to rounding, so each game's
    # float copy also checks that the sum over the responder's questions is
    # taken in the same order at every chunk size.
    for m_a, m_b in ((3, 3), (5, 3), (6, 6), (10, 6)):
        game = random_f_game(Z3, SplitMix64(21), m_a, m_b)
        for g in (game, LinearGame(game.group, game.f_idx, q=game.q)):
            results = [in_chunks(g, c) for c in (1, 3, 16, 26, 28, 4096)]
            for r in results[1:]:
                assert r == results[0]


SPLIT_GROUPS = [
    Z2,
    Z3,
    FiniteAbelianGroup([5]),
    FiniteAbelianGroup([2, 3]),
    FiniteField(2, 2),
]
# Square, wide (mA < mB) and tall (mB < mA); m_enum = min(mA, mB) runs 1..5.
SPLIT_SHAPES = [(1, 1), (1, 4), (4, 1), (2, 2), (2, 5), (5, 2)]
SPLIT_SHAPES += [(3, 3), (3, 6), (6, 3), (4, 4), (5, 5)]
SPLIT_KINDS = ("random 1..3", "random float", "all-zero f", "diagonal q")


def split_game(rng, group, m_a, m_b, kind):
    n = group.order
    f = np.zeros((m_a, m_b), dtype=np.int64) if kind == "all-zero f" else rng.integers(0, n, (m_a, m_b))
    if kind == "random float":
        q = rng.random((m_a, m_b))
        return LinearGame(group, f, q=q / q.sum())
    if kind == "diagonal q":
        # Each responder question carries at most one weight, so every
        # assignment of the enumerated player ties.
        num = np.eye(m_a, m_b, dtype=np.int64)
    else:
        num = rng.integers(1, 4, (m_a, m_b))
    return LinearGame(group, f, q_num=num, q_den=int(num.sum()))


@pytest.mark.parametrize("kind", SPLIT_KINDS)
def test_split_tables_match_the_alice_side_reference(kind):
    # With all-zero f the constant assignments tie, and they lie in different
    # high-digit blocks, so at a chunk of 1 in different chunks; with diagonal
    # q every assignment ties.
    rng = np.random.default_rng(SPLIT_KINDS.index(kind))
    for group in SPLIT_GROUPS:
        for m_a, m_b in SPLIT_SHAPES:
            if group.order**m_a > 5000:
                continue
            game = split_game(rng, group, m_a, m_b, kind)
            ref = alice_side_classical_value(game)
            for chunk in (1, 4096):
                opt = in_chunks(game, chunk)
                assert (opt.exact, opt.alice, opt.bob) == (ref.exact, ref.alice, ref.bob)
                assert opt.value == pytest.approx(ref.value, abs=1e-12)


def test_budget_error_is_informative():
    # 3^13 = 1594323 assignments for the player with 13 questions.
    for m_a, player in ((13, "Alice"), (14, "Bob")):
        game = random_f_game(Z3, SplitMix64(5), m_a, 13)
        with pytest.raises(EnumerationBudgetError, match=f"1594323 assignments for {player}"):
            classical_value(game)


RANK_ONE_GROUPS = [FiniteAbelianGroup([d]) for d in range(2, 7)] + [
    FiniteAbelianGroup([2, 2]),
    FiniteAbelianGroup([2, 3]),
    FiniteField(2, 2),
    FiniteField(3, 2),
]


def test_over_budget_uniform_perfect_games_report_the_enumerated_optimum(monkeypatch):
    # f(u, v) = s(u) + t(v) under uniform q has a perfect strategy.  Over the
    # budget, Alice plays a(u) = f(u, 0) - f(mA - 1, 0), and Bob and the
    # value come from the lines an enumerated game uses: the same optimum,
    # to the bit, in both orientations, exact and float.
    rng = np.random.default_rng(33)
    corpus = []
    for i in range(600):
        group = RANK_ONE_GROUPS[i % len(RANK_ONE_GROUPS)]
        m_a, m_b = rng.integers(1, 6, 2)
        f = group.addition_table()[rng.integers(0, group.order, m_a)[:, None], rng.integers(0, group.order, m_b)]
        if i % 4:
            corpus.append(LinearGame(group, f, q_num=np.ones_like(f), q_den=f.size))
        else:
            corpus.append(LinearGame(group, f, q=np.full(f.shape, 1.0 / f.size)))
    optima = [classical_value(game) for game in corpus]
    assert {opt.exact for opt in optima} == {None, 1}
    assert any(game.mA < game.mB for game in corpus) and any(game.mA > game.mB for game in corpus)
    monkeypatch.setattr(bounds, "DEFAULT_ENUMERATION_BUDGET", 0)
    for game, opt in zip(corpus, optima):
        closed = classical_value(game)
        assert (closed.value.hex(), closed.exact, closed.alice, closed.bob) == (
            opt.value.hex(),
            opt.exact,
            opt.alice,
            opt.bob,
        )
    # No perfect strategy, or q not uniform: still over the budget.
    weighted = LinearGame(Z2, np.zeros((2, 2), dtype=np.int64), q_num=np.array([[1, 2], [3, 4]]), q_den=10)
    for game in (CHSH2, weighted):
        with pytest.raises(EnumerationBudgetError, match="over the budget of 0"):
            classical_value(game)


TALL_GROUPS = [FiniteAbelianGroup([d]) for d in range(2, 7)] + [
    FiniteAbelianGroup([2, 3]),
    FiniteAbelianGroup([3, 3]),
    FiniteField(2, 2),
]
WEIGHT_KINDS = ("uniform", "random 1..3", "sparse", "random float", "uniform float")


def tall_game(rng, group, kind):
    """A seeded game with mB < mA and at most ~2000 Alice assignments."""
    n = group.order
    m_a = int(rng.integers(2, max(2, int(np.log(2000) / np.log(n))) + 1))
    m_b = int(rng.integers(1, m_a))
    f = rng.integers(0, n, (m_a, m_b))
    if kind == "random float":
        q = rng.random((m_a, m_b))
        return LinearGame(group, f, q=q / q.sum())
    if kind == "uniform float":
        return LinearGame(group, f, q=np.full((m_a, m_b), 1.0 / (m_a * m_b)))
    if kind == "uniform":
        num = np.ones((m_a, m_b), dtype=np.int64)
    else:
        low, high = (0, 3) if kind == "sparse" else (1, 4)
        num = rng.integers(low, high, (m_a, m_b))
        num[0, 0] += num.sum() == 0
    return LinearGame(group, f, q_num=num, q_den=int(num.sum()))


def transposed(game):
    if game.has_exact_q:
        return LinearGame(game.group, game.f_idx.T.copy(), q_num=game.q_num.T.copy(), q_den=game.q_den)
    return LinearGame(game.group, game.f_idx.T.copy(), q=game.q.T.copy())


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_enumerating_bob_matches_the_alice_side_reference(kind):
    rng = np.random.default_rng(WEIGHT_KINDS.index(kind))
    for i in range(16 * len(TALL_GROUPS)):  # 128 games per kind, 640 in all
        game = tall_game(rng, TALL_GROUPS[i % len(TALL_GROUPS)], kind)
        ref = alice_side_classical_value(game)
        flipped = classical_value(transposed(game))
        # At a chunk of 1 each high-digit block of Bob's assignments is its
        # own chunk, so tied candidates are also compared across chunks.
        for chunk in (1, 4096):
            opt = in_chunks(game, chunk)
            assert opt.exact == flipped.exact
            assert opt.value == pytest.approx(flipped.value, abs=1e-12)
            if kind == "uniform float":
                # Ties between equally good strategies fall to float rounding,
                # which differs between the two enumeration orders.
                assert opt.value == pytest.approx(ref.value, abs=1e-12)
                box = strategy_box(game, opt.alice, opt.bob)
                assert evaluate_box(game, box) == pytest.approx(opt.value, abs=1e-12)
            else:
                assert (opt.value, opt.exact, opt.alice, opt.bob) == (
                    ref.value,
                    ref.exact,
                    ref.alice,
                    ref.bob,
                )


@pytest.mark.parametrize("d, m_a, m_b", [(3, 41, 2), (2, 70, 3)])
def test_tall_games_beyond_int64_ids(d, m_a, m_b):
    # d^mA > 2^63 Alice assignments: ids past int64 must not be decoded.
    game = random_f_game(FiniteAbelianGroup([d]), SplitMix64(m_a), m_a, m_b)
    opt = classical_value(game)
    assert opt.exact == classical_value(transposed(game)).exact
    box = strategy_box(game, opt.alice, opt.bob)
    assert evaluate_box(game, box) == pytest.approx(opt.value, abs=1e-12)


def test_float_only_games_still_enumerable():
    f = [[0, 0], [0, 1]]
    game = game_from_tables(Z2, [[0.25, 0.25], [0.25, 0.25]], f)
    opt = classical_value(game)
    assert opt.exact is None
    assert opt.value == pytest.approx(0.75)


# (order, mA, mB) with float weights and 8 or more responder questions, where
# the order of the sum over them matters; Alice is enumerated in the first
# five, Bob in the others.
FLOAT_KERNEL_SHAPES = [(2, 5, 12), (2, 8, 14), (3, 4, 9), (5, 3, 10), (7, 2, 8)]
FLOAT_KERNEL_SHAPES += [(2, 12, 5), (2, 11, 8), (3, 8, 4), (3, 7, 6)]


def kernel_chunk_sizes(game):
    """Chunk sizes around one high-digit block, then None: the default, sized
    in bytes of the game's score type."""
    block = game.order ** (min(game.mA, game.mB) // 2)
    return sorted({1, block - 1, block, block + 1} - {0}) + [None]


@pytest.mark.parametrize("shape", FLOAT_KERNEL_SHAPES)
def test_kernel_matches_the_alice_side_reference_on_float_weights(shape):
    d, m_a, m_b = shape
    rng = np.random.default_rng(m_a * m_b + d)
    for _ in range(3):
        q = rng.random((m_a, m_b))
        game = LinearGame(FiniteAbelianGroup([d]), rng.integers(0, d, (m_a, m_b)), q=q / q.sum())
        ref = alice_side_classical_value(game)
        for chunk in kernel_chunk_sizes(game):
            assert in_chunks(game, chunk) == ref


RESPONSE_GROUPS = [FiniteAbelianGroup([d]) for d in range(2, 8)] + [
    FiniteAbelianGroup([2, 3]),
    FiniteField(2, 2),
    FiniteField(3, 2),
]
# Square, wide (mA < mB) and tall (mB < mA).
RESPONSE_SHAPES = [(1, 1), (3, 3), (2, 7), (7, 2), (3, 10), (10, 3)]
RESPONSE_KINDS = ("random 1..3", "sparse", "random float", "uniform float")


def response_game(rng, group, m_a, m_b, kind):
    f = rng.integers(0, group.order, (m_a, m_b))
    if kind == "random float":
        q = rng.random((m_a, m_b))
        return LinearGame(group, f, q=q / q.sum())
    if kind == "uniform float":
        return LinearGame(group, f, q=np.full((m_a, m_b), 1.0 / (m_a * m_b)))
    num = rng.integers(0 if kind == "sparse" else 1, 4, (m_a, m_b))
    num[0, 0] += num.sum() == 0
    return LinearGame(group, f, q_num=num, q_den=int(num.sum()))


@pytest.mark.parametrize("kind", RESPONSE_KINDS)
def test_best_response_scores_match_the_einsum_formula(kind):
    # Bob's winnings per question against the returned Alice come from the
    # score tables; the one-hot einsum gives the same bits, and so the same
    # value and, ties broken toward the smallest answer, the same Bob.
    rng = np.random.default_rng(RESPONSE_KINDS.index(kind))
    for group in RESPONSE_GROUPS:
        for m_a, m_b in RESPONSE_SHAPES:
            game = response_game(rng, group, m_a, m_b, kind)
            opt = classical_value(game)
            for chunk in (1, 7):
                assert in_chunks(game, chunk) == opt
            scores = response_scores(game, list(opt.alice))
            assert opt.bob == tuple(scores.argmax(axis=1).tolist())
            value = scores.max(axis=1).sum()
            if game.has_exact_q:
                assert opt.exact == Fraction(int(value), game.q_den)
                assert opt.value == float(opt.exact)
            else:
                assert opt.exact is None
                assert opt.value == float(value)


@pytest.mark.parametrize("g", [[0] * 8, [1] * 8, [0, 1, 1, 0, 1, 0, 0, 1]])
def test_kernel_matches_the_alice_side_reference_on_a_tied_nlc_game(g):
    # 16 questions a side; constant g makes every multiple of the last dit
    # optimal, so many assignments tie.
    game = nlc_game(nlc_spec(2, 4, g))
    ref = alice_side_classical_value(game)
    for chunk in kernel_chunk_sizes(game):
        assert in_chunks(game, chunk) == ref


# Measured peaks are 1.0 to 1.2 MiB with integer scores and 1.4 to 2.0 MiB
# with float scores; the answer-major kernel's were 1.3 to 5.2 MiB.
PEAK_BOUND = 3 * 2**20


def test_classical_value_peak_memory_is_bounded():
    # Square games at the largest m within the default budget for each order,
    # with uniform exact weights (int16 scores for d = 2, 3; int8 for d = 5, 7)
    # and the same weights as floats.  Each of the three chunk buffers takes
    # DEFAULT_CHUNK_BYTES, 0.75 MiB in all: 262,144 assignments in int8 (as for
    # d = 5, m = 8, q_den 64), 131,072 in int16 and 32,768 in float64.  The
    # score tables are at most 1.1 MiB (d = 7, m = 7, float64).
    for d, m in ((2, 19), (3, 12), (5, 8), (7, 7)):
        game = random_xor_game(SplitMix64(m), d, m)
        for g in (game, LinearGame(game.group, game.f_idx, q=game.q)):
            tracemalloc.start()
            try:
                classical_value(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= PEAK_BOUND, (d, m, g.has_exact_q, peak)


# The largest q_den of each score type, and one more.
TYPE_EDGE_DENOMINATORS = [127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31]
# Alice enumerated (square, wide) and Bob enumerated (tall), 4 questions
# enumerated in each.
TYPE_EDGE_SHAPES = [(Z3, 4, 4), (FiniteAbelianGroup([5]), 4, 6), (Z2, 7, 4)]


def type_edge_games(rng, q_den):
    """Per shape, a game that wins every weight and one where every assignment
    ties, both at value 1, so the winning scores reach q_den itself."""
    for group, m_a, m_b in TYPE_EDGE_SHAPES:
        n = group.order
        # Positive numerators summing to q_den.
        num = 1 + rng.multinomial(q_den - m_a * m_b, np.full(m_a * m_b, 1 / (m_a * m_b)))
        x, y = rng.integers(0, n, m_a), rng.integers(0, n, m_b)
        f = group.addition_table()[x[:, None], y[None, :]]
        yield LinearGame(group, f, q_num=num.reshape(m_a, m_b), q_den=q_den)
        # Each responder question carries one weight, so every assignment of
        # the enumerated player wins all of it.
        diag = np.zeros((m_a, m_b), dtype=np.int64)
        diag[range(min(m_a, m_b)), range(min(m_a, m_b))] = num[: min(m_a, m_b)]
        diag[0, 0] += q_den - diag.sum()
        yield LinearGame(group, rng.integers(0, n, (m_a, m_b)), q_num=diag, q_den=q_den)


@pytest.mark.parametrize("q_den", TYPE_EDGE_DENOMINATORS)
def test_scores_at_the_edge_of_each_integer_type(q_den):
    # numpy integer arrays wrap without a warning, so a score type one size
    # too narrow shows only as a wrong optimum.
    rng = np.random.default_rng(q_den)
    for game in type_edge_games(rng, q_den):
        ref = alice_side_classical_value(game)
        assert ref.exact == 1
        for chunk in kernel_chunk_sizes(game):
            assert in_chunks(game, chunk) == ref


SHIFT_GROUPS = [FiniteAbelianGroup([d]) for d in range(2, 8)] + [
    FiniteAbelianGroup([2, 3]),
    FiniteField(2, 2),
    FiniteField(3, 2),
]
SHIFT_KINDS = (
    "random 1..3",
    "sparse",
    "all-zero f",
    "diagonal q",
    "random float",
    "all-zero f float",
    "diagonal q float",
)


def shift_shapes(n):
    """Wide, square and tall shapes, m_enum = 1 included, with at most
    ~2000 Alice assignments for the reference."""
    top = int(np.log(2000) / np.log(n))
    return [(1, 1), (1, 4), (4, 1), (2, 2), (top, top), (top // 2 + 1, top + 3), (top, 2), (top, top - 1)]


def shift_game(rng, group, m_a, m_b, kind):
    n = group.order
    f = np.zeros((m_a, m_b), dtype=np.int64) if "all-zero f" in kind else rng.integers(0, n, (m_a, m_b))
    if kind.startswith("diagonal q"):
        # Each responder question carries at most one weight, so every
        # assignment of the enumerated player ties.
        weights = np.eye(m_a, m_b, dtype=np.int64) * rng.integers(1, 4, (m_a, m_b))
    elif kind == "sparse":
        weights = rng.integers(0, 3, (m_a, m_b))
        weights[0, 0] += weights.sum() == 0
    else:
        weights = rng.integers(1, 4, (m_a, m_b))
    if kind.endswith("float"):
        q = weights * rng.random((m_a, m_b)) if kind == "random float" else weights / 1.0
        return LinearGame(group, f, q=q / q.sum())
    return LinearGame(group, f, q_num=weights, q_den=int(weights.sum()))


@pytest.mark.parametrize("kind", SHIFT_KINDS)
def test_scoring_one_assignment_per_shift_orbit_matches_the_reference(kind):
    # Only assignments with the identity at the enumerated player's question
    # 0 are scored; the smallest-id optimum is recovered from the shifts of
    # the tied ones.  All-zero f makes the constant assignments, one orbit,
    # optimal; diagonal q makes every orbit tie, in every chunk.
    rng = np.random.default_rng(SHIFT_KINDS.index(kind))
    for group in SHIFT_GROUPS:
        for m_a, m_b in shift_shapes(group.order):
            game = shift_game(rng, group, m_a, m_b, kind)
            ref = alice_side_classical_value(game)
            for chunk in (1, 7, None):
                assert in_chunks(game, chunk) == ref, (group, m_a, m_b, chunk)


@pytest.mark.parametrize("kind", SHIFT_KINDS)
def test_score_table_masks_in_one_broadcast_match_the_question_loop(monkeypatch, kind):
    rng = np.random.default_rng(100 + SHIFT_KINDS.index(kind))
    corpus = [
        shift_game(rng, group, m_a, m_b, kind)
        for group in SHIFT_GROUPS
        for m_a, m_b in shift_shapes(group.order)
    ]
    for chunk in (1, 7, None):
        optima = [in_chunks(game, chunk) for game in corpus]
        monkeypatch.setattr(bounds, "_score_table", score_table_by_question)
        for game, opt in zip(corpus, optima):
            ref = in_chunks(game, chunk)
            assert (opt.value.hex(), opt.exact, opt.alice, opt.bob) == (
                ref.value.hex(),
                ref.exact,
                ref.alice,
                ref.bob,
            )
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# Shared-randomness lower bound
# ---------------------------------------------------------------------------


def test_lemma1_instances():
    assert lemma1_bound(CHSH3) == pytest.approx(5.0 / 9)
    assert lemma1_bound(CHSH2) == pytest.approx(3.0 / 4)
    wide = uniform_game(Z3, [[0, 1, 2, 0], [1, 2, 0, 1], [2, 0, 1, 2]])
    assert lemma1_bound(wide) == pytest.approx((1 + 2 / 3) / 3)


# ---------------------------------------------------------------------------
# No-signaling winning box
# ---------------------------------------------------------------------------


def test_ns_winning_box_is_pr_box_for_chsh2():
    box = ns_winning_box(CHSH2)
    expected = np.zeros((2, 2, 2, 2))
    for u in range(2):
        for v in range(2):
            for a in range(2):
                expected[u, v, a, (u * v - a) % 2] = 0.5
    assert np.array_equal(box, expected)
    assert analyze([CHSH2])[0].ns_value == 1.0


def test_ns_winning_box_scores_one_with_uniform_marginals():
    rng = SplitMix64(33)
    games = [CHSH2, CHSH3, chsh_d(2, 2)] + [random_xor_game(rng, 3, 4) for _ in range(5)]
    for game, report in zip(games, analyze(games)):
        box = ns_winning_box(game)
        assert report.ns_value == evaluate_box(game, box) == pytest.approx(1.0, abs=1e-12)
        n = game.order
        assert np.max(np.abs(box.sum(axis=3) - 1.0 / n)) < 1e-15
        assert np.max(np.abs(box.sum(axis=2) - 1.0 / n)) < 1e-15
        assert signaling_defect(box) <= 1e-10


def _ns_corpus():
    """Golden game files, then seeded games over cyclic, product and field
    groups with uniform exact, random exact and random float weights."""
    games = [game_from_json(json.loads(path.read_text())) for path in GAME_FILES]
    rng = SplitMix64(34)
    groups = [FiniteAbelianGroup([d]) for d in (2, 3, 5, 7, 16, 100)]
    groups += [FiniteAbelianGroup([2, 3]), FiniteAbelianGroup([3, 3, 2])]
    groups += [FiniteField(2, 2), FiniteField(3, 2), FiniteField(7, 2)]
    for i, group in enumerate(groups * 4):
        m_a, m_b = 1 + i % 3, 1 + (i // 3) % 4
        f = np.array([[rng.randbelow(group.order) for _ in range(m_b)] for _ in range(m_a)])
        if i % 3 == 0:
            games.append(LinearGame(group, f, q_num=np.ones_like(f), q_den=f.size))
            continue
        num = np.array([[1 + rng.randbelow(97) for _ in range(m_b)] for _ in range(m_a)])
        if i % 3 == 1:
            games.append(LinearGame(group, f, q_num=num, q_den=int(num.sum())))
        else:
            games.append(LinearGame(group, f, q=num / num.sum()))
    return games


def test_ns_value_closed_form_has_the_dense_box_bits():
    games = _ns_corpus()
    for i, (game, report) in enumerate(zip(games, analyze(games))):
        scored = evaluate_box(game, ns_winning_box(game))
        assert report.ns_value.hex() == scored.hex(), i


def _with_winning_row(monkeypatch, game, row):
    """`winning_answers()` that returns `row` at question pair (0, 0)."""
    winning = game.winning_answers().copy()
    winning[0, 0] = row
    monkeypatch.setattr(LinearGame, "winning_answers", lambda self: winning)


def test_winning_row_that_is_not_a_permutation_violates_the_chain(monkeypatch):
    # f = s(u) + t(v) has perfect strategies at every shift, so one bad row
    # leaves the classical value at 1 and only the no-signaling check fails.
    game = rank_one_game(Z3, [0, 1, 2], [2, 1, 0])
    row = game.winning_answers()[0, 0]
    _with_winning_row(monkeypatch, game, [row[0], row[0], row[2]])
    with pytest.raises(ChainViolationError, match="not a permutation") as info:
        analyze([game])
    assert info.value.game is game


def test_supported_losing_pair_violates_the_chain(monkeypatch):
    game = rank_one_game(Z3, [0, 1, 2], [2, 1, 0])
    row = game.winning_answers()[0, 0]
    _with_winning_row(monkeypatch, game, [row[1], row[0], row[2]])
    with pytest.raises(ChainViolationError, match="losing answer pair") as info:
        analyze([game])
    assert info.value.game is game


def test_report_on_a_large_group_builds_no_box():
    # The dense box of this game would be 1 x 3 x 4096 x 4096 floats, 403 MB.
    f = np.array([[5, 17, 4000]])
    game = LinearGame(FiniteAbelianGroup([4096]), f, q_num=np.ones_like(f), q_den=3)
    optimum = classical_value(game)
    (spectra,) = phi_spectra([game])
    tracemalloc.start()
    try:
        report = bounds._report(game, optimum, spectra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert report.ns_value == 1.0


# ---------------------------------------------------------------------------
# Rank-1 criterion
# ---------------------------------------------------------------------------


def test_pseudo_telepathy_check_examples():
    winnable = analyze([rank_one_game(Z3, [0, 1, 2], [1, 1, 0])])[0]
    assert winnable.rank_phi1 == 1
    assert winnable.classical_value_exact == 1
    chsh3 = analyze([CHSH3])[0]
    assert chsh3.rank_phi1 == 3
    assert chsh3.classical_value_exact < 1


def test_pseudo_telepathy_check_corpus_agreement():
    rng = SplitMix64(1)
    seen_win = 0
    for report in analyze([random_xor_game(rng, 3, 3) for _ in range(200)]):
        win = report.classical_value_exact == 1
        assert (report.rank_phi1 == 1) == win
        seen_win += int(win)
    assert seen_win < 200  # corpus is not degenerate


# f(u, v) = alpha(u) + beta(v) with alpha = (4, 5), beta = (0, 4) over Z_6:
# rank(Phi_1) = 1, though a solve through the eigenvalues of Phi_1^H Phi_1
# reads sigma_2 / sigma_1 near 1e-8 and so rank 2.
ADDITIVE_Z6 = LinearGame(
    FiniteAbelianGroup([6]), np.array([[4, 2], [5, 3]]), q_num=np.ones((2, 2), dtype=np.int64), q_den=4
)


def test_additive_z6_game_has_rank_one():
    assert phi1_rank_at_most_one(ADDITIVE_Z6)
    assert analyze([ADDITIVE_Z6])[0].rank_phi1 == 1


def test_additive_z6_game_passes_pseudo_telepathy_check():
    report = analyze([ADDITIVE_Z6])[0]
    assert report.rank_phi1 == 1
    assert report.classical_value_exact == 1


def rank_corpus(seed: int, count: int):
    """Uniform games over Z_2..Z_6 with m = 2..5 questions a side; every
    third one has additive f(u, v) = alpha(u) + beta(v), so rank(Phi_1) = 1."""
    rng = SplitMix64(seed)
    for i in range(count):
        d, m = 2 + i % 5, 2 + (i // 5) % 4
        if i % 3 == 0:
            alpha = [rng.randbelow(d) for _ in range(m)]
            beta = [rng.randbelow(d) for _ in range(m)]
            f = [[(a + b) % d for b in beta] for a in alpha]
        else:
            f = [[rng.randbelow(d) for _ in range(m)] for _ in range(m)]
        ones = np.ones((m, m), dtype=np.int64)
        yield LinearGame(FiniteAbelianGroup([d]), np.array(f), q_num=ones, q_den=m * m)


def test_rank_phi1_matches_minor_oracle_on_corpus():
    rank_one = 0
    corpus = list(rank_corpus(seed=6, count=1200))
    for game, report in zip(corpus, analyze(corpus)):
        expected = phi1_rank_at_most_one(game)
        assert (report.rank_phi1 == 1) == expected, game.f_idx.tolist()
        assert (report.classical_value_exact == 1) == expected
        rank_one += expected
    assert 400 <= rank_one < 1200


def test_pseudo_telepathy_check_float_q_matches_exact_q():
    # The rank-1 verdict and the classical value do not depend on whether
    # a uniform q is given as exact weights or as floats.
    rng = SplitMix64(4)
    games = [rank_one_game(Z3, [0, 1, 2], [1, 1, 0]), CHSH3]
    games += [random_xor_game(rng, 3, 3) for _ in range(20)]
    ranks = set()
    for exact in games:
        as_float = game_from_tables(exact.group, exact.q.tolist(), exact.f_idx.tolist())
        assert not as_float.has_exact_q
        expected, report = analyze([exact, as_float])
        assert report.rank_phi1 == expected.rank_phi1
        assert report.classical_value == pytest.approx(expected.classical_value, abs=1e-12)
        ranks.add(expected.rank_phi1 == 1)
    assert ranks == {True, False}


def test_exhaustive_two_question_binary_games():
    # All 16 winning tables for d = 2, m = 2: rank(Phi_1) = 1 iff winnable.
    for code in range(16):
        f = [[(code >> (2 * u + v)) & 1 for v in range(2)] for u in range(2)]
        report = analyze([uniform_game(Z2, f)])[0]
        assert (report.rank_phi1 == 1) == (report.classical_value_exact == 1)


def test_rank_phi1_one_implies_a_perfect_strategy_only_over_z_d():
    # Character 1 of Z_2 x Z_2 sees only the first coordinate, so Phi_1 has
    # rank 1 although no strategy wins every round.  Over GF(4) the same
    # table has rank 2.
    f = [[0, 0], [0, 2]]
    groups = (FiniteAbelianGroup([2, 2]), FiniteField(2, 2))
    product, field = analyze([uniform_game(group, f) for group in groups])
    assert (product.rank_phi1, product.classical_value_exact) == (1, Fraction(3, 4))
    assert f"{product.quantum_bound:.12g}" == "0.853553390593"
    assert not product.pseudo_telepathy_possible
    assert (field.rank_phi1, field.classical_value_exact) == (2, Fraction(3, 4))


def test_perfect_play_on_uniform_games_is_decided_in_integers():
    # f(u, v) - f(u, 0) - f(0, v) + f(0, 0) = 0 decides a perfect classical
    # strategy and a bound of 1 on every group, where rank(Phi_1) = 1 does
    # so only on Z_d; uniform float weights are decided the same way.
    rng = np.random.default_rng(9)
    seen = set()
    for group in SHIFT_GROUPS + [FiniteAbelianGroup([2, 2])]:
        n = group.order
        for (m_a, m_b), additive in itertools.product(((1, 3), (2, 2), (3, 2), (2, 3)), (False, True)):
            if additive:
                f = group.addition_table()[rng.integers(0, n, m_a)[:, None], rng.integers(0, n, m_b)]
            else:
                f = rng.integers(0, n, (m_a, m_b))
            exact = LinearGame(group, f, q_num=np.ones_like(f), q_den=f.size)
            as_float = LinearGame(group, f, q=np.full(f.shape, 1.0 / f.size))
            perfect = alice_side_classical_value(exact).exact == 1
            for report in analyze([exact, as_float]):
                assert report.pseudo_telepathy_possible == perfect
                assert (report.quantum_bound_raw >= 1.0 - 1e-9) == perfect
            seen.add(perfect)
    assert seen == {True, False}


def test_report_strategies_are_the_coordinates_of_the_optimum():
    gf9 = FiniteField(3, 2)
    z2xz3 = FiniteAbelianGroup([2, 3])
    games = [uniform_game(gf9, [[1, 5, 8], [4, 0, 3]]), uniform_game(z2xz3, [[1, 5, 2], [4, 0, 3]])]
    for game, report in zip(games, analyze(games)):
        opt = classical_value(game)
        field = isinstance(game.group, FiniteField)
        coords = [el.coeffs if field else el.coords for el in elements(game.group)]
        assert report.alice_strategy == tuple(coords[i] for i in opt.alice)
        assert report.bob_strategy == tuple(coords[i] for i in opt.bob)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_analyze_chsh2_report():
    report = analyze([CHSH2])[0]
    assert report.classical_value_exact == Fraction(3, 4)
    assert report.quantum_bound == pytest.approx(0.8535533906, abs=1e-9)
    assert report.quantum_bound_raw == report.quantum_bound
    assert report.ns_value == pytest.approx(1.0, abs=1e-12)
    assert report.rank_phi1 == 2
    assert not report.pseudo_telepathy_possible
    assert report.lemma1_bound == pytest.approx(0.75)


def test_analyze_rank_one_game_flags_perfect_play():
    game = rank_one_game(Z2, [0, 1], [1, 0])
    report = analyze([game])[0]
    assert report.pseudo_telepathy_possible
    assert report.classical_value_exact == 1
    assert report.quantum_bound == pytest.approx(1.0)


def test_report_json_schema():
    doc = analyze([CHSH3])[0].to_json_dict()
    assert doc["schema"] == "nlgames/game-report/v1"
    assert doc["classical_value_exact"] == "2/3"
    assert doc["group"] == {"field": {"p": 3, "r": 1}}
    assert len(doc["norms"]) == 2
    assert isinstance(doc["classical_strategy"]["alice"][0], list)


def test_raw_bound_above_one_is_clamped():
    # Concentrating all input weight on one pair makes the analytic bound
    # vacuous; the report keeps the raw value and clamps the usable one.
    q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
    game = game_from_tables(Z2, q, [[0, 0], [0, 1]])
    report = analyze([game])[0]
    assert report.quantum_bound_raw > 1.0
    assert report.quantum_bound == 1.0
    assert report.classical_value_exact == 1
    assert report.pseudo_telepathy_possible


def test_f_entry_none_is_validation_error():
    from nlgames.games import GameValidationError

    with pytest.raises(GameValidationError, match="winning-function"):
        uniform_game(Z2, [[0, None], [0, 1]])


def test_ordering_chain_on_seeded_corpus():
    rng = SplitMix64(0)
    corpus = [random_xor_game(rng, 2 if i % 2 == 0 else 3, 2 + (i % 3)) for i in range(120)]
    for game, report in zip(corpus, analyze(corpus)):
        d = game.order
        assert 1.0 / d <= report.lemma1_bound + 1e-12
        assert report.lemma1_bound <= report.classical_value + 1e-12
        assert report.classical_value <= min(1.0, report.quantum_bound) + 1e-9
        assert report.ns_value == pytest.approx(1.0, abs=1e-12)


def test_analyze_mixed_list_equals_solo_reports():
    # One index table over Z3 x Z3 and over GF(9), and one over Z2 x Z2 and
    # over GF(4): groups of one order and one question shape whose character
    # tables differ, so a grouping key that merged them would solve one game
    # of each pair with the other's characters.
    rng = SplitMix64(12)
    f9 = np.array([[rng.randbelow(9) for _ in range(3)] for _ in range(3)])
    z3z3, gf9 = FiniteAbelianGroup([3, 3]), FiniteField(3, 2)
    gf9_games = [LinearGame(g, f9, q_num=np.ones_like(f9), q_den=9) for g in (z3z3, gf9)]
    z5 = [random_f_game(FiniteAbelianGroup([5]), rng, 3, 3) for _ in range(3)]
    z2 = [random_f_game(Z2, rng, 4, 4) for _ in range(3)]
    z2z3 = [random_f_game(FiniteAbelianGroup([2, 3]), rng, 2, 3, exact=False) for _ in range(2)]
    f4 = np.array([[rng.randbelow(4) for _ in range(4)] for _ in range(2)])
    z2z2, gf4 = FiniteAbelianGroup([2, 2]), FiniteField(2, 2)
    gf4_games = [LinearGame(g, f4, q_num=np.ones_like(f4), q_den=8) for g in (z2z2, gf4)]
    games = [z5[0], z2[0], gf9_games[0], z2z3[0], z5[1], gf9_games[1], z2[1]]
    games += [gf4_games[0], z2z3[1], z5[2], gf4_games[1], z2[2]]
    mixed = analyze(games)
    assert len(mixed) == len(games)
    for report, game in zip(mixed, games):
        solo = analyze([game])[0]
        assert report == solo
        assert np.array(report.norms).tobytes() == np.array(solo.norms).tobytes()
    assert mixed[2].norms != mixed[5].norms
    assert mixed[7].norms != mixed[10].norms


def test_phi_spectra_groups_games_of_different_groups():
    rng = SplitMix64(5)
    z5_game = random_xor_game(rng, 5, 3)
    z3_game = random_xor_game(rng, 3, 3)
    spectra = phi_spectra([z5_game, z3_game])
    assert [len(s) for s in spectra] == [4, 2]
    for game, values in zip((z5_game, z3_game), spectra):
        for s, solo in zip(values, phi_spectra([game])[0]):
            assert np.array_equal(s, solo)
    assert phi_spectra([]) == []
    assert analyze([]) == []


# ---------------------------------------------------------------------------
# Product games
# ---------------------------------------------------------------------------


def test_chsh_and_chsh_has_classical_value_five_eighths():
    # Two CHSH games played at once are won classically with 10/16, not the
    # 9/16 of playing each alone (Barrett, Collins, Hardy, Kent and Popescu,
    # 2002); the uniform bound is the CHSH bound squared, to the bit.
    chsh, both = analyze([CHSH2, product_game(CHSH2, CHSH2)])
    assert both.classical_value_exact == Fraction(5, 8)
    assert both.quantum_bound_raw == 0.7285533905932737 == chsh.quantum_bound_raw**2


def test_chsh_cubed_has_classical_value_31_64(monkeypatch):
    # 8^8 assignments, over the default budget.
    monkeypatch.setattr(bounds, "DEFAULT_ENUMERATION_BUDGET", 10**8)
    game = product_game(product_game(CHSH2, CHSH2), CHSH2)
    assert analyze([game])[0].classical_value_exact == Fraction(31, 64)


def test_product_norms_are_kronecker_products_of_the_factors_norms():
    # Phi_(x, y) is Phi_x (x) Psi_y, so its norm is ||Phi_x|| * ||Psi_y||,
    # with ||Phi_e|| = ||q||_2; for uniform q the bound is multiplicative,
    # and playing the factors' optimal strategies side by side is one
    # strategy for the product.
    rng = SplitMix64(0)
    for _ in range(40):
        first = random_xor_game(rng, 2 + rng.randbelow(3), 2)
        second = random_xor_game(rng, 2 + rng.randbelow(3), 2)
        product = product_game(first, second)
        reports = analyze([first, second, product])
        bound = [r.quantum_bound_raw for r in reports]
        value = [r.classical_value_exact for r in reports]
        assert abs(bound[2] - bound[0] * bound[1]) <= 1e-15
        assert value[2] >= value[0] * value[1]
        norms = [[np.linalg.norm(g.q, 2), *phi_norms(g)] for g in (first, second)]
        want = np.outer(*norms).ravel()[1:]
        assert np.all(np.abs(np.array(phi_norms(product)) - want) <= 1e-15 * want)
