from fractions import Fraction

import numpy as np
import pytest

from nlgames.algebra import FiniteAbelianGroup
from nlgames.bounds import (
    EnumerationBudgetError,
    HypothesisViolationError,
    analyze,
    classical_value,
    game_matrix,
    lemma1_bound,
    ns_winning_box,
    phi_norms,
    pseudo_telepathy_check,
    quantum_bound,
)
from nlgames.games import (
    LinearGame,
    chsh_d,
    evaluate_box,
    game_from_tables,
    random_xor_game,
    strategy_box,
)
from nlgames.numerics import matmul_adjoint, numerical_rank
from nlgames.rng import SplitMix64
from oracles import double_enumeration_optimum, phi1_rank_at_most_one

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])


def uniform_game(group, f):
    m_a, m_b = len(f), len(f[0])
    q = [[Fraction(1, m_a * m_b)] * m_b for _ in range(m_a)]
    return game_from_tables(group, q, f)


def rank_one_game(group, s, t):
    """f(u, v) = s(u) + t(v): winnable by playing the summands directly."""
    f = [[group.add(group.element(su), group.element(tv)) for tv in t] for su in s]
    return uniform_game(group, f)


CHSH2 = chsh_d(2, 1)
CHSH3 = chsh_d(3, 1)


# ---------------------------------------------------------------------------
# Game matrices
# ---------------------------------------------------------------------------


def test_game_matrix_chsh2():
    phi = game_matrix(CHSH2, 1)
    assert np.allclose(phi, np.array([[1, 1], [1, -1]]) / 4.0)


def test_game_matrix_rejects_identity():
    with pytest.raises(ValueError, match="identity"):
        game_matrix(CHSH2, 0)


def test_chsh3_matrices_equal_up_to_row_permutation():
    phi1 = game_matrix(CHSH3, 1)
    phi2 = game_matrix(CHSH3, 2)
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
        for k in (1, 2):
            phi = game_matrix(game, k)
            assert np.max(np.abs(phi).sum(axis=0)) == pytest.approx(1.0 / 4)
            assert np.max(np.abs(phi).sum(axis=1)) == pytest.approx(1.0 / 4)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_chsh_d_gram_identity(p, r):
    game = chsh_d(p, r)
    d = game.order
    for k in range(1, d):
        gram = matmul_adjoint(game_matrix(game, k))
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


def test_bound_independent_of_field_modulus():
    from nlgames.algebra import FiniteField

    base = None
    for modulus in [(1, 0, 1), (2, 1, 1), (2, 2, 1)]:
        field = FiniteField(3, 2, modulus=modulus)
        group = field.additive_group()
        q = [[Fraction(1, 81)] * 9 for _ in range(9)]
        f = [[field.mul(x, y) for y in field.elements] for x in field.elements]
        bound = quantum_bound(game_from_tables(group, q, f))
        if base is None:
            base = bound
        assert bound == pytest.approx(base, abs=1e-12)
        assert bound == pytest.approx(1 / 9 + 8 / 27, abs=1e-10)


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
    game = random_xor_game(SplitMix64(21), 3, 3)
    results = [classical_value(game, chunk_size=c) for c in (1, 3, 16, 4096)]
    for r in results[1:]:
        assert r.exact == results[0].exact
        assert r.alice == results[0].alice
        assert r.bob == results[0].bob


def test_budget_error_is_informative():
    game = random_xor_game(SplitMix64(5), 3, 13, 2)
    with pytest.raises(EnumerationBudgetError, match="1594323"):
        classical_value(game)


def test_float_only_games_still_enumerable():
    f = [[0, 0], [0, 1]]
    game = game_from_tables(Z2, [[0.25, 0.25], [0.25, 0.25]], f)
    opt = classical_value(game)
    assert opt.exact is None
    assert opt.value == pytest.approx(0.75)


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
    assert np.array_equal(box.table, expected)


def test_ns_winning_box_scores_one_with_uniform_marginals():
    rng = SplitMix64(33)
    games = [CHSH2, CHSH3, chsh_d(2, 2)] + [random_xor_game(rng, 3, 4) for _ in range(5)]
    for game in games:
        box = ns_winning_box(game)
        assert evaluate_box(game, box) == pytest.approx(1.0, abs=1e-12)
        n = game.order
        assert np.max(np.abs(box.alice_marginals() - 1.0 / n)) < 1e-15
        assert np.max(np.abs(box.bob_marginals() - 1.0 / n)) < 1e-15
        assert box.is_no_signaling()


# ---------------------------------------------------------------------------
# Rank-1 criterion
# ---------------------------------------------------------------------------


def test_pseudo_telepathy_check_examples():
    winnable = rank_one_game(Z3, [0, 1, 2], [1, 1, 0])
    assert pseudo_telepathy_check(winnable) == (True, True)
    assert pseudo_telepathy_check(CHSH3) == (False, False)
    assert numerical_rank(game_matrix(CHSH3, 1)) == 3


def test_pseudo_telepathy_check_corpus_agreement():
    rng = SplitMix64(1)
    seen_win = 0
    for _ in range(200):
        game = random_xor_game(rng, 3, 3)
        rank1, win = pseudo_telepathy_check(game)
        assert rank1 == win
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
    assert analyze(ADDITIVE_Z6).rank_phi1 == 1


def test_additive_z6_game_passes_pseudo_telepathy_check():
    assert pseudo_telepathy_check(ADDITIVE_Z6) == (True, True)


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
    for game in rank_corpus(seed=6, count=1200):
        expected = phi1_rank_at_most_one(game)
        report = analyze(game)
        assert (report.rank_phi1 == 1) == expected, game.f_idx.tolist()
        assert (report.classical_value_exact == 1) == expected
        rank_one += expected
    assert 400 <= rank_one < 1200


def test_pseudo_telepathy_check_float_q_matches_exact_q():
    # A float uniform q is rebuilt with exact weights before the classical
    # solve; the verdict must match the exact game's.
    rng = SplitMix64(4)
    games = [rank_one_game(Z3, [0, 1, 2], [1, 1, 0]), CHSH3]
    games += [random_xor_game(rng, 3, 3) for _ in range(20)]
    verdicts = set()
    for exact in games:
        as_float = game_from_tables(exact.group, exact.q.tolist(), exact.f_idx.tolist())
        assert not as_float.has_exact_q
        verdict = pseudo_telepathy_check(exact)
        assert pseudo_telepathy_check(as_float) == verdict
        verdicts.add(verdict)
    assert verdicts == {(True, True), (False, False)}


def test_pseudo_telepathy_check_rejects_nonuniform_q():
    q = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 8), Fraction(1, 8)]]
    game = game_from_tables(Z2, q, [[0, 0], [0, 1]])
    with pytest.raises(HypothesisViolationError, match="uniform"):
        pseudo_telepathy_check(game)


def test_pseudo_telepathy_check_rejects_noncyclic_group():
    with pytest.raises(HypothesisViolationError, match="cyclic"):
        pseudo_telepathy_check(chsh_d(2, 2))


def test_exhaustive_two_question_binary_games():
    # All 16 winning tables for d = 2, m = 2: rank(Phi_1) = 1 iff winnable.
    for code in range(16):
        f = [[(code >> (2 * u + v)) & 1 for v in range(2)] for u in range(2)]
        game = uniform_game(Z2, f)
        rank1, win = pseudo_telepathy_check(game)
        assert rank1 == win
        assert win == (classical_value(game).exact == 1)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_analyze_chsh2_report():
    report = analyze(CHSH2)
    assert report.classical_value_exact == Fraction(3, 4)
    assert report.quantum_bound == pytest.approx(0.8535533906, abs=1e-9)
    assert report.quantum_bound_raw == report.quantum_bound
    assert report.ns_value == pytest.approx(1.0, abs=1e-12)
    assert report.rank_phi1 == 2
    assert not report.pseudo_telepathy_possible
    assert report.lemma1_bound == pytest.approx(0.75)


def test_analyze_rank_one_game_flags_perfect_play():
    game = rank_one_game(Z2, [0, 1], [1, 0])
    report = analyze(game)
    assert report.pseudo_telepathy_possible
    assert report.classical_value_exact == 1
    assert report.quantum_bound == pytest.approx(1.0)


def test_report_json_schema():
    doc = analyze(CHSH3).to_json_dict()
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
    report = analyze(game)
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
    for i in range(120):
        d = 2 if i % 2 == 0 else 3
        m = 2 + (i % 3)
        game = random_xor_game(rng, d, m)
        report = analyze(game)
        assert 1.0 / d <= report.lemma1_bound + 1e-12
        assert report.lemma1_bound <= report.classical_value + 1e-12
        assert report.classical_value <= min(1.0, report.quantum_bound) + 1e-9
        assert report.ns_value == pytest.approx(1.0, abs=1e-12)
