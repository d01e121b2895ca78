import random
from fractions import Fraction

import numpy as np
import pytest

from nlgames.algebra import FiniteAbelianGroup, FiniteField
from nlgames.games import (
    GameFormatError,
    GameValidationError,
    LinearGame,
    chsh_d,
    game_from_json,
    game_from_tables,
    game_to_json,
    random_xor_game,
)
from nlgames.nlc import nlc_spec_from_json
from nlgames.rng import SplitMix64
from oracles import (
    box_from_correlators,
    correlators_directly,
    correlators_from_box,
    direct_win_sum,
    elements,
    evaluate_box,
    evaluate_box_directly,
    fraction_game_tables,
    mul,
    random_box_table,
    seeded_box,
    signaling_defect,
    strategy_box,
    win_prob_from_correlators,
)

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])


def uniform_q(m_a, m_b):
    return [[Fraction(1, m_a * m_b)] * m_b for _ in range(m_a)]


def small_game(group, f, q=None):
    m_a, m_b = len(f), len(f[0])
    return game_from_tables(group, q or uniform_q(m_a, m_b), f)


CHSH2 = small_game(Z2, [[0, 0], [0, 1]])


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_chsh2_construction():
    assert CHSH2.mA == CHSH2.mB == 2
    assert CHSH2.order == 2
    assert CHSH2.has_exact_q
    assert Fraction(int(CHSH2.q_num[0, 0]), CHSH2.q_den) == Fraction(1, 4)
    assert CHSH2.f_idx[1, 1] == 1
    assert np.all(CHSH2.q_num * CHSH2.q_num.size == CHSH2.q_den)


def test_unnormalized_q_rejected():
    with pytest.raises(GameValidationError, match="sums to"):
        small_game(Z2, [[0, 0], [0, 1]], q=[[0.225] * 2, [0.225] * 2])
    with pytest.raises(GameValidationError, match="sums to"):
        small_game(Z2, [[0, 0], [0, 1]], q=[[Fraction(9, 40)] * 2] * 2)
    with pytest.raises(GameValidationError, match="sums to"):
        small_game(Z2, [[0, 0], [0, 1]], q=[[10**20, 0], [0, 0]])


def test_negative_q_rejected():
    with pytest.raises(GameValidationError, match="nonnegative"):
        small_game(Z2, [[0, 0], [0, 1]], q=[[0.75, -0.25], [0.25, 0.25]])
    with pytest.raises(GameValidationError, match="nonnegative"):
        small_game(Z2, [[0, 0], [0, 1]], q=[[Fraction(3, 4), Fraction(-1, 4)],
                                            [Fraction(1, 4), Fraction(1, 4)]])
    with pytest.raises(GameValidationError, match="nonnegative"):
        small_game(Z2, [[0, 0], [0, 1]], q=[[-(10**20), 0], [0, 1]])


def test_ragged_tables_rejected():
    with pytest.raises(GameValidationError, match="rectangular|shape"):
        small_game(Z2, [[0, 0], [0]])
    with pytest.raises(GameValidationError, match="rectangular"):
        game_from_tables(Z2, [[0.5, 0.5], [0.0]], [[0, 0], [0, 1]])


def test_f_outside_group_rejected():
    with pytest.raises(GameValidationError, match="winning-function"):
        small_game(Z2, [[0, 0], [0, 5]])
    with pytest.raises(GameValidationError, match="winning-function"):
        small_game(Z2, [[0, 0], [0, (1, 1)]])


def test_float_q_loses_exact_mode():
    g = small_game(Z2, [[0, 0], [0, 1]], q=[[0.25, 0.25], [0.25, 0.25]])
    assert not g.has_exact_q
    assert g.q_num is None
    assert np.all(g.q == 0.25)


def test_tables_are_frozen():
    with pytest.raises(ValueError):
        CHSH2.q[0, 0] = 0.5
    with pytest.raises(ValueError):
        CHSH2.f_idx[0, 0] = 1


F22 = np.array([[0, 0], [0, 1]])
ONES = np.ones((2, 2), dtype=np.int64)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"f_idx": F22, "q_num": np.array([[2, 1], [1, -1]]), "q_den": 3}, "nonnegative"),
        ({"f_idx": F22, "q_num": ONES, "q_den": 5}, "sums to 4/5, not 1"),
        ({"f_idx": F22, "q_num": ONES * 10**15, "q_den": 4 * 10**15}, "common denominator"),
        ({"f_idx": F22, "q_num": ONES / 4, "q_den": 1}, "numerators must be int64"),
        ({"f_idx": np.array([[0, 0], [0, 2]]), "q_num": ONES, "q_den": 4}, "winning-function"),
        ({"f_idx": np.array([[0, -1], [0, 1]]), "q_num": ONES, "q_den": 4}, "winning-function"),
        ({"f_idx": np.zeros((2, 3), dtype=np.int64), "q_num": ONES, "q_den": 4}, "shape"),
        ({"f_idx": F22, "q": np.full((2, 2), 0.3)}, "sums to"),
        ({"f_idx": F22, "q": np.array([[0.75, -0.25], [0.25, 0.25]])}, "nonnegative"),
        ({"f_idx": F22[0], "q": np.full(2, 0.5)}, "rectangular"),
        # NaN compares False with everything, so it fails no sign or sum test.
        ({"f_idx": F22, "q": np.array([[np.nan, 1.0], [0.0, 0.0]])}, "must be finite"),
    ],
)
def test_linear_game_validates_its_arrays(kwargs, message):
    with pytest.raises(GameValidationError, match=message):
        LinearGame(group=Z2, **kwargs)


def test_linear_game_derives_q_from_exact_weights():
    game = LinearGame(group=Z2, f_idx=F22, q_num=np.array([[1, 2], [3, 4]]), q_den=10)
    assert np.array_equal(game.q, np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert Fraction(int(game.q_num[1, 0]), game.q_den) == Fraction(3, 10)
    with pytest.raises(ValueError):
        game.q_num[0, 0] = 0


def assert_same_game(built, parsed):
    for name in ("q", "f_idx", "q_num"):
        assert np.array_equal(getattr(built, name), getattr(parsed, name)), name
    assert built.q_den == parsed.q_den


@pytest.mark.parametrize("d, m", [(2, 3), (3, 4), (5, 7)])
def test_random_xor_game_matches_parsed_tables(d, m):
    rng = SplitMix64(11)
    f = [[rng.randbelow(d) for _ in range(m)] for _ in range(m)]
    game = random_xor_game(SplitMix64(11), d, m)
    parsed = game_from_tables(game.group, [[Fraction(1, m * m)] * m] * m, f)
    assert_same_game(game, parsed)


@pytest.mark.parametrize("p, r", [(2, 1), (5, 1), (2, 3), (3, 2)])
def test_chsh_d_matches_parsed_tables(p, r):
    field = FiniteField(p, r)
    game = chsh_d(p, r)
    f = [[int(mul(field, x, y)) for y in elements(field)] for x in elements(field)]
    parsed = game_from_tables(game.group, [[Fraction(1, field.order**2)] * field.order] * field.order, f)
    assert_same_game(game, parsed)


# ---------------------------------------------------------------------------
# CHSH-d construction
# ---------------------------------------------------------------------------


def test_chsh_d_binary_is_and_table():
    g = chsh_d(2, 1)
    assert g.mA == g.mB == 2
    expected = np.array([[0, 0], [0, 1]])
    assert np.array_equal(g.f_idx, expected)
    assert Fraction(int(g.q_num[0, 0]), g.q_den) == Fraction(1, 4)


def test_chsh_d_ternary_is_multiplication_mod_3():
    g = chsh_d(3, 1)
    for u in range(3):
        for v in range(3):
            assert g.f_idx[u, v] == (u * v) % 3


def test_chsh_d_gf4_multiplication_table():
    # GF(4) under x^2 + x + 1 with the encoding 0, 1, x, x+1.
    g = chsh_d(2, 2)
    expected = np.array(
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    )
    assert np.array_equal(g.f_idx, expected)
    assert g.f_idx[2, 2] == 3  # x * x = x + 1


@pytest.mark.parametrize("p, r", [(2, 2), (7, 1), (3, 2)])
def test_a_field_is_its_own_answer_group(p, r):
    field = FiniteField(p, r)
    assert chsh_d(field).group is field
    doc = {"group": {"field": {"p": p, "r": r}}, "mA": 1, "mB": 1, "q": [[1]], "f": [[0]]}
    parsed = game_from_json(doc).group
    assert isinstance(parsed, FiniteField)
    assert parsed.presentation() == field.presentation()
    assert np.array_equal(parsed.character_table(), field.character_table())
    assert parsed.describe() == field.describe() == {"field": {"p": p, "r": r}}


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


def test_uniform_box_marginals():
    box = np.full((2, 3, 4, 4), 1.0 / 16)
    assert signaling_defect(box) <= 1e-10
    assert signaling_defect(box) == 0.0
    assert np.allclose(box.sum(axis=3), 0.25)


def test_strategy_box_is_deterministic_and_no_signaling():
    box = strategy_box(CHSH2, [0, 1], [1, 0])
    assert box[0, 0, 0, 1] == 1.0
    assert box[1, 1, 1, 0] == 1.0
    assert signaling_defect(box) <= 1e-10


def test_mixture_of_strategy_boxes_is_no_signaling():
    rng = np.random.default_rng(8)
    boxes = [
        strategy_box(CHSH2, [rng.integers(2), rng.integers(2)],
                     [rng.integers(2), rng.integers(2)])
        for _ in range(6)
    ]
    weights = rng.random(6)
    weights /= weights.sum()
    mixed = sum(w * t for w, t in zip(weights, boxes))
    assert signaling_defect(mixed) <= 1e-10


def test_signaling_box_is_flagged():
    # Alice's output equals Bob's question: blatant signaling.
    table = np.zeros((2, 2, 2, 2))
    for u in range(2):
        for v in range(2):
            table[u, v, v, 0] = 1.0
    assert not signaling_defect(table) <= 1e-10
    assert signaling_defect(table) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_uniform_box_scores_one_over_d():
    for game, d in [(CHSH2, 2), (chsh_d(3, 1), 3), (chsh_d(2, 2), 4)]:
        box = np.full((game.mA, game.mB, d, d), 1.0 / (d * d))
        assert evaluate_box(game, box) == pytest.approx(1.0 / d, abs=1e-12)


def test_strategy_box_matches_direct_count():
    rng = SplitMix64(99)
    for _ in range(10):
        game = random_xor_game(rng, 3, 3)
        alice = [rng.randbelow(3) for _ in range(3)]
        bob = [rng.randbelow(3) for _ in range(3)]
        box = strategy_box(game, alice, bob)
        assert evaluate_box(game, box) == pytest.approx(
            evaluate_box_directly(game, box), abs=1e-12
        )


def test_random_boxes_never_score_above_one():
    rng = np.random.default_rng(17)
    game = small_game(Z2, [[0, 1], [1, 0]])
    for _ in range(1000):
        box = random_box_table(rng, 2, 2, 2)
        assert evaluate_box(game, box) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Correlators
# ---------------------------------------------------------------------------

GROUPS_FOR_FOURIER = [
    FiniteAbelianGroup([2]),
    FiniteAbelianGroup([3]),
    FiniteAbelianGroup([4]),
    FiniteAbelianGroup([2, 2]),
]


def test_uniform_box_correlators_are_delta():
    game = chsh_d(3, 1)
    t = correlators_from_box(game, np.full((3, 3, 3, 3), 1.0 / 9))
    expected = np.zeros((3, 3, 3, 3), dtype=complex)
    expected[:, :, 0, 0] = 1.0
    assert np.max(np.abs(t - expected)) < 1e-14


def test_deterministic_box_correlators_have_unit_modulus():
    game = small_game(Z3, [[0]], q=[[Fraction(1)]])
    box = strategy_box(game, [1], [2])
    t = correlators_from_box(game, box)
    assert np.allclose(np.abs(t), 1.0)
    chars = Z3.character_table()
    for x in range(3):
        for y in range(3):
            expected = np.conj(chars[x, 1]) * np.conj(chars[y, 2])
            assert t[0, 0, x, y] == pytest.approx(expected)


def test_correlators_match_loop_oracle():
    rng = np.random.default_rng(23)
    game = small_game(FiniteAbelianGroup([2, 2]), [[0, 1], [2, 3]])
    box = random_box_table(rng, 2, 2, 4)
    t = correlators_from_box(game, box)
    assert np.max(np.abs(t - correlators_directly(game, box))) < 1e-12


@pytest.mark.parametrize("group", GROUPS_FOR_FOURIER, ids=repr)
def test_fourier_round_trip(group):
    rng = np.random.default_rng(31)
    n = group.order
    for m_a, m_b in [(2, 2), (3, 4), (4, 3)]:
        f = [[rng.integers(n) for _ in range(m_b)] for _ in range(m_a)]
        game = small_game(group, f)
        box = random_box_table(rng, m_a, m_b, n)
        back = box_from_correlators(game, correlators_from_box(game, box))
        assert np.max(np.abs(back - box)) < 1e-12


def test_normalization_entry_is_one():
    rng = np.random.default_rng(37)
    game = chsh_d(3, 1)
    box = random_box_table(rng, 3, 3, 3)
    t = correlators_from_box(game, box)
    assert np.max(np.abs(t[:, :, 0, 0] - 1.0)) < 1e-12


def test_win_prob_examples():
    game = chsh_d(3, 1)
    t = correlators_from_box(game, np.full((3, 3, 3, 3), 1.0 / 9))
    assert win_prob_from_correlators(game, t, 1, 2) == pytest.approx(1.0 / 3)
    winning = strategy_box(game, [0, 0, 0], [0, 0, 0])  # wins whenever f = 0
    tw = correlators_from_box(game, winning)
    assert win_prob_from_correlators(game, tw, 0, 0) == pytest.approx(1.0)
    assert win_prob_from_correlators(game, tw, 1, 1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("group", GROUPS_FOR_FOURIER, ids=repr)
def test_win_prob_matches_direct_sum(group):
    rng = np.random.default_rng(41)
    n = group.order
    f = [[rng.integers(n) for _ in range(3)] for _ in range(2)]
    game = small_game(group, f)
    box = random_box_table(rng, 2, 3, n)
    t = correlators_from_box(game, box)
    for u in range(2):
        for v in range(3):
            assert win_prob_from_correlators(game, t, u, v) == pytest.approx(
                direct_win_sum(game, box, u, v), abs=1e-10
            )


@pytest.mark.parametrize("group", GROUPS_FOR_FOURIER, ids=repr)
def test_game_value_from_correlators_matches_evaluate(group):
    rng = np.random.default_rng(43)
    n = group.order
    f = [[rng.integers(n) for _ in range(3)] for _ in range(3)]
    game = small_game(group, f)
    box = random_box_table(rng, 3, 3, n)
    t = correlators_from_box(game, box)
    total = sum(
        game.q[u, v] * win_prob_from_correlators(game, t, u, v)
        for u in range(3)
        for v in range(3)
    )
    assert total == pytest.approx(evaluate_box(game, box), abs=1e-10)


def test_fourier_machinery_on_200_seeded_boxes():
    # Round trips to 1e-12 and win probabilities against direct sums to
    # 1e-10; each game value summed from the Fourier win probabilities must
    # also match the dense box scoring `evaluate_box`.
    rng = SplitMix64(6)
    groups = [Z2, Z3, FiniteAbelianGroup([2, 2])]
    for i in range(200):
        group = groups[i % 3]
        n = group.order
        m_a, m_b = 2 + i % 2, 2 + (i // 2) % 2
        f = np.array([[rng.randbelow(n) for _ in range(m_b)] for _ in range(m_a)])
        game = LinearGame(group, f, q_num=np.ones_like(f), q_den=f.size)
        box = seeded_box(rng, m_a, m_b, n)
        t = correlators_from_box(game, box)
        assert np.max(np.abs(box_from_correlators(game, t) - box)) < 1e-12, i
        total = 0.0
        for u in range(m_a):
            for v in range(m_b):
                fourier = win_prob_from_correlators(game, t, u, v)
                assert abs(fourier - direct_win_sum(game, box, u, v)) < 1e-10, (i, u, v)
                total += game.q[u, v] * fourier
        assert abs(total - evaluate_box(game, box)) < 1e-10, i


# ---------------------------------------------------------------------------
# Seeded game generator
# ---------------------------------------------------------------------------


def test_random_xor_game_is_reproducible():
    g1 = random_xor_game(SplitMix64(7), 3, 4)
    g2 = random_xor_game(SplitMix64(7), 3, 4)
    assert np.array_equal(g1.f_idx, g2.f_idx)
    assert g1.has_exact_q and np.all(g1.q_num * g1.q_num.size == g1.q_den)
    g3 = random_xor_game(SplitMix64(8), 3, 4)
    assert not np.array_equal(g1.f_idx, g3.f_idx)


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def test_json_round_trip_exact():
    doc = game_to_json(CHSH2)
    assert doc["group"] == {"factors": [2]}
    assert doc["q"][0][0] == [1, 4]
    again = game_from_json(doc)
    assert np.array_equal(again.f_idx, CHSH2.f_idx)
    assert Fraction(int(again.q_num[1, 1]), again.q_den) == Fraction(1, 4)


def test_json_field_group_round_trip():
    game = chsh_d(2, 2)
    doc = game_to_json(game)
    assert doc["group"] == {"field": {"p": 2, "r": 2}}
    again = game_from_json(doc)
    assert np.array_equal(again.f_idx, game.f_idx)


def test_json_accepts_floats_and_coord_lists():
    doc = {
        "group": {"factors": [2, 2]},
        "mA": 1,
        "mB": 2,
        "q": [[0.5, 0.5]],
        "f": [[[1, 0], 3]],
    }
    game = game_from_json(doc)
    assert game.f_idx[0, 0] == 2  # (1, 0) in lexicographic order
    assert game.f_idx[0, 1] == 3
    assert not game.has_exact_q


def test_json_rejects_unknown_keys():
    doc = game_to_json(CHSH2)
    doc["extra"] = 1
    with pytest.raises(GameFormatError, match="unknown keys"):
        game_from_json(doc)
    with pytest.raises(GameFormatError, match="group"):
        game_from_json({**game_to_json(CHSH2), "group": {"factors": [2], "oops": 1}})
    bad_field = {
        "group": {"field": {"p": 2, "r": 2, "modulus": [1, 1, 1]}},
        "mA": 1, "mB": 1, "q": [[1.0]], "f": [[0]],
    }
    with pytest.raises(GameFormatError, match="unknown keys"):
        game_from_json(bad_field)


@pytest.mark.parametrize(
    "parse, name, doc",
    [
        (game_from_json, "game document", game_to_json(CHSH2)),
        (nlc_spec_from_json, "NLC document", {"d": 2, "n": 1, "g": [0], "p": "uniform"}),
    ],
)
def test_game_files_and_nlc_specs_share_one_document_check(parse, name, doc):
    cases = [
        ([doc], f"{name} must be a JSON object"),
        ({**doc, "zz": 1, "extra": 2}, f"unknown keys ['extra', 'zz'] in {name}"),
        ({key: doc[key] for key in sorted(doc)[1:]}, f"{name} is missing keys {sorted(doc)[:1]}"),
        ({}, f"{name} is missing keys {sorted(doc)}"),
    ]
    for bad, message in cases:
        with pytest.raises(GameFormatError) as err:
            parse(bad)
        assert str(err.value) == message


def test_json_rejects_missing_and_misshapen():
    with pytest.raises(GameFormatError, match="missing"):
        game_from_json({"group": {"factors": [2]}, "mA": 2, "mB": 2, "q": [[1.0]]})
    with pytest.raises(GameFormatError, match="mA x mB"):
        game_from_json(
            {"group": {"factors": [2]}, "mA": 2, "mB": 2,
             "q": [[0.5, 0.5]], "f": [[0, 0], [0, 1]]}
        )
    with pytest.raises(GameFormatError, match="prime"):
        game_from_json(
            {"group": {"field": {"p": 6}}, "mA": 1, "mB": 1, "q": [[1.0]], "f": [[0]]}
        )


def test_json_unnormalized_q_is_validation_error():
    doc = {
        "group": {"factors": [2]},
        "mA": 2, "mB": 2,
        "q": [[[1, 4], [1, 4]], [[1, 4], [1, 5]]],
        "f": [[0, 0], [0, 1]],
    }
    with pytest.raises(GameValidationError, match="sums to"):
        game_from_json(doc)


# ---------------------------------------------------------------------------
# Reading outside tables
# ---------------------------------------------------------------------------


def _q_tables(rng, m_a, m_b):
    """Seeded q tables in every accepted entry form, and bad ones."""
    size = m_a * m_b
    weights = [rng.randrange(10) for _ in range(size - 1)] + [rng.randrange(1, 10)]
    total = sum(weights)
    scale = rng.randrange(2, 5)
    big = 2**70  # past int64
    # Two primes whose product, the common denominator, is past 10**15.
    p1, p2 = 100000007, 998244353
    wide = [rng.randrange(1, p1) for _ in range(size - 1)]
    wide.append(p1 * p2 - sum(wide))
    lone = rng.randrange(size)
    yield [[w, total] for w in weights]  # unreduced pairs, as game_to_json writes
    yield [[Fraction(w, total).numerator, Fraction(w, total).denominator] for w in weights]
    yield [[w * scale, total * scale] for w in weights]
    yield [(-w, -total) for w in weights]  # negative denominators, as tuples
    yield [[np.int64(w), np.int64(total)] for w in weights]
    yield [Fraction(w, total) for w in weights]
    yield [int(i == lone) for i in range(size)]  # plain ints
    yield [w / total for w in weights]
    yield [np.float64(w / total) for w in weights]
    yield [[w, total] if i % 2 else w / total for i, w in enumerate(weights)]  # exact and float
    yield [[w * big, total * big] for w in weights]  # reduces below int64
    yield [[w, p1 * p2] for w in wide]  # common denominator past 10**15
    yield [[big, 1]] + [[w, total] for w in weights[1:]]  # |w| > 1 past int64
    yield [[-big, 1]] + [[w, total] for w in weights[1:]]
    yield [[total + 1, total], [-1, total]] + [[w, total] for w in weights[2:]]  # |w| > 1
    yield [[10**400, 1]] + [[w, total] for w in weights[1:]]  # no float holds it
    yield [[w, total] for w in weights[:-1]] + [[weights[-1] + 1, total]]  # sums above 1
    yield [[-w, total] for w in weights]  # negative
    yield [[1, 2, 3]] + [[w, total] for w in weights[1:]]
    yield [[1.0, 2]] + [[w, total] for w in weights[1:]]
    yield ["ab"] + [[w, total] for w in weights[1:]]
    yield [None] + [0.0] * (size - 1)


def _f_tables(rng, group, m_a, m_b):
    """Seeded f tables: indices, coordinate lists and tuples, and bad ones."""
    n = group.order
    idx = [[rng.randrange(n) for _ in range(m_b)] for _ in range(m_a)]
    field = isinstance(group, FiniteField)
    coords = [el.coeffs if field else el.coords for el in elements(group)]
    yield idx
    yield [[np.int64(i) for i in row] for row in idx]
    yield [[coords[i] for i in row] for row in idx]
    yield [[list(coords[i]) for i in row] for row in idx]
    yield [row[:-1] + [n] for row in idx]  # one past the last index
    yield [[-1] + row[1:] for row in idx]
    yield [[2**70] + row[1:] for row in idx]
    yield idx[:-1] + [idx[-1] + [0]]  # ragged
    yield [row + [0] for row in idx]  # wrong shape
    yield [[0.5] + row[1:] for row in idx]


def _read(reader, group, q, f):
    """The arrays a reader builds, or the type and text of what it raised."""
    try:
        game = reader(group, q, f)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    q_num = None if game.q_num is None else (game.q_num.dtype, game.q_num.tolist())
    return q_num, game.q_den, game.q.dtype, game.q.shape, game.q.tobytes(), game.f_idx.dtype, game.f_idx.tolist()


def test_tables_read_as_one_fraction_per_entry_would():
    # Every q table against every f table over cyclic, product and field
    # groups: the same exact numerators, denominator, float bits and f
    # indices, or the same exception type and text.
    rng = random.Random(22)
    groups = [Z2, Z3, FiniteAbelianGroup([5]), FiniteAbelianGroup([2, 3]), FiniteField(2, 2)]
    outcomes = {"exact": 0, "float": 0, "error": 0}
    for trial in range(40):
        group = groups[trial % len(groups)]
        m_a, m_b = rng.randrange(1, 5), rng.randrange(2, 5)
        for flat in _q_tables(rng, m_a, m_b):
            q = [flat[u * m_b : (u + 1) * m_b] for u in range(m_a)]
            for f in _f_tables(rng, group, m_a, m_b):
                expected = _read(fraction_game_tables, group, q, f)
                assert _read(game_from_tables, group, q, f) == expected, (group, q, f)
                kind = "error" if isinstance(expected[0], type) else "exact" if expected[1] else "float"
                outcomes[kind] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_zero_denominators_and_booleans_are_bad_entries():
    # One Fraction per entry raised ZeroDivisionError on [1, 0] and read a
    # bool in f, or in a pair, as the int it subclasses.
    q = [[[1, 2], [1, 2]]]
    with pytest.raises(GameValidationError) as err:
        game_from_tables(Z2, [[[1, 0], [1, 2]]], [[0, 1]])
    assert str(err.value) == "invalid probability entry [1, 0]"
    with pytest.raises(GameValidationError) as err:
        game_from_tables(Z2, [[[True, 2], [1, 2]]], [[0, 1]])
    assert str(err.value) == "invalid probability entry [True, 2]"
    for f in ([[0, True]], [[np.int64(0), True]]):
        with pytest.raises(GameValidationError) as err:
            game_from_tables(Z2, q, f)
        assert str(err.value) == "invalid winning-function entry: True is not a group element"
    doc = {"group": {"factors": [2]}, "mA": True, "mB": 2, "q": q, "f": [[0, 1]]}
    with pytest.raises(GameFormatError, match="'mA' and 'mB' must be positive integers"):
        game_from_json(doc)
