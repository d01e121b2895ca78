import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nlgames import nlc
from nlgames.algebra import FiniteAbelianGroup
from nlgames.bounds import analyze, phi_spectra
from nlgames.games import GameFormatError, GameValidationError, LinearGame
from nlgames.nlc import (
    BlockStructureError,
    LambdaProfile,
    NlcValidationError,
    TheoremVerificationError,
    lambda_profile,
    nlc_classical_strategy,
    nlc_game,
    nlc_spec,
    nlc_spec_from_json,
    verify_theorem3,
)
from oracles import (
    building_block_matrix,
    evaluate_box,
    fourier_vector,
    fraction_prefix_weights,
    game_matrix,
    prefix_fractions,
    quantum_bound,
    strategy_box,
)

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Specification validation
# ---------------------------------------------------------------------------


def test_spec_validation_errors():
    with pytest.raises(NlcValidationError, match="prime"):
        nlc_spec(4, 2, [0, 1, 2, 3])
    with pytest.raises(NlcValidationError, match="at least 1"):
        nlc_spec(2, 0, [])
    with pytest.raises(NlcValidationError, match="prefix strings"):
        nlc_spec(2, 2, [0])
    with pytest.raises(NlcValidationError, match="values must lie"):
        nlc_spec(2, 2, [0, 2])
    with pytest.raises(NlcValidationError, match="sums to 5/6, not 1"):
        nlc_spec(2, 2, [0, 1], [[1, 2], [1, 3]])
    with pytest.raises(NlcValidationError, match="exact rationals"):
        nlc_spec(2, 2, [0, 1], [0.5, 0.5])
    with pytest.raises(NlcValidationError, match="exact rationals"):
        nlc_spec(2, 2, [0, 1], [["x", "y"], [1, 2]])
    with pytest.raises(NlcValidationError, match="keyword"):
        nlc_spec(2, 2, [0, 1], "flat")
    with pytest.raises(NlcValidationError, match="supported cap 59049"):
        nlc_spec(3, 11, [0] * 3**10)
    with pytest.raises(NlcValidationError, match="game cap 729"):
        nlc_game(nlc_spec(3, 7, [0] * 3**6))


def test_spec_checks_n_and_its_cap_before_the_primality_of_d():
    with pytest.raises(NlcValidationError, match="n must be at least 1, got 0"):
        nlc_spec(4, 0, [])
    with pytest.raises(NlcValidationError, match="d\\^n = 1048576 exceeds the supported cap"):
        nlc_spec(4, 10, [])
    with pytest.raises(NlcValidationError, match="d\\^n = 2\\^17 exceeds the supported cap"):
        nlc_spec(2, 17, [])
    with pytest.raises(NlcValidationError, match="d must be prime, got 4"):
        nlc_spec(4, 2, [0] * 4)
    with pytest.raises(NlcValidationError, match="d must be prime, got -1000"):
        nlc_spec(-1000, 2, [])


@pytest.mark.parametrize(
    "d, n, err",
    [(3.9, 2.2, "d must be an integer, got 3.9"), (3, "2", "n must be an integer, got '2'"),
     (True, 1, "d must be an integer, got True")],
    ids=["d-float", "n-str", "d-bool"],
)
def test_spec_parameters_are_checked_not_truncated(d, n, err):
    with pytest.raises(NlcValidationError) as exc:
        nlc_spec(d, n, [0, 1, 2])
    assert str(exc.value) == err
    spec = nlc_spec(np.int64(3), np.int32(2), [0, 1, 2])
    assert (type(spec.d), type(spec.n), spec.d, spec.n) == (int, int, 3, 2)


def test_mu_outside_the_answer_range_is_rejected():
    spec = nlc_spec(3, 2, [0, 1, 2])
    for mu in (-1, 3):
        with pytest.raises(NlcValidationError) as exc:
            nlc_classical_strategy(spec, mu)
        assert str(exc.value) == f"mu must lie in [0, 3), got {mu}"


def test_mu_is_checked_not_truncated():
    spec = nlc_spec(3, 2, [0, 1, 2])
    for mu in (1.5, True, "1"):
        with pytest.raises(NlcValidationError) as exc:
            nlc_classical_strategy(spec, mu)
        assert str(exc.value) == f"mu must be an integer, got {mu!r}"
    assert nlc_classical_strategy(spec, np.int64(1)) == nlc_classical_strategy(spec, 1)


def test_out_of_range_target_names_one_entry():
    # At the spec cap the whole table would print as ~59,000 characters.
    with pytest.raises(NlcValidationError) as err:
        nlc_spec(3, 10, [5] * 3**9)
    assert str(err.value) == "g values must lie in [0, 3), got g[0] = 5"
    with pytest.raises(NlcValidationError, match=r"got g\[2\] = -1$"):
        nlc_spec(2, 3, [0, 1, -1, 2])


def prefix_weight_lists(rng, size):
    """Seeded prefix distributions in every accepted form, and bad ones."""
    weights = [rng.randrange(0, 10) for _ in range(size - 1)] + [1]
    total = sum(weights)
    scale = rng.randrange(1, 4)
    yield [[w, total] for w in weights]  # unreduced pairs, as JSON gives them
    yield [[w * scale, total * scale] for w in weights]
    yield [(-w, -total) for w in weights]  # negative denominators
    yield [Fraction(w, total) for w in weights]
    yield [[w, total] for w in weights[:-1]] + [Fraction(1, total)]
    yield [[True, 1]] + [[0, 1]] * (size - 1)
    yield [np.int64(1)] + [0] * (size - 1)
    yield [[w, total] for w in weights[:-1]]  # one entry short
    yield [[w + 1, total] for w in weights]  # sums above 1
    yield [[-1, total]] + [[w, total] for w in weights[1:]]
    yield [[1, -2]] + [[w, total] for w in weights[1:]]
    yield [0.5] + [[w, total] for w in weights[1:]]
    yield [0.5, ["x", "y"]] + [[w, total] for w in weights[2:]]  # the bad entry wins
    yield [[1, 2, 3]] + [[w, total] for w in weights[1:]]
    yield ["ab"] + [[w, total] for w in weights[1:]]
    yield [{1: 0, 2: 0}] + [[w, total] for w in weights[1:]]
    yield [[1.0, 2]] + [[w, total] for w in weights[1:]]
    yield [[w, total] for w in weights[:-1]] + [[1, 0]]  # a zero denominator


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 2), (5, 3), (2, 9), (3, 10)])
def test_prefix_weights_match_one_fraction_per_entry(d, n):
    rng = random.Random(10 * d + n)
    size = d ** (n - 1)
    g = [rng.randrange(d) for _ in range(size)]
    for p in prefix_weight_lists(rng, size):
        try:
            expected = fraction_prefix_weights(p, size)
        except NlcValidationError as exc:
            with pytest.raises(NlcValidationError) as err:
                nlc_spec(d, n, g, p)
            assert str(err.value) == str(exc)
            continue
        spec = nlc_spec(d, n, g, p)
        assert (spec.p_num, spec.p_den) == expected
        assert prefix_fractions(spec) == tuple(Fraction(num, expected[1]) for num in expected[0])
    # A zero denominator is a bad entry, named like any other.
    with pytest.raises(NlcValidationError) as err:
        nlc_spec(d, n, g, [[1, 0]] * size)
    assert str(err.value) == "prefix probabilities must be exact rationals: invalid probability entry [1, 0]"


def test_weighted_and_uniform_specs_are_equal():
    assert nlc_spec(3, 2, [0, 1, 2], [[2, 6], [1, 3], [3, 9]]) == nlc_spec(3, 2, [0, 1, 2])


def _row0_by_fractions(spec):
    """q0's denominator and prefix numerators with one Fraction per weight."""
    weights = [w / spec.d ** (spec.n + 1) for w in prefix_fractions(spec)]
    den = math.lcm(*(w.denominator for w in weights))
    return den, [w.numerator * (den // w.denominator) for w in weights]


@pytest.mark.parametrize("d, n", [(2, 1), (2, 6), (3, 2), (3, 5), (5, 3), (7, 2), (2, 15), (3, 10)])
def test_integer_weight_sums_match_fraction_arithmetic(d, n):
    # Denominators mix powers of d with other primes; with the large primes
    # the common denominator passes the 10**15 cap at 25 or more prefixes.
    rng = random.Random(100 * d + n)
    size = d ** (n - 1)
    for pool in ([1, 2, 3, d, d**2], [5, 7, 11, 13, d**3], [101, 103, 107, 109, 113, 127]):
        head = [Fraction(rng.randrange(b + 1), b * size) for b in rng.choices(pool, k=size - 1)]
        p = head + [1 - sum(head)]
        g = [rng.randrange(d) for _ in range(size)]
        spec = nlc_spec(d, n, g, [[w.numerator, w.denominator] for w in p])
        weighted = [Fraction(0)] * d
        for t, w in zip(g, p):
            weighted[t] += w / (d * d)
        assert lambda_profile(spec).weighted == tuple(weighted)
        den, nums = _row0_by_fractions(spec)
        if den > 10**15:
            with pytest.raises(GameValidationError, match="common denominator"):
                nlc._row0(spec)
            continue
        _, q0, row_den = nlc._row0(spec)
        assert row_den == den
        assert q0.tolist() == [num for num in nums for _ in range(d)]


# ---------------------------------------------------------------------------
# Game construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,t", [(2, 0), (2, 1), (3, 2)])
def test_single_dit_game_is_building_block(d, t):
    spec = nlc_spec(d, 1, [t])
    game = nlc_game(spec)
    assert game.mA == game.mB == d
    for x in range(d):
        for y in range(d):
            assert game.f_idx[x, y] == (t * (x + y)) % d
            assert Fraction(int(game.q_num[x, y]), game.q_den) == Fraction(1, d * d)
    chars = game.group.character_table()
    for k in range(1, d):
        phi = game_matrix(game, chars, k)
        assert np.max(np.abs(phi - building_block_matrix(d, k, t) / d**2)) < 1e-14


def test_two_dit_game_block_structure():
    spec = nlc_spec(2, 2, [0, 1])
    game = nlc_game(spec)
    assert game.mA == 4
    for x1, x2, y1, y2 in itertools.product(range(2), repeat=4):
        u, v = 2 * x1 + x2, 2 * y1 + y2
        assert game.f_idx[u, v] == ((x1 ^ y1) * (x2 ^ y2)) % 2
    assert game.has_exact_q
    assert np.all(game.q_num * game.q_num.size == game.q_den)


def test_weighted_game_q_table():
    spec = nlc_spec(2, 2, [0, 1], [[3, 4], [1, 4]])
    game = nlc_game(spec)
    # Block (x1, y1) carries weight p(x1 xor y1) / d^3 per entry.
    assert Fraction(int(game.q_num[0, 0]), game.q_den) == Fraction(3, 4) / 8
    assert Fraction(int(game.q_num[0, 2]), game.q_den) == Fraction(1, 4) / 8
    assert sum(Fraction(int(num), game.q_den) for num in game.q_num.flat) == 1


def test_weighted_game_matches_fraction_entries():
    # Reference: every entry's weight as a Fraction, its float, and the lcm
    # of all denominators, with the prefix sums z taken digit by digit.
    path = GOLDEN / "nlc_d2_n7_weighted.json"
    spec = nlc_spec_from_json(json.loads(path.read_text()))
    d, n, p = spec.d, spec.n, prefix_fractions(spec)
    game = nlc_game(spec)
    digits = [[(x // d**i) % d for i in reversed(range(n))] for x in range(d**n)]
    weights = []
    for x in digits:
        row = []
        for y in digits:
            z = 0
            for a, b in zip(x[:-1], y[:-1]):
                z = z * d + (a + b) % d
            row.append(p[z] / d ** (n + 1))
        weights.append(row)
    den = math.lcm(*(w.denominator for row in weights for w in row))
    assert game.q_den == den
    assert np.array_equal(game.q_num, np.array([[int(w * den) for w in row] for row in weights]))
    assert np.array_equal(game.q, np.array([[float(w) for w in row] for row in weights]))


# ---------------------------------------------------------------------------
# Multiplicity profiles
# ---------------------------------------------------------------------------


def test_profile_identity_function():
    prof = lambda_profile(nlc_spec(3, 2, [0, 1, 2]))
    assert prof.counts == (1, 1, 1)
    assert prof.mu == 0
    assert sum(prof.weighted) == Fraction(1, 9)


def test_profile_two_dit_product_function():
    # g(z1, z2) = z1 * z2 over Z_2: three strings map to 0, one maps to 1.
    spec = nlc_spec(2, 3, [0, 0, 0, 1])
    prof = lambda_profile(spec)
    assert prof.counts == (3, 1)
    assert prof.mu == 0
    assert sum(prof.counts) == 4


def test_profile_point_mass():
    spec = nlc_spec(3, 2, [2, 0, 1], [[0, 1], [1, 1], [0, 1]])
    prof = lambda_profile(spec)
    assert prof.weighted == (Fraction(1, 9), Fraction(0), Fraction(0))
    assert prof.weighted_max == Fraction(1, 9)
    assert prof.mu == 0


def test_profile_tie_breaks_to_smallest():
    prof = lambda_profile(nlc_spec(2, 3, [0, 0, 1, 1]))
    assert prof.counts == (2, 2)
    assert prof.mu == 0


# ---------------------------------------------------------------------------
# Bounds and strategies
# ---------------------------------------------------------------------------


def test_uniform_bound_instances():
    assert lambda_profile(nlc_spec(2, 2, [0, 1])).bound == Fraction(3, 4)
    assert lambda_profile(nlc_spec(3, 2, [0, 1, 2])).bound == Fraction(5, 9)


@pytest.mark.parametrize(
    "spec",
    [
        nlc_spec(2, 2, [1, 1]),
        nlc_spec(3, 2, [2, 2, 2]),
        nlc_spec(2, 3, [0, 0, 0, 0], [[1, 2], [1, 4], [1, 8], [1, 8]]),
    ],
)
def test_constant_g_saturates_bound(spec):
    assert lambda_profile(spec).bound == 1
    strat = nlc_classical_strategy(spec, lambda_profile(spec).mu)
    assert strat.value == 1
    assert strat.mu == spec.g[0]


def test_strategy_value_matches_box_evaluation():
    # Two independent paths: the strategy is scored from row 0, the box is
    # evaluated on the built game.
    rng = random.Random(5)
    g = [rng.randrange(3) for _ in range(27)]
    weights = [rng.randrange(1, 10) for _ in range(27)]
    seeded = nlc_spec(3, 4, g, [[w, sum(weights)] for w in weights])
    for spec in (nlc_spec(3, 2, [0, 2, 2], [[1, 2], [1, 3], [1, 6]]), seeded):
        strat = nlc_classical_strategy(spec, lambda_profile(spec).mu)
        game = nlc_game(spec)
        box = strategy_box(game, list(strat.alice), list(strat.bob))
        assert evaluate_box(game, box) == pytest.approx(float(strat.value), abs=1e-12)
        # Closed form: (1/d) * (1 + d^2 (d-1) * weighted_max).
        prof = lambda_profile(spec)
        closed = Fraction(1, 3) * (1 + 9 * 2 * prof.weighted_max)
        assert strat.value == closed


def test_strategy_value_equal_across_tied_maximizers():
    spec = nlc_spec(2, 3, [0, 0, 1, 1])
    v0 = nlc_classical_strategy(spec, mu=0).value
    v1 = nlc_classical_strategy(spec, mu=1).value
    assert v0 == v1 == lambda_profile(spec).bound


def test_non_maximizer_mu_scores_strictly_less():
    spec = nlc_spec(2, 3, [0, 0, 0, 1])
    best = nlc_classical_strategy(spec, lambda_profile(spec).mu).value
    worse = nlc_classical_strategy(spec, mu=1).value
    assert worse < best


def test_strategy_ignores_prefix():
    spec = nlc_spec(3, 2, [1, 0, 2])
    strat = nlc_classical_strategy(spec, lambda_profile(spec).mu)
    for x in range(9):
        assert strat.alice[x] == strat.alice[x % 3]
        assert strat.alice[x] == (strat.mu * (x % 3)) % 3


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------


def test_verify_theorem3_uniform_examples():
    for spec in [
        nlc_spec(2, 2, [0, 1]),
        nlc_spec(2, 3, [0, 1, 1, 0]),
        nlc_spec(3, 2, [0, 2, 1]),
        nlc_spec(5, 1, [3]),
    ]:
        report = verify_theorem3(spec)
        assert report.strategy_value == report.profile.bound
        assert report.brute_force_value == report.profile.bound
        assert report.spectral_bound == pytest.approx(float(report.profile.bound), abs=1e-10)


def test_verify_theorem3_single_dit_games_are_winnable():
    for d in (2, 3):
        for t in range(d):
            report = verify_theorem3(nlc_spec(d, 1, [t]))
            assert report.profile.bound == 1
            assert report.brute_force_value == 1


def test_verify_theorem3_weighted_rational():
    report = verify_theorem3(nlc_spec(2, 2, [0, 1], [[3, 4], [1, 4]]))
    assert report.profile.bound == Fraction(7, 8)
    assert report.brute_force_value == Fraction(7, 8)


def test_verify_theorem3_skips_brute_force_over_budget():
    # 3^27 assignments, over the default budget.
    spec = nlc_spec(3, 3, [0, 1, 2, 1, 2, 0, 2, 0, 1])
    report = verify_theorem3(spec)
    assert report.brute_force_value is None
    assert report.spectral_bound == pytest.approx(float(report.profile.bound), abs=1e-10)


def test_ns_box_beats_quantum_bound_witness():
    # Non-constant g with full-support p: the no-signaling box wins while the
    # quantum bound stays strictly below 1.
    specs = [
        nlc_spec(2, 2, g, [[3, 4], [1, 4]])
        for g in ([0, 1], [1, 0])
    ] + [
        nlc_spec(2, 2, [0, 1]),
        nlc_spec(3, 2, [0, 1, 0], [[1, 2], [1, 4], [1, 4]]),
    ]
    for spec in specs:
        game = nlc_game(spec)
        assert analyze([game])[0].ns_value == pytest.approx(1.0, abs=1e-12)
        assert float(lambda_profile(spec).bound) < 1.0
        assert quantum_bound(game) < 1.0


FIXED_RATIONAL_P = {
    2: [[(3, 4), (1, 4)], [(1, 2), (1, 2)], [(1, 3), (2, 3)]],
    4: [
        [(1, 2), (1, 4), (1, 8), (1, 8)],
        [(1, 4)] * 4,
        [(2, 5), (1, 5), (1, 5), (1, 5)],
    ],
    3: [[(1, 2), (1, 3), (1, 6)], [(1, 3)] * 3, [(3, 5), (1, 5), (1, 5)]],
}


def test_theorem3_exhaustive_with_rational_distributions():
    # Every g-table for d=2 (n=2,3) and d=3 (n=2), against uniform and three
    # fixed rational prefix distributions: exact equality on all legs.
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        size = d ** (n - 1)
        distributions = ["uniform"] + FIXED_RATIONAL_P[size]
        for g in itertools.product(range(d), repeat=size):
            for p in distributions:
                report = verify_theorem3(nlc_spec(d, n, g, p))
                assert report.strategy_value == report.profile.bound
                assert report.brute_force_value == report.profile.bound


def test_profile_is_row_independent():
    # Recompute the multiplicity profile from every row block of the prefix
    # addition table, one- and multi-digit prefixes alike.
    for spec in [
        nlc_spec(3, 2, [0, 2, 2], [[1, 2], [1, 3], [1, 6]]),
        nlc_spec(2, 4, [0, 1, 1, 0, 1, 1, 1, 0], [[k, 36] for k in range(1, 9)]),
        nlc_spec(3, 3, [0, 2, 1, 1, 1, 0, 2, 2, 1], [[k, 45] for k in range(1, 10)]),
    ]:
        prof = lambda_profile(spec)
        d, p = spec.d, prefix_fractions(spec)
        for row in FiniteAbelianGroup([d] * (spec.n - 1)).addition_table():
            counts = [0] * d
            weighted = [Fraction(0)] * d
            for z in row:
                counts[spec.g[z]] += 1
                weighted[spec.g[z]] += p[z] / (d * d)
            assert tuple(counts) == prof.counts
            assert tuple(weighted) == prof.weighted


# ---------------------------------------------------------------------------
# Block-circulant structure
# ---------------------------------------------------------------------------


def test_building_block_eigen_identity():
    # B_k(t)^H B_k(t') f_j = d^2 delta_{t,t'} delta_{j, -k t mod d} f_j.
    for d in (2, 3, 5):
        for k in range(1, d):
            for t in range(d):
                for t2 in range(d):
                    prod = building_block_matrix(d, k, t).conj().T @ building_block_matrix(d, k, t2)
                    for j in range(d):
                        fj = fourier_vector(d, j)
                        expected = (
                            d * d * fj
                            if (t == t2 and j == (-k * t) % d)
                            else np.zeros(d)
                        )
                        assert np.max(np.abs(prod @ fj - expected)) < 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        nlc_spec(2, 2, [0, 1]),
        nlc_spec(2, 2, [1, 1]),
        nlc_spec(3, 2, [0, 1, 2]),
        nlc_spec(3, 2, [2, 2, 0]),
        nlc_spec(2, 3, [0, 1, 1, 0]),
        nlc_spec(3, 2, [0, 1, 2], [[1, 2], [1, 3], [1, 6]]),
    ],
    # Named by the weights as Fractions, so the ids do not depend on how a
    # spec stores them.
    ids=lambda spec: f"NlcSpec(d={spec.d}, n={spec.n}, g={spec.g}, p={prefix_fractions(spec)})",
)
def test_block_circulant_structure(spec):
    report = verify_theorem3(spec)
    assert len(report.norms) == spec.d - 1
    expected = float(report.profile.weighted_max * spec.d**2 / spec.d**spec.n)
    for norm in report.norms:
        assert norm == pytest.approx(expected, abs=1e-10)


def test_block_circulant_uniform_norm_bridging():
    # With uniform weight 1/d^(2n) on entries the norm is d * Lambda / d^(2n).
    spec = nlc_spec(3, 2, [0, 0, 1])
    prof = lambda_profile(spec)
    d, n = 3, 2
    for norm in verify_theorem3(spec).norms:
        assert norm == pytest.approx(d * max(prof.counts) / d ** (2 * n), abs=1e-12)


def test_block_checks_run_at_every_size():
    # 81, 128 and 243 questions: the block checks have no size cap.
    for spec in [
        nlc_spec(3, 4, [i * i % 3 for i in range(27)]),
        nlc_spec(2, 7, [i % 3 % 2 for i in range(64)]),
        nlc_spec(3, 5, [i * i % 3 for i in range(81)]),
    ]:
        assert len(verify_theorem3(spec).norms) == spec.d - 1


def _seeded_specs():
    # d in {2, 3, 5, 7} up to 243 questions, each uniform and weighted.
    rng = random.Random(11)
    for d, n in [(2, 3), (2, 5), (2, 7), (3, 2), (3, 4), (3, 5), (5, 2), (5, 3), (7, 1), (7, 2)]:
        size = d ** (n - 1)
        g = [rng.randrange(d) for _ in range(size)]
        weights = [rng.randrange(1, 10) for _ in range(size)]
        yield pytest.param(nlc_spec(d, n, g), id=f"seeded_d{d}_n{n}")
        p = [[w, sum(weights)] for w in weights]
        yield pytest.param(nlc_spec(d, n, g, p), id=f"seeded_d{d}_n{n}_weighted")


def _golden_specs():
    # Only specs that `nlc_game` builds: Jacobi needs the dense Phi_k.
    for path in sorted(GOLDEN.glob("nlc_*.json")):
        spec = nlc_spec_from_json(json.loads(path.read_text()))
        if spec.d**spec.n <= nlc.MAX_GAME_QUESTIONS:
            yield pytest.param(spec, id=path.stem)


JACOBI_REFERENCE_SPECS = [*_golden_specs(), *_seeded_specs()]


@pytest.mark.parametrize("spec", JACOBI_REFERENCE_SPECS)
def test_fft_spectra_match_jacobi(spec):
    # Jacobi on the dense Phi_k of the built game is the independent
    # reference for the FFT of row 0.
    game = nlc_game(spec)
    spectra = list(nlc._spectra(nlc._row0(spec), spec.d, spec.n))
    assert len(spectra) == spec.d - 1
    for fft, s in zip(spectra, phi_spectra([game])[0]):
        assert fft.shape == (spec.d,) * spec.n
        assert np.max(np.abs(np.sort(fft.ravel())[::-1] - s)) <= 1e-12 * s[0]


@pytest.mark.parametrize("n", [5, 6])
def test_scaled_profile_entry_fails_block_check(n, monkeypatch):
    # g = i^2 mod 3 has weighted profile (1/27, 2/27, 0).  Scaling the
    # non-maximal 1/27 by (1 + 1e-9) leaves the bound and mu alone and moves
    # one expected singular value by about 1e-12 (243 questions) and 5e-13
    # (729), far above the FFT's rounding error at these sizes.
    spec = nlc_spec(3, n, [i * i % 3 for i in range(3 ** (n - 1))])
    prof = lambda_profile(spec)
    weighted = (prof.weighted[0] * (1 + Fraction(1, 10**9)), *prof.weighted[1:])
    assert prof.weighted_max == max(weighted)
    monkeypatch.setattr(nlc, "lambda_profile", lambda _: LambdaProfile(prof.counts, weighted))
    with pytest.raises(BlockStructureError, match="Fourier index 0"):
        verify_theorem3(spec)


@pytest.mark.parametrize("table", ["f_idx", "q_num"])
def test_game_off_the_xor_structure_fails(table, monkeypatch):
    # Rotating one row of either table breaks Phi_k[x, y] = h_k(x (+) y).
    def rotated_game(spec):
        game = original(spec)
        arrays = {"f_idx": game.f_idx.copy(), "q_num": game.q_num.copy()}
        arrays[table][1] = np.roll(arrays[table][1], 1)
        return LinearGame(group=game.group, q_den=game.q_den, **arrays)

    original = nlc.nlc_game
    monkeypatch.setattr(nlc, "nlc_game", rotated_game)
    with pytest.raises(BlockStructureError, match=rf"{table} is not a function of x \(\+\) y"):
        verify_theorem3(nlc_spec(2, 2, [0, 1], [[3, 4], [1, 4]]))


@pytest.mark.parametrize(
    "spec",
    [
        nlc_spec(2, 2, [0, 1]),
        nlc_spec(3, 2, [0, 2, 2], [[1, 2], [1, 3], [1, 6]]),
        nlc_spec(3, 6, [i * i % 3 for i in range(243)]),
    ],
    ids=["d2_n2", "d3_n2_weighted", "d3_n6"],
)
def test_spectral_bound_off_by_1e12_fails(spec, monkeypatch):
    # The spectral leg's slack is a few eps, scaled to the FFT's rounding
    # error, so a bound 1e-12 too large no longer passes.
    original = nlc.bound_from_norms
    monkeypatch.setattr(nlc, "bound_from_norms", lambda *args: original(*args) + 1e-12)
    with pytest.raises(TheoremVerificationError, match="spectral-bound leg"):
        verify_theorem3(spec)


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def test_nlc_json_rejects_malformed():
    with pytest.raises(GameFormatError, match="unknown keys"):
        nlc_spec_from_json({"d": 2, "n": 1, "g": [0], "p": "uniform", "x": 1})
    with pytest.raises(GameFormatError, match="missing"):
        nlc_spec_from_json({"d": 2, "n": 1, "g": [0]})
    with pytest.raises(GameFormatError, match="integers"):
        nlc_spec_from_json({"d": 2.0, "n": 1, "g": [0], "p": "uniform"})
    with pytest.raises(NlcValidationError):
        nlc_spec_from_json({"d": 2, "n": 2, "g": [0, 1], "p": [[1, 2], [1, 3]]})
