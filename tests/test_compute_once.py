"""Each expensive object is built once per result: one character table per
bound, and per group and question shape of an `analyze` call (a report, a
scan block, a selftest corpus), one solved matrix per class of a game's
Phi_x equal up to row order (at most one per conjugate pair
{Phi_x, Phi_-x}), whether solo or in a stack, one subtraction table per game,
one addition and one negation table per group, an NLC game only for the
brute-force leg and no solve in a check, built-in games from integer arrays
with no table parsing, and game files of [num, den] pairs with no Fraction."""

import json
from fractions import Fraction

import numpy as np
import pytest

from nlgames import algebra, bounds, cli, games, nlc, numerics, selftest
from nlgames.algebra import FiniteAbelianGroup, Group
from nlgames.cli import EXIT_OK, main
from nlgames.games import LinearGame, chsh_d, game_from_tables, random_xor_game
from nlgames.rng import SplitMix64
from oracles import game_matrix, quantum_bound


def count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_everywhere(monkeypatch, module, name) -> list:
    """Count calls to `module.name` through every module that binds it, so
    imported copies count too."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in (games, bounds, nlc, numerics, cli):
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counted)
    return calls


def count_solves(monkeypatch) -> list:
    """The matrices solved, one entry each, whether solo or in a stack: every
    solve goes through `numerics._jacobi` with a (batch, rows, cols) stack."""
    solved = []
    original = numerics._jacobi

    def counted(stack):
        solved.extend(stack)
        return original(stack)

    monkeypatch.setattr(numerics, "_jacobi", counted)
    return solved


def test_quantum_bound_builds_one_character_table(monkeypatch):
    # Over GF(7) the six characters form three pairs {x, -x}, and every
    # Phi_x is a row permutation of Phi_1: one class, one solve.
    tables = count_calls(monkeypatch, Group, "character_table")
    solves = count_solves(monkeypatch)
    quantum_bound(chsh_d(7, 1))
    assert len(tables) == 1
    assert len(solves) == 1


def test_analyze_builds_one_table_and_solves_each_phi_once(monkeypatch):
    z2z3 = game_from_tables(
        FiniteAbelianGroup([2, 3]), [[0.25, 0.25], [0.25, 0.25]], [[0, 1], [4, 5]]
    )
    # Z_5 has pairs {1, 4}, {2, 3}; Z_2 x Z_3 has (1, 0) = -(1, 0) and two
    # pairs; every element of GF(4) is its own negative, and its three
    # Phi_x are row permutations of one another, so one of them is solved.
    for game, pairs in ((random_xor_game(SplitMix64(3), 5, 3), 2), (z2z3, 3), (chsh_d(2, 2), 1)):
        tables = count_calls(monkeypatch, Group, "character_table")
        solves = count_solves(monkeypatch)
        report = bounds.analyze([game])[0]
        assert len(tables) == 1
        assert len(solves) == pairs
        negation = game.group.negation_table()
        assert all(report.norms[x - 1] == report.norms[negation[x] - 1] for x in range(1, game.order))
        monkeypatch.undo()


FIELDS = [(p, r) for p in range(2, 62) if algebra.is_prime(p) for r in range(1, 5) if p**r <= 61]


def solo_values(game, x):
    """Singular values of Phi_x solved alone."""
    phi = game_matrix(game, game.group.character_table(), x)
    return numerics.stacked_singular_values(phi[None])[0]


@pytest.mark.parametrize("p, r", FIELDS + [(3, 4)])
def test_chsh_solves_one_phi_per_field(monkeypatch, p, r):
    # Phi_x[u, v] = Phi_1[x * u, v]: every Phi_x is a row permutation of
    # Phi_1, so all characters form one class and Phi_1 is its one solve.
    game = chsh_d(p, r)
    calls = count_everywhere(monkeypatch, numerics, "stacked_singular_values")
    solved = count_solves(monkeypatch)
    norms = bounds.phi_norms(game)
    assert len(calls) == 1
    assert len(solved) == 1
    monkeypatch.undo()
    # The class shares Phi_1's bits.  Solo solves of the other Phi_x sum in
    # another row order, and over GF(5), GF(41), GF(49) and GF(61) some of
    # them differ from Phi_1's in the last bit.
    top = float(solo_values(game, 1)[0])
    assert norms == [top] * (game.order - 1)
    for x in range(2, game.order):
        assert abs(norms[x - 1] - solo_values(game, x)[0]) <= 1e-15 * top


def uniform(group, f):
    f = np.array(f)
    return LinearGame(group, f, q_num=np.ones_like(f), q_den=f.size)


def test_a_class_is_solved_once_and_never_spans_two_games(monkeypatch):
    # f = u * v over Z_7: Phi_x[u, v] = Phi_1[x * u, v], so the pairs {1, 6},
    # {2, 5} and {3, 4} are one class.  A copy with its rows reversed is
    # equal up to row order, yet solved apart, since classes stay in a game.
    z7 = FiniteAbelianGroup([7])
    game = uniform(z7, [[u * v % 7 for v in range(7)] for u in range(7)])
    reversed_rows = uniform(z7, game.f_idx[::-1])
    for games, solves in (([game], 1), ([game, reversed_rows], 2)):
        solved = count_solves(monkeypatch)
        reports = bounds.analyze(games)
        assert len(solved) == solves
        monkeypatch.undo()
        assert reports[0] == bounds.analyze([game])[0]
    norms = reports[0].norms
    assert len(set(norms)) == 1
    for x in range(1, 7):
        assert abs(norms[x - 1] - solo_values(game, x)[0]) <= 1e-15 * norms[0]


# Rows (2^k mod 5, 0) of a Z_5 game: doubling permutes them, so Phi_1 and
# Phi_2 have equal multisets of exponent rows.  They are one class only when
# each exponent row also keeps its q row.
DOUBLING_F = [[1, 0], [2, 0], [4, 0], [3, 0]]


@pytest.mark.parametrize("colliding", [False, True])
def test_equal_exponent_rows_with_permuted_q_rows_are_solved_apart(monkeypatch, colliding):
    # With every key hashed alike, the exact comparison alone keeps classes apart.
    z5 = FiniteAbelianGroup([5])
    f = np.array(DOUBLING_F)
    weighted = LinearGame(z5, f, q_num=np.array([[1, 1], [2, 2], [3, 3], [4, 4]]), q_den=20)
    for game, solves in ((uniform(z5, f), 1), (weighted, 2)):
        if colliding:
            monkeypatch.setattr(bounds, "hash", lambda key: 0, raising=False)
        solved = count_solves(monkeypatch)
        spectra = bounds.phi_spectra([game])[0]
        assert len(solved) == solves
        monkeypatch.undo()
        for x, values in zip(range(1, 5), spectra):
            assert np.allclose(values, solo_values(game, x), rtol=0, atol=1e-15 * values[0])


def test_float_q_rows_one_bit_apart_are_solved_apart(monkeypatch):
    z5 = FiniteAbelianGroup([5])
    f = np.array(DOUBLING_F)
    q = np.full(f.shape, 0.125)
    nudged = q.copy()
    nudged[0] = np.nextafter(0.125, 1.0)
    for weights, solves in ((q, 1), (nudged, 2)):
        game = LinearGame(z5, f, q=weights)
        solved = count_solves(monkeypatch)
        bounds.phi_spectra([game])
        assert len(solved) == solves
        monkeypatch.undo()


def test_analyze_builds_each_games_winning_answers_once(monkeypatch):
    # The classical value, the no-signaling box and its score all read the
    # game's winning answers, from one subtraction table per game.
    corpus = [random_xor_game(SplitMix64(i), 3, 4) for i in range(3)] + [chsh_d(2, 2)]
    tables = count_calls(monkeypatch, Group, "subtraction_table")
    bounds.analyze(corpus)
    assert len(tables) == len(corpus)


def test_analyze_builds_one_addition_and_one_negation_table(monkeypatch):
    # The winning answers' subtraction table and the classical value's shift
    # recovery both read the group's tables, which are built once and kept.
    for game in (random_xor_game(SplitMix64(4), 3, 4), chsh_d(2, 2)):
        built = {}
        for name in ("addition_table", "negation_table"):
            built[name] = tables = []
            original = getattr(Group, name)

            def recorded(group, original=original, tables=tables):
                table = original(group)
                tables.append(table)
                return table

            monkeypatch.setattr(Group, name, recorded)
        bounds.analyze([game])
        for name, tables in built.items():
            assert len(tables) >= 2, name
            assert len({id(table) for table in tables}) == 1, name
            assert not tables[0].flags.writeable
        monkeypatch.undo()


def test_scan_solves_each_phi_once_in_one_stack_per_block(monkeypatch, capsys):
    # 40 games over Z_5 in blocks of 32 and 8: two pairs per game, each
    # block's 64 or 16 matrices of 3 x 3 in one stack, one table per block.
    assert cli.SCAN_BLOCK == 32
    tables = count_calls(monkeypatch, Group, "character_table")
    solved = count_solves(monkeypatch)
    stacks = count_calls(monkeypatch, numerics, "_jacobi")
    assert main(["scan", "--count", "40", "--d", "5", "--m", "3"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 41
    assert len(tables) == 2
    assert len(solved) == 80
    assert [len(stack) for stack, in stacks] == [64, 16]


def test_selftest_chain_checks_build_one_table_per_class(monkeypatch):
    # ordering-chain: d = 2, 3 by m = 2, 3, 4 questions a side; lemma2: Z_2..Z_6
    # by m = 2..5, the 16 binary tables being Z_2 games of m = 2, and
    # Z_2 x Z_2, Z_2 x Z_3, GF(4), GF(9) by m = 2, 3.
    for check, classes in ((selftest.check_ordering_chain, 6), (selftest.check_lemma2_equivalence, 28)):
        tables = count_calls(monkeypatch, Group, "character_table")
        assert check().passed
        assert len(tables) == classes
        monkeypatch.undo()


def test_verify_theorem3_builds_the_game_once(monkeypatch):
    # 2^4 and 3^9 assignments fit the brute-force budget, so every leg runs
    # and only brute force builds the game; 3^27 does not, and no game is
    # built.  The spectra come from FFTs of row 0, with no singular-value
    # solve.
    for spec, built in (
        (nlc.nlc_spec(2, 2, [0, 1]), 1),
        (nlc.nlc_spec(3, 2, [0, 2, 2]), 1),
        (nlc.nlc_spec(3, 3, [i * i % 3 for i in range(9)], [[k, 45] for k in range(1, 10)]), 0),
    ):
        games = count_calls(monkeypatch, nlc, "nlc_game")
        solves = count_solves(monkeypatch)
        nlc.verify_theorem3(spec)
        assert len(games) == built
        assert len(solves) == 0
        monkeypatch.undo()


def test_nlc_builds_one_game_and_one_profile(tmp_path, monkeypatch, capsys):
    # With --verify the header is read off the verification report, whose
    # spectra are FFTs, not solves, and only its brute-force leg builds the
    # game.  Without it, one profile gives mu and the bound, and the
    # strategy is scored from row 0 with no game.
    path = tmp_path / "nlc.json"
    path.write_text(json.dumps({"d": 3, "n": 2, "g": [0, 2, 2], "p": "uniform"}))
    for flags, blocks, built in ((["--verify"], True, 1), ([], False, 0)):
        games = count_everywhere(monkeypatch, nlc, "nlc_game")
        profiles = count_everywhere(monkeypatch, nlc, "lambda_profile")
        solves = count_solves(monkeypatch)
        assert main(["nlc", str(path), *flags]) == EXIT_OK
        assert ("verify blocks k=2: ok" in capsys.readouterr().out) == blocks
        assert len(games) == built
        assert len(profiles) == 1
        assert len(solves) == 0
        monkeypatch.undo()


def test_builtin_games_parse_no_tables(monkeypatch):
    builds = [
        lambda: chsh_d(5, 1),
        lambda: random_xor_game(SplitMix64(0), 3, 4),
        lambda: nlc.nlc_game(nlc.nlc_spec(3, 2, [0, 2, 2], [[1, 2], [1, 3], [1, 6]])),
    ]
    for build in builds:
        parses = count_everywhere(monkeypatch, games, "game_from_tables")
        build()
        assert parses == []
        monkeypatch.undo()


def test_game_files_of_pairs_build_no_fraction(monkeypatch):
    # The form game_to_json writes: exact [num, den] pairs and int indices.
    doc = json.loads(json.dumps(games.game_to_json(random_xor_game(SplitMix64(5), 5, 4))))
    doc["q"][0][0] = [2, 2 * doc["q"][0][0][1]]  # unreduced
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert Fraction(2, 4) == Fraction(1, 2) and len(made) == 2  # the hook sees every Fraction
    made.clear()
    game = games.game_from_json(doc)
    assert made == []
    assert game.q_den == 16 and game.q_num.tolist() == [[1] * 4] * 4
