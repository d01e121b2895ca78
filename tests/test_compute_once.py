"""Each expensive object is built once per result: one character table per
bound, and per group and question shape of an `analyze` call (a report, a
scan block, a selftest corpus), one solved matrix per conjugate pair
{Phi_x, Phi_-x}, whether solo or in a stack, one subtraction table per game,
one addition and one negation table per group, an NLC game only for the
brute-force leg and no solve in a check, built-in games from integer arrays
with no table parsing, and game files of [num, den] pairs with no Fraction."""

import json
from fractions import Fraction

from nlgames import bounds, cli, games, nlc, numerics, selftest
from nlgames.algebra import FiniteAbelianGroup, Group
from nlgames.cli import EXIT_OK, main
from nlgames.games import chsh_d, game_from_tables, random_xor_game
from nlgames.rng import SplitMix64
from oracles import quantum_bound


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
    # Over GF(7) the six characters form three pairs {x, -x}.
    tables = count_calls(monkeypatch, Group, "character_table")
    solves = count_solves(monkeypatch)
    quantum_bound(chsh_d(7, 1))
    assert len(tables) == 1
    assert len(solves) == 3


def test_analyze_builds_one_table_and_solves_each_phi_once(monkeypatch):
    z2z3 = game_from_tables(
        FiniteAbelianGroup([2, 3]), [[0.25, 0.25], [0.25, 0.25]], [[0, 1], [4, 5]]
    )
    # Z_5 has pairs {1, 4}, {2, 3}; Z_2 x Z_3 has (1, 0) = -(1, 0) and two
    # pairs; every element of GF(4) is its own negative.
    for game, pairs in ((random_xor_game(SplitMix64(3), 5, 3), 2), (z2z3, 3), (chsh_d(2, 2), 3)):
        tables = count_calls(monkeypatch, Group, "character_table")
        solves = count_solves(monkeypatch)
        report = bounds.analyze([game])[0]
        assert len(tables) == 1
        assert len(solves) == pairs
        negation = game.group.negation_table()
        assert all(report.norms[x - 1] == report.norms[negation[x] - 1] for x in range(1, game.order))
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
    # by m = 2..5, the 16 binary tables being Z_2 games of m = 2.
    for check, classes in ((selftest.check_ordering_chain, 6), (selftest.check_lemma2_equivalence, 20)):
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
