"""Each expensive object is built once per result: one character table per
bound or report, one singular-value solve per conjugate pair {Phi_x,
Phi_-x}, one NLC game per check, and built-in games from integer arrays with
no table parsing."""

import json

from nlgames import bounds, games, nlc, numerics
from nlgames.algebra import FiniteAbelianGroup, Group
from nlgames.cli import EXIT_OK, main
from nlgames.games import chsh_d, game_from_tables, random_xor_game
from nlgames.rng import SplitMix64


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

    for owner in (games, bounds, nlc, numerics):
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counted)
    return calls


def count_solves(monkeypatch) -> list:
    return count_everywhere(monkeypatch, numerics, "singular_values")


def test_quantum_bound_builds_one_character_table(monkeypatch):
    # Over GF(7) the six characters form three pairs {x, -x}.
    tables = count_calls(monkeypatch, Group, "character_table")
    solves = count_solves(monkeypatch)
    bounds.quantum_bound(chsh_d(7, 1))
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
        report = bounds.analyze(game)
        assert len(tables) == 1
        assert len(solves) == pairs
        negation = game.group.negation_table()
        assert all(report.norms[x - 1] == report.norms[negation[x] - 1] for x in range(1, game.order))
        monkeypatch.undo()


def test_verify_theorem3_builds_the_game_once(monkeypatch):
    # d=2, n=2 fits the brute-force budget, so every leg runs.
    for spec in (nlc.nlc_spec(2, 2, [0, 1]), nlc.nlc_spec(3, 2, [0, 2, 2])):
        games = count_calls(monkeypatch, nlc, "nlc_game")
        solves = count_solves(monkeypatch)
        nlc.verify_theorem3(spec)
        assert len(games) == 1
        assert len(solves) == 1
        monkeypatch.undo()


def test_nlc_verify_builds_two_games_and_solves_each_phi_once(tmp_path, monkeypatch, capsys):
    # One game for the header's strategy line, one for every verification
    # leg; the block checks reuse the spectral leg's Phi_k, and Phi_2 =
    # conj(Phi_1) reuses its solve.
    path = tmp_path / "nlc.json"
    path.write_text(json.dumps({"d": 3, "n": 2, "g": [0, 2, 2], "p": "uniform"}))
    games = count_calls(monkeypatch, nlc, "nlc_game")
    solves = count_solves(monkeypatch)
    assert main(["nlc", str(path), "--verify"]) == EXIT_OK
    assert "verify blocks k=2: ok" in capsys.readouterr().out
    assert len(games) == 2
    assert len(solves) == 1


def test_builtin_games_parse_no_tables(monkeypatch):
    uniform_float = game_from_tables(
        FiniteAbelianGroup([3]), [[0.25, 0.25], [0.25, 0.25]], [[0, 1], [1, 2]]
    )
    builds = [
        lambda: chsh_d(5, 1),
        lambda: random_xor_game(SplitMix64(0), 3, 4),
        lambda: nlc.nlc_game(nlc.nlc_spec(3, 2, [0, 2, 2], [[1, 2], [1, 3], [1, 6]])),
        lambda: bounds.pseudo_telepathy_check(uniform_float),
    ]
    for build in builds:
        parses = count_everywhere(monkeypatch, games, "game_from_tables")
        build()
        assert parses == []
        monkeypatch.undo()
