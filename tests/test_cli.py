import json

import pytest

from nlgames.cli import EXIT_BUDGET, EXIT_FAILURE, EXIT_OK, EXIT_PARSE, main
from nlgames.games import chsh_d, game_to_json


@pytest.fixture
def chsh2_file(tmp_path):
    path = tmp_path / "chsh2.json"
    path.write_text(json.dumps(game_to_json(chsh_d(2, 1))))
    return str(path)


@pytest.fixture
def nlc_file(tmp_path):
    path = tmp_path / "nlc.json"
    path.write_text(json.dumps({"d": 2, "n": 2, "g": [0, 1], "p": "uniform"}))
    return str(path)


def test_analyze_text(chsh2_file, capsys):
    assert main(["analyze", chsh2_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "classical_value: 3/4 (0.75)" in out
    assert "quantum_bound: 0.853553390593" in out
    assert "ns_value: 1" in out


def test_analyze_json(chsh2_file, capsys):
    assert main(["analyze", chsh2_file, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "nlgames/game-report/v1"
    assert doc["classical_value_exact"] == "3/4"
    assert doc["pseudo_telepathy_possible"] is False


def test_analyze_csv(chsh2_file, capsys):
    assert main(["analyze", chsh2_file, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("order,mA,mB,lemma1_bound")


def test_analyze_rank_one_game(tmp_path, capsys):
    doc = {
        "group": {"factors": [2]},
        "mA": 2,
        "mB": 2,
        "q": [[[1, 4], [1, 4]], [[1, 4], [1, 4]]],
        "f": [[0, 1], [1, 0]],  # f(u, v) = u + v: winnable
    }
    path = tmp_path / "winnable.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_OK
    assert "pseudo_telepathy_possible: True" in capsys.readouterr().out


def test_analyze_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_analyze_missing_file_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "missing.json")]) == EXIT_PARSE


def test_analyze_unknown_key_exits_2(tmp_path, capsys):
    doc = game_to_json(chsh_d(2, 1))
    doc["comment"] = "nope"
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_PARSE
    assert "unknown keys" in capsys.readouterr().err


def test_analyze_invalid_distribution_exits_1(tmp_path, capsys):
    doc = {
        "group": {"factors": [2]},
        "mA": 2,
        "mB": 2,
        "q": [[0.25, 0.25], [0.25, 0.15]],
        "f": [[0, 0], [0, 1]],
    }
    path = tmp_path / "bad_q.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_FAILURE
    assert "sums to" in capsys.readouterr().err


def test_analyze_budget_exits_3(tmp_path, capsys):
    doc = {
        "group": {"factors": [3]},
        "mA": 13,
        "mB": 1,
        "q": [[[1, 13]] for _ in range(13)],
        "f": [[u % 3] for u in range(13)],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_chsh_command(capsys):
    assert main(["chsh", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bound: 0.5577708764" in out
    assert "closed_form: 0.5577708764" in out


def test_chsh_prime_power(capsys):
    assert main(["chsh", "2", "2"]) == EXIT_OK
    assert "bound: 0.625" in capsys.readouterr().out


def test_chsh_rejects_composite(capsys):
    assert main(["chsh", "4"]) == EXIT_FAILURE
    assert "prime" in capsys.readouterr().err


def test_nlc_command(nlc_file, capsys):
    assert main(["nlc", nlc_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "strategy_value: 3/4 (0.75)" in out
    assert "quantum_bound: 3/4 (0.75)" in out
    assert "mu: 0" in out


def test_nlc_verify(nlc_file, capsys):
    assert main(["nlc", nlc_file, "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verify theorem: ok" in out
    assert "verify blocks k=1: ok" in out


def test_nlc_verify_block_failure_exits_1_after_header(nlc_file, monkeypatch, capsys):
    from nlgames import nlc

    # Unnormalized Fourier vectors scale every eigenvalue candidate by d^n,
    # so the top eigenvalue is no longer found in the expected Fourier span.
    original = nlc.fourier_vector
    monkeypatch.setattr(nlc, "fourier_vector", lambda d, j, normalized=False: original(d, j))
    assert main(["nlc", nlc_file, "--verify"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert "error: top eigenvalue" in captured.err
    assert "quantum_bound: 3/4 (0.75)" in captured.out
    assert "verify" not in captured.out


def test_nlc_rejects_composite_d(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 4, "n": 1, "g": [0], "p": "uniform"}))
    assert main(["nlc", str(path)]) == EXIT_FAILURE
    assert "prime" in capsys.readouterr().err


def test_nlc_denominator_above_exact_cap_exits_1(tmp_path, capsys):
    # The game weights p / d^(n+1) have common denominator 2.4e15 > 1e15.
    path = tmp_path / "bigden.json"
    p = [[1, 300000000000000], [299999999999999, 300000000000000]]
    path.write_text(json.dumps({"d": 2, "n": 2, "g": [0, 1], "p": p}))
    assert main(["nlc", str(path), "--verify"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: common denominator 2400000000000000")
    assert "Traceback" not in err


def test_scan_deterministic(capsys):
    assert main(["scan", "--seed", "0", "--count", "10", "--d", "2", "--m", "3"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["scan", "--seed", "0", "--count", "10", "--d", "2", "--m", "3"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert len(first.strip().splitlines()) == 11


def test_scan_different_seeds_differ(capsys):
    main(["scan", "--seed", "0", "--count", "5", "--d", "3", "--m", "3"])
    first = capsys.readouterr().out
    main(["scan", "--seed", "1", "--count", "5", "--d", "3", "--m", "3"])
    second = capsys.readouterr().out
    assert first != second


def test_scan_zero_count_is_header_only(capsys):
    assert main(["scan", "--count", "0"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        "index,order,mA,mB,lemma1_bound,classical_value,classical_value_exact,"
        "quantum_bound_raw,quantum_bound,ns_value,rank_phi1,pseudo_telepathy_possible"
    ]


def test_scan_chain_holds(capsys):
    assert main(["scan", "--seed", "0", "--count", "10", "--d", "3", "--m", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for line in lines:
        parts = line.split(",")
        lemma1, classical, bound = float(parts[4]), float(parts[5]), float(parts[8])
        assert lemma1 <= classical + 1e-9 <= min(1.0, bound) + 2e-9
        assert float(parts[9]) == 1.0


def test_bad_tolerance_exits_2(chsh2_file):
    assert main(["analyze", chsh2_file, "--rank-tol", "-1"]) == EXIT_PARSE


def test_bad_eq_tolerance_exits_2(capsys):
    assert main(["chsh", "3", "--eq-tol", "0"]) == EXIT_PARSE
    assert "tolerances must be positive" in capsys.readouterr().err


def test_scan_over_budget_is_not_a_chain_violation(capsys):
    assert main(["scan", "--d", "2", "--m", "21", "--count", "1"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget" in err
    assert "chain violation" not in err


def test_analyze_budget_is_checked_before_any_solve(tmp_path, monkeypatch, capsys):
    from nlgames import bounds, numerics
    from nlgames.algebra import Group

    started = []
    for module in (numerics, bounds):
        monkeypatch.setattr(module, "singular_values", lambda *args: started.append("solve"))
    monkeypatch.setattr(Group, "character_table", lambda self: started.append("table"))
    doc = {
        "group": {"factors": [2]},
        "mA": 21,
        "mB": 2,
        "q": [[[1, 42]] * 2 for _ in range(21)],
        "f": [[(u + v) % 2 for v in range(2)] for u in range(21)],
    }
    path = tmp_path / "over_budget.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err
    assert started == []


def test_nonconverging_eigensolver_exits_1(chsh2_file, monkeypatch, capsys):
    from nlgames import numerics

    monkeypatch.setattr(numerics, "_MAX_SWEEPS", 0)
    assert main(["analyze", chsh2_file]) == EXIT_FAILURE
    assert "did not converge" in capsys.readouterr().err
