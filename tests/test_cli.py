import io
import json
import re
import time

import numpy as np
import pytest

from nlgames import bounds, cli
from nlgames.algebra import is_prime
from nlgames.cli import EXIT_BUDGET, EXIT_FAILURE, EXIT_OK, EXIT_PARSE, main
from nlgames.games import chsh_d, game_to_json, random_xor_game
from nlgames.rng import SplitMix64
from nlgames.selftest import run_all


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


GAME_2X2 = {"group": {"factors": [2]}, "mA": 2, "mB": 2, "q": [[[1, 4]] * 2] * 2, "f": [[0, 0], [0, 1]]}
NLC_2_2 = {"d": 2, "n": 2, "g": [0, 1], "p": "uniform"}


@pytest.mark.parametrize(
    "command, doc, code, err",
    [
        ("analyze", {**GAME_2X2, "q": [[[1, 4], [1, 0]], [[1, 4], [1, 4]]]}, EXIT_FAILURE,
         "invalid probability entry [1, 0]"),
        ("nlc", {**NLC_2_2, "p": [[1, 0], [1, 2]]}, EXIT_FAILURE,
         "prefix probabilities must be exact rationals: invalid probability entry [1, 0]"),
        ("analyze", {**GAME_2X2, "mA": True, "q": [[[1, 2]] * 2], "f": [[0, 1]]}, EXIT_PARSE,
         "'mA' and 'mB' must be positive integers"),
        ("analyze", {**GAME_2X2, "f": [[0, True], [0, 1]]}, EXIT_FAILURE,
         "invalid winning-function entry: True is not a group element"),
        ("analyze", {**GAME_2X2, "q": [[[True, 4], [1, 4]], [[1, 4], [1, 4]]]}, EXIT_FAILURE,
         "invalid probability entry [True, 4]"),
        ("nlc", {**NLC_2_2, "g": [0.9, 1.5]}, EXIT_FAILURE, "g values must be integers, got g[0] = 0.9"),
        ("nlc", {**NLC_2_2, "g": [0, True]}, EXIT_FAILURE, "g values must be integers, got g[1] = True"),
        ("analyze", {**GAME_2X2, "group": {"factors": [2, 3]}, "f": [[[1.7, True], 0], [0, 1]]}, EXIT_FAILURE,
         "invalid winning-function entry: coordinate 1.7 of [1.7, True] is not an integer"),
        ("analyze", {**GAME_2X2, "group": {"field": {"p": 3, "r": 2}}, "f": [[[1.7, True], 0], [0, 1]]},
         EXIT_FAILURE, "invalid winning-function entry: coordinate 1.7 of [1.7, True] is not an integer"),
        ("analyze", {**GAME_2X2, "group": {"factors": [2, 3]}, "f": [[["1", 2], 0], [0, 1]]}, EXIT_FAILURE,
         "invalid winning-function entry: coordinate '1' of ['1', 2] is not an integer"),
        ("analyze", {**GAME_2X2, "group": {"factors": [2.7]}}, EXIT_PARSE,
         "'factors' must be a nonempty list of integers"),
        ("analyze", {**GAME_2X2, "group": {"field": {"p": 3.5, "r": 2}}}, EXIT_PARSE,
         "'p' in 'field' must be an integer"),
        ("analyze", {**GAME_2X2, "group": {"field": {"p": 2, "r": True}}}, EXIT_PARSE,
         "'r' in 'field' must be an integer"),
        ("analyze", {**GAME_2X2, "group": {"field": {"p": "3"}}}, EXIT_PARSE, "'p' in 'field' must be an integer"),
        ("nlc", {**NLC_2_2, "n": True}, EXIT_PARSE, "'d' and 'n' must be integers"),
        ("analyze", {**GAME_2X2, "group": {"factors": [3]}, "f": [[1.5, 0], [0, 1]]}, EXIT_FAILURE,
         "invalid winning-function entry: 1.5 is not a group element"),
        ("analyze", {**GAME_2X2, "group": {"field": {"p": 3, "r": 2}}, "f": [[1.5, 0], [0, 1]]}, EXIT_FAILURE,
         "invalid winning-function entry: 1.5 is not a group element"),
        ("analyze", {**GAME_2X2, "q": [[[10**400, 1], [0, 1]], [[0, 1], [0, 1]]]}, EXIT_FAILURE,
         f"input distribution sums to {10**400}, not 1"),
    ],
    ids=[
        "q-zero-den", "nlc-zero-den", "mA-true", "f-true", "q-true", "g-float", "g-true",
        "coord-float", "field-coord-float", "coord-str", "factor-float", "p-float", "r-true", "p-str", "n-true",
        "index-float", "field-index-float", "q-over-float-range",
    ],
)
def test_bad_numbers_in_files_are_named(tmp_path, capsys, command, doc, code, err):
    # Each of these was once read: a zero denominator raised a bare
    # ZeroDivisionError, a bool or a float was taken as an int, and a weight
    # of 10^400 overflowed a float division.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize(
    "command, doc, code, err",
    [
        ("analyze", {**GAME_2X2, "group": 5}, EXIT_PARSE, "'group' must be an object"),
        ("analyze", {**GAME_2X2, "group": {"field": 3}}, EXIT_PARSE, "'field' must be a JSON object"),
        ("analyze", {**GAME_2X2, "group": {"field": {"r": 1}}}, EXIT_PARSE, "'field' is missing keys ['p']"),
        ("analyze", {**GAME_2X2, "group": {"field": {"p": 3, "s": 1}}}, EXIT_PARSE, "unknown keys ['s'] in 'field'"),
        ("analyze", {**GAME_2X2, "f": [[0, 0]]}, EXIT_PARSE, "'f' must be an mA x mB table"),
        ("nlc", {**NLC_2_2, "g": 0}, EXIT_PARSE, "'g' must be a list of target dits"),
        ("nlc", {**NLC_2_2, "p": "flat"}, EXIT_PARSE, "'p' must be \"uniform\" or a list of [num, den] pairs"),
        ("analyze", {**GAME_2X2, "group": {"factors": [1] + [2] * 200000}}, EXIT_PARSE,
         "cyclic factors must all be integers >= 2, got factors[0] = 1"),
    ],
    ids=["group-int", "field-int", "field-no-p", "field-unknown-key", "f-short", "g-int", "p-keyword", "factor-1"],
)
def test_malformed_documents_are_named(tmp_path, capsys, command, doc, code, err):
    # The 200,001-factor group once printed every factor, a 600,048-byte line.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main([command, str(path)]) == code
    assert time.perf_counter() - start < 5
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("command", ["analyze", "nlc"])
@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_input_files_exit_2(tmp_path, capsys, command, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"d": 2, "n": 1, "g": [0], "p": "uniform"}\xff')
    assert main([command, str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_nan_weight_is_a_validation_error(tmp_path, capsys):
    # Python's json reads NaN, which compares False with every bound, and
    # Infinity.
    for token in ("NaN", "Infinity"):
        path = tmp_path / f"{token}.json"
        path.write_text('{"group": {"factors": [2]}, "mA": 1, "mB": 2, "q": [[%s, 1.0]], "f": [[0, 1]]}' % token)
        assert main(["analyze", str(path)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input probabilities must be finite numbers\n"


def test_analyze_budget_exits_3(tmp_path, capsys):
    doc = {
        "group": {"factors": [3]},
        "mA": 13,
        "mB": 13,
        "q": [[[1, 169]] * 13 for _ in range(13)],
        # u * v has no perfect strategy; a game with one would be valued.
        "f": [[(u * v) % 3 for v in range(13)] for u in range(13)],
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


def test_chsh_over_its_work_budget_exits_3_before_building_the_game(monkeypatch, capsys):
    # GF(1021) is above the order cap; a composite p is still a validation
    # failure, checked first.
    monkeypatch.setattr(cli, "chsh_d", lambda *args: pytest.fail("chsh_d was called"))
    assert main(["chsh", "1021"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chsh admits fields of order at most 373, got GF(1021)" in captured.err
    assert main(["chsh", "1024"]) == EXIT_FAILURE
    assert "prime" in capsys.readouterr().err


def test_chsh_order_cap_admits_gf_373_and_rejects_gf_379(monkeypatch, capsys):
    assert main(["chsh", "373"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("d: 373\n")
    monkeypatch.setattr(cli, "chsh_d", lambda *args: pytest.fail("chsh_d was called"))
    assert main(["chsh", "379"]) == EXIT_BUDGET
    assert capsys.readouterr() == ("", "error: chsh admits fields of order at most 373, got GF(379)\n")


def test_chsh_bound_off_its_closed_form_exits_1_after_printing(monkeypatch, capsys):
    # GF(81)'s bound differs from the closed form by about 1e-16, above this
    # tolerance; the message prints the difference as a Python float.
    monkeypatch.setattr(cli, "CHSH_EQ_TOL", 1e-17)
    assert main(["chsh", "3", "4"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "d: 81"
    assert captured.out.splitlines()[-1].startswith("difference: ")
    assert re.fullmatch(r"error: bound differs from the closed form by [0-9.e-]+\n", captured.err)
    # The tolerance is a constant: argparse rejects the retired option.
    with pytest.raises(SystemExit) as exc:
        main(["chsh", "3", "--eq-tol", "1e-10"])
    assert exc.value.code == EXIT_PARSE


HUGE_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "command, doc, code, err",
    [
        (["chsh", str(HUGE_PRIME)], None, EXIT_FAILURE, f"field size {HUGE_PRIME} exceeds the supported cap 4096"),
        (
            ["analyze"],
            {"group": {"field": {"p": HUGE_PRIME}}, "mA": 1, "mB": 1, "q": [[1]], "f": [[0]]},
            EXIT_PARSE,
            f"field size {HUGE_PRIME} exceeds the supported cap 4096",
        ),
        (
            ["nlc"],
            {"d": HUGE_PRIME, "n": 1, "g": [0], "p": "uniform"},
            EXIT_FAILURE,
            f"d^n = {HUGE_PRIME} exceeds the supported cap 59049",
        ),
        (
            ["nlc"],
            {"d": 3, "n": 100000000, "g": [0], "p": "uniform"},
            EXIT_FAILURE,
            "d^n = 3^100000000 exceeds the supported cap 59049",
        ),
        (
            ["scan", "--d", "2", "--m", "2000", "--count", "1"],
            None,
            EXIT_BUDGET,
            "classical enumeration needs 2^2000 assignments for Alice, the player with "
            "fewer questions, over the budget of 1000000",
        ),
        (
            ["analyze"],
            {"group": {"factors": [2] * 200000}, "mA": 1, "mB": 1, "q": [[1]], "f": [[0]]},
            EXIT_PARSE,
            "group order 2^64 or more, of 200000 factors, exceeds the supported cap 4096",
        ),
        (
            ["analyze"],
            {"group": {"factors": [2] * 13}, "mA": 1, "mB": 1, "q": [[1]], "f": [[0]]},
            EXIT_PARSE,
            "group order 8192 exceeds the supported cap 4096",
        ),
    ],
    ids=["chsh", "game-file", "nlc-d", "nlc-n", "scan", "factors-200000", "factors-13"],
)
def test_caps_and_budgets_are_checked_before_any_work(tmp_path, capsys, command, doc, code, err):
    # A prime p or d near 10^18 costs a minute of trial division, d^n at
    # n = 10^8 a huge power, and a 2000 x 2000 scan game seconds to draw,
    # were the cap or budget checked after them; the product of 200,000
    # factors of 2 has more digits than Python converts to a string.
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        command = [*command, str(path)]
    start = time.perf_counter()
    assert main(command) == code
    assert time.perf_counter() - start < 5
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_chsh_admits_every_field_up_to_order_81(capsys):
    fields = [(p, r) for p in range(2, 62) if is_prime(p) for r in range(1, 5) if p**r <= 61]
    for p, r in fields + [(3, 4)]:
        assert main(["chsh", str(p), str(r)]) == EXIT_OK, (p, r)


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


def test_nlc_verify_block_failure_exits_1_with_empty_stdout(nlc_file, monkeypatch, capsys):
    from nlgames import nlc
    from nlgames.games import LinearGame

    # Rotating one row breaks Phi_k[x, y] = h_k(x (+) y), the fact the FFT
    # spectra rest on; the integer check catches it before any other leg.
    def permuted_game(spec):
        game = original(spec)
        f_idx, q_num = game.f_idx.copy(), game.q_num.copy()
        f_idx[1], q_num[1] = np.roll(f_idx[1], 1), np.roll(q_num[1], 1)
        return LinearGame(group=game.group, f_idx=f_idx, q_num=q_num, q_den=game.q_den)

    original = nlc.nlc_game
    monkeypatch.setattr(nlc, "nlc_game", permuted_game)
    assert main(["nlc", nlc_file, "--verify"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err == "error: game f_idx is not a function of x (+) y over Z_2^2\n"
    assert captured.out == ""


def test_nlc_rejects_composite_d(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 4, "n": 1, "g": [0], "p": "uniform"}))
    assert main(["nlc", str(path)]) == EXIT_FAILURE
    assert "prime" in capsys.readouterr().err


def test_nlc_denominator_above_exact_cap_exits_1(tmp_path, capsys):
    # The game weights p / d^(n+1) have common denominator 2.4e15 > 1e15 on
    # a spec small enough to build the game for brute force, and 2.43e16 on
    # a 27-question spec whose legs read row 0 alone.
    p = [[1, 300000000000000], [299999999999999, 300000000000000]]
    specs = [
        ({"d": 2, "n": 2, "g": [0, 1], "p": p}, 2400000000000000),
        ({"d": 3, "n": 3, "g": [0, 1, 2] * 3, "p": p + [[0, 1]] * 7}, 24300000000000000),
    ]
    for spec, den in specs:
        path = tmp_path / "bigden.json"
        path.write_text(json.dumps(spec))
        assert main(["nlc", str(path), "--verify"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"error: common denominator {den} ")
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


def test_scan_chain_violation_prints_the_offending_game(monkeypatch, capsys):
    # With a negative slack every game violates the chain, so the first
    # block fails at its first game and none of its rows is printed.
    monkeypatch.setattr(bounds, "CHAIN_SLACK", -1.0)
    assert main(["scan", "--count", "3"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "index,order,mA,mB,lemma1_bound,classical_value,classical_value_exact,"
        "quantum_bound_raw,quantum_bound,ns_value,rank_phi1,pseudo_telepathy_possible"
    ]
    first = json.dumps(game_to_json(random_xor_game(SplitMix64(0), 2, 3)))
    assert err.splitlines()[0] == "chain violation; offending game: " + first


def test_selftest_chain_violation_is_a_fail_line(monkeypatch, capsys):
    monkeypatch.setattr(bounds, "CHAIN_SLACK", -1.0)
    results = run_all(io.StringIO(), io.StringIO())
    assert len(results) == 7
    failed = [r.name for r in results if not r.passed]
    assert failed == ["ordering-chain", "lemma2-equivalence"]
    assert main(["selftest"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 5 + ["FAIL"] * 2
    # stderr holds one timing line per check and nothing else.
    assert [re.fullmatch(r"(.+): \d+\.\ds", line)[1] for line in err.splitlines()] == [
        r.name for r in results
    ]


def test_selftest_stdout_is_the_same_on_every_run(capsys):
    outputs = []
    for _ in range(2):
        assert main(["selftest"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == len(err.splitlines()) == 7
        assert not re.search(r"\d+\.\ds\b", out)
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "flags",
    [["--count", "-3"], ["--d", "1"], ["--d", "0"], ["--m", "0"], ["--m", "-2"], ["--d", "5000", "--count", "2"]],
)
def test_bad_scan_arguments_exit_2_before_the_header(flags, capsys):
    assert main(["scan", *flags]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    bound = "at most 4096" if flags[1] == "5000" else "at least"
    assert f"scan {flags[0]} must be {bound}" in err


def test_scan_over_budget_is_not_a_chain_violation(capsys):
    assert main(["scan", "--d", "2", "--m", "21", "--count", "1"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget" in err
    assert "chain violation" not in err


def uniform_z2_file(tmp_path, f) -> str:
    """A uniform 21 x 21 game over Z_2, 2^21 assignments: over the budget."""
    doc = {
        "group": {"factors": [2]},
        "mA": 21,
        "mB": 21,
        "q": [[[1, 441]] * 21 for _ in range(21)],
        "f": [[f(u, v) % 2 for v in range(21)] for u in range(21)],
    }
    path = tmp_path / "over_budget.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_budget_is_checked_before_any_solve(tmp_path, monkeypatch, capsys):
    from nlgames import bounds, numerics
    from nlgames.algebra import Group

    started = []
    monkeypatch.setattr(numerics, "_jacobi", lambda *args: started.append("solve"))
    monkeypatch.setattr(bounds, "stacked_singular_values", lambda *args: started.append("solve"))
    monkeypatch.setattr(Group, "character_table", lambda self: started.append("table"))
    # f = u * v has no perfect strategy, so only enumeration could value it.
    assert main(["analyze", uniform_z2_file(tmp_path, lambda u, v: u * v)]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err
    assert main(["scan", "--d", "2", "--m", "21"]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err
    assert started == []


def test_over_budget_uniform_game_with_a_perfect_strategy_is_reported(tmp_path, capsys):
    # f = u + v passes the integer perfect-play test, so no enumeration is needed.
    assert main(["analyze", uniform_z2_file(tmp_path, lambda u, v: u + v), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["classical_value_exact"] == "1/1"
    assert doc["pseudo_telepathy_possible"] is True
    assert doc["classical_strategy"]["alice"] == [[u % 2] for u in range(21)]
    assert doc["classical_strategy"]["bob"] == [[v % 2] for v in range(21)]


def test_nonconverging_eigensolver_exits_1(chsh2_file, monkeypatch, capsys):
    from nlgames import numerics

    monkeypatch.setattr(numerics, "_MAX_SWEEPS", 0)
    assert main(["analyze", chsh2_file]) == EXIT_FAILURE
    assert "did not converge" in capsys.readouterr().err
    # One sweep leaves the 6 x 6 games over Z_5 unconverged: the block's
    # first stack names its first matrix.
    monkeypatch.setattr(numerics, "_MAX_SWEEPS", 1)
    assert main(["scan", "--d", "5", "--m", "6"]) == EXIT_FAILURE
    assert "did not converge on matrix 0 of a stack of 20" in capsys.readouterr().err
