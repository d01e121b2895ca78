"""Golden-output test: fixed CLI commands must print byte-identical stdout.

Each expected file under `tests/golden/` holds the stdout of one command as
printed by the code before the change that added it, so a refactor must
leave these bytes unchanged.  Every command runs in a fresh interpreter
under one and under two BLAS threads, because BLAS zgemm computes the
solver's convergence-gate product A^dagger A, whose diagonal gives the
reported norms.  NLC block norms come from numpy's FFT, which does not
use BLAS.

To add a command, generate its expected file from the unchanged code, before
editing `src/`, from the repository root:

    cd tests/golden && OPENBLAS_NUM_THREADS=1 PYTHONPATH=../../src \
        python -m nlgames.cli analyze z3_bigden.json --format json \
        > analyze_z3_bigden_json.out

and check that `OPENBLAS_NUM_THREADS=2` prints the same bytes.  A command
above a size cap of the unchanged code is generated from a copy of it with
only that cap raised, as `nlc_d3_n7_weighted_verify` was with `MAX_QUESTIONS`.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nlgames import cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "scan_d3_m4": ["scan", "--seed", "0", "--count", "50", "--d", "3", "--m", "4"],
    # Two scan blocks, of 32 and 28 games, each one stack of 5 x 5 matrices.
    "scan_d5_m5": ["scan", "--seed", "1", "--count", "60", "--d", "5", "--m", "5"],
    "analyze_z3_json": ["analyze", "z3.json", "--format", "json"],
    "analyze_z2xz3_json": ["analyze", "z2xz3.json", "--format", "json"],
    "analyze_z2xz4_json": ["analyze", "z2xz4.json", "--format", "json"],
    "analyze_gf9_json": ["analyze", "gf9.json", "--format", "json"],
    # lcm of the weights' denominators is 2.1e15, above the exact cap.
    "analyze_z3_bigden_json": ["analyze", "z3_bigden.json", "--format", "json"],
    # Denominators 1,000,003 (int32 scores; Bob is enumerated) and 10^12 + 39
    # (int64 scores); the other exact goldens score in int8 or int16.
    "analyze_z3_int32_tall_json": ["analyze", "z3_int32_tall.json", "--format", "json"],
    "analyze_z5_int64_json": ["analyze", "z5_int64.json", "--format", "json"],
    "analyze_z3_text": ["analyze", "z3.json"],
    # Strategy lines print coefficient lists (GF(9)) and coordinate lists.
    "analyze_gf9_text": ["analyze", "gf9.json"],
    "analyze_z2xz3_text": ["analyze", "z2xz3.json"],
    # Transposes of z3.json (exact) and a 5 x 2 float game: Bob is enumerated.
    "analyze_z3_tall_text": ["analyze", "z3_tall.json"],
    "analyze_z2xz3_tall_json": ["analyze", "z2xz3_tall.json", "--format", "json"],
    # Bob is enumerated and the optima tie across two shift orbits; Alice's
    # smallest-id answer is not the shift of any one orbit's best response.
    "analyze_z2xz3_tied_tall_json": ["analyze", "z2xz3_tied_tall.json", "--format", "json"],
    "analyze_z3_csv": ["analyze", "z3.json", "--format", "csv"],
    "chsh_7_2": ["chsh", "7", "2"],
    "chsh_61": ["chsh", "61"],
    "chsh_3_4": ["chsh", "3", "4"],
    # GF(16) has 15 self-inverse characters: one stack of 15 matrices of 16 x 16.
    "chsh_2_4": ["chsh", "2", "4"],
    "nlc_d3_n3": ["nlc", "nlc_d3_n3.json"],
    "nlc_d3_n3_verify": ["nlc", "nlc_d3_n3.json", "--verify"],
    "nlc_d5_n2_verify": ["nlc", "nlc_d5_n2.json", "--verify"],
    "nlc_d2_n7_weighted_verify": ["nlc", "nlc_d2_n7_weighted.json", "--verify"],
    # 2^16 and 3^9 assignments: the brute-force leg runs, not skipped.
    "nlc_d2_n4_weighted_verify": ["nlc", "nlc_d2_n4_weighted.json", "--verify"],
    "nlc_d3_n2_verify": ["nlc", "nlc_d3_n2.json", "--verify"],
    # 243 questions: block checks above 81 questions, whose lines must not
    # depend on the BLAS thread count.
    "nlc_d3_n5_verify": ["nlc", "nlc_d3_n5.json", "--verify"],
    # 729 questions, the cap of `nlc_game`, which this run does not call.
    "nlc_d3_n6_verify": ["nlc", "nlc_d3_n6.json", "--verify"],
    # 2,187 questions with small integer weights: verified from row 0 alone.
    "nlc_d3_n7_weighted_verify": ["nlc", "nlc_d3_n7_weighted.json", "--verify"],
}


def run_cli(args, blas_threads: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable, "-m", "nlgames.cli", *args],
        cwd=GOLDEN,
        env=env,
        capture_output=True,
        check=False,
    )


@pytest.mark.parametrize("blas_threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, blas_threads):
    proc = run_cli(COMMANDS[name], blas_threads)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()


# Options of a subcommand that no golden command passes, each with the
# reason it stays.
UNGOLDENED_ALLOWED: dict[str, str] = {}


def test_every_cli_option_has_a_golden():
    # An option must change some golden's bytes if it breaks, so each one
    # is passed by a COMMANDS entry of its own subcommand.
    parser = cli._build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    missing = []
    for name, sub in subcommands.items():
        given = {arg.split("=")[0] for argv in COMMANDS.values() if argv[0] == name for arg in argv[1:]}
        missing += [
            f"{name} {option}"
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help") and option not in given
        ]
    assert sorted(set(missing) - set(UNGOLDENED_ALLOWED)) == []
    assert set(UNGOLDENED_ALLOWED) <= set(missing)
