"""Golden-output test: fixed CLI commands must print byte-identical stdout.

Each expected file under `tests/golden/` holds the stdout of one command as
printed by the code before the change that added it, so a refactor must
leave these bytes unchanged.  Every command runs in a fresh interpreter
under one and under two BLAS threads, because BLAS zgemm computes the
solver's convergence-gate product A^dagger A, whose diagonal gives the
reported norms, and `matmul_adjoint` in the NLC block checks.

To add a command, generate its expected file from the unchanged code, before
editing `src/`, from the repository root:

    cd tests/golden && OPENBLAS_NUM_THREADS=1 PYTHONPATH=../../src \
        python -m nlgames.cli analyze z3_bigden.json --format json \
        > analyze_z3_bigden_json.out

and check that `OPENBLAS_NUM_THREADS=2` prints the same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "scan_d3_m4": ["scan", "--seed", "0", "--count", "50", "--d", "3", "--m", "4"],
    "analyze_z3_json": ["analyze", "z3.json", "--format", "json"],
    "analyze_z2xz3_json": ["analyze", "z2xz3.json", "--format", "json"],
    "analyze_z2xz4_json": ["analyze", "z2xz4.json", "--format", "json"],
    "analyze_gf9_json": ["analyze", "gf9.json", "--format", "json"],
    # lcm of the weights' denominators is 2.1e15, above the exact cap.
    "analyze_z3_bigden_json": ["analyze", "z3_bigden.json", "--format", "json"],
    "analyze_z3_text": ["analyze", "z3.json"],
    "analyze_z3_csv": ["analyze", "z3.json", "--format", "csv"],
    "chsh_7_2": ["chsh", "7", "2"],
    "chsh_61": ["chsh", "61"],
    "chsh_3_4": ["chsh", "3", "4"],
    "nlc_d3_n3": ["nlc", "nlc_d3_n3.json"],
    "nlc_d3_n3_verify": ["nlc", "nlc_d3_n3.json", "--verify"],
    "nlc_d5_n2_verify": ["nlc", "nlc_d5_n2.json", "--verify"],
    "nlc_d2_n7_weighted_verify": ["nlc", "nlc_d2_n7_weighted.json", "--verify"],
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
