"""Tests of the benchmark itself, run at a tiny size.

Each run happens in a copy of ``src/`` and ``perfbench/`` under a temporary
directory, so the counts a traced run records stay out of the repository.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
IGNORE = shutil.ignore_patterns("__pycache__", ".perfbench_work")


@pytest.fixture
def checkout(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=IGNORE)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=IGNORE)
    return tmp_path


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def check_metrics(result: dict, stdout: str, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
            for line in stdout.splitlines()
        ), f"{metric['name']} is not printed with its unit"


def test_all_prints_every_end_to_end_metric(checkout):
    proc = bench(checkout, "--workload", "all", "--tiny")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        check_metrics(result, proc.stdout, SPEC["end_to_end"])
    table = proc.stdout.splitlines()[-len(results) - 1:]
    for metric in SPEC["end_to_end"]:
        assert f"{metric['name']} [{metric['unit']}]" in table[0]
    assert "failed_frac" in table[0]
    assert [row.split()[0] for row in table[1:]] == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_layer_metric(checkout, name):
    proc = bench(checkout, "--workload", name, "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    check_metrics(result, proc.stdout, SPEC["per_layer"])
    assert result["metrics"]["cli.main.calls"]["value"] > 0


def test_exact_counts_repeat_across_runs(checkout):
    counted = []
    for _ in range(2):
        proc = bench(checkout, "--workload", "rect", "--tiny", "--trace", "1")
        assert proc.returncode == 0, proc.stdout
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counted.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counted[0] == counted[1]
    assert counted[0]["bounds.classical_value.assignments"] == 2**7 + 2**2


def test_changed_counts_fail_the_run(checkout):
    assert bench(checkout, "--workload", "field", "--tiny", "--trace", "1").returncode == 0
    (recorded,) = (checkout / ".perfbench_work" / "counts").iterdir()
    counts = json.loads(recorded.read_text())
    counts["cli.main.calls"] += 1
    recorded.write_text(json.dumps(counts))
    proc = bench(checkout, "--workload", "field", "--tiny", "--trace", "1")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_without_sources_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=IGNORE)
    proc = bench(tmp_path, "--workload", "scan")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def failed_with(workload) -> int:
    """Run one batch of ``workload`` in-process; count failed operations."""
    cli = run.import_cli()
    batch = run.run_batch(cli, workload.commands)
    return len(run.failures(workload, workload.commands, batch))


def tiny(name: str, tmp_path: Path):
    workload = workloads.build(name, 5, tiny=True)
    for file_name, doc in workload.documents.items():
        (tmp_path / file_name).write_text(json.dumps(doc))
    workload.commands = [[arg.format(dir=tmp_path) for arg in argv] for argv in workload.commands]
    workload.prepare_references()
    return workload


@pytest.mark.parametrize("name", ["scan", "field", "nlc", "rect"])
def test_correct_outputs_pass(tmp_path, name):
    assert failed_with(tiny(name, tmp_path)) == 0


def test_wrong_scan_reference_fails(tmp_path):
    workload = tiny("scan", tmp_path)
    workload.expected = [v + Fraction(1, 1000) for v in workload.expected]
    assert failed_with(workload) == len(workload.commands)


def test_wrong_field_reference_fails(tmp_path, monkeypatch):
    closed_form = workloads.chsh_closed_form
    monkeypatch.setattr(workloads, "chsh_closed_form", lambda d: closed_form(d) + 1e-6)
    workload = tiny("field", tmp_path)
    assert failed_with(workload) == len(workload.commands)


def test_wrong_nlc_reference_fails(tmp_path, monkeypatch):
    exact_bound = workloads.nlc_exact_bound
    monkeypatch.setattr(workloads, "nlc_exact_bound", lambda *a: exact_bound(*a) - Fraction(1, 1000))
    workload = tiny("nlc", tmp_path)
    assert failed_with(workload) == len(workload.commands)


def test_wrong_rect_reference_fails(tmp_path):
    workload = tiny("rect", tmp_path)
    check = workload.check

    def check_against_wrong_value(i, outputs):
        doc = json.loads(outputs[0])
        doc["classical_value_exact"] = "0/1"
        return check(i, [json.dumps(doc), *outputs[1:]])

    workload.check = check_against_wrong_value
    assert failed_with(workload) == 1


def test_normalised_times_take_out_host_speed():
    # The second batch ran at half speed: raw times double, so does the kernel.
    fast = run.Batch(seconds=[1.0, 3.0], kernel_s=[0.01, 0.01])
    slow = run.Batch(seconds=[2.0, 6.0], kernel_s=[0.02, 0.02])
    metrics, notes = run.end_to_end_metrics([fast, slow], [(0.5, 0.02)], [0.01, 0.02], 0.01)
    assert metrics["wall_norm_s"]["value"] == pytest.approx(4.0)
    assert metrics["op_p50_norm_s"]["value"] == pytest.approx(2.0)
    assert metrics["op_p99_norm_s"]["value"] == pytest.approx(3.0, rel=0.02)
    assert metrics["setup_s"]["value"] == pytest.approx(0.25)
    assert any(line.split()[:2] == ["wall_s", "6"] for line in notes)
