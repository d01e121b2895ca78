#!/usr/bin/env python3
"""Benchmark for the nlgames library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each workload is one closed-loop client: it sends its operations one after
another through ``nlgames.cli.main(argv)``, called in-process with stdout
captured, and repeats the whole batch until ``--seconds`` have passed; the
first batch is always completed, a later one stops at the deadline.  Inputs
are drawn from ``--seed`` by ``workloads.py``; every operation's output is
checked against the benchmark's own reference.

``--trace 0`` reports the end-to-end metrics with tracing off.  Between
operations, a few times a second, the fixed kernel of ``calibration.py``
runs, and each operation's time is scaled by how fast that kernel ran around
it, which takes out the drift in the speed of a shared host.  The
``*_norm_s`` metrics are these speed-normalised seconds; the raw seconds are
printed beside them.

``--trace 1`` runs one untraced batch and then at least two traced ones, and
reports the per-layer metrics of ``tracer.py`` in raw seconds; the exact
counts must repeat in every traced batch and in every run of the same seed on
the same sources.

The program is imported from ``src/`` next to this directory; without it the
benchmark prints no result and exits with code 2.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 1 means an operation failed or a count did not repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("scan", "field", "nlc", "rect")

# One closed-loop client runs single-threaded; BLAS threads stay at 1, which
# is at or below nproc on every machine and keeps timings steadier on a
# shared host.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
MIN_TRACED_BATCHES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "op_p50_norm_s": "s",
    "op_p99_norm_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class Batch:
    """One pass over a workload's operations, or the part of it run before
    the deadline."""

    starts: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    codes: list = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    # Per operation, the calibration kernel's seconds around it, once known.
    kernel_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Seconds spent in the operations, calibration runs left out."""
        return sum(self.seconds)


def run_batch(cli, commands: list[list[str]], calibrator=None, deadline=None) -> Batch:
    """Send the commands through ``cli.main`` in turn, capturing stdout.

    With a ``calibrator`` the kernel runs between operations, outside their
    timing.  After ``deadline`` (a ``perf_counter`` value) no further
    operation starts.  ``cli.main`` is looked up on every call so that a hook
    installed on the module is the one called.
    """
    batch = Batch()
    for argv in commands:
        out = io.StringIO()
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails the operation, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        batch.starts.append(began)
        batch.seconds.append(ended - began)
        batch.codes.append(code)
        batch.outputs.append(out.getvalue())
        if calibrator is not None:
            calibrator.tick()
        if deadline is not None and ended >= deadline:
            break
    return batch


def failures(workload, commands, batch: Batch) -> list[str]:
    """One message per operation that exited non-zero or printed a wrong value."""
    errors = []
    for i, code in enumerate(batch.codes):
        if code != 0:
            why = f"exit {code}"
        else:
            try:
                why = workload.check(i, batch.outputs)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                why = f"unreadable output ({exc!r})"
        if why:
            errors.append(f"{' '.join(commands[i])}: {why}")
    return errors


def repeat_batches(run, seconds: float, minimum: int) -> list:
    """Run batches until ``seconds`` have passed, finishing the batch in
    progress; always at least ``minimum``."""
    batches = []
    start = time.perf_counter()
    while len(batches) < minimum or time.perf_counter() - start < seconds:
        batches.append(run())
    return batches


def set_up(workload) -> tuple[float, dict[str, str]]:
    """Import nlgames in a fresh interpreter and serialise the inputs.

    Returns the seconds taken and the text of each input file.  Writing the
    files is left out of the time: on the ext4 file system the benchmark was
    tuned on, creating the thousand small files of ``scan`` took longer with
    each earlier run (0.3 s to 0.9 s over eight runs), which says nothing
    about the program.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import nlgames.cli"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SetupError(f"importing nlgames failed:\n{proc.stderr}")
    texts = {name: json.dumps(doc) for name, doc in workload.documents.items()}
    return time.perf_counter() - start, texts


def write_inputs(texts: dict[str, str], workdir: Path) -> None:
    workdir.mkdir(parents=True)
    for name, text in texts.items():
        (workdir / name).write_text(text, encoding="utf-8")


def import_cli():
    """The in-process ``nlgames.cli`` module, loaded from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import nlgames.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"nlgames was imported from {cli.__file__}, not from {SRC}")
    return cli


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def counts_repeat(key: str, counts: dict) -> bool:
    """Compare with the counts an earlier run of the same key recorded."""
    path = WORK / "counts" / f"{key}-{source_digest()}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8")) == counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return True


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = models[0] if models else cpu
    blas = "unknown"
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _row(name: str, value, unit: str) -> str:
    text = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
    return f"{name:<46} {text} {unit}"


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, list[str]]:
    """Set up, run and check one workload; returns (result, report lines)."""
    # Both import numpy, so only after the BLAS thread limit is set.
    import calibration
    import workloads

    workload = workloads.build(name, seed, tiny)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        calibrator = calibration.Calibrator()
        setup_spans = []  # (start, seconds) per set-up
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            seconds_taken, texts = set_up(workload)
            setup_spans.append((began, seconds_taken))
            calibrator.tick(force=True)
        write_inputs(texts, workdir)
        cli = import_cli()
        workload.prepare_references()
        commands = [[arg.format(dir=workdir) for arg in argv] for argv in workload.commands]
        errors = []
        tracers = []

        def untraced(calibrator=None, deadline=None):
            batch = run_batch(cli, commands, calibrator, deadline)
            errors.extend(failures(workload, commands, batch))
            return batch

        def traced():
            with tracer.hooked(tracer.Tracer()) as t:
                batch = run_batch(cli, commands)
            tracers.append(t)
            errors.extend(failures(workload, commands, batch))
            return batch

        if trace:
            plain = [untraced()]
            left = seconds - plain[0].wall_s
            hooked = repeat_batches(traced, left, MIN_TRACED_BATCHES)
        else:
            deadline = time.perf_counter() + seconds
            plain = [untraced(calibrator)]
            while time.perf_counter() < deadline:
                plain.append(untraced(calibrator, deadline))
            calibrator.tick(force=True)
            for b in plain:
                b.kernel_s = [calibrator.speed(t, t + s) for t, s in zip(b.starts, b.seconds)]
            setup = [(s, calibrator.speed(t, t + s)) for t, s in setup_spans]
            hooked = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    batches = plain + hooked
    attempted = sum(len(b.codes) for b in batches)
    lines = [
        f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
        f"operations/batch {len(commands)}  batches {len(plain)} untraced, {len(hooked)} traced",
        "machine  " + "  ".join(f"{k} {v}" for k, v in machine_facts().items()),
    ]
    correct = not errors
    if trace:
        metrics, notes = layer_metrics(tracers, plain, hooked)
        counts = [t.exact_counts() for t in tracers]
        if any(c != counts[0] for c in counts) or not counts_repeat(f"{name}-{seed}-{int(tiny)}", counts[0]):
            correct = False
            notes.append("exact counts differ between runs of the same inputs")
    else:
        metrics, notes = end_to_end_metrics(plain, setup, calibrator.samples, calibration.REFERENCE_S)
    failed = len(errors)
    lines += [_row(k, m["value"], m["unit"]) for k, m in metrics.items()]
    lines.append(_row("failed_frac", failed / attempted, f"fraction ({failed} of {attempted})"))
    lines += notes
    lines += [f"FAILED {e}" for e in errors[:20]]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def end_to_end_metrics(batches: list[Batch], setup: list[tuple], kernel_s: list[float], reference_s: float):
    """End-to-end metrics of the untraced batches, and report lines.

    ``setup`` holds (seconds, kernel seconds around it) per set-up.  An
    operation's time is its median over the batches that reached it; the
    percentiles are taken across the batch's operations, and the wall time
    is the sum over operations.  Each is computed from the raw seconds
    (printed) and from the speed-normalised ones (the metrics).
    """
    per_op_raw, per_op_norm = [], []
    for i in range(len(batches[0].seconds)):
        samples = [(b.seconds[i], b.kernel_s[i]) for b in batches if i < len(b.seconds)]
        per_op_raw.append(statistics.median(t for t, _ in samples))
        per_op_norm.append(statistics.median(t * reference_s / k for t, k in samples))

    def summary(op_seconds):
        tail = statistics.quantiles(op_seconds, n=100, method="inclusive")[98]
        return sum(op_seconds), statistics.median(op_seconds), tail

    wall, p50, p99 = summary(per_op_norm)
    values = {
        "setup_s": statistics.median(t * reference_s / k for t, k in setup),
        "wall_norm_s": wall,
        "op_p50_norm_s": p50,
        "op_p99_norm_s": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    raw = {
        "setup_raw_s": statistics.median(t for t, _ in setup),
        **dict(zip(("wall_s", "op_p50_s", "op_p99_s"), summary(per_op_raw))),
    }
    beyond = sum(s > p99 for s in per_op_norm)
    notes = [_row(k, v, "s  (raw, not normalised)") for k, v in raw.items()]
    notes += [
        _row("calibration_kernel_s", statistics.median(kernel_s), f"s  (median of {len(kernel_s)} runs)"),
        f"setup_s: median of {len(setup)} set-ups (fresh-interpreter import + serialising inputs), normalised",
        f"*_norm_s: seconds at the speed where the calibration kernel takes {reference_s} s",
        f"op times: median over {len(batches)} batches (the last may stop early); "
        f"p50, p99 over {len(per_op_norm)} operations, {beyond} beyond p99; wall = their sum",
    ]
    return metrics, notes


def layer_metrics(tracers, plain, hooked) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced batches, and each module's share.

    Counts come from the first traced batch (all must agree); times are
    medians over the traced batches.
    """
    values, units = {}, {}
    for span in tracer.SPANS:
        values[f"{span}.calls"] = tracers[0].calls[span]
        values[f"{span}.self_s"] = statistics.median(t.self_s[span] for t in tracers)
    values.update(tracers[0].counts)
    enum_s = statistics.median(t.total_s["bounds.classical_value"] for t in tracers)
    assignments = values["bounds.classical_value.assignments"]
    values["bounds.classical_value.assignments_per_s"] = assignments / enum_s if enum_s else 0.0
    traced_wall = statistics.median(b.wall_s for b in hooked)
    values["trace.overhead_s"] = traced_wall - statistics.median(b.wall_s for b in plain)
    for name in values:
        units[name] = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count"
    shares = {}
    for span in tracer.SPANS:
        module = span.split(".")[0]
        shares[module] = shares.get(module, 0.0) + values[f"{span}.self_s"] / traced_wall
    notes = [
        "self time share of the traced batch: "
        + "  ".join(f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])),
        "numerics.gram_n3: computed from arguments, sum of n^3 over the n x n Gram "
        "matrices numerics receives",
    ]
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, notes


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    """Each workload in its own process, then one table of every end-to-end metric."""
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run(argv + (["--tiny"] if tiny else []), capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    header = ["workload", *(f"{k} [{u}]" for k, u in END_TO_END_UNITS.items()), "failed_frac"]
    print("  ".join(f"{h:>16}" for h in header))
    for name, result in rows:
        cells = [f"{result['metrics'][k]['value']:.6g}" for k in END_TO_END_UNITS]
        cells.append(f"{result['failed'] / result['attempted']:.6g}")
        print("  ".join(f"{c:>16}" for c in [name, *cells]))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="a few operations per workload, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Set before numpy is first imported, here or in a child process.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.tiny)
    if not (SRC / "nlgames" / "cli.py").is_file():
        print(f"error: no nlgames sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
