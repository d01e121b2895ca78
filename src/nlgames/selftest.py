"""Acceptance checks runnable from both the test suite and the CLI.

Each check pins its tolerances and time budget and returns a CheckResult;
nothing here is configurable, so a pass means the same thing everywhere.
A passing check's detail holds no timing, so its line prints the same bytes
on every run; the elapsed seconds are kept apart in `seconds`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .algebra import FiniteAbelianGroup, FiniteField
from .bounds import (
    ChainViolationError,
    _uniform_rank_one,
    analyze,
    bound_from_norms,
    classical_value,
    phi_norms,
)
from .games import LinearGame, chsh_closed_form, chsh_d, random_xor_game
from .nlc import nlc_spec, verify_theorem3
from .rng import SplitMix64

__all__ = ["CheckResult", "ACCEPTANCE_CHECKS", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, start, failures, detail, limit=None):
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed > limit:
        failures.append(f"runtime {elapsed:.1f}s exceeded {limit}s")
    if failures:
        return CheckResult(name, False, "; ".join(failures) + f" [{detail}]", elapsed)
    return CheckResult(name, True, detail, elapsed)


def check_chsh_closed_form() -> CheckResult:
    """Field games match the closed-form bound and per-character norms."""
    start = time.perf_counter()
    failures = []
    cases = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]
    for p, r in cases:
        game = chsh_d(p, r)
        d = game.order
        closed = chsh_closed_form(d)
        norms = phi_norms(game)
        bound = bound_from_norms(d, game.mA, game.mB, norms)
        if abs(bound - closed) > 1e-10:
            failures.append(f"d={d}: bound {bound!r} vs closed form {closed!r}")
        for k, norm in enumerate(norms, start=1):
            if abs(norm - 1.0 / (d * np.sqrt(d))) > 1e-10:
                failures.append(f"d={d}, k={k}: norm {norm!r}")
    return _result(
        "chsh-closed-form", start, failures, f"{len(cases)} field games", limit=5.0
    )


def check_chsh2_concrete_values() -> CheckResult:
    """Binary game: bound 0.8535533906 and exact classical value 3/4."""
    start = time.perf_counter()
    failures = []
    game = chsh_d(2, 1)
    bound = bound_from_norms(game.order, game.mA, game.mB, phi_norms(game))
    if abs(bound - 0.8535533906) > 1e-9:
        failures.append(f"bound {bound!r}")
    optimum = classical_value(game)
    if optimum.exact != Fraction(3, 4):
        failures.append(f"classical value {optimum.exact}")
    return _result("chsh2-concrete-values", start, failures, "bound and exact optimum")


def _all_g_tables(d: int, n: int):
    return product(range(d), repeat=d ** (n - 1))


def check_theorem3_exhaustive() -> CheckResult:
    """Every target table for d=2 (n=2,3) and d=3 (n=2), uniform inputs."""
    start = time.perf_counter()
    failures = []
    count = 0
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        for g in _all_g_tables(d, n):
            count += 1
            try:
                verify_theorem3(nlc_spec(d, n, g))
            except Exception as exc:  # noqa: BLE001 - report any failing leg
                failures.append(f"d={d}, n={n}, g={g}: {exc}")
    return _result(
        "theorem3-exhaustive", start, failures, f"{count} games, all legs", limit=60.0
    )


WEIGHTED_DISTRIBUTIONS = {
    2: [
        [(1, 1), (0, 1)],
        [(3, 4), (1, 4)],
        [(1, 2), (1, 2)],
        [(2, 3), (1, 3)],
        [(1, 5), (4, 5)],
    ],
    3: [
        [(1, 1), (0, 1), (0, 1)],
        [(1, 2), (1, 3), (1, 6)],
        [(1, 3), (1, 3), (1, 3)],
        [(3, 5), (1, 5), (1, 5)],
        [(1, 7), (2, 7), (4, 7)],
    ],
}


def check_theorem3_weighted() -> CheckResult:
    """Weighted inputs: strategy value equals the bound exactly, brute-forced."""
    start = time.perf_counter()
    failures = []
    count = 0
    for d, dists in WEIGHTED_DISTRIBUTIONS.items():
        identity = list(range(d))
        for p in dists:
            count += 1
            spec = nlc_spec(d, 2, identity, p)
            try:
                report = verify_theorem3(spec)
                if report.brute_force_value is None:
                    failures.append(f"d={d}, p={p}: brute force unexpectedly skipped")
            except Exception as exc:  # noqa: BLE001
                failures.append(f"d={d}, p={p}: {exc}")
    return _result(
        "theorem3-weighted", start, failures, f"{count} weighted games", limit=30.0
    )


def check_block_circulant() -> CheckResult:
    """Every Phi_k's FFT spectrum peaks at the uniform closed form
    d * Lambda / d^(2n), up to d=3, n=8 (6,561 questions)."""
    start = time.perf_counter()
    failures = []
    specs = [nlc_spec(d, 2, list(range(d))) for d in (2, 3)]
    specs += [nlc_spec(3, n, [i * i % 3 for i in range(3 ** (n - 1))]) for n in (5, 6, 8)]
    for spec in specs:
        name = f"d={spec.d}, n={spec.n}"
        try:
            report = verify_theorem3(spec)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{name}: {exc}")
            continue
        if len(report.norms) != spec.d - 1:
            failures.append(f"{name}: block checks ran for {len(report.norms)} of {spec.d - 1} k")
        closed = spec.d * max(report.profile.counts) / spec.d ** (2 * spec.n)
        for k, norm in enumerate(report.norms, start=1):
            if abs(norm - closed) > 1e-12 * closed:
                failures.append(f"{name}, k={k}: norm {norm!r}, closed form {closed!r}")
    return _result(
        "block-circulant-structure", start, failures, "d=2,3 identity targets; d=3, n=5,6,8 squares"
    )


def _scan_corpus(seed: int, count: int):
    rng = SplitMix64(seed)
    for i in range(count):
        d = 2 if i % 2 == 0 else 3
        m = 2 + (i % 3)
        yield random_xor_game(rng, d, m)


def check_ordering_chain() -> CheckResult:
    """500 seeded games: the value chain holds and the no-signaling box has
    exactly uniform marginals (`analyze` enforces both), and every lemma 1
    bound is at least 1/|G|."""
    start = time.perf_counter()
    corpus = list(_scan_corpus(seed=0, count=500))
    detail = f"{len(corpus)} seeded games"
    try:
        reports = analyze(corpus)
    except ChainViolationError as exc:
        return _result("ordering-chain", start, [str(exc)], detail)
    failures = []
    for i, (game, report) in enumerate(zip(corpus, reports)):
        d = game.order
        if 1.0 / d > report.lemma1_bound + 1e-12:
            failures.append(f"game {i}: lemma1 bound {report.lemma1_bound} below 1/{d}")
        if len(failures) > 5:
            break
    return _result("ordering-chain", start, failures, detail)


def check_lemma2_equivalence() -> CheckResult:
    """The exact classical value is 1 iff f(u, v) - f(u, 0) - f(0, v) +
    f(0, 0) = 0 everywhere iff the float bound reads 1, on uniform games over
    Z_2..Z_6 with up to 5 questions a side and over Z_2 x Z_2, Z_2 x Z_3,
    GF(4) and GF(9) with up to 3; over Z_d, whose character 1 is faithful,
    also iff rank(Phi_1) = 1."""
    start = time.perf_counter()
    failures = []
    z2 = FiniteAbelianGroup([2])
    games = []
    for code in range(16):
        f = np.array([[(code >> (2 * u + v)) & 1 for v in range(2)] for u in range(2)])
        games.append((f"binary table {code}", LinearGame(z2, f, q_num=np.ones_like(f), q_den=4)))
    rng = SplitMix64(8)
    for i in range(300):
        d, m = 2 + i % 5, 2 + (i // 5) % 4
        if i % 3 == 0:
            alpha = [rng.randbelow(d) for _ in range(m)]
            beta = [rng.randbelow(d) for _ in range(m)]
            f = np.array([[(a + b) % d for b in beta] for a in alpha])
            game = LinearGame(FiniteAbelianGroup([d]), f, q_num=np.ones_like(f), q_den=f.size)
        else:
            game = random_xor_game(rng, d, m)
        games.append((f"game {i}", game))
    groups = [
        FiniteAbelianGroup([2, 2]),
        FiniteAbelianGroup([2, 3]),
        FiniteField(2, 2),
        FiniteField(3, 2),
    ]
    for i in range(120):
        group, m = groups[i % 4], 2 + (i // 4) % 2
        n = group.order
        if i % 3 == 0:
            alpha = [rng.randbelow(n) for _ in range(m)]
            beta = [rng.randbelow(n) for _ in range(m)]
            f = group.addition_table()[np.ix_(alpha, beta)]
        else:
            f = np.array([[rng.randbelow(n) for _ in range(m)] for _ in range(m)])
        games.append((f"game {300 + i}", LinearGame(group, f, q_num=np.ones_like(f), q_den=f.size)))
    detail = f"{len(games)} games"
    try:
        reports = analyze([game for _, game in games])
    except ChainViolationError as exc:
        return _result("lemma2-equivalence", start, [str(exc)], detail)
    for (name, game), report in zip(games, reports):
        win = report.classical_value_exact == 1
        minors = _uniform_rank_one(game)
        bound = report.quantum_bound_raw >= 1.0 - 1e-9
        cyclic = getattr(game.group, "factors", ()) == (game.order,)
        rank1 = report.rank_phi1 == 1 if cyclic else win
        if not rank1 == win == minors == bound:
            failures.append(
                f"{name} over {game.group!r}: rank1={rank1}, win={win}, minors={minors}, bound={bound}"
            )
    return _result("lemma2-equivalence", start, failures, detail)


ACCEPTANCE_CHECKS = [
    check_chsh_closed_form,
    check_chsh2_concrete_values,
    check_theorem3_exhaustive,
    check_theorem3_weighted,
    check_block_circulant,
    check_ordering_chain,
    check_lemma2_equivalence,
]


def run_all(stream, timings) -> list[CheckResult]:
    """Run every acceptance check, printing one PASS/FAIL line per check to
    `stream` and one `name: seconds` line to `timings`."""
    results = []
    for check in ACCEPTANCE_CHECKS:
        result = check()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}", file=stream)
        print(f"{result.name}: {result.seconds:.1f}s", file=timings)
    return results
