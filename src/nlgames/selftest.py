"""Acceptance checks runnable from both the test suite and the CLI.

Each check pins its tolerances and time budget and returns a CheckResult;
nothing here is configurable, so a pass means the same thing everywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .algebra import FiniteAbelianGroup
from .bounds import (
    analyze,
    bound_from_norms,
    classical_value,
    game_matrix,
    ns_winning_box,
    phi_norms,
    quantum_bound,
)
from .games import (
    Box,
    LinearGame,
    box_from_correlators,
    chsh_closed_form,
    chsh_d,
    correlators_from_box,
    evaluate_box,
    random_xor_game,
    win_prob_from_correlators,
)
from .nlc import nlc_spec, verify_theorem3
from .numerics import numerical_rank
from .rng import SplitMix64

__all__ = ["CheckResult", "ACCEPTANCE_CHECKS", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, start, failures, detail, limit=None):
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed > limit:
        failures.append(f"runtime {elapsed:.1f}s exceeded {limit}s")
    text = f"{detail}; {elapsed:.1f}s"
    if failures:
        return CheckResult(name, False, "; ".join(failures) + f" [{text}]")
    return CheckResult(name, True, text)


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
        bound = bound_from_norms(game, norms)
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
    bound = quantum_bound(game)
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
                if not report.brute_forced:
                    failures.append(f"d={d}, p={p}: brute force unexpectedly skipped")
            except Exception as exc:  # noqa: BLE001
                failures.append(f"d={d}, p={p}: {exc}")
    return _result(
        "theorem3-weighted", start, failures, f"{count} weighted games", limit=30.0
    )


def check_block_circulant() -> CheckResult:
    """Fourier conjugation diagonalizes the gram matrix; max multiplicity is k-free."""
    start = time.perf_counter()
    failures = []
    for d in (2, 3):
        try:
            report = verify_theorem3(nlc_spec(d, 2, list(range(d))))
        except Exception as exc:  # noqa: BLE001
            failures.append(f"d={d}: {exc}")
            continue
        if [block.k for block in report.blocks] != list(range(1, d)):
            failures.append(f"d={d}: block checks ran for {len(report.blocks)} of {d - 1} k")
        for block in report.blocks:
            if block.off_diagonal_max >= 1e-10:
                failures.append(f"d={d}, k={block.k}: off-diagonal {block.off_diagonal_max!r}")
        if len(set(report.lambda_by_k)) > 1:
            failures.append(f"d={d}: multiplicity maxima differ across k: {report.lambda_by_k}")
    return _result("block-circulant-structure", start, failures, "d=2,3 identity targets")


def _seeded_box(rng: SplitMix64, m_a: int, m_b: int, n: int) -> Box:
    scale = float(1 << 53)
    t = np.empty((m_a, m_b, n, n))
    for idx in np.ndindex(t.shape):
        t[idx] = (rng.next_uint64() >> 11) / scale + 1e-9
    return Box(t / t.sum(axis=(2, 3), keepdims=True))


def check_fourier_machinery() -> CheckResult:
    """Correlator round trips and win probabilities on 200 random boxes."""
    start = time.perf_counter()
    failures = []
    rng = SplitMix64(6)
    groups = [FiniteAbelianGroup([2]), FiniteAbelianGroup([3]), FiniteAbelianGroup([2, 2])]
    add_tables = [g.addition_table() for g in groups]
    for i in range(200):
        group = groups[i % 3]
        add = add_tables[i % 3]
        n = group.order
        m_a = 2 + (i % 2)
        m_b = 2 + ((i // 2) % 2)
        f = np.array([[rng.randbelow(n) for _ in range(m_b)] for _ in range(m_a)])
        game = LinearGame(group, f, q_num=np.ones_like(f), q_den=f.size)
        box = _seeded_box(rng, m_a, m_b, n)
        table = correlators_from_box(game, box)
        back = box_from_correlators(game, table)
        err = float(np.max(np.abs(back.table - box.table)))
        if err >= 1e-12:
            failures.append(f"box {i}: round-trip error {err!r}")
        for u in range(m_a):
            for v in range(m_b):
                direct = sum(
                    box.table[u, v, a, b]
                    for a in range(n)
                    for b in range(n)
                    if add[a, b] == game.f_idx[u, v]
                )
                fourier = win_prob_from_correlators(game, table, u, v)
                if abs(fourier - direct) >= 1e-10:
                    failures.append(f"box {i}, ({u},{v}): {fourier!r} vs {direct!r}")
        if len(failures) > 5:
            break
    return _result("fourier-machinery", start, failures, "200 random boxes")


def _scan_corpus(seed: int, count: int):
    rng = SplitMix64(seed)
    for i in range(count):
        d = 2 if i % 2 == 0 else 3
        m = 2 + (i % 3)
        yield random_xor_game(rng, d, m)


def check_ordering_chain() -> CheckResult:
    """500 seeded games: value chain holds and the winning box is perfect."""
    start = time.perf_counter()
    failures = []
    for i, game in enumerate(_scan_corpus(seed=0, count=500)):
        d = game.order
        report = analyze(game)
        chain = (
            1.0 / d <= report.lemma1_bound + 1e-12
            and report.lemma1_bound <= report.classical_value + 1e-12
            and report.classical_value <= min(1.0, report.quantum_bound) + 1e-9
        )
        if not chain:
            failures.append(
                f"game {i}: chain broke ({report.lemma1_bound}, "
                f"{report.classical_value}, {report.quantum_bound})"
            )
        box = ns_winning_box(game)
        value = evaluate_box(game, box)
        if abs(value - 1.0) > 1e-12:
            failures.append(f"game {i}: winning box scored {value!r}")
        marg = max(
            float(np.max(np.abs(box.alice_marginals() - 1.0 / d))),
            float(np.max(np.abs(box.bob_marginals() - 1.0 / d))),
        )
        if marg > 1e-12:
            failures.append(f"game {i}: marginal deviation {marg!r}")
        if len(failures) > 5:
            break
    return _result("ordering-chain", start, failures, "500 seeded games")


def _uniform_rank_one(f: np.ndarray, d: int) -> bool:
    """Exact rank(Phi_1) <= 1 for a uniform game over Z_d with table f.

    Every weight product is equal, so the 2 x 2 minor on rows u, u' and
    columns v, v' vanishes exactly when f(u,v) + f(u',v') = f(u,v') + f(u',v)
    mod d, since w = exp(2 pi i/d) is a primitive d-th root of unity.
    """
    main = f[:, None, :, None] + f[None, :, None, :]
    anti = f[:, None, None, :] + f[None, :, :, None]
    return bool(np.all((main - anti) % d == 0))


def check_lemma2_equivalence() -> CheckResult:
    """rank(Phi_1) = 1 iff the exact classical value is 1 iff every 2 x 2
    minor of Phi_1 vanishes, over Z_2..Z_6 with up to 5 questions a side."""
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
    for name, game in games:
        rank1 = numerical_rank(game_matrix(game, 1)) == 1
        win = classical_value(game).exact == 1
        minors = _uniform_rank_one(game.f_idx, game.order)
        if not rank1 == win == minors:
            failures.append(
                f"{name} over Z_{game.order}: rank1={rank1}, win={win}, minors={minors}"
            )
    return _result("lemma2-equivalence", start, failures, f"{len(games)} games")


ACCEPTANCE_CHECKS = [
    check_chsh_closed_form,
    check_chsh2_concrete_values,
    check_theorem3_exhaustive,
    check_theorem3_weighted,
    check_block_circulant,
    check_fourier_machinery,
    check_ordering_chain,
    check_lemma2_equivalence,
]


def run_all(stream=None) -> list[CheckResult]:
    """Run every acceptance check, printing one PASS/FAIL line per check."""
    results = []
    for check in ACCEPTANCE_CHECKS:
        result = check()
        results.append(result)
        if stream is not None:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}", file=stream)
    return results
