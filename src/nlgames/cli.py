"""Command-line front end: analyze game files, check closed forms, verify
no-quantum-advantage games, scan random corpora, and run the acceptance suite.

Exit codes: 0 success, 1 validation or verification failure or a Jacobi
solve that did not converge (ArithmeticError), 2 parse error, an unreadable
input file or an option value out of range, checked before any output,
3 enumeration budget exceeded, or a `chsh` field above its order cap.
Floats print with 12 significant digits and rationals as "num/den
(decimal)", so runs with the same inputs and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .algebra import MAX_ORDER, FiniteField
from .bounds import ChainViolationError, EnumerationBudgetError, GameReport, analyze, bound_from_norms, over_budget, phi_norms
from .games import GameFormatError, chsh_closed_form, chsh_d, game_from_json, game_to_json, random_xor_game
from .nlc import lambda_profile, nlc_classical_strategy, nlc_spec_from_json, verify_theorem3
from .rng import SplitMix64
from .selftest import run_all

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3

# Largest field order `chsh` admits; GF(373) took 0.39-0.55 s as a whole
# command on a 2-vCPU host, one BLAS thread, three runs.
CHSH_MAX_ORDER = 373
CHSH_EQ_TOL = 1e-10  # largest difference `chsh` admits from the closed form

SCAN_BLOCK = 32  # games per block, whose spectra are solved in one stack

SCAN_COLUMNS = [
    "index",
    "order",
    "mA",
    "mB",
    "lemma1_bound",
    "classical_value",
    "classical_value_exact",
    "quantum_bound_raw",
    "quantum_bound",
    "ns_value",
    "rank_phi1",
    "pseudo_telepathy_possible",
]


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def fmt_fraction(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator} ({fmt_float(float(fr))})"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _report_scalars(report: GameReport, index: int | None = None) -> dict:
    """The CSV row of a report, read off its JSON document: floats through
    `fmt_float`, a missing exact value as "-"."""
    doc = report.to_json_dict()
    row = {} if index is None else {"index": index}
    for column in SCAN_COLUMNS[1:]:
        value = doc[column]
        row[column] = fmt_float(value) if isinstance(value, float) else "-" if value is None else value
    return row


def _print_report(report: GameReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    if fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=SCAN_COLUMNS[1:], lineterminator="\n")
        writer.writeheader()
        writer.writerow(_report_scalars(report))
        return
    doc = report.to_json_dict()
    print(f"group: {json.dumps(doc['group'])}")
    print(f"questions: {report.mA} x {report.mB}, answers: {report.order}")
    print(f"lemma1_bound: {fmt_float(report.lemma1_bound)}")
    exact = report.classical_value_exact
    print("classical_value: " + (fmt_float(report.classical_value) if exact is None else fmt_fraction(exact)))
    print(f"alice_strategy: {doc['classical_strategy']['alice']}")
    print(f"bob_strategy: {doc['classical_strategy']['bob']}")
    print(f"quantum_bound_raw: {fmt_float(report.quantum_bound_raw)}")
    print(f"quantum_bound: {fmt_float(report.quantum_bound)}")
    print("norms: " + " ".join(fmt_float(x) for x in report.norms))
    print(f"ns_value: {fmt_float(report.ns_value)}")
    print(f"rank_phi1: {report.rank_phi1}")
    print(f"pseudo_telepathy_possible: {report.pseudo_telepathy_possible}")


def cmd_analyze(args: argparse.Namespace) -> int:
    game = game_from_json(_load_json(args.path))
    report = analyze([game])[0]
    _print_report(report, args.format)
    return EXIT_OK


class WorkBudgetError(RuntimeError):
    """A `chsh` field is above the order cap of its spectral bound."""


def cmd_chsh(args: argparse.Namespace) -> int:
    field = FiniteField(args.p, args.r)  # a bad p or r fails before the cap
    if field.order > CHSH_MAX_ORDER:
        raise WorkBudgetError(f"chsh admits fields of order at most {CHSH_MAX_ORDER}, got GF({field.order})")
    game = chsh_d(field)
    d = game.order
    norms = phi_norms(game)
    bound = bound_from_norms(d, game.mA, game.mB, norms)
    closed = chsh_closed_form(d)
    diff = abs(bound - closed)
    print(f"d: {d}")
    print("norms: " + " ".join(fmt_float(x) for x in norms))
    print(f"bound: {fmt_float(bound)}")
    print(f"closed_form: {fmt_float(closed)}")
    print(f"difference: {fmt_float(diff)}")
    if diff >= CHSH_EQ_TOL:
        print(
            f"error: bound differs from the closed form by {diff!r}",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def cmd_nlc(args: argparse.Namespace) -> int:
    spec = nlc_spec_from_json(_load_json(args.path))
    report = verify_theorem3(spec) if args.verify else None
    if report is None:
        profile = lambda_profile(spec)
        strategy_value = nlc_classical_strategy(spec, profile.mu).value
    else:
        profile, strategy_value = report.profile, report.strategy_value
    print(f"d: {spec.d}, n: {spec.n}")
    print("lambda_counts: " + " ".join(str(c) for c in profile.counts))
    print(
        "lambda_weighted: "
        + " ".join(f"{w.numerator}/{w.denominator}" for w in profile.weighted)
    )
    print(f"mu: {profile.mu}")
    print(f"strategy_value: {fmt_fraction(strategy_value)}")
    print(f"quantum_bound: {fmt_fraction(profile.bound)}")
    if report is not None:
        brute = report.brute_force_value
        brute = "skipped (over budget)" if brute is None else fmt_fraction(brute)
        print(
            f"verify theorem: ok (strategy {fmt_fraction(report.strategy_value)}, "
            f"brute force {brute}, spectral {fmt_float(report.spectral_bound)})"
        )
        for k, norm in enumerate(report.norms, start=1):
            print(f"verify blocks k={k}: ok (norm {fmt_float(norm)})")
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    """Analyze the games in blocks of SCAN_BLOCK, one `analyze` call each, so
    a block's spectra are solved in one stack; a chain violation prints the
    offending game and none of its block's rows.  The enumeration budget is
    checked after the options and before the header, and before any game is
    drawn."""
    for name, least in (("count", 0), ("d", 2), ("m", 1)):
        value = getattr(args, name)
        if value < least:
            raise GameFormatError(f"scan --{name} must be at least {least}, got {value}")
    if args.d > MAX_ORDER:
        raise GameFormatError(f"scan --d must be at most {MAX_ORDER}, got {args.d}")
    reason = over_budget(args.d, args.m, args.m) if args.count else None
    if reason is not None:
        raise EnumerationBudgetError(reason)
    rng = SplitMix64(args.seed)
    writer = csv.DictWriter(sys.stdout, fieldnames=SCAN_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for start in range(0, args.count, SCAN_BLOCK):
        size = min(SCAN_BLOCK, args.count - start)
        block = [random_xor_game(rng, args.d, args.m) for _ in range(size)]
        try:
            reports = analyze(block)
        except ChainViolationError as exc:
            print(
                "chain violation; offending game: " + json.dumps(game_to_json(exc.game)),
                file=sys.stderr,
            )
            raise
        for index, report in enumerate(reports, start):
            writer.writerow(_report_scalars(report, index=index))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_all(sys.stdout, sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlgames",
        description="Linear-game values: exact classical optima, spectral "
        "quantum bounds, and no-signaling boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser("analyze", help="full report for a game JSON file")
    analyze_p.set_defaults(run=cmd_analyze)
    analyze_p.add_argument("path")
    analyze_p.add_argument("--format", default="text", choices=["text", "json", "csv"])

    chsh_p = sub.add_parser("chsh", help="field-multiplication game closed form")
    chsh_p.set_defaults(run=cmd_chsh)
    chsh_p.add_argument("p", type=int)
    chsh_p.add_argument("r", type=int, nargs="?", default=1)

    nlc_p = sub.add_parser("nlc", help="analyze an NLC spec JSON file")
    nlc_p.set_defaults(run=cmd_nlc)
    nlc_p.add_argument("path")
    nlc_p.add_argument("--verify", action="store_true")

    scan_p = sub.add_parser("scan", help="CSV reports for seeded random games")
    scan_p.set_defaults(run=cmd_scan)
    scan_p.add_argument("--seed", type=int, default=0)
    scan_p.add_argument("--count", type=int, default=10)
    scan_p.add_argument("--d", type=int, default=2)
    scan_p.add_argument("--m", type=int, default=3)

    sub.add_parser("selftest", help="run the acceptance suite").set_defaults(run=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (json.JSONDecodeError, GameFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EnumerationBudgetError, WorkBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
