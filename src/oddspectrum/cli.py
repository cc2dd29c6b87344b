"""Command-line interface: per-graph certificates, corpus scans, bound tables,
and the k = 5 relaxation experiment.

Exit codes: 0 success, 1 a verified check failed, 2 input error,
3 precondition or girth violation, 4 internal numerical failure. Commands
raise; main alone turns a ValueError or ConvergenceError into code 2, 3 or 4.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

from .bounds import (
    CertificateReport,
    certify,
    csikvari_bound,
    cycle_lower_bound,
    gamma5_prime_value,
    girth_field,
    main_bound,
    reports_to_csv,
)
from .errors import (
    ConvergenceError,
    Graph6ParseError,
    GirthViolationError,
    HypothesisError,
    InfeasibleError,
    require_odd_k,
)
from .gamma5prime import (
    check_relaxed_constraints,
    extremal_sequence,
    maximize_objective,
    n_epsilon,
)
from .graph_core import (
    Graph,
    enumerate_labeled_graphs,
    parse_graph6,
    read_graph6_lines,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _exit_code(exc: Exception) -> int:
    """The one mapping from an expected error to an exit code."""
    if isinstance(exc, (GirthViolationError, InfeasibleError, HypothesisError)):
        return EXIT_PRECONDITION
    if isinstance(exc, ConvergenceError):
        return EXIT_NUMERICAL
    return EXIT_INPUT  # any other ValueError, Graph6ParseError included


def _print_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ----------------------------- analyze ------------------------------------


def _render_report_text(report: CertificateReport) -> str:
    lines = [
        f"graph {report.graph_id}  n={report.n}  "
        f"odd_girth={girth_field(report.odd_girth)}  "
        f"k={report.k}",
        f"  lambda1={report.lambda1:.10g}  lambda_n={report.lambda_n:.10g}  "
        f"measure={report.measure:.10g}",
        f"  case={report.case if report.case is not None else 'n/a'}  "
        f"trivial={'yes' if report.trivial else 'no'}",
    ]
    for b in report.bounds:
        status = "OK" if b.satisfied else "VIOLATED"
        lines.append(
            f"  bound {b.name:<16} {b.value:.10g}  {status}  slack {b.slack:.10g}"
        )
    for c in report.chain_checks:
        if c.satisfied is None:
            lines.append(f"  chain [skipped] {c.description}")
        else:
            status = "OK" if c.satisfied else "VIOLATED"
            lines.append(
                f"  chain {c.description}: {c.left:.10g} {c.relation} "
                f"{c.right:.10g}  {status}"
            )
    lines.append(f"  result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    require_odd_k(args.k, 3)
    path = Path(args.source)
    if path.is_file():
        graphs = []
        for lineno, item in read_graph6_lines(path.read_text().splitlines()):
            if isinstance(item, Graph6ParseError):
                raise ValueError(f"line {lineno}: {item}")
            graphs.append(item)
        if not graphs:
            raise ValueError(f"no graphs in {path}")
    else:
        graphs = [parse_graph6(args.source)]

    reports = [certify(g, args.k) for g in graphs]

    if args.format == "json":
        for report in reports:
            print(report.to_json())
    elif args.format == "csv":
        print(reports_to_csv(reports), end="")
    else:
        for report in reports:
            print(_render_report_text(report))

    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


# ------------------------------- scan --------------------------------------


@dataclass(frozen=True)
class ScanRow:
    """Aggregate over all scanned graphs with a common vertex count."""

    n: int
    k: int
    count: int
    max_measure: float | None
    argmax_graph: str | None
    tightest_bound: str | None
    tightest_bound_value: float | None
    min_slack: float | None


@dataclass(frozen=True)
class ScanSummary:
    rows: tuple[ScanRow, ...]
    scanned: int
    qualifying: int
    skipped_girth: int
    malformed_lines: int
    violations: int


def scan_graphs(graphs: list[Graph], k: int) -> list[CertificateReport]:
    """Certify, in input order, every graph with a vertex and odd girth >= k."""
    reports = []
    for g in graphs:
        if g.n == 0:
            continue
        try:
            reports.append(certify(g, k))
        except GirthViolationError:
            pass
    return reports


def _scan_row(n: int, k: int, reports: list[CertificateReport]) -> ScanRow:
    best = max(reports, key=lambda r: r.measure)  # first of equal maxima
    tight = best.tightest_bound()
    slacks = [t.slack for t in (r.tightest_bound() for r in reports) if t is not None]
    return ScanRow(
        n=n,
        k=k,
        count=len(reports),
        max_measure=best.measure,
        argmax_graph=best.graph_id,
        tightest_bound=tight.name if tight else None,
        tightest_bound_value=tight.value if tight else None,
        min_slack=min(slacks, default=None),
    )


def build_scan_summary(graphs: list[Graph], k: int, malformed: int) -> ScanSummary:
    reports = scan_graphs(graphs, k)
    per_n: dict[int, list[CertificateReport]] = {}
    for report in reports:
        per_n.setdefault(report.n, []).append(report)
    return ScanSummary(
        rows=tuple(_scan_row(n, k, group) for n, group in sorted(per_n.items())),
        scanned=len(graphs),
        qualifying=len(reports),
        skipped_girth=len(graphs) - len(reports),
        malformed_lines=malformed,
        violations=sum(not r.passed for r in reports),
    )


def _render_scan_text(summary: ScanSummary) -> str:
    lines = [
        f"scanned={summary.scanned}  qualifying={summary.qualifying}  "
        f"skipped_girth={summary.skipped_girth}  "
        f"malformed={summary.malformed_lines}  violations={summary.violations}"
    ]
    for row in summary.rows:
        measure = "-" if row.max_measure is None else f"{row.max_measure:.10g}"
        slack = "-" if row.min_slack is None else f"{row.min_slack:.10g}"
        lines.append(
            f"n={row.n} k={row.k} count={row.count} max_measure={measure} "
            f"argmax={row.argmax_graph or '-'} "
            f"tightest={row.tightest_bound or '-'} min_slack={slack}"
        )
    return "\n".join(lines)


def cmd_scan(args) -> int:
    if (args.source is None) == (args.enumerate is None):
        raise ValueError("scan needs exactly one of a file path or --enumerate N")
    require_odd_k(args.k, 3)
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")

    malformed = 0
    graphs: list[Graph] = []
    if args.enumerate is not None:
        graphs = list(enumerate_labeled_graphs(args.enumerate))
    else:
        path = Path(args.source)
        if not path.is_file():
            raise ValueError(f"no such file: {path}")
        for _, item in read_graph6_lines(path.read_text().splitlines()):
            if isinstance(item, Graph6ParseError):
                malformed += 1
            else:
                graphs.append(item)

    summary = build_scan_summary(graphs, args.k, malformed)

    if args.format == "json":
        print(json.dumps(asdict(summary)))
    elif args.format == "csv":
        _print_csv([f.name for f in fields(ScanRow)], map(astuple, summary.rows))
    else:
        print(_render_scan_text(summary))
    return EXIT_OK if summary.violations == 0 else EXIT_CHECK_FAILED


# ------------------------------ bounds -------------------------------------


def cmd_bounds(args) -> int:
    k_min, k_max = args.k_min, args.k_max
    require_odd_k(k_min, 3)
    require_odd_k(k_max, 3)
    if k_min > k_max:
        raise ValueError("k-min must not exceed k-max")

    rows = []
    for k in range(k_min, k_max + 1, 2):
        lower = cycle_lower_bound(k)
        upper = main_bound(k) if k >= 100 else None
        ratio = upper / lower if upper is not None else None
        rows.append({"k": k, "cycle_lower_bound": lower, "main_bound": upper, "ratio": ratio})

    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        _print_csv(rows[0], (row.values() for row in rows))
    else:
        for row in rows:
            upper = "n/a" if row["main_bound"] is None else f"{row['main_bound']:.10g}"
            ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.6g}"
            print(
                f"k={row['k']:>5}  lower={row['cycle_lower_bound']:.10g}  "
                f"upper={upper}  ratio={ratio}"
            )
    return EXIT_OK


# ------------------------------ gamma5 -------------------------------------


def cmd_gamma5(args) -> int:
    epsilons = [float(x) for x in args.eps.split(",") if x.strip()]
    if not epsilons:
        raise ValueError(f"no epsilon in {args.eps!r}")
    # Sized before anything is printed, so a bad epsilon leaves stdout empty.
    sizes = [math.ceil(n_epsilon(eps)) for eps in epsilons]

    s_star, upper = maximize_objective(args.s_max, args.samples)
    exact = gamma5_prime_value()
    print(f"upper-bound search over [1, {args.s_max:g}]:")
    print(f"  s_star = {s_star:.12g}")
    print(f"  value  = {upper:.15g}")
    print(f"exact value      = {exact:.15g}")
    print(f"csikvari bound   = {csikvari_bound():.15g}")
    print(f"improvement      = {csikvari_bound() - exact:.6g}")
    print()
    for eps, n in zip(epsilons, sizes):
        seq = extremal_sequence(eps, n)
        check = check_relaxed_constraints(seq, 5)
        print(f"epsilon = {eps:g}  (n = {n})")
        print(f"  measure     = {seq.measure:.15g}")
        print(f"  gap         = {exact - seq.measure:.6g}")
        print(f"  sum1        = {check.sum1:.6g}")
        print(f"  sum3        = {check.sum3:.6g}")
        print(f"  sum2 budget = {check.sum2:.6g} <= {check.n_lambda1:.6g}")
        print(f"  satisfied   = {check.satisfied}")
    return EXIT_OK


# ------------------------------- main --------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddspectrum",
        description=(
            "Spectral bipartiteness measure vs odd girth: certificates, "
            "corpus scans, bound tables, and the k = 5 relaxation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify one graph6 literal or file")
    p.add_argument("source", help="graph6 string or path to a graph6 file")
    p.add_argument("--k", type=int, required=True, help="odd girth level to certify at")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="scan a corpus for measures and bound slack")
    p.add_argument("source", nargs="?", help="path to a graph6 file")
    p.add_argument(
        "--enumerate",
        type=int,
        default=None,
        metavar="N",
        help="scan all labeled graphs on N vertices instead of a file (N <= 8)",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility (must be >= 1); the scan runs in one thread",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bounds", help="tabulate the bound formulas over odd k")
    p.add_argument("--k-min", type=int, required=True, dest="k_min")
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gamma5", help="run the k = 5 relaxation experiment")
    p.add_argument("--eps", default="0.1,0.01,0.001", help="comma-separated epsilons")
    p.add_argument("--s-max", type=float, default=100.0, dest="s_max")
    p.add_argument("--samples", type=int, default=1000, help="grid samples per unit interval")
    p.set_defaults(func=cmd_gamma5)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConvergenceError) as exc:
        return _fail(str(exc), _exit_code(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
