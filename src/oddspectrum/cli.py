"""Command-line interface: per-graph certificates, corpus scans, bound tables,
and the k = 5 relaxation experiment.

Exit codes: 0 success, 1 a verified check failed (or stdout was closed
early), 2 input error, 3 precondition or girth violation, 4 internal
numerical failure. Commands raise; main alone turns a ValueError or
ConvergenceError into code 2, 3 or 4.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Iterable

from .bounds import (
    CSV_HEADER,
    CertificateReport,
    certify,
    constant_bounds,
    count_violations,
    csikvari_bound,
    cycle_lower_bound,
    gamma5_prime_value,
    girth_field,
    main_bound,
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
    LabeledGraphs,
    decode_graph6,
    edge_bits,
    graph_from_bits,
    parse_graph6,
    read_graph6_lines,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


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


def _read_graph6_file(path: Path, decode=parse_graph6):
    """read_graph6_lines over a file, read line by line and closed once the
    lines run out. A byte that is not UTF-8 becomes a lone surrogate, which
    decode_graph6 rejects as a non-ASCII byte of its line. Universal newlines
    end lines only at \n, \r\n or \r; str.splitlines would also break at
    form feeds and other separators inside a line."""
    with path.open(encoding="utf-8", errors="surrogateescape") as lines:
        yield from read_graph6_lines(lines, decode)


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
        for lineno, item in _read_graph6_file(path):
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
        _print_csv(CSV_HEADER, (r.csv_row() for r in reports))
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
    max_measure: float
    argmax_graph: str
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


@dataclass
class _RowFold:
    """A ScanRow under construction: chunks of measures are folded in as they
    arrive, and of the graphs only the first of largest measure is kept."""

    count: int = 0
    violations: int = 0
    max_measure: float = -math.inf
    winner: Graph | None = None
    min_slack: float | None = None

    def add(self, measures, slacks, violations: int, graph_at) -> None:
        """measures and slacks: numpy arrays over a chunk's qualifying graphs
        (slacks None when no bound applies); graph_at(i) builds graph i."""
        self.count += len(measures)
        self.violations += violations
        i = int(measures.argmax())  # the first of equal maxima in the chunk
        if measures[i] > self.max_measure:  # strict: an earlier chunk's stays
            self.max_measure = float(measures[i])
            self.winner = graph_at(i)
        if slacks is not None:
            slack = float(slacks.min())
            if self.min_slack is None or slack < self.min_slack:
                self.min_slack = slack

    def row(self, n: int, k: int) -> ScanRow:
        """Certify the winner for its graph6 id and tightest bound. A report
        whose measure is not the kernel's, bit for bit, counts as a violation."""
        report = certify(self.winner, k)
        self.violations += report.measure != self.max_measure
        tight = report.tightest_bound()
        return ScanRow(
            n=n,
            k=k,
            count=self.count,
            max_measure=self.max_measure,
            argmax_graph=report.graph_id,
            tightest_bound=tight.name if tight else None,
            tightest_bound_value=tight.value if tight else None,
            min_slack=self.min_slack,
        )


def scan_graphs(
    items: Iterable[Graph | tuple[int, bytes] | Graph6ParseError], k: int
) -> ScanSummary:
    """One pass over the input in chunks of graphs with a common n: gate each
    chunk on odd girth >= k, measure the graphs that pass with one stacked
    eigensolver call, and fold the measures into the row for their n; count
    parse errors as malformed. No report is kept, and no graph beyond one
    chunk's worth per n. A graph without vertices raises ValueError.

    LabeledGraphs is read as ranges of masks. Other input is read as edge
    bits: an (n, bits) pair from decode_graph6 as it is, a Graph through
    edge_bits. The bits are buffered per n, and n's buffer is flushed as one
    chunk once it holds chunk_size(n) graphs, so each row sees its graphs in
    input order and in full chunks. What stays buffered is at most one
    partial chunk per n, each about CHUNK_ENTRIES/2 bytes of bits: about
    0.5 MB over every n <= 62, however long the input. A Graph is built only
    for a row's winner. Below k = 100 every bound is a constant and the fold
    needs only the measures; from k = 100 the bounds and proof chains need
    the whole spectrum, so each qualifying graph is certified. Either way
    each row's winner is certified once more.
    """
    import numpy as np

    from . import scan_kernel as kernel

    require_odd_k(k, 3)
    consts = [value for _, value in constant_bounds(k)]
    tightest = min(consts, default=None)
    rows: dict[int, _RowFold] = {}

    def fold_chunk(n: int, adj, graph_at) -> None:
        if n == 0:
            raise ValueError("certification needs at least one vertex")
        keep = np.flatnonzero(kernel.odd_walk_free(adj, k))
        if not len(keep):
            return
        if k < 100:
            measures = kernel.measures(adj[keep])
            slacks = None if tightest is None else tightest - measures
            violations = count_violations(measures, consts)
        else:
            reports = [certify(graph_at(i), k) for i in keep]
            measures = np.array([r.measure for r in reports])
            slacks = np.array([r.tightest_bound().slack for r in reports])
            violations = sum(not r.passed for r in reports)
        rows.setdefault(n, _RowFold()).add(
            measures, slacks, violations, lambda i: graph_at(keep[i])
        )

    scanned = malformed = 0
    if isinstance(items, LabeledGraphs):
        n, size = items.n, kernel.chunk_size(items.n)
        for start in range(0, len(items), size):
            masks = range(start, min(start + size, len(items)))
            fold_chunk(n, kernel.mask_adjacency(n, masks), lambda i: items.graph(masks[i]))
        scanned = len(items)
    else:
        buffers: dict[int, list[bytes]] = {}

        def flush(n: int) -> None:
            chunk = buffers.pop(n)
            bits = np.frombuffer(b"".join(chunk), np.uint8).reshape(len(chunk), n * (n - 1) // 2)
            fold_chunk(n, kernel.bits_adjacency(n, bits), lambda i: graph_from_bits(n, chunk[i]))

        for item in items:
            if isinstance(item, Graph6ParseError):
                malformed += 1
                continue
            scanned += 1
            n, bits = (item.n, edge_bits(item)) if isinstance(item, Graph) else item
            buffer = buffers.setdefault(n, [])
            buffer.append(bits)
            if len(buffer) == kernel.chunk_size(n):
                flush(n)
        for n in list(buffers):
            flush(n)

    summary_rows = tuple(rows[n].row(n, k) for n in sorted(rows))  # may add violations
    qualifying = sum(fold.count for fold in rows.values())
    return ScanSummary(
        rows=summary_rows,
        scanned=scanned,
        qualifying=qualifying,
        skipped_girth=scanned - qualifying,
        malformed_lines=malformed,
        violations=sum(fold.violations for fold in rows.values()),
    )


def _render_scan_text(summary: ScanSummary) -> str:
    lines = [
        f"scanned={summary.scanned}  qualifying={summary.qualifying}  "
        f"skipped_girth={summary.skipped_girth}  "
        f"malformed={summary.malformed_lines}  violations={summary.violations}"
    ]
    for row in summary.rows:
        slack = "-" if row.min_slack is None else f"{row.min_slack:.10g}"
        lines.append(
            f"n={row.n} k={row.k} count={row.count} max_measure={row.max_measure:.10g} "
            f"argmax={row.argmax_graph} "
            f"tightest={row.tightest_bound or '-'} min_slack={slack}"
        )
    return "\n".join(lines)


def cmd_scan(args) -> int:
    if (args.source is None) == (args.enumerate is None):
        raise ValueError("scan needs exactly one of a file path or --enumerate N")
    require_odd_k(args.k, 3)
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")

    if args.enumerate is not None:
        items = LabeledGraphs(args.enumerate)
    else:
        path = Path(args.source)
        if not path.is_file():
            raise ValueError(f"no such file: {path}")
        items = (item for _, item in _read_graph6_file(path, decode_graph6))

    summary = scan_graphs(items, args.k)

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
    # Built before anything is printed, so a bad epsilon leaves stdout empty.
    sequences = [extremal_sequence(eps, math.ceil(n_epsilon(eps))) for eps in epsilons]

    s_star, upper = maximize_objective(args.s_max, args.samples)
    exact = gamma5_prime_value()
    print(f"upper-bound search over [1, {args.s_max:g}]:")
    print(f"  s_star = {s_star:.12g}")
    print(f"  value  = {upper:.15g}")
    print(f"exact value      = {exact:.15g}")
    print(f"csikvari bound   = {csikvari_bound():.15g}")
    print(f"improvement      = {csikvari_bound() - exact:.6g}")
    print()
    for eps, seq in zip(epsilons, sequences):
        check = check_relaxed_constraints(seq, 5)
        print(f"epsilon = {eps:g}  (n = {seq.n})")
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
        help="scan all labeled graphs on N vertices instead of a file "
        "(N <= 8; N = 7 takes about 2 s and N = 8 took 3 min on a 2-vCPU VM)",
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
    p.add_argument(
        "--s-max",
        type=float,
        default=100.0,
        dest="s_max",
        help="right end of the objective search over [1, S_MAX] (>= 15); the "
        "search stops at s = 26, so larger values cost nothing more",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=1000,
        help="grid samples per unit interval (>= 100); the search bisects each "
        "interval, so its cost grows with log(SAMPLES)",
    )
    p.set_defaults(func=cmd_gamma5)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away (`oddspectrum ... | head`). Python flushes
        # stdout again on exit, so point it at devnull before leaving.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
