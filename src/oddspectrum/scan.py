"""The scan engine: a corpus of (n, edge bits) rows, or an enumeration, folded
per vertex count into the largest measure, its graph and the least slack to
a bound, with every failed check counted. A bipartite graph's measure is
exactly 0.0, by the rule certify applies, so below k = 100 it needs no
spectrum. numpy is imported by scan_graphs, not at load, so the command line
can import this module and load none."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import bounds
from .errors import Graph6ParseError, require_odd_k
from .graph_core import LabeledGraphs, graph_from_bits


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
    arrive, and of the graphs only the first of largest measure is kept, as
    its edge bits."""

    count: int = 0
    violations: int = 0
    max_measure: float = -math.inf
    winner: bytes = b""
    min_slack: float | None = None

    def add(self, measures, slacks, violations: int, bits) -> None:
        """measures, slacks and bits (edge bit rows): numpy arrays over a
        chunk's qualifying graphs; slacks None when no bound applies."""
        self.count += len(measures)
        self.violations += violations
        i = int(measures.argmax())  # the first of equal maxima in the chunk
        if measures[i] > self.max_measure:  # strict: an earlier chunk's stays
            self.max_measure = float(measures[i])
            self.winner = bits[i].tobytes()
        if slacks is not None:
            slack = float(slacks.min())
            if self.min_slack is None or slack < self.min_slack:
                self.min_slack = slack

    def row(self, n: int, k: int) -> ScanRow:
        """Certify the winner for its graph6 id and tightest bound. A report
        whose measure is not the kernel's, bit for bit, counts as a violation."""
        report = bounds.certify(graph_from_bits(n, self.winner), k)
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
    items: LabeledGraphs | Iterable[tuple[int, bytes] | Graph6ParseError], k: int
) -> ScanSummary:
    """One pass over the input in chunks of graphs with a common n: gate each
    chunk on odd girth >= k, tell which of the graphs that pass are
    bipartite, take the spectra they need with one stacked eigensolver call,
    and fold their measures into the row for their n; count parse errors as
    malformed. No report is kept, and no graph beyond one chunk's worth per
    n. A graph without vertices raises ValueError.

    Every chunk is a uint8 array of edge bit rows. For LabeledGraphs,
    scan_kernel.odd_girth_masks builds only the masks of the graphs of odd
    girth >= k, one vertex at a time, in ascending pieces no longer than a
    chunk; scan_kernel.full_chunks packs them into full chunks, a mask's bits
    being its row, and scanned still counts every labeled graph. The gate
    runs on these chunks too, as an independent check, so both kinds of input
    pass the same gate. Other input is (n, bits)
    rows, as decode_graph6 gives them, buffered per n; n's buffer is flushed
    as one chunk once it holds chunk_size(n) graphs, so each row sees its
    graphs in input order and in full chunks. What stays buffered is at most
    one partial chunk per n, each about CHUNK_ENTRIES/2 bytes of bits: about
    0.5 MB over every n <= 62, however long the input. A Graph is built only
    for a row's winner, which is certified. A bipartite graph's two ends are
    made exactly opposite by bounds.spectrum_ends, as in certify. Below
    k = 100 every bound is a constant and the fold needs only the measures,
    0.0 for a bipartite graph without an eigensolver call; from k = 100 each
    graph is solved, and its bounds and proof chains come from bounds.assess
    on its two ends and its edge count, the same rule certify applies.
    """
    import numpy as np

    from . import scan_kernel as kernel

    require_odd_k(k, 3)
    consts = [value for _, value in bounds.constant_bounds(k)]
    tightest = min(consts, default=None)
    rows: dict[int, _RowFold] = {}

    def fold_chunk(n: int, bits) -> None:
        if n == 0:
            raise ValueError("certification needs at least one vertex")
        adj = kernel.bits_adjacency(n, bits)
        keep = np.flatnonzero(kernel.odd_walk_free(adj, k))
        if not len(keep):
            return
        adj, bits = adj[keep], bits[keep]
        # Odd girth >= k > n already means bipartite: no odd cycle fits in n vertices.
        bipartite = np.ones(len(adj), bool) if k > n else kernel.bipartite(adj)
        if k < 100:
            measures = np.zeros(len(adj))  # 0.0 where bipartite, as bounds.spectrum_ends
            odd = ~bipartite
            if odd.any():
                vals = kernel.eigvalsh(adj[odd])
                measures[odd] = (vals[:, -1] + vals[:, 0]) / n  # bit for bit certify's
            slacks = None if tightest is None else tightest - measures
            violations = bounds.count_violations(measures, consts)
        else:
            vals = kernel.eigvalsh(adj)
            tops, bottoms = vals[:, -1].tolist(), vals[:, 0].tolist()
            ends = list(map(bounds.spectrum_ends, bipartite.tolist(), tops, bottoms))
            measures = np.array([(lam1 + lamn) / n for lam1, lamn in ends])
            edges = bits.sum(axis=1).tolist()
            judged = [bounds.assess(k, n, m, *e) for m, e in zip(edges, ends)]
            slacks = np.array([bounds.tightest(found).slack for found, _, _ in judged])
            violations = sum(not bounds.passes(found, chains) for found, _, chains in judged)
        rows.setdefault(n, _RowFold()).add(measures, slacks, violations, bits)

    scanned = malformed = 0
    if isinstance(items, LabeledGraphs):
        n, size = items.n, kernel.chunk_size(items.n)
        for masks in kernel.full_chunks(kernel.odd_girth_masks(n, k), size):
            fold_chunk(n, kernel.mask_bits(n, masks))
        scanned = len(items)
    else:
        buffers: dict[int, list[bytes]] = {}

        def flush(n: int) -> None:
            chunk = buffers.pop(n)
            bits = np.frombuffer(b"".join(chunk), np.uint8).reshape(len(chunk), n * (n - 1) // 2)
            fold_chunk(n, bits)

        for item in items:
            if isinstance(item, Graph6ParseError):
                malformed += 1
                continue
            scanned += 1
            n, bits = item
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
