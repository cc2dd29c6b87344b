"""Shared test helpers: independent oracles kept deliberately separate from
the library code they check."""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from oddspectrum import (
    INFINITE,
    CertificateReport,
    ConvergenceError,
    GirthViolationError,
    Graph,
    Graph6ParseError,
    InfeasibleError,
    Spectrum,
    certify,
    objective_g,
)
from oddspectrum.cli import ScanRow, ScanSummary
from oddspectrum.errors import require_odd_k
from oddspectrum.gamma5prime import ConstraintCheck
from oddspectrum.graph_core import GRAPH6_HEADER_PREFIX

JACOBI_MAX_SWEEPS = 100


def neighbors(g: Graph) -> list[tuple[int, ...]]:
    """Sorted adjacency lists, built from g.edges."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return [tuple(sorted(a)) for a in adj]


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def brute_force_odd_girth(g: Graph, limit: int | None = None) -> float:
    """Shortest odd cycle by direct enumeration of simple cycles."""
    adj = [set(nbrs) for nbrs in neighbors(g)]
    top = g.n if limit is None else min(limit, g.n)
    for length in range(3, top + 1, 2):
        for subset in itertools.combinations(range(g.n), length):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                if perm[0] > perm[-1]:
                    continue  # count each cycle once per orientation
                cycle = (first,) + perm
                if all(
                    cycle[i + 1] in adj[cycle[i]] for i in range(length - 1)
                ) and cycle[0] in adj[cycle[-1]]:
                    return length
    return math.inf


def level_bfs_odd_girth(g: Graph) -> float:
    """Length of the shortest odd cycle; INFINITE when the graph is bipartite.

    BFS by levels from every root. An edge whose two ends are both at depth d
    closes an odd walk of length 2d + 1 through the root, and an odd closed
    walk contains an odd cycle no longer than it. Conversely a shortest odd
    cycle C is isometric: a path in G between two of its vertices, shorter
    than their distance along C, would close with one of C's two arcs (their
    lengths differ in parity) a shorter odd walk. So from any vertex of C the
    edge opposite it joins two vertices at depth (|C| - 1)/2. A root stops
    once 2d + 1 reaches the best length found. Total cost O(n(n+m)).
    """
    adj = neighbors(g)
    n = g.n
    best = INFINITE
    for root in range(n):
        depth = [-1] * n
        depth[root] = 0
        level, d = [root], 0
        while level and 2 * d + 1 < best:
            below = []
            for v in level:
                for w in adj[v]:
                    if depth[w] < 0:
                        depth[w] = d + 1
                        below.append(w)
                    elif depth[w] == d:
                        best = 2 * d + 1
            level, d = below, d + 1
    return best


def two_colorable(g: Graph) -> bool:
    """DFS 2-coloring, independent of the library's BFS implementation."""
    adj = neighbors(g)
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def trace_powers(g: Graph, j_max: int) -> list[int]:
    """Exact traces [Tr(A^1), ..., Tr(A^j_max)] via arbitrary-precision ints.

    Tr(A^j) counts closed walks of length j; Python integers make overflow
    impossible, so the counts are exact at any size.
    """
    if j_max < 1:
        raise ValueError(f"power must be at least 1, got {j_max}")
    n = g.n
    adj = neighbors(g)
    power = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        power[u][v] = power[v][u] = 1
    traces = [sum(power[i][i] for i in range(n))]
    for _ in range(j_max - 1):
        power = [[sum(row[u] for u in adj[v]) for v in range(n)] for row in power]
        traces.append(sum(power[i][i] for i in range(n)))
    return traces


@dataclass
class _ReportFold:
    """One row of the per-graph scan: reports are folded in as they arrive
    and none is kept but the first of largest measure."""

    count: int = 0
    violations: int = 0
    best: CertificateReport | None = None
    min_slack: float | None = None

    def add(self, report: CertificateReport) -> None:
        self.count += 1
        self.violations += not report.passed
        if self.best is None or report.measure > self.best.measure:
            self.best = report  # strict: the first of equal maxima stays
        tight = report.tightest_bound()
        if tight is not None and (self.min_slack is None or tight.slack < self.min_slack):
            self.min_slack = tight.slack

    def row(self, n: int, k: int) -> ScanRow:
        tight = self.best.tightest_bound()
        return ScanRow(
            n=n,
            k=k,
            count=self.count,
            max_measure=self.best.measure,
            argmax_graph=self.best.graph_id,
            tightest_bound=tight.name if tight else None,
            tightest_bound_value=tight.value if tight else None,
            min_slack=self.min_slack,
        )


def per_graph_scan(items, k: int) -> ScanSummary:
    """The scan as one certify() per graph, in input order: the oracle of the
    batched kernel in cli.scan_graphs."""
    scanned = malformed = 0
    rows: dict[int, _ReportFold] = {}
    for item in items:
        if isinstance(item, Graph6ParseError):
            malformed += 1
            continue
        scanned += 1
        try:
            report = certify(item, k)
        except GirthViolationError:
            continue
        rows.setdefault(report.n, _ReportFold()).add(report)
    qualifying = sum(fold.count for fold in rows.values())
    return ScanSummary(
        rows=tuple(rows[n].row(n, k) for n in sorted(rows)),
        scanned=scanned,
        qualifying=qualifying,
        skipped_girth=scanned - qualifying,
        malformed_lines=malformed,
        violations=sum(fold.violations for fold in rows.values()),
    )


def reference_graph6(n: int, edges) -> str:
    """Bit-string graph6 encoder written directly from the format description."""
    assert n <= 62
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = ""
    for v in range(1, n):
        for u in range(v):
            bits += "1" if (u, v) in present else "0"
    while len(bits) % 6:
        bits += "0"
    chars = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        chars.append(chr(63 + int(bits[i : i + 6], 2)))
    return "".join(chars)


def _upper_triangle_pairs(n: int):
    """Column-major upper-triangle order: (0,1), (0,2), (1,2), (0,3), ..."""
    for v in range(1, n):
        for u in range(v):
            yield u, v


def reference_parse_graph6(text: str) -> Graph:
    """The bit-by-bit graph6 decoder that parse_graph6 replaced: every bit and
    every edge in Python, the graph built through Graph(n, edges)."""
    start = len(text) - len(text.lstrip())
    if text.startswith(GRAPH6_HEADER_PREFIX, start):
        start += len(GRAPH6_HEADER_PREFIX)
    line = text[start:].rstrip()
    if not line:
        raise Graph6ParseError("empty graph6 input", 0)
    # In bytes from here on; line is ASCII up to each offset reported below.
    start = len(text[:start].encode("utf-8", "surrogateescape"))
    try:
        raw = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError("non-ASCII byte in graph6 input", start + exc.start) from None

    header = raw[0]
    if header == 126:
        raise Graph6ParseError("multi-byte size header not supported", start)
    if not 63 <= header <= 125:
        raise Graph6ParseError(f"invalid size header byte {header}", start)
    n = header - 63

    n_bits = n * (n - 1) // 2
    n_bytes = (n_bits + 5) // 6
    if len(raw) - 1 < n_bytes:
        raise Graph6ParseError(
            f"truncated input: need {n_bytes} data bytes for n = {n}", start + len(raw)
        )
    if len(raw) - 1 > n_bytes:
        raise Graph6ParseError("trailing garbage after edge data", start + 1 + n_bytes)

    bits: list[int] = []
    for offset, byte in enumerate(raw[1:], start=start + 1):
        if not 63 <= byte <= 126:
            raise Graph6ParseError(f"non-printable data byte {byte}", offset)
        value = byte - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[n_bits:]):
        raise Graph6ParseError("nonzero padding bits", start + n_bytes)

    edges = [pair for pair, bit in zip(_upper_triangle_pairs(n), bits) if bit]
    return Graph(n, edges)


def dense_adjacency(g: Graph) -> np.ndarray:
    """Float adjacency matrix filled from the neighbour lists, not from the
    edge loop the library's eigensolver path uses."""
    a = np.zeros((g.n, g.n))
    for v, nbrs in enumerate(neighbors(g)):
        a[v, list(nbrs)] = 1.0
    return a


def jacobi_eigenvalues(g: Graph) -> Spectrum:
    """Cyclic Jacobi eigensolver, independent of the LAPACK route.

    Sweeps rotations over all (p, q) pairs until the off-diagonal Frobenius
    norm drops below 1e-12 * n; fails loudly after 100 sweeps. O(n^3) per
    sweep, intended for desk-scale cross-checks.
    """
    a = dense_adjacency(g)
    n = a.shape[0]
    if n <= 1:
        return Spectrum(tuple(a.diagonal()))
    target = 1e-12 * n
    for _ in range(JACOBI_MAX_SWEEPS):
        # Summed from the off-diagonal entries themselves: ||A||^2 - ||diag||^2
        # cancels down to a rounding floor that sits above the target.
        off = float(np.linalg.norm(a - np.diag(a.diagonal())))
        if off < target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # Smaller-root tangent keeps |theta| <= pi/4, which is what
                # guarantees convergence of the cyclic sweep.
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise ConvergenceError(
            f"Jacobi sweep limit {JACOBI_MAX_SWEEPS} reached on {g!r}"
        )
    return Spectrum(tuple(float(v) for v in a.diagonal()))


def signless_laplacian_min_eig(g: Graph) -> float:
    """Minimum eigenvalue of D + A; equals lambda1 + lambda_n on regular graphs."""
    if g.n < 1:
        raise ValueError("signless Laplacian undefined for the empty vertex set")
    matrix = dense_adjacency(g)
    matrix[np.diag_indices(g.n)] = [len(a) for a in neighbors(g)]
    return float(np.linalg.eigvalsh(matrix)[0])


def _bruteforce_value(config, alpha: float) -> float:
    return math.fsum(x**alpha for x in config)


def power_sum_max_bruteforce(
    ell: int, s: float, alpha: float, grid_steps: int
) -> float:
    """Independent oracle for the constrained power-sum maximum.

    Grid search over the (ell-1)-dimensional slice of [0, 1]^ell with the
    last coordinate forced by the sum constraint, followed by pairwise mass
    shifts pushed to the box boundary (the exchange move that makes the
    maximizer have at most one fractional coordinate).
    """
    if not 1 <= ell <= 4:
        raise ValueError(f"oracle supports 1 <= ell <= 4, got {ell}")
    if grid_steps < 100:
        raise ValueError(f"need at least 100 grid steps, got {grid_steps}")
    if alpha <= 1:
        raise ValueError(f"exponent must exceed 1, got {alpha}")
    if s < 0 or s > ell:
        raise InfeasibleError(f"sum {s} outside the feasible range [0, {ell}]")

    vals = np.linspace(0.0, 1.0, grid_steps + 1)
    slack = 1e-12

    best_config: tuple[float, ...] | None = None
    best_value = -math.inf

    def consider(config: tuple[float, ...]) -> None:
        nonlocal best_config, best_value
        value = _bruteforce_value(config, alpha)
        if value > best_value:
            best_value = value
            best_config = config

    if ell == 1:
        consider((s,))
    elif ell == 2:
        last = s - vals
        mask = (last >= -slack) & (last <= 1.0 + slack)
        clipped = np.clip(last, 0.0, 1.0)
        totals = vals**alpha + clipped**alpha
        totals[~mask] = -np.inf
        i = int(np.argmax(totals))
        consider((float(vals[i]), float(clipped[i])))
    elif ell == 3:
        for x1 in vals:
            last = s - x1 - vals
            mask = (last >= -slack) & (last <= 1.0 + slack)
            if not mask.any():
                continue
            clipped = np.clip(last, 0.0, 1.0)
            totals = x1**alpha + vals**alpha + clipped**alpha
            totals[~mask] = -np.inf
            i = int(np.argmax(totals))
            consider((float(x1), float(vals[i]), float(clipped[i])))
    else:
        x2_grid = vals[:, None]
        x3_grid = vals[None, :]
        pow2 = vals**alpha
        for x1 in vals:
            last = s - x1 - x2_grid - x3_grid
            mask = (last >= -slack) & (last <= 1.0 + slack)
            if not mask.any():
                continue
            clipped = np.clip(last, 0.0, 1.0)
            totals = x1**alpha + pow2[:, None] + pow2[None, :] + clipped**alpha
            totals[~mask] = -np.inf
            flat = int(np.argmax(totals))
            i2, i3 = divmod(flat, totals.shape[1])
            consider(
                (float(x1), float(vals[i2]), float(vals[i3]), float(clipped[i2, i3]))
            )

    assert best_config is not None  # the all-feasible grid always yields one

    # Pairwise refinement: x^alpha is convex, so shifting mass between two
    # coordinates is maximized at the box boundary.
    config = list(best_config)
    for _ in range(4 * ell * ell):
        improved = False
        for i in range(ell):
            for j in range(ell):
                if i == j:
                    continue
                t = min(config[i], 1.0 - config[j])
                if t <= 0.0:
                    continue
                candidate = config.copy()
                candidate[i] -= t
                candidate[j] += t
                if _bruteforce_value(candidate, alpha) > best_value + 1e-15:
                    config = candidate
                    best_value = _bruteforce_value(candidate, alpha)
                    improved = True
        if not improved:
            break
    return best_value


def full_grid_max(s_max: float, per_interval_samples: int) -> tuple[float, float]:
    """Argmax and max of the objective on every unit interval of [1, s_max],
    each sampled on a uniform grid with both endpoints, with no early stop."""
    best_s, best_v = 1.0, objective_g(1.0)
    m = 1
    while m < s_max:
        a = float(m)
        b = min(float(m + 1), s_max)
        step = (b - a) / per_interval_samples
        for i in range(per_interval_samples + 1):
            s = a + i * step
            v = objective_g(s)
            if v > best_v:
                best_s, best_v = s, v
        m += 1
    return best_s, best_v


def reference_check_relaxed_constraints(seq: Spectrum, k: int) -> ConstraintCheck:
    """Evaluate the odd power sums (j <= k - 2) and the quadratic budget,
    with one math.fsum over the individual terms of each sum.

    seq is a Spectrum: a relaxed sequence such as extremal_sequence()
    returns, or the eigenvalues of a graph.
    """
    require_odd_k(k, 3)
    values = seq.values
    n = len(values)
    lam1 = values[0] if values else 0.0

    def tol(j):  # 1e-9 of the scale, sum of |x|^j: a plain float sum over the runs
        return 1e-9 * max(1.0, sum(abs(x) ** j * c for x, c in seq.runs))

    odd_sums = []
    satisfied = True
    for j in range(1, k - 1, 2):
        total = math.fsum(v**j for v in values)
        if abs(total) > tol(j):
            satisfied = False
        odd_sums.append((j, total))

    sum2 = math.fsum(v * v for v in values)
    n_lambda1 = n * lam1
    if sum2 > n_lambda1 + 1e-9 * max(1.0, sum2):  # sum2 is its own scale
        satisfied = False

    return ConstraintCheck(
        odd_sums=tuple(odd_sums),
        sum2=sum2,
        n_lambda1=n_lambda1,
        tolerance=tol(1),
        satisfied=satisfied,
    )
