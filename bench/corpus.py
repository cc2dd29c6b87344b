"""Seeded graph6 corpus for the g6corpus_k7 workload, and an oracle for its scan.

The corpus mixes four kinds of line, in a fixed (kind, n) schedule whose order
and edges come from the seed, so every seed costs about the same to scan:

- G(n, p) graphs, dense enough that the odd-girth gate rejects nearly all;
- random subgraphs of blow-ups of C7, C9, C11 and C13 (odd girth >= 7);
- random bipartite graphs (no odd cycle at all);
- about 2% malformed lines, each broken in a way every graph6 reader rejects.

The oracle shares no code with the package: it has its own graph6 encoder, an
odd-girth gate from boolean matrix powers (Tr(A^j) = 0 for odd j <= k - 2) and
the measure from numpy.linalg.eigvalsh.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

N_MIN, N_MAX = 8, 62
KINDS = ("gnp", "cycle_blowup", "bipartite")
CYCLE_LENGTHS = (7, 9, 11, 13)
MALFORMED_SHARE = 0.02

# Tolerance for comparing measures computed by two eigensolver calls.
MEASURE_TOL = 1e-9


@dataclass(frozen=True)
class Corpus:
    lines: tuple[str, ...]
    graphs: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    malformed: int


def encode_graph6(n: int, edges) -> str:
    """graph6 for n <= 62: header byte n + 63, then the column-major upper
    triangle packed six bits per byte, most significant bit first."""
    present = set(edges)
    bits = [(u, v) in present for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = (value << 1) | bit
        out.append(chr(value + 63))
    return "".join(out)


def _relabel(n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _gnp(n: int, rng: random.Random):
    return [(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.4]


def _cycle_blowup(n: int, length: int, rng: random.Random):
    # Split n vertices into `length` non-empty parts placed around the cycle,
    # then keep each edge between consecutive parts with probability 0.7.
    cuts = sorted(rng.sample(range(1, n), length - 1))
    bounds = [0, *cuts, n]
    parts = [range(bounds[i], bounds[i + 1]) for i in range(length)]
    edges = []
    for i in range(length):
        for u in parts[i]:
            for v in parts[(i + 1) % length]:
                if rng.random() < 0.7:
                    edges.append((u, v))
    return edges


def _bipartite(n: int, rng: random.Random):
    a = rng.randint(n // 4, 3 * n // 4)
    return [(u, v) for u in range(a) for v in range(a, n) if rng.random() < 0.3]


def _malformed(line: str, how: int) -> str:
    if how == 0:
        return line[:-1]  # truncated edge data
    if how == 1:
        return line + "?"  # trailing byte after the edge data
    return "!" + line[1:]  # size header byte outside 63..126


def make_corpus(seed: int, repeats: int) -> Corpus:
    """`repeats` passes over every (kind, n) pair, shuffled, plus malformed lines."""
    rng = random.Random(seed)
    schedule = [(kind, n) for _ in range(repeats) for n in range(N_MIN, N_MAX + 1) for kind in KINDS]
    rng.shuffle(schedule)
    graphs = []
    for i, (kind, n) in enumerate(schedule):
        if kind == "gnp":
            edges = _gnp(n, rng)
        elif kind == "bipartite":
            edges = _bipartite(n, rng)
        else:
            length = CYCLE_LENGTHS[i % len(CYCLE_LENGTHS)]
            edges = _cycle_blowup(n, min(length, n if n % 2 else n - 1), rng)
        graphs.append((n, _relabel(n, edges, rng)))

    lines = [encode_graph6(n, edges) for n, edges in graphs]
    malformed = max(1, round(MALFORMED_SHARE * len(lines)))
    for j in range(malformed):
        n, edges = graphs[rng.randrange(len(graphs))]
        bad = _malformed(encode_graph6(n, edges), j % 3)
        lines.insert(rng.randrange(len(lines) + 1), bad)
    return Corpus(lines=tuple(lines), graphs=tuple(graphs), malformed=malformed)


def _odd_girth_at_least(adj: np.ndarray, k: int) -> bool:
    """No closed walk of odd length j <= k - 2. Walk existence is a boolean
    matrix power; float matmul clipped to 1 is exact since entries stay <= n."""
    walk = adj
    for j in range(1, k - 1):
        if j % 2 == 1 and walk.trace() != 0:
            return False
        walk = np.minimum(walk @ adj, 1.0)
    return True


@dataclass(frozen=True)
class OracleRow:
    count: int
    max_measure: float
    argmax_choices: frozenset[str]


def oracle_scan(corpus: Corpus, k: int) -> dict[int, OracleRow]:
    """Per vertex count: qualifying graphs, the largest measure, and every
    graph6 string whose measure is within MEASURE_TOL of it (ties such as
    bipartite graphs at measure ~0 may be broken either way by rounding)."""
    found: dict[int, list[tuple[float, str]]] = {}
    for n, edges in corpus.graphs:
        adj = np.zeros((n, n))
        for u, v in edges:
            adj[u, v] = adj[v, u] = 1.0
        if not _odd_girth_at_least(adj, k):
            continue
        vals = np.linalg.eigvalsh(adj)
        found.setdefault(n, []).append(
            (float(vals[-1] + vals[0]) / n, encode_graph6(n, edges))
        )
    rows = {}
    for n, items in found.items():
        best = max(m for m, _ in items)
        rows[n] = OracleRow(
            count=len(items),
            max_measure=best,
            argmax_choices=frozenset(g for m, g in items if m >= best - MEASURE_TOL),
        )
    return rows


def gamma5_prime() -> float:
    """(1 - 14^(-1/3)) / (1 + 14^(1/3)), the tightest bound at any k >= 5."""
    return (1.0 - 14.0 ** (-1.0 / 3.0)) / (1.0 + 14.0 ** (1.0 / 3.0))


def check_scan_summary(summary: dict, corpus: Corpus, rows: dict[int, OracleRow], k: int) -> list[str]:
    """Every way the program's JSON scan summary disagrees with the oracle."""
    problems = []
    parsed = len(corpus.graphs)
    qualifying = sum(r.count for r in rows.values())
    expect = {
        "scanned": parsed,
        "qualifying": qualifying,
        "skipped_girth": parsed - qualifying,
        "malformed_lines": corpus.malformed,
        "violations": 0,
    }
    for key, want in expect.items():
        if summary.get(key) != want:
            problems.append(f"{key}: got {summary.get(key)!r}, want {want}")
    got_rows = {r["n"]: r for r in summary.get("rows", [])}
    if sorted(got_rows) != sorted(rows):
        problems.append(f"row vertex counts {sorted(got_rows)} != {sorted(rows)}")
        return problems
    bound = gamma5_prime()
    for n, want in rows.items():
        row = got_rows[n]
        if row["k"] != k or row["count"] != want.count:
            problems.append(f"n={n}: k/count {row['k']}/{row['count']} != {k}/{want.count}")
        if not math.isclose(row["max_measure"], want.max_measure, rel_tol=0, abs_tol=MEASURE_TOL):
            problems.append(f"n={n}: max_measure {row['max_measure']!r} != {want.max_measure!r}")
        if row["argmax_graph"] not in want.argmax_choices:
            problems.append(f"n={n}: argmax {row['argmax_graph']!r} is not a maximizer")
        if row["tightest_bound"] != "gamma5_prime" or not math.isclose(
            row["tightest_bound_value"], bound, rel_tol=1e-12
        ):
            problems.append(f"n={n}: tightest bound {row['tightest_bound']!r}")
        if not math.isclose(row["min_slack"], bound - want.max_measure, rel_tol=0, abs_tol=MEASURE_TOL):
            problems.append(f"n={n}: min_slack {row['min_slack']!r}")
    return problems
