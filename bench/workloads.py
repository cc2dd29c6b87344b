"""The four benchmark workloads: inputs from a seed, one pass, and its check.

A pass drives the package from outside: the CLI through
``oddspectrum.cli.main(argv)`` with stdout captured, or the library API for
graphs too large for graph6. Every check compares against values the
benchmark derives on its own, never against the code path being timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import corpus
from oddspectrum import bounds, cli
from oddspectrum.graph_core import Graph

K5_SUPREMUM = corpus.gamma5_prime()
TOL = 1e-9

# Run in a fresh interpreter, after `import oddspectrum.cli`, to time set-up.
GRAPH_SETUP = "from oddspectrum import bounds, graph_core; bounds.certify(graph_core.cycle_graph(5), 5)"
GAMMA5_SETUP = "from oddspectrum import gamma5prime; gamma5prime.maximize_objective(15, 100)"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class Outcome:
    """What one pass produced: work items, checked results, and every problem."""

    items: int
    attempted: int
    problems: list[str] = field(default_factory=list)


class Workload:
    """Inputs are made in the constructor; prepare() writes files and computes
    expected values (not needed by a child that only runs a pass)."""

    setup_call = GRAPH_SETUP
    results_per_pass = 1
    argv: list[str]

    def __init__(self, seed: int, workdir: Path):
        pass

    def prepare(self) -> None:
        pass

    def run_pass(self) -> tuple[int, str, str]:
        """The CLI in-process: exit code, captured stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()


class Enum6K5(Workload):
    """scan --enumerate 6 --k 5: the paper's exhaustive run, 2^15 tiny graphs.

    The input is the whole enumeration, so the seed changes nothing.
    """

    argv = ["scan", "--enumerate", "6", "--k", "5", "--format", "json"]

    def check(self, output) -> Outcome:
        code, out, err = output
        outcome = Outcome(items=32768, attempted=1)
        if code != 0:
            outcome.problems.append(f"exit code {code}: {err.strip()}")
            return outcome
        s = json.loads(out)
        row = s["rows"][0] if len(s["rows"]) == 1 else {}
        want = {"scanned": 32768, "qualifying": 5789, "violations": 0}
        for key, value in want.items():
            if s[key] != value:
                outcome.problems.append(f"{key}: got {s[key]!r}, want {value}")
        if row.get("argmax_graph") != "ESGW":
            outcome.problems.append(f"argmax: got {row.get('argmax_graph')!r}, want 'ESGW'")
        if not math.isclose(row.get("max_measure", math.nan), 0.06366100188, rel_tol=0, abs_tol=5e-12):
            outcome.problems.append(f"max_measure: got {row.get('max_measure')!r}, want 0.06366100188")
        return outcome


class G6CorpusK7(Workload):
    """scan FILE --k 7 --jobs nproc on a seeded mixed-n graph6 corpus."""

    repeats = 2  # passes over every (kind, n) pair: 330 graphs, 7 malformed lines

    def __init__(self, seed: int, workdir: Path):
        self.corpus = corpus.make_corpus(seed, self.repeats)
        self.path = workdir / f"corpus-{seed}.g6"
        self.argv = ["scan", str(self.path), "--k", "7", "--jobs", str(min(2, nproc())), "--format", "json"]
        self.expected = None

    def prepare(self) -> None:
        self.path.write_text("\n".join(self.corpus.lines) + "\n")
        self.expected = corpus.oracle_scan(self.corpus, 7)

    def check(self, output) -> Outcome:
        code, out, err = output
        outcome = Outcome(items=len(self.corpus.graphs), attempted=1)
        if code != 0:
            outcome.problems.append(f"exit code {code}: {err.strip()}")
            return outcome
        outcome.problems += corpus.check_scan_summary(json.loads(out), self.corpus, self.expected, 7)
        return outcome


def _cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + inner + [(i, 5 + i) for i in range(5)]


def _blow_up(base, m):
    n, edges = base
    return n * m, [(u * m + i, v * m + j) for u, v in edges for i in range(m) for j in range(m)]


def _k10_10_plus_c101():
    k = [(i, 10 + j) for i in range(10) for j in range(10)]
    return 121, k + [(20 + u, 20 + v) for u, v in _cycle(101)[1]]


def _cycle_measure(length):
    return (2.0 / length) * (1.0 - math.cos(math.pi / length))


class CertifyLarge(Workload):
    """Library certify() on graphs past graph6's n <= 62, seeded relabelling.

    Each case: (label, (n, edges), k, odd girth, measure). The measure of a
    blow-up equals its base graph's; K10,10 + C101 has lambda1 = -lambda_n = 10.
    """

    cases = (
        ("C101", _cycle(101), 101, 101, _cycle_measure(101)),
        ("C201", _cycle(201), 201, 201, _cycle_measure(201)),
        ("C401", _cycle(401), 401, 401, _cycle_measure(401)),
        ("C801", _cycle(801), 801, 801, _cycle_measure(801)),
        ("C51x4", _blow_up(_cycle(51), 4), 51, 51, _cycle_measure(51)),
        ("C101x3", _blow_up(_cycle(101), 3), 101, 101, _cycle_measure(101)),
        ("Petersenx20", _blow_up(_petersen(), 20), 5, 5, 0.1),
        ("K10,10+C101", _k10_10_plus_c101(), 101, 101, 0.0),
    )
    results_per_pass = len(cases)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.inputs = []
        for label, (n, edges), k, girth, measure in self.cases:
            perm = list(range(n))
            rng.shuffle(perm)
            self.inputs.append((label, n, [(perm[u], perm[v]) for u, v in edges], k, girth, measure))

    def run_pass(self):
        return [bounds.certify(Graph(n, edges), k) for _, n, edges, k, _, _ in self.inputs]

    def check(self, reports) -> Outcome:
        outcome = Outcome(items=len(self.inputs), attempted=len(self.inputs))
        for (label, _, _, _, girth, measure), r in zip(self.inputs, reports):
            if not r.passed:
                outcome.problems.append(f"{label}: report not passed")
            elif r.odd_girth != girth:
                outcome.problems.append(f"{label}: odd girth {r.odd_girth}, want {girth}")
            elif not math.isclose(r.measure, measure, rel_tol=0, abs_tol=TOL):
                outcome.problems.append(f"{label}: measure {r.measure!r}, want {measure!r}")
        return outcome


class Gamma5Wide(Workload):
    """gamma5 over [1, 1000] at 2000 samples per unit, six epsilons.

    Runs no graph code: the control for changes to the graph layers. The
    seed only orders the epsilons.
    """

    setup_call = GAMMA5_SETUP
    epsilons = ("0.1", "0.01", "0.001", "1e-4", "1e-5", "1e-6")
    s_max, samples = 1000, 2000
    results_per_pass = 1 + len(epsilons)

    def __init__(self, seed: int, workdir: Path):
        order = list(self.epsilons)
        random.Random(seed).shuffle(order)
        self.argv = [
            "gamma5", "--s-max", str(self.s_max), "--samples", str(self.samples),
            "--eps", ",".join(order),
        ]

    def check(self, output) -> Outcome:
        code, out, err = output
        # Objective samples on the grid: (s_max - 1) unit intervals, both
        # ends of each, and the start point.
        items = (self.s_max - 1) * (self.samples + 1) + 1
        outcome = Outcome(items=items, attempted=self.results_per_pass)
        if code != 0:
            outcome.problems.append(f"exit code {code}: {err.strip()}")
            return outcome
        s_star = re.search(r"^  s_star = (\S+)$", out, re.M)
        value = re.search(r"^  value  = (\S+)$", out, re.M)
        if not (s_star and value and math.isclose(float(s_star[1]), 14.0, rel_tol=0, abs_tol=1e-6)
                and math.isclose(float(value[1]), K5_SUPREMUM, rel_tol=0, abs_tol=TOL)):
            outcome.problems.append("search: s_star != 14 or value off the exact supremum")
        blocks = re.findall(r"^epsilon = (\S+)  \(n = \d+\)\n(?:  .*\n)*?  satisfied   = (\w+)$", out, re.M)
        satisfied = {float(eps) for eps, ok in blocks if ok == "True"}
        for eps in self.epsilons:
            if float(eps) not in satisfied:
                outcome.problems.append(f"epsilon {eps}: sequence missing or not satisfied")
        return outcome


WORKLOADS = {
    "enum6_k5": Enum6K5,
    "g6corpus_k7": G6CorpusK7,
    "certify_large": CertifyLarge,
    "gamma5_wide": Gamma5Wide,
}
