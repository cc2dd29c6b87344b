"""Per-layer tracing from outside the package.

While installed, wrappers replace the package's functions at the names their
callers look them up by (``oddspectrum.bounds.odd_girth`` is what ``certify``
calls, ``oddspectrum.cli.certify`` is what the scan calls). Each call records a
span (layer, start, end, parent, thread) in memory; a generator records one
span per item it yields, so time spent by its consumer is not charged to it.
Spans opened in pool threads have no parent. Nothing is written until the
benchmark asks for the spans after the traced passes.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import Counter
from contextlib import contextmanager

from oddspectrum.errors import GirthViolationError, Graph6ParseError

COUNTERS = (
    "graph_core.enumerate_labeled_graphs.items",
    "graph_core.read_graph6_lines.items",
    "graph_core.read_graph6_lines.errors",
    "spectral.eigenvalues.flops_computed",
    "spectral.trace_powers.int_adds_computed",
    "bounds.certify.girth_rejects",
    "gamma5prime.maximize_objective.evals_computed",
    "gamma5prime.extremal_sequence.max_len",
)

# Counters merged across threads by maximum instead of sum.
MAXIMA = {"gamma5prime.extremal_sequence.max_len"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eigenvalues(c, args, kwargs, exc):
    n = _arg(args, kwargs, 0, "g").n
    c["spectral.eigenvalues.flops_computed"] += 4 * n**3 / 3


def _count_trace_powers(c, args, kwargs, exc):
    g, j_max = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "j_max")
    c["spectral.trace_powers.int_adds_computed"] += (j_max - 1) * g.n * 2 * g.m


def _count_certify(c, args, kwargs, exc):
    if isinstance(exc, GirthViolationError):
        c["bounds.certify.girth_rejects"] += 1


def _count_objective(c, args, kwargs, exc):
    # Grid evaluations: every unit interval of [1, s_max] sampled at both
    # ends, plus the start point; golden-section refinement is not counted.
    s_max = _arg(args, kwargs, 0, "s_max")
    samples = _arg(args, kwargs, 1, "per_interval_samples")
    intervals = math.ceil(s_max) - 1
    c["gamma5prime.maximize_objective.evals_computed"] += intervals * (samples + 1) + 1


def _count_extremal(c, args, kwargs, exc):
    key = "gamma5prime.extremal_sequence.max_len"
    c[key] = max(c[key], _arg(args, kwargs, 1, "n"))


def _count_enumerated(c, item):
    c["graph_core.enumerate_labeled_graphs.items"] += 1


def _count_read(c, item):
    c["graph_core.read_graph6_lines.items"] += 1
    if isinstance(item[1], Graph6ParseError):
        c["graph_core.read_graph6_lines.errors"] += 1


# (owner, attribute, layer, hook, generator?). The owner is a module, or a
# module and class as "module:Class". Several attributes may share a layer:
# odd_poly is every odd-polynomial entry point that bounds calls.
CLI, BOUNDS = "oddspectrum.cli", "oddspectrum.bounds"
PATCHES = (
    (CLI, "enumerate_labeled_graphs", "graph_core.enumerate_labeled_graphs", _count_enumerated, True),
    (CLI, "read_graph6_lines", "graph_core.read_graph6_lines", _count_read, True),
    (BOUNDS, "encode_graph6", "graph_core.encode_graph6", None, False),
    (BOUNDS, "odd_girth", "graph_core.odd_girth", None, False),
    (BOUNDS, "eigenvalues", "spectral.eigenvalues", _count_eigenvalues, False),
    (BOUNDS, "trace_powers", "spectral.trace_powers", _count_trace_powers, False),
    (BOUNDS, "chebyshev_T", "odd_poly", None, False),
    (BOUNDS, "high_lambda1_polynomial", "odd_poly", None, False),
    (BOUNDS, "threshold_partition", "odd_poly", None, False),
    ("oddspectrum.odd_poly:FactoredOddPolynomial", "evaluate", "odd_poly", None, False),
    (CLI, "certify", "bounds.certify", _count_certify, False),
    (BOUNDS, "certify", "bounds.certify", _count_certify, False),
    (CLI, "scan_graphs", "cli.scan_graphs", None, False),
    (CLI, "build_scan_summary", "cli.build_scan_summary", None, False),
    (CLI, "cmd_scan", "cli.command", None, False),
    (CLI, "cmd_gamma5", "cli.command", None, False),
    (CLI, "maximize_objective", "gamma5prime.maximize_objective", _count_objective, False),
    (CLI, "extremal_sequence", "gamma5prime.extremal_sequence", _count_extremal, False),
    (CLI, "check_relaxed_constraints", "gamma5prime.check_relaxed_constraints", None, False),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _, _ in PATCHES))


def _resolve(where: str):
    module, _, cls = where.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class _ThreadState:
    __slots__ = ("spans", "stack", "counters")

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, _ThreadState]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append((threading.get_ident(), st))
        return st

    def _open(self, layer):
        st = self._state()
        rec = [layer, 0.0, 0.0, st.stack[-1] if st.stack else -1]
        st.stack.append(len(st.spans))
        st.spans.append(rec)
        rec[1] = time.perf_counter()
        return st, rec

    @staticmethod
    def _close(st, rec):
        rec[2] = time.perf_counter()
        st.stack.pop()

    def wrap(self, layer, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, rec = self._open(layer)
            exc = None
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                exc = err
                raise
            finally:
                self._close(st, rec)
                if hook is not None:
                    hook(st.counters, args, kwargs, exc)

        return traced

    def wrap_generator(self, layer, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                st, rec = self._open(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(st, rec)
                hook(st.counters, item)
                yield item

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer that exists; restore the originals on exit."""
        saved = []
        try:
            for where, attr, layer, hook, is_gen in PATCHES:
                owner = _resolve(where)
                fn = vars(owner).get(attr) if owner is not None else None
                if fn is None:
                    continue  # no longer there: the layer reports as absent
                wrapper = (self.wrap_generator if is_gen else self.wrap)(layer, fn, hook)
                setattr(owner, attr, wrapper)
                saved.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def spans(self) -> list[dict]:
        """Per thread, its spans as [layer, start, end, parent index], where
        the parent index points into the same list (-1 for none)."""
        return [{"thread": tid, "spans": st.spans} for tid, st in self._threads]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass: for every layer its calls,
        busy_s (summed span time) and self_s (minus same-thread children),
        every counter, and the derived ratios."""
        out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        for layer in LAYERS:
            out.update({f"{layer}.calls": 0, f"{layer}.busy_s": 0.0, f"{layer}.self_s": 0.0})
        for _, st in self._threads:
            spans = st.spans
            child_time = [0.0] * len(spans)
            for _, start, end, parent in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for (layer, start, end, _), covered in zip(spans, child_time):
                out[f"{layer}.calls"] += 1
                out[f"{layer}.busy_s"] += end - start
                out[f"{layer}.self_s"] += end - start - covered
            for key, value in st.counters.items():
                out[key] = max(out[key], value) if key in MAXIMA else out[key] + value

        certify_calls = out["bounds.certify.calls"]
        rejects = out["bounds.certify.girth_rejects"]
        out["bounds.certify.qualify_ratio"] = (
            (certify_calls - rejects) / certify_calls if certify_calls else 0.0
        )
        scan_busy = out["cli.scan_graphs.busy_s"]
        out["cli.scan_graphs.concurrency"] = (
            out["bounds.certify.busy_s"] / scan_busy if scan_busy else 0.0
        )
        return out


def absent_layers(metrics: dict[str, float]) -> list[str]:
    """Layers the traced pass never called (removed, renamed or bypassed)."""
    return [layer for layer in LAYERS if metrics[f"{layer}.calls"] == 0]
