"""Adjacency spectra and the bipartiteness measure: Spectrum, the sorted
sequence that gamma5 builds and checks, and eigenvalues, a graph's whole
spectrum as one. eigenvalues runs the eigensolver of scan_kernel, so this
module loads no numpy of its own; certify and the scan read only the two
ends from that eigensolver and build no Spectrum."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph_core import Graph


@dataclass(frozen=True, init=False)
class Spectrum:
    """Finite real numbers in non-increasing order: a graph's adjacency
    eigenvalues, or a sequence of the k = 5 relaxation.

    The stored form is ``runs``: (value, count) pairs, values descending,
    each run a maximal block of identical floats (0.0 and -0.0 are kept
    apart, so ``values`` gives back exactly the floats put in).
    Spectrum(values) sorts its entries once and merges them as runs of one;
    Spectrum.from_runs() merges the runs it is given and never expands them.
    ``n``, ``lambda1``, ``lambda_n`` and ``measure`` come from the runs;
    ``values``, the n entries as a tuple, is built on first use. Both
    constructors raise ValueError on nan or +-inf.
    """

    runs: tuple[tuple[float, int], ...]
    n: int
    _values: tuple[float, ...] | None = field(default=None, compare=False, repr=False)

    def __init__(self, values):
        vals = tuple(sorted((float(v) for v in values), reverse=True))
        self._set(_merge_runs(zip(vals, [1] * len(vals))), vals)

    @classmethod
    def from_runs(cls, runs) -> Spectrum:
        """The sequence with each value repeated count times, without
        expanding it. Values must not increase and counts must be integers
        >= 1; adjacent runs of the same float are merged, so the result
        equals Spectrum() of the expanded entries."""
        self = cls.__new__(cls)
        self._set(_merge_runs(runs), None)
        return self

    def _set(self, runs, values):
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "n", sum(c for _, c in runs))
        object.__setattr__(self, "_values", values)

    @property
    def values(self) -> tuple[float, ...]:
        if self._values is None:
            vals: list[float] = []
            for x, c in self.runs:
                vals += [x] * c
            object.__setattr__(self, "_values", tuple(vals))
        return self._values

    @property
    def lambda1(self) -> float:
        if not self.runs:
            raise ValueError("empty spectrum has no largest eigenvalue")
        return self.runs[0][0]

    @property
    def lambda_n(self) -> float:
        if not self.runs:
            raise ValueError("empty spectrum has no smallest eigenvalue")
        return self.runs[-1][0]

    @property
    def measure(self) -> float:
        """(lambda1 + lambda_n) / n; zero for bipartite graphs up to rounding."""
        return (self.lambda1 + self.lambda_n) / self.n


def _merge_runs(pairs) -> tuple[tuple[float, int], ...]:
    """Runs from (value, count) pairs, adjacent pairs of the same float added
    up (0.0 == -0.0, told apart by str). ValueError on nan or +-inf, on a
    count that is not an integer >= 1, and on a value above the one before."""
    runs: list[tuple[float, int]] = []
    last = float("inf")
    for x, c in pairs:
        x = float(x)
        if x - x != 0.0:  # nan for nan and +-inf, 0.0 for any finite x
            raise ValueError(f"spectrum values must be finite, got {x!r}")
        if not isinstance(c, int) or c < 1:
            raise ValueError(f"run counts must be integers >= 1, got {c!r}")
        if x > last:
            raise ValueError(f"run values must not increase: {last!r} then {x!r}")
        if x == last and str(x) == str(last):
            runs[-1] = (x, runs[-1][1] + c)
        else:
            runs.append((x, c))
            last = x
    return tuple(runs)


def eigenvalues(g: Graph) -> Spectrum:
    """All n adjacency eigenvalues, sorted descending, accurate to 1e-9.

    The empty graph on n vertices has the all-zero spectrum; n = 0 gives an
    empty spectrum. A LAPACK failure raises ConvergenceError.
    """
    from . import scan_kernel  # here, so that commands without a spectrum never load numpy

    vals = scan_kernel.eigvalsh(scan_kernel.graph_adjacency(g, float))[0]
    return Spectrum(vals[::-1].tolist())
