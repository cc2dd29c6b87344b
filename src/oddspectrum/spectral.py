"""Adjacency spectra and the bipartiteness measure.

Spectra come from LAPACK's symmetric eigensolver. The exact odd-walk check
that certify runs is the boolean-power gate of scan_kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConvergenceError
from .graph_core import Graph


@dataclass(frozen=True, init=False)
class Spectrum:
    """Finite real numbers in non-increasing order: a graph's adjacency
    eigenvalues, or a sequence of the k = 5 relaxation.

    The stored form is ``runs``: (value, count) pairs, values descending,
    each run a maximal block of identical floats (0.0 and -0.0 are kept
    apart, so ``values`` gives back exactly the floats put in).
    Spectrum(values) sorts its entries once and groups them;
    Spectrum.from_runs() takes runs as they are and never expands them.
    ``n``, ``lambda1``, ``lambda_n`` and ``measure`` come from the runs;
    ``values``, the n entries as a tuple, is built on first use. Both
    constructors raise ValueError on nan or +-inf.
    """

    runs: tuple[tuple[float, int], ...]
    n: int
    _values: tuple[float, ...] | None = field(default=None, compare=False, repr=False)

    def __init__(self, values):
        from itertools import groupby  # here: this module adds no import at load
        from operator import countOf

        vals = tuple(sorted((float(v) for v in values), reverse=True))
        runs = []
        for x, group in groupby(vals):
            if x:
                runs.append((_finite(x), countOf(group, x)))  # the group's size
            else:  # 0.0 == -0.0: split the zeros by sign
                runs += ((float(z), len(list(g))) for z, g in groupby(group, key=str))
        self._set(tuple(runs), len(vals), vals)

    @classmethod
    def from_runs(cls, runs) -> Spectrum:
        """The sequence with each value repeated count times, without
        expanding it. Values must not increase and counts must be integers
        >= 1; adjacent runs of the same float are merged, so the result
        equals Spectrum() of the expanded entries."""
        merged: list[tuple[float, int]] = []
        for x, c in runs:
            x = _finite(float(x))
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"run counts must be integers >= 1, got {c!r}")
            if merged:
                last, d = merged[-1]
                if x > last:
                    raise ValueError(f"run values must not increase: {last!r} then {x!r}")
                if x == last and str(x) == str(last):
                    merged[-1] = (x, d + c)
                    continue
            merged.append((x, c))
        self = cls.__new__(cls)
        self._set(tuple(merged), sum(c for _, c in merged), None)
        return self

    def _set(self, runs, n, values):
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "n", n)
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
        """(lambda1 + lambda_n) / n; zero exactly for connected bipartite graphs."""
        return (self.lambda1 + self.lambda_n) / self.n


def _finite(x: float) -> float:
    if x - x != 0.0:  # nan for nan and +-inf, 0.0 for any finite x
        raise ValueError(f"spectrum values must be finite, got {x!r}")
    return x


def eigenvalues(g: Graph) -> Spectrum:
    """All n adjacency eigenvalues, sorted descending, accurate to 1e-9.

    The empty graph on n vertices has the all-zero spectrum; n = 0 gives an
    empty spectrum. A LAPACK failure raises ConvergenceError.
    """
    import numpy as np  # here, so that commands without a spectrum never load it

    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on {g!r}: {exc}") from exc
    return Spectrum(tuple(vals[::-1].tolist()))
