"""Adjacency spectra, exact trace powers, and the bipartiteness measure.

Floating spectra come from LAPACK's symmetric eigensolver. Walk counts
(traces of adjacency powers) are computed in exact integer arithmetic, never
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConvergenceError
from .graph_core import Graph


@dataclass(frozen=True)
class Spectrum:
    """Real numbers in non-increasing order: a graph's adjacency eigenvalues,
    or a sequence of the k = 5 relaxation.

    Values are sorted on construction, so lambda1 is always the largest and
    lambda_n the smallest entry.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(sorted((float(v) for v in self.values), reverse=True))
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def lambda1(self) -> float:
        if not self.values:
            raise ValueError("empty spectrum has no largest eigenvalue")
        return self.values[0]

    @property
    def lambda_n(self) -> float:
        if not self.values:
            raise ValueError("empty spectrum has no smallest eigenvalue")
        return self.values[-1]

    @property
    def measure(self) -> float:
        """(lambda1 + lambda_n) / n; zero exactly for connected bipartite graphs."""
        return (self.lambda1 + self.lambda_n) / self.n


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


def trace_powers(g: Graph, j_max: int) -> list[int]:
    """Exact traces [Tr(A^1), ..., Tr(A^j_max)] via arbitrary-precision ints.

    Tr(A^j) counts closed walks of length j; Python integers make overflow
    impossible, so the counts are exact at any size.
    """
    if j_max < 1:
        raise ValueError(f"power must be at least 1, got {j_max}")
    n = g.n
    adj = g.neighbors()
    power = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        power[u][v] = power[v][u] = 1
    traces = [sum(power[i][i] for i in range(n))]
    for _ in range(j_max - 1):
        power = [[sum(row[u] for u in adj[v]) for v in range(n)] for row in power]
        traces.append(sum(power[i][i] for i in range(n)))
    return traces

