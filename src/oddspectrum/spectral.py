"""Adjacency spectra and the bipartiteness measure.

Spectra come from LAPACK's symmetric eigensolver. The exact odd-walk check
that certify runs is the boolean-power gate of scan_kernel.
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

