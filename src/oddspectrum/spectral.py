"""Adjacency spectra, exact trace powers, power sums, and the bipartiteness measure.

Floating spectra come from LAPACK's symmetric eigensolver; a self-contained
cyclic Jacobi solver is kept alongside it as an independent route, and the
two are cross-checked in the test suite. Walk counts (traces of adjacency
powers) are computed in exact integer arithmetic, never floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, require_odd_k
from .graph_core import Graph

# Guaranteed absolute accuracy of each eigenvalue returned by eigenvalues().
EIGENVALUE_TOL = 1e-9

JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True)
class Spectrum:
    """Real numbers in non-increasing order: a graph's adjacency eigenvalues,
    or a sequence of the k = 5 relaxation.

    Values are sorted on construction, so lambda1 is always the largest and
    lambda_n the smallest entry.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            vals = tuple(sorted(vals, reverse=True))
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
        if not self.values:
            raise ValueError("measure undefined for an empty spectrum")
        return (self.lambda1 + self.lambda_n) / self.n


def _eigvalsh(g: Graph, matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix built from g; LAPACK
    failure becomes ConvergenceError."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on {g!r}: {exc}") from exc


def eigenvalues(g: Graph) -> Spectrum:
    """All n adjacency eigenvalues, sorted descending, accurate to 1e-9.

    The empty graph on n vertices has the all-zero spectrum; n = 0 gives an
    empty spectrum.
    """
    if g.n == 0:
        return Spectrum(())
    vals = _eigvalsh(g, g.adjacency_matrix())
    return Spectrum(tuple(float(v) for v in vals[::-1]))


def jacobi_eigenvalues(g: Graph) -> Spectrum:
    """Cyclic Jacobi eigensolver, independent of the LAPACK route.

    Sweeps rotations over all (p, q) pairs until the off-diagonal Frobenius
    norm drops below 1e-12 * n; fails loudly after 100 sweeps. O(n^3) per
    sweep, intended for desk-scale cross-checks.
    """
    a = g.adjacency_matrix()
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


def _int_rows(g: Graph) -> list[list[int]]:
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = 1
        rows[v][u] = 1
    return rows


def trace_powers(g: Graph, j_max: int) -> list[int]:
    """Exact traces [Tr(A^1), ..., Tr(A^j_max)] via arbitrary-precision ints.

    Tr(A^j) counts closed walks of length j; Python integers make overflow
    impossible, so the counts are exact at any size.
    """
    if j_max < 1:
        raise ValueError(f"power must be at least 1, got {j_max}")
    n = g.n
    if n == 0:
        return [0] * j_max
    adj = g.neighbors()
    power = _int_rows(g)
    traces = [sum(power[i][i] for i in range(n))]
    for _ in range(j_max - 1):
        nxt = [[sum(row[u] for u in adj[v]) for v in range(n)] for row in power]
        power = nxt
        traces.append(sum(power[i][i] for i in range(n)))
    return traces


def trace_power(g: Graph, j: int) -> int:
    """Exact integer trace of the j-th adjacency power (closed walks of length j)."""
    return trace_powers(g, j)[-1]


def power_sum(s: Spectrum, j: int) -> float:
    """Correctly rounded sum of j-th powers of the spectrum."""
    if j < 1:
        raise ValueError(f"power must be at least 1, got {j}")
    return math.fsum(v**j for v in s.values)


def check_trace_identities(g: Graph, k: int) -> bool:
    """True iff Tr(A^j) = 0 exactly for every odd j <= k - 2.

    Equivalent to the odd girth of g being at least k: an odd closed walk of
    length j exists exactly when some odd cycle of length <= j does.
    """
    require_odd_k(k, 3)
    traces = trace_powers(g, k - 2)
    return all(traces[j - 1] == 0 for j in range(1, k - 1, 2))


def bipartiteness_measure(s: Spectrum) -> float:
    """(lambda1 + lambda_n) / n; zero exactly for connected bipartite graphs."""
    return s.measure


def signless_laplacian_min_eig(g: Graph) -> float:
    """Minimum eigenvalue of D + A; equals lambda1 + lambda_n on regular graphs."""
    if g.n < 1:
        raise ValueError("signless Laplacian undefined for the empty vertex set")
    matrix = g.adjacency_matrix()
    matrix[np.diag_indices(g.n)] = g.degrees()
    return float(_eigvalsh(g, matrix)[0])
