"""The numpy kernel: graphs with a common vertex count as (B, n, n) adjacency
stacks, an odd-girth gate by boolean matrix powers, and the package's one
eigensolver call, which the scan runs on chunks and spectral.eigenvalues on
a stack of one, so the scan's measures equal certify's bit for bit.

Nothing imports this module at load, so numpy is loaded by the commands
that run LAPACK and by no other.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConvergenceError, require_odd_k
from .graph_core import Graph

# Bound on B * n^2 for a chunk of B graphs on n vertices. Near 2^14 entries a
# chunk's arrays stay well under a megabyte; 2^17 raised the peak RSS of
# `scan --enumerate 7 --k 5` by 2.2 MB and ran no faster.
CHUNK_ENTRIES = 1 << 14


def chunk_size(n: int) -> int:
    """Graphs per chunk at n vertices: at least one."""
    return max(1, CHUNK_ENTRIES // (n * n or 1))


def bits_adjacency(n: int, bits: np.ndarray) -> np.ndarray:
    """The float32 (B, n, n) 0/1 stack of the graphs whose edge bits are the
    rows of the (B, n(n-1)/2) 0/1 array bits, bit i being column-major pair
    i, (u, v) at v(v-1)/2 + u, as graph_core.decode_graph6 orders them."""
    v = np.repeat(np.arange(n), np.arange(n))
    u = np.arange(len(v)) - v * (v - 1) // 2
    adj = np.zeros((len(bits), n, n), np.float32)
    adj[:, u, v] = bits
    adj[:, v, u] = bits
    return adj


def mask_adjacency(n: int, masks: range) -> np.ndarray:
    """The (B, n, n) 0/1 stack of the graphs numbered by masks, bit i of a
    mask being edge bit i (the numbering of LabeledGraphs)."""
    shifts = np.arange(n * (n - 1) // 2)
    return bits_adjacency(n, np.arange(masks.start, masks.stop)[:, None] >> shifts & 1)


def graph_adjacency(n: int, graphs: Sequence[Graph], dtype=np.float32) -> np.ndarray:
    """The (B, n, n) 0/1 stack of graphs, all on n vertices: float32 for the
    gate, float64 (or float) for the eigensolver, which then copies nothing."""
    adj = np.zeros((len(graphs), n, n), dtype)
    for a, g in zip(adj, graphs):
        if g.edges:
            u, v = zip(*g.edges)
            a[u, v] = a[v, u] = 1
    return adj


def odd_walk_free(adj: np.ndarray, k: int) -> np.ndarray:
    """For each matrix of the (B, n, n) 0/1 stack, whether its graph has odd
    girth >= k, that is no closed walk of odd length j <= k-2.

    A closed walk of length j extends to one of length j+2 by going out and
    back along one of its edges, so it is enough that diag(A^(k-2)) is zero.
    That diagonal is sum_j R[i, j] A[j, i] with R the boolean power A^(k-3),
    taken by repeated squaring with each float32 product clipped to 1. The
    products are exact: no entry exceeds n.
    """
    require_odd_k(k, 3)
    reach = None  # A^(k-3) over booleans; None stands for the identity
    base, e = adj, k - 3
    while e:
        if e & 1:
            reach = base if reach is None else np.minimum(reach @ base, 1)
        e >>= 1
        if e:
            base = np.minimum(base @ base, 1)
    if reach is None:  # k = 3: a simple graph has no loop
        return np.ones(len(adj), bool)
    return ~(reach * adj).any(axis=(1, 2))


def eigvalsh(adj: np.ndarray) -> np.ndarray:
    """Each matrix's eigenvalues, ascending, from one float64 LAPACK call on
    the (B, n, n) stack; ConvergenceError if LAPACK fails."""
    try:
        return np.linalg.eigvalsh(adj.astype(np.float64, copy=False))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on {len(adj)} graphs: {exc}") from exc


def measures(adj: np.ndarray) -> np.ndarray:
    """(lambda1 + lambda_n) / n for each matrix of a non-empty (B, n, n)
    stack: from eigvalsh, as Spectrum.measure is, so bit-identical to it."""
    vals = eigvalsh(adj)
    return (vals[:, -1] + vals[:, 0]) / adj.shape[-1]
