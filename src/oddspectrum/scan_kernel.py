"""The numpy kernel: graphs with a common vertex count as (B, n, n) adjacency
stacks, an odd-girth gate by boolean matrix powers, which at the least odd
girth above n also tells the bipartite graphs, and the package's one
eigensolver call, which the scan runs on chunks and spectral.eigenvalues on
a stack of one, so the two extreme eigenvalues the scan reads, and the
measures and bounds it takes from them, equal certify's bit for bit. A
bipartite graph's measure is 0.0 by bounds.spectrum_ends, so below k = 100
the scan gives it no eigensolver call.

Nothing imports this module at load, so numpy is loaded by the commands
that run LAPACK and by no other.
"""

from __future__ import annotations

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


def graph_adjacency(g: Graph, dtype=np.float32) -> np.ndarray:
    """The (1, n, n) 0/1 stack of g alone: float32 for the gate, float64 (or
    float) for the eigensolver, which then copies nothing."""
    adj = np.zeros((1, g.n, g.n), dtype)
    if g.edges:
        u, v = zip(*g.edges)
        adj[0, u, v] = adj[0, v, u] = 1
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


def bipartite(adj: np.ndarray) -> np.ndarray:
    """For each matrix of the (B, n, n) 0/1 stack, n >= 1, whether its graph
    is bipartite: an odd cycle has at most n vertices, so whether its odd
    girth is at least (n + 1) | 1, the least odd number above n."""
    return odd_walk_free(adj, (adj.shape[1] + 1) | 1)


def eigvalsh(adj: np.ndarray) -> np.ndarray:
    """Each matrix's eigenvalues, ascending, from one float64 LAPACK call on
    the (B, n, n) stack; ConvergenceError if LAPACK fails."""
    try:
        return np.linalg.eigvalsh(adj.astype(np.float64, copy=False))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on {len(adj)} graphs: {exc}") from exc
