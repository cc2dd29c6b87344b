"""The numpy kernel: graphs with a common vertex count as (B, n, n) adjacency
stacks, an odd-girth gate by boolean matrix powers, which at the least odd
girth above n also tells the bipartite graphs, a generator of the labeled
graphs of odd girth >= k built one vertex at a time by the same powers, and
the package's one eigensolver call, which the scan runs on chunks and
certify on a stack of one, so the two extreme eigenvalues the scan reads,
and the measures and bounds it takes from them, equal certify's bit for
bit. A bipartite graph's measure is 0.0 by bounds.spectrum_ends, so
below k = 100 the scan gives it no eigensolver call.

Nothing imports this module at load, so numpy is loaded by the commands
that run LAPACK and by no other.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """u and v of the n(n-1)/2 vertex pairs u < v, pair i at v(v-1)/2 + u:
    column-major, as graph_core.decode_graph6 orders edge bits."""
    v = np.repeat(np.arange(n), np.arange(n))
    return np.arange(len(v)) - v * (v - 1) // 2, v


def mask_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """The (B, n(n-1)/2) uint8 edge bit rows of the integer edge masks of
    graphs on n vertices, bit j of a mask being edge bit j."""
    return (masks[:, None] >> np.arange(n * (n - 1) // 2) & 1).astype(np.uint8)


def bits_adjacency(n: int, bits: np.ndarray) -> np.ndarray:
    """The float32 (B, n, n) 0/1 stack of the graphs whose edge bits are the
    rows of the (B, n(n-1)/2) 0/1 array bits, in the order of _pairs(n)."""
    u, v = _pairs(n)
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


def walk_power(adj: np.ndarray, e: int) -> np.ndarray:
    """For each matrix A of the (B, n, n) 0/1 float32 stack, the boolean power
    A^e, e >= 1: entry (a, b) is 1 when a walk of length e joins a to b. Taken
    by repeated squaring with each float32 product clipped to 1; the products
    are exact, since no entry exceeds n."""
    power = None
    while True:
        if e & 1:
            power = adj if power is None else np.minimum(power @ adj, 1)
        e >>= 1
        if not e:
            return power
        adj = np.minimum(adj @ adj, 1)


def odd_walk_free(adj: np.ndarray, k: int) -> np.ndarray:
    """For each matrix of the (B, n, n) 0/1 stack, whether its graph has odd
    girth >= k, that is no closed walk of odd length j <= k-2.

    A closed walk of length j extends to one of length j+2 by going out and
    back along one of its edges, so it is enough that diag(A^(k-2)) is zero.
    That diagonal is sum_j R[i, j] A[j, i] with R = walk_power(A, k - 3).
    """
    require_odd_k(k, 3)
    if k == 3:  # a simple graph has no loop
        return np.ones(len(adj), bool)
    return ~(walk_power(adj, k - 3) * adj).any(axis=(1, 2))


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


def odd_girth_masks(n: int, k: int) -> Iterator[np.ndarray]:
    """The int32 edge masks of the labeled graphs on n vertices with odd girth
    >= k, ascending, in pieces of at most chunk_size(n) masks: those on
    n <= 1 vertices as the one piece [0], the others by neighbourhood N of
    vertex n - 1, N ascending, each N's masks in one or more pieces.

    A graph on m + 1 vertices is a graph H on its first m vertices plus vertex
    m with neighbourhood N, and its mask is H | N << m(m-1)/2, so N ascending
    outside and H ascending inside gives ascending masks. Such a graph has
    odd girth >= k exactly when H has and no two vertices of N are joined in
    H by an odd walk of length <= k - 4, that is when N is independent in
    walk_power(A_H, k - 4) (at k = 3 every N is). An odd cycle through m
    shorter than k is m-a-...-b-m, with a != b in N joined by an odd path of
    length <= k - 4 in H. Conversely, an odd a-b walk that short closes an
    odd walk of length <= k - 2 through m, and that walk contains an odd
    cycle no longer than itself. Since a walk of length j extends to one of
    length j + 2, the odd walks of length <= k - 4 are those of length k - 4.

    So the survivors are built one vertex at a time, and each level but the
    last is held whole. While the last level streams, what is held is the
    survivors on n - 1 vertices and the piece in hand: each piece comes from
    a run of at most chunk_size(n) graphs H, so it is no longer than a chunk.
    """
    require_odd_k(k, 3)
    masks = np.zeros(1, np.int32)  # n <= 8 in an enumeration: 28 edge bits at most
    if n < 2:
        yield masks
        return
    for m in range(1, n - 1):
        masks = np.concatenate(list(_extensions(masks, m, k)))
    yield from _extensions(masks, n - 1, k)


def _extensions(masks: np.ndarray, m: int, k: int) -> Iterator[np.ndarray]:
    """The pieces of odd_girth_masks on m + 1 vertices, from the ascending
    masks of those on m vertices."""
    shift, size = m * (m - 1) // 2, chunk_size(m + 1)
    runs = range(0, len(masks), size)
    if k == 3 or m == 1:  # every N passes: nothing is too short, or N has one vertex
        for hood in range(1 << m):
            for i in runs:
                yield masks[i:i + size] | hood << shift
        return
    # Each graph's odd walks of length k - 4, and each N's pairs, as pair masks.
    u, v = _pairs(m)
    weights = 1 << np.arange(shift, dtype=masks.dtype)
    walks = masks  # at k = 5 the odd walks of length 1 are the edges
    if k > 5:
        walks, walk_size = np.empty_like(masks), chunk_size(m)
        for i in range(0, len(masks), walk_size):
            adj = bits_adjacency(m, mask_bits(m, masks[i:i + walk_size]))
            walks[i:i + walk_size] = (walk_power(adj, k - 4)[:, u, v] > 0) @ weights
    hoods = np.arange(1 << m)[:, None]
    within = (hoods >> u & hoods >> v & 1) @ weights
    for hood, pairs in enumerate(within.tolist()):
        for i in runs:
            kept = masks[i:i + size][(walks[i:i + size] & pairs) == 0]
            kept |= hood << shift
            yield kept


def full_chunks(pieces: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The arrays of pieces, each of at most size entries, laid end to end and
    cut into chunks of exactly size entries, the last one shorter. A piece of
    size entries that starts a chunk is that chunk, not a copy; pieces are
    concatenated only where a chunk spans several."""
    held, count = [], 0
    for piece in pieces:
        if count + len(piece) >= size:
            cut = size - count
            yield np.concatenate([*held, piece[:cut]]) if held else piece[:cut]
            held, count, piece = [], 0, piece[cut:]
        if len(piece):
            held.append(piece)
            count += len(piece)
    if held:
        yield np.concatenate(held)
