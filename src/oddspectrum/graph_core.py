"""Graph representation, standard generators, blow-ups, odd girth, and graph6 I/O.

All graphs are simple, undirected, and labeled with vertices 0..n-1. A
graph's vertices and edges are fixed at construction.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import Graph6ParseError, UnsupportedSizeError

# Odd girth of a graph without odd cycles (i.e. a bipartite graph).
INFINITE = math.inf

# 2^(n(n-1)/2) labeled graphs; n = 8 already means 2^28 of them.
MAX_ENUMERATION_VERTICES = 8

# Single-byte graph6 size header covers n <= 62.
MAX_GRAPH6_VERTICES = 62

GRAPH6_HEADER_PREFIX = ">>graph6<<"

_T = TypeVar("_T")


class Graph:
    """Simple undirected graph: a vertex count and a set of edges.

    Edges are normalized to sorted (u, v) pairs with u < v; self-loops and
    out-of-range endpoints are rejected. Duplicate edges collapse.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n = {n}")
            normalized.add((u, v) if u < v else (v, u))
        self.n = int(n)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(normalized))

    @classmethod
    def _from_canonical(cls, n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
        """The graph with exactly these edges, taken as given.

        Only for graph_from_bits, whose edges already are what __init__ would
        make of them: a sorted tuple of distinct pairs (u, v), 0 <= u < v < n.
        """
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        return g

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def cycle_graph(k: int) -> Graph:
    """The cycle on k >= 3 vertices."""
    if k < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts {0..a-1} and {a..a+b-1}."""
    if a < 0 or b < 0:
        raise ValueError("part sizes must be non-negative")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    """The Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def blow_up(g: Graph, m: int) -> Graph:
    """Replace every vertex by m independent copies, every edge by a full join.

    Copy c of vertex v gets label v*m + c, so blow_up(g, 1) returns a graph
    identical to g. The operation multiplies the spectrum by m (padding with
    zeros) and preserves the odd girth.
    """
    if m < 1:
        raise ValueError(f"blow-up factor must be at least 1, got {m}")
    edges = [
        (u * m + i, v * m + j)
        for u, v in g.edges
        for i in range(m)
        for j in range(m)
    ]
    return Graph(g.n * m, edges)


def odd_girth(g: Graph) -> float:
    """Length of the shortest odd cycle; INFINITE when the graph is bipartite.

    First a BFS by levels from one root per component, O(n + m). An edge
    whose two ends are both at depth d closes an odd walk of length 2d + 1
    through the root, and an odd closed walk contains an odd cycle no longer
    than itself, so the shortest such walk bounds the odd girth from above.
    Along an edge the depth changes by at most one, and the changes sum to
    zero around a cycle, so every odd cycle has an edge within a level: a
    component without one is bipartite. One end of each such edge becomes a
    source, so every shortest odd cycle passes through a source. A graph
    without sources, or with the bound 3, needs nothing more.

    Then the sources settle it, by one of two searches of equal result chosen
    by their number: up to MAX_BFS_SOURCES, a plain BFS from each source
    (_source_bfs_girth, O(sources * (n + m)) steps of Python); above it, one
    numpy pass on walk sets from all sources at once (_walk_set_girth), whose
    fixed cost per level only pays off when many sources share it.
    """
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    best, sources, kept = INFINITE, set(), []
    depth = [-1] * n
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        component, level, d, found = [root], [root], 0, len(sources)
        while level:
            below = []
            for v in level:
                for w in adj[v]:
                    if depth[w] < 0:
                        depth[w] = d + 1
                        below.append(w)
                    elif depth[w] == d and w not in sources:
                        sources.add(v)
                        best = min(best, 2 * d + 1)
            component += below
            level, d = below, d + 1
        if len(sources) > found:
            kept += component
    if best == 3 or not sources:  # nothing is shorter than a triangle
        return best
    if len(sources) <= MAX_BFS_SOURCES:
        return _source_bfs_girth(adj, sources, best)
    return _walk_set_girth(adj, sorted(sources), kept, best)


# Sources up to which odd_girth runs a BFS from each rather than the walk-set
# pass: one uint64 word of walk set per vertex. On a 2-vCPU x86-64 VM
# (median of 15 calls), odd_girth on C801 (one source) takes 0.8 ms with the
# BFS against 13 ms on walk sets, and on the blow-up of Petersen by 20
# (80 sources) 19 ms against 6 ms.
MAX_BFS_SOURCES = 64


def _source_bfs_girth(adj: list[list[int]], sources, best) -> float:
    """The odd girth as the shortest odd closed walk found by a BFS by levels
    from each source, given best, an odd closed walk's length, to beat.

    A shortest odd cycle C is isometric: a path between two of its vertices
    shorter than their distance along C would close, with one of C's two
    arcs, a shorter odd walk. So from a source on C the edge opposite it
    joins two vertices at depth (|C| - 1)/2, and every shortest odd cycle
    has a source on it. Each BFS stops once 2d + 1 reaches best.
    """
    n = len(adj)
    for s in sources:
        depth = [-1] * n
        depth[s] = 0
        level, d = [s], 0
        while level and 2 * d + 1 < best:
            below = []
            for v in level:
                for w in adj[v]:
                    if depth[w] < 0:
                        depth[w] = d + 1
                        below.append(w)
                    elif depth[w] == d:
                        best = 2 * d + 1
            level, d = below, d + 1
    return best


def _walk_set_girth(adj: list[list[int]], sources: list[int], kept: list[int], best) -> float:
    """The odd girth by a BFS from every source at once, on walk sets, over
    kept, the vertices of the components that hold a source; best is an odd
    closed walk's length, to beat.

    W_d[v] is the set of sources with a walk of length exactly d to v, packed
    as ceil(sources/64) uint64 words per vertex: W_0[s] = {s}, and
    W_{d+1}[v] is the union of W_d[u] over the neighbours u of v. A shortest
    odd cycle is a closed walk of its own length from each of its vertices,
    so the first odd d at which some source s lies in W_d[s] is the odd
    girth. Levels run up to best less two; with no hit there, best is the
    odd girth. Vertices are relabelled by degree, descending, so the vertices
    with more than j neighbours form a prefix and slot j ORs in their j-th
    neighbours' rows in place. Each level ORs 2m rows, so the pass costs
    O(girth * 2m * ceil(sources/64)) word operations.
    """
    import numpy as np  # here, so that importing graph_core loads no numpy

    kept.sort(key=lambda v: -len(adj[v]))
    label = [0] * len(adj)
    for i, v in enumerate(kept):
        label[v] = i
    # Slot j: the j-th neighbours of the vertices of degree > j, a prefix.
    columns = itertools.zip_longest(*([label[w] for w in adj[v]] for v in kept))
    slots = [np.array([w for w in column if w is not None]) for column in columns]
    words = -(-len(sources) // 64)
    own = np.array([label[s] * words + (i >> 6) for i, s in enumerate(sources)])
    bits = np.array([1 << (i & 63) for i in range(len(sources))], dtype=np.uint64)
    walks = np.zeros((len(kept), words), dtype=np.uint64)
    walks.flat[own] = bits
    for d in range(1, best - 1):
        after = walks[slots[0]]
        for neighbour in slots[1:]:
            after[: len(neighbour)] |= walks[neighbour]
        walks = after
        if d % 2 and (walks.take(own) & bits).any():
            return d
    return best


def _upper_triangle_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Column-major upper-triangle order: (0,1), (0,2), (1,2), (0,3), ..."""
    for v in range(1, n):
        for u in range(v):
            yield u, v


# The pairs of every n <= 62 in graph6 bit order. The order is column-major,
# so the pairs of n are the first n(n-1)/2 entries: one table serves all n.
# A larger n (multi-byte headers) needs only a longer table.
_COLUMN_PAIRS = tuple(_upper_triangle_pairs(MAX_GRAPH6_VERTICES))
# A graph6 data byte, 63..126, as its 6-bit value 0..63.
_DATA_VALUE = bytes.maketrans(bytes(range(63, 127)), bytes(range(64)))
# A 6-bit value as six bytes 0/1, most significant bit first; such six bytes
# as their data character.
_SIX_BITS = tuple(bytes(value >> shift & 1 for shift in range(5, -1, -1)) for value in range(64))
_DATA_CHAR = {bits: chr(value + 63) for value, bits in enumerate(_SIX_BITS)}


def decode_graph6(text: str) -> tuple[int, bytes]:
    """Decode one graph6 line (single-byte size header, n <= 62) into its
    vertex count n and edge bits: n(n-1)/2 bytes 0/1, byte i standing for
    pair i of the column-major order (0,1), (0,2), (1,2), (0,3), ..., so
    pair (u, v), u < v, at v(v-1)/2 + u.

    The optional ``>>graph6<<`` prefix is accepted. Strict on everything
    else: bad header, short input, trailing bytes, and nonzero padding bits
    all raise Graph6ParseError with the offending byte's offset in text.
    Offsets count UTF-8 bytes, a lone surrogate from a byte that was not
    UTF-8 as one byte, so a non-ASCII space before the graph counts as the
    bytes it was read from.

    The decode runs on byte tables. Once min and max show every data byte in
    63..126 (a byte-by-byte scan runs only to name the first bad one),
    translate maps each byte to its 6-bit value and a join of one 6-byte 0/1
    chunk per value gives the bits.
    """
    start = len(text) - len(text.lstrip())
    if text.startswith(GRAPH6_HEADER_PREFIX, start):
        start += len(GRAPH6_HEADER_PREFIX)
    line = text[start:].rstrip()
    if not line:
        raise Graph6ParseError("empty graph6 input", 0)
    # In bytes from here on; line is ASCII up to each offset reported below.
    start = len(text[:start].encode("utf-8", "surrogateescape"))
    try:
        raw = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError("non-ASCII byte in graph6 input", start + exc.start) from None

    header = raw[0]
    if header == 126:
        raise Graph6ParseError("multi-byte size header not supported", start)
    if not 63 <= header <= 125:
        raise Graph6ParseError(f"invalid size header byte {header}", start)
    n = header - 63

    n_bits = n * (n - 1) // 2
    n_bytes = (n_bits + 5) // 6
    if len(raw) - 1 < n_bytes:
        raise Graph6ParseError(
            f"truncated input: need {n_bytes} data bytes for n = {n}", start + len(raw)
        )
    if len(raw) - 1 > n_bytes:
        raise Graph6ParseError("trailing garbage after edge data", start + 1 + n_bytes)

    data = raw[1:]
    if data and not (63 <= min(data) and max(data) <= 126):
        for offset, byte in enumerate(data, start=start + 1):
            if not 63 <= byte <= 126:
                raise Graph6ParseError(f"non-printable data byte {byte}", offset)
    bits = b"".join([_SIX_BITS[value] for value in data.translate(_DATA_VALUE)])
    if any(bits[n_bits:]):
        raise Graph6ParseError("nonzero padding bits", start + n_bytes)
    return n, bits[:n_bits]


def graph_from_bits(n: int, bits: bytes) -> Graph:
    """The graph on n vertices with edge bits bits, as decode_graph6 gives
    them (any n, though graph6 stops at 62).

    Column-major order lists the pairs of n before any pair with v >= n, so
    the bits select this graph's edges from the one table for n = 62. The
    selected pairs are distinct, have 0 <= u < v < n, and come out sorted,
    so the Graph is built from them without the validation and
    deduplication of Graph(n, edges).
    """
    pairs = _COLUMN_PAIRS if n <= MAX_GRAPH6_VERTICES else _upper_triangle_pairs(n)
    return Graph._from_canonical(n, tuple(sorted(itertools.compress(pairs, bits))))


def edge_bits(g: Graph) -> bytes:
    """The edge bits of g, in decode_graph6's order; the inverse of
    graph_from_bits."""
    bits = bytearray(g.n * (g.n - 1) // 2)
    for u, v in g.edges:
        bits[v * (v - 1) // 2 + u] = 1  # position of (u, v) in _COLUMN_PAIRS
    return bytes(bits)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph: decode_graph6, then
    graph_from_bits, with decode_graph6's errors."""
    return graph_from_bits(*decode_graph6(text))


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of a labeled graph with n <= 62.

    The edge bits, padded with zeros to a multiple of six, map chunk by
    chunk to their data character through the inverse of decode_graph6's
    table.
    """
    if g.n > MAX_GRAPH6_VERTICES:
        raise UnsupportedSizeError(
            f"graph6 single-byte header supports n <= {MAX_GRAPH6_VERTICES}, got {g.n}"
        )
    bits = edge_bits(g)
    bits += bytes(-len(bits) % 6)
    return chr(g.n + 63) + "".join([_DATA_CHAR[bits[i : i + 6]] for i in range(0, len(bits), 6)])


class LabeledGraphs:
    """Every labeled simple graph on n vertices, in edge-bitmask order.

    Bit j of the mask controls the j-th pair in column-major upper-triangle
    order (``pairs``). Iterating yields the graphs; a batch reader can take
    ranges of masks instead and build only the graphs it needs with graph().
    No isomorphism reduction is performed.
    """

    __slots__ = ("n", "pairs")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > MAX_ENUMERATION_VERTICES:
            raise UnsupportedSizeError(
                f"enumeration limited to n <= {MAX_ENUMERATION_VERTICES}, got {n}"
            )
        self.n = n
        self.pairs = tuple(_upper_triangle_pairs(n))

    def __len__(self) -> int:
        return 1 << len(self.pairs)

    def __iter__(self) -> Iterator[Graph]:
        return map(self.graph, range(len(self)))

    def graph(self, mask: int) -> Graph:
        return Graph(self.n, [pair for j, pair in enumerate(self.pairs) if mask >> j & 1])


def read_graph6_lines(
    lines: Iterable[str], decode: Callable[[str], _T] = parse_graph6
) -> Iterator[tuple[int, _T | Graph6ParseError]]:
    """Decode an iterable of graph6 lines, yielding (line_number, result).

    Each line goes through decode: parse_graph6 gives Graphs, decode_graph6
    (n, bits) pairs. Lines are consumed one at a time, so a file object
    streams. Blank lines and a bare format header are skipped; malformed
    lines yield the parse error instead so callers can count and continue.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped == GRAPH6_HEADER_PREFIX:
            continue
        try:
            yield lineno, decode(line)
        except Graph6ParseError as exc:
            yield lineno, exc
