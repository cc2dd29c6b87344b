"""The batched scan kernel against the per-graph certify() fold, its odd-girth
gate against odd_girth and exact traces, and the lazy numpy import."""

import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspectrum import (
    ConvergenceError,
    Graph,
    LabeledGraphs,
    blow_up,
    bounds,
    complete_bipartite,
    cycle_graph,
    eigenvalues,
    encode_graph6,
    odd_girth,
    petersen_graph,
    read_graph6_lines,
    scan_kernel,
)
from oddspectrum.bounds import COMPARISON_RTOL, _bound_entry, count_violations
from oddspectrum.cli import main
from oddspectrum.scan import scan_graphs
from util import per_graph_scan, random_graph, rows, trace_powers

SRC = Path(__file__).resolve().parent.parent / "src"


@functools.cache
def enumeration_oracle(n, k):
    return per_graph_scan(rows(LabeledGraphs(n)), k)


def stack(graphs):
    """The (B, n, n) stack of graphs on a common n: their one-graph stacks
    laid end to end."""
    return np.concatenate([scan_kernel.graph_adjacency(g) for g in graphs])


def mixed_lines():
    """graph6 lines on 1 to 12 vertices: a header, a blank line, malformed
    lines, edgeless, bipartite and odd-cycle graphs, random graphs on 4 to 12
    vertices, and three graphs of equal measure whose first must win."""
    rng = random.Random(20261018)
    graphs = [Graph(1), Graph(4), cycle_graph(5), complete_bipartite(2, 3)]
    graphs += [cycle_graph(7), petersen_graph(), blow_up(cycle_graph(5), 2), cycle_graph(9)]
    graphs += [Graph(3, [edge]) for edge in [(1, 2), (0, 1), (0, 2)]]  # measure 0.0 each
    graphs += [complete_bipartite(3, 3), cycle_graph(6), Graph(1), Graph(3)]
    graphs += [random_graph(rng, rng.randint(4, 12), rng.choice([0.15, 0.3])) for _ in range(60)]
    lines = [encode_graph6(g) for g in graphs]
    for at, bad in ((3, "not graph6"), (9, "Dhcc"), (20, "~???"), (40, "Déc")):
        lines.insert(at, bad)
    return [">>graph6<<", "", *lines]


def mixed_items():
    return [item for _, item in read_graph6_lines(mixed_lines())]


@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_per_graph_scan(n, k):
    assert scan_graphs(LabeledGraphs(n), k) == enumeration_oracle(n, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_per_graph_scan_at_k101(n):
    # The fold's bounds and chains from each graph's two extreme eigenvalues
    # against one certify() per graph.
    assert scan_graphs(LabeledGraphs(n), 101) == enumeration_oracle(n, 101)


@pytest.mark.parametrize("per_chunk", [1, 3, 40])
@pytest.mark.parametrize("k", [3, 5, 7, 101])
@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_chunk_boundaries(monkeypatch, n, k, per_chunk):
    # per_chunk graphs in each chunk, read as masks and as (n, bits) rows.
    # The enumeration's chunks are full, whatever the last vertex's
    # neighbourhood: one chunk may join the ends of several neighbourhoods'
    # masks, and at n = 5, k = 5, per_chunk = 40 cuts each run of the 41
    # graphs on 4 vertices without a triangle in two.
    monkeypatch.setattr(scan_kernel, "CHUNK_ENTRIES", per_chunk * n * n)
    assert scan_kernel.chunk_size(n) == per_chunk
    assert scan_graphs(LabeledGraphs(n), k) == enumeration_oracle(n, k)
    assert scan_graphs(iter(rows(LabeledGraphs(n))), k) == enumeration_oracle(n, k)


@pytest.mark.parametrize("k", [5, 7, 101])
@pytest.mark.parametrize("chunk_entries", [None, 1, 3, 27, 100])
def test_mixed_graph6_matches_per_graph_scan(monkeypatch, k, chunk_entries):
    # 1 puts every graph in a chunk of its own, so the three equal measures on
    # 3 vertices meet across chunks; 27 puts them in one chunk.
    if chunk_entries is not None:
        monkeypatch.setattr(scan_kernel, "CHUNK_ENTRIES", chunk_entries)
    summary = scan_graphs(iter(mixed_items()), k)
    assert summary == per_graph_scan(mixed_items(), k)
    assert summary.malformed_lines == 4
    assert {row.n: row for row in summary.rows}[3].argmax_graph == "BG"
    # The route cmd_scan takes: the reader's rows, one at a time.
    stream = (item for _, item in read_graph6_lines(mixed_lines()))
    assert scan_graphs(stream, k) == summary


def test_file_chunks_fill_per_vertex_count(monkeypatch, tmp_path, capsys):
    # Graphs on 4, 5 and 6 vertices, interleaved. Each n fills chunks of its
    # own, so the kernel builds one adjacency stack per full chunk of each n
    # and one per n on the remainder. (The eigensolver sees only the chunks'
    # graphs that are not bipartite, and the winners' certificates build
    # their stacks of one from a Graph.)
    monkeypatch.setattr(scan_kernel, "CHUNK_ENTRIES", 100)
    counts = {4: 13, 5: 9, 6: 7}
    rng = random.Random(11)
    graphs = [random_graph(rng, n) for n, count in counts.items() for _ in range(count)]
    rng.shuffle(graphs)
    path = tmp_path / "interleaved.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    stacks = []
    bits_adjacency = scan_kernel.bits_adjacency

    def spy(n, bits):
        stacks.append(len(bits))
        return bits_adjacency(n, bits)

    monkeypatch.setattr(scan_kernel, "bits_adjacency", spy)
    main(["scan", str(path), "--k", "3"])  # at k = 3 every graph qualifies
    assert "qualifying=29 " in capsys.readouterr().out
    sizes = {n: scan_kernel.chunk_size(n) for n in counts}
    assert len(stacks) == sum(math.ceil(counts[n] / sizes[n]) for n in counts)
    want = []
    for n, count in counts.items():
        want += [sizes[n]] * (count // sizes[n]) + [count % sizes[n]] * (count % sizes[n] > 0)
    assert sorted(stacks) == sorted(want)


@pytest.mark.parametrize("n, want", [(5, [388]), (6, [455] * 12 + [329])])
def test_enumeration_hands_over_full_chunks(monkeypatch, n, want):
    # The masks of odd girth >= 5 come in pieces by the last vertex's
    # neighbourhood, 32 of them at n = 6; the kernel sees them packed into
    # chunks of chunk_size(n) graphs, all full but the last.
    stacks = []
    bits_adjacency = scan_kernel.bits_adjacency

    def spy(n, bits):
        stacks.append(len(bits))
        return bits_adjacency(n, bits)

    monkeypatch.setattr(scan_kernel, "bits_adjacency", spy)
    assert scan_graphs(LabeledGraphs(n), 5).qualifying == TRIANGLE_FREE[n]
    assert stacks == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size)))))
def test_full_chunks_lay_pieces_end_to_end(size_lengths):
    size, lengths = size_lengths
    ends = np.cumsum([0, *lengths])
    pieces = [np.arange(a, b) for a, b in zip(ends, ends[1:])]
    chunks = list(scan_kernel.full_chunks(pieces, size))
    total = int(ends[-1])
    assert list(map(len, chunks)) == [size] * (total // size) + [total % size] * (total % size > 0)
    assert [x for chunk in chunks for x in chunk.tolist()] == list(range(total))
    # A full piece that starts a chunk is handed over as it is, not copied.
    for piece, a in zip(pieces, ends):
        if len(piece) == size and a % size == 0:
            assert np.shares_memory(chunks[a // size], piece)


def test_odd_girth_masks_hold_one_level_and_one_piece():
    # At k = 3 nothing is pruned, so the masks on 6 vertices are 2^15 int32,
    # 128 KB, and every one of them goes to 64 neighbourhoods on vertex 6. The
    # pieces come from runs of at most chunk_size(7) = 334 of them, 1.3 KB.
    tracemalloc.start()
    try:
        masks = scan_kernel.odd_girth_masks(7, 3)
        first = len(next(masks))
        tracemalloc.reset_peak()
        assert first + sum(map(len, masks)) == 1 << 21
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (128 + 16) * 1024


def test_library_graphs_past_graph6_sizes_match_per_graph_scan():
    # Graphs on more than 62 vertices go through the same edge bits.
    graphs = [cycle_graph(101), blow_up(cycle_graph(13), 5), cycle_graph(103), Graph(70)]
    for k in (5, 101):
        assert scan_graphs(iter(rows(graphs)), k) == per_graph_scan(rows(graphs), k)


def test_known_graph_passes_its_chain_at_k40000001():
    # The eigensolver's float r = lambda1/|lambda_n| of this bipartite graph
    # is 1 + 1.6e-15, which T_39999997 would amplify past n * lambda1. Its
    # two ends are made exactly opposite, so r is 1.0 and the chain holds.
    items = [item for _, item in read_graph6_lines(["O????AXyCUGouor?EGAq?", "Dhc"])]
    summary = scan_graphs(iter(items), 40000001)
    assert summary.violations == 0
    assert summary.rows[0].max_measure == 0.0
    assert summary == per_graph_scan(items, 40000001)


def flag_graphs():
    """Graphs by vertex count: every labeled graph on n <= 6; seeded random
    graphs, random bipartite graphs and cycles on 7 to 62 vertices; C101,
    K10,10 + C101 and C100, past graph6's sizes."""
    rng = random.Random(2026)
    by_n = {n: list(LabeledGraphs(n)) for n in range(1, 7)}
    for n in range(7, 63, 5):
        graphs = [random_graph(rng, n, p) for p in (0.02, 0.05, 0.1, 0.3)]
        for a in (1, n // 3, n // 2):
            whole = complete_bipartite(a, n - a)
            graphs.append(Graph(n, [e for e in whole.edges if rng.random() < 0.3]))
        by_n[n] = graphs + [cycle_graph(n)]
    k10_10 = complete_bipartite(10, 10).edges
    c101 = [(20 + u, 20 + v) for u, v in cycle_graph(101).edges]
    by_n[121] = [Graph(121, k10_10 + tuple(c101))]
    by_n[101], by_n[100] = [cycle_graph(101)], [cycle_graph(100)]
    return by_n


def test_bipartite_flag_is_infinite_odd_girth():
    flags = []
    for n, graphs in flag_graphs().items():
        got = scan_kernel.bipartite(stack(graphs)).tolist()
        assert got == [math.isinf(odd_girth(g)) for g in graphs], n
        flags += got
    assert 0 < sum(flags) < len(flags)


@pytest.mark.parametrize("k", [3, 5, 7, 101])
def test_scan_matches_per_graph_scan_on_the_flag_graphs(k):
    # Every labeled graph on n <= 6 is checked against its oracle above.
    graphs = [g for n, graphs in flag_graphs().items() if n > 6 for g in graphs]
    assert scan_graphs(iter(rows(graphs)), k) == per_graph_scan(rows(graphs), k)


def test_scan_at_k101_certifies_only_row_winners(monkeypatch, capsys):
    # One row, so one Graph, one odd_girth, one graph6 id and one stack of one
    # for its winner; the other 375 qualifying graphs are judged by assess.
    calls = {"certify": 0, "odd_girth": 0, "encode_graph6": 0}
    for name in calls:
        real = getattr(bounds, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(bounds, name, spy)
    # The fold's chunks are float32 stacks, a certificate's a float64 one.
    stacks = {np.float32: [], np.float64: []}
    eigvalsh = scan_kernel.eigvalsh

    def stacked(adj):
        stacks[adj.dtype.type].append(len(adj))
        return eigvalsh(adj)

    monkeypatch.setattr(scan_kernel, "eigvalsh", stacked)
    assert main(["scan", "--enumerate", "5", "--k", "101"]) == 0
    assert "count=376 " in capsys.readouterr().out
    assert calls == {"certify": 1, "odd_girth": 1, "encode_graph6": 1}
    assert sum(stacks[np.float32]) == 376 and stacks[np.float64] == [1]


def test_enumeration_masks_build_the_enumerated_graphs():
    # Bit j of a mask is edge bit j: the pair order of bits_adjacency is the
    # one LabeledGraphs builds its graphs in.
    for n in range(6):
        graphs = LabeledGraphs(n)
        bits = np.arange(len(graphs))[:, None] >> np.arange(n * (n - 1) // 2) & 1
        assert (scan_kernel.mask_bits(n, np.arange(len(graphs))) == bits).all()
        assert (scan_kernel.bits_adjacency(n, bits.astype(np.uint8)) == stack(graphs)).all()


@functools.cache
def gated_masks(n, k):
    """The masks on n vertices that odd_walk_free passes, ascending: the gate
    run on every mask, 2^14 at a time."""
    masks = np.arange(1 << n * (n - 1) // 2)
    kept = []
    for start in range(0, len(masks), 1 << 14):
        chunk = masks[start:start + (1 << 14)]
        adj = scan_kernel.bits_adjacency(n, scan_kernel.mask_bits(n, chunk))
        kept.append(chunk[scan_kernel.odd_walk_free(adj, k)])
    return np.concatenate(kept).tolist()


# The labeled triangle-free graphs on 0 to 7 vertices.
TRIANGLE_FREE = [1, 1, 2, 7, 41, 388, 5789, 133501]


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(7) for k in (3, 5, 7, 9, 101)] + [(7, 5), (7, 7)]
)
def test_odd_girth_masks_are_the_gated_masks(n, k):
    blocks = list(scan_kernel.odd_girth_masks(n, k))
    masks = np.concatenate(blocks).tolist()
    assert masks == gated_masks(n, k)  # ascending, as the fold needs
    if k == 5:
        assert len(masks) == TRIANGLE_FREE[n]
    # Only the survivors on n - 1 vertices are held while the blocks stream.
    assert max(map(len, blocks)) <= len(gated_masks(max(n - 1, 0), k))


def test_measures_bit_identical_to_eigenvalues():
    # The scan's fold reads each graph's ends from a stacked eigvalsh call;
    # certify, which the fold runs on each row's winner, reads them from a
    # stack of one. On a graph that is not bipartite both keep them as solved.
    graphs = [g for g in LabeledGraphs(6) if odd_girth(g) == 5]
    vals = scan_kernel.eigvalsh(stack(graphs))
    reports = [bounds.certify(g, 5) for g in graphs]
    assert [r.lambda1 for r in reports] == vals[:, -1].tolist()
    assert [r.lambda_n for r in reports] == vals[:, 0].tolist()
    assert [r.measure for r in reports] == ((vals[:, -1] + vals[:, 0]) / 6).tolist()


def test_measure_mismatch_counts_as_violation(monkeypatch, capsys):
    # The winner's certificate must reproduce the kernel's measure bit for bit.
    # Of the two, only certify builds its matrix with graph_adjacency, so a
    # shift of that matrix's diagonal moves the certificate's ends alone.
    # At k = 101 every winner on n <= 62 vertices is bipartite, measure 0.0 on
    # both sides whatever the spectrum, so C101 stands for the k >= 100 case.
    adjacency = scan_kernel.graph_adjacency
    monkeypatch.setattr(
        scan_kernel, "graph_adjacency", lambda g, dtype: adjacency(g, dtype) + 2.0**-40 * np.eye(g.n)
    )
    assert scan_graphs(LabeledGraphs(5), 5).violations == 1
    assert scan_graphs(rows([cycle_graph(101)]), 101).violations == 1
    assert main(["scan", "--enumerate", "5", "--k", "5"]) == 1
    assert "violations=1" in capsys.readouterr().out


def test_lapack_failure_raises_convergence_error_and_exits_4(monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigenvalues(cycle_graph(5))
    with pytest.raises(ConvergenceError, match="did not converge"):
        scan_kernel.eigvalsh(scan_kernel.graph_adjacency(cycle_graph(5)))
    for argv in (["analyze", "Dhc", "--k", "5"], ["scan", "--enumerate", "5", "--k", "5"]):
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def boundary_measures(value):
    """Measures five ulps either side of value + 1e-12 * max(1, |value|),
    where a measure near value stops satisfying the bound."""
    edge = value + COMPARISON_RTOL * max(1.0, abs(value))
    below, above = [edge], [edge]
    for _ in range(5):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


@pytest.mark.parametrize("value", [0.0, 0.171, -0.5, 3.0, 1e6, -1e6, 1e15])
def test_count_violations_follows_the_bound_entry_rule(value):
    near = boundary_measures(value)
    far = [1e20, -1e20, value * 1e13, -value * 1e13, 1e-300, float("nan")]
    measures = np.array(near + far)
    verdicts = [_bound_entry("b", value, m).satisfied for m in measures.tolist()]
    # The rule as documented, with the max of three taken in one piece.
    rule = COMPARISON_RTOL * np.maximum(max(1.0, abs(value)), np.abs(measures))
    assert verdicts == (measures <= value + rule).tolist()
    assert all(type(ok) is bool for ok in verdicts)  # JSON takes no numpy bool
    assert True in verdicts[: len(near)] and False in verdicts[: len(near)]
    assert count_violations(measures, [value]) == verdicts.count(False)
    for m, ok in zip(measures, verdicts):
        assert count_violations(m[None], [value]) == (not ok)


def test_count_violations_counts_each_measure_once():
    values = [0.171, 0.172, 0.0]
    measures = np.array(boundary_measures(0.171) + boundary_measures(0.0) + [float("nan")])
    bad = [
        not all(_bound_entry("b", v, m).satisfied for v in values) for m in measures.tolist()
    ]
    assert count_violations(measures, values) == sum(bad)


@st.composite
def graph_stacks(draw):
    """One to four labeled graphs on a common n <= 10."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    masks = draw(st.lists(st.integers(0, (1 << len(pairs)) - 1), min_size=1, max_size=4))
    return [Graph(n, [p for j, p in enumerate(pairs) if mask >> j & 1]) for mask in masks]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph_stacks(), st.sampled_from([3, 5, 7, 9, 11]))
def test_gate_agrees_with_odd_girth_and_traces(graphs, k):
    gate = scan_kernel.odd_walk_free(stack(graphs), k)
    for g, passed in zip(graphs, gate.tolist()):
        assert passed == (odd_girth(g) >= k)
        assert passed == all(t == 0 for t in trace_powers(g, k - 2)[::2])


def test_numpy_loaded_only_by_commands_that_need_it():
    code = (
        "import sys, contextlib, io\n"
        "import oddspectrum.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['bounds', '--k-min', '5', '--k-max', '101']) == 0\n"
        "    assert cli.main(['gamma5', '--eps', '0.1', '--s-max', '20']) == 0\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', 'Dhc', '--k', '5']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]
