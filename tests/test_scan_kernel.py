"""The batched scan kernel against the per-graph certify() fold, its odd-girth
gate against odd_girth and exact traces, and the lazy numpy import."""

import functools
import math
import os
import random
import subprocess
import sys
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
from oddspectrum.cli import main, scan_graphs
from oddspectrum.graph_core import decode_graph6
from util import per_graph_scan, random_graph, trace_powers

SRC = Path(__file__).resolve().parent.parent / "src"


@functools.cache
def enumeration_oracle(n, k):
    return per_graph_scan(LabeledGraphs(n), k)


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


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_per_graph_scan_at_k101(n):
    # Every qualifying graph goes through certify() at k >= 100.
    assert scan_graphs(LabeledGraphs(n), 101) == enumeration_oracle(n, 101)


@pytest.mark.parametrize("per_chunk", [1, 3])
@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_chunk_boundaries(monkeypatch, n, k, per_chunk):
    # per_chunk graphs in each chunk, read as masks and as Graph objects.
    monkeypatch.setattr(scan_kernel, "CHUNK_ENTRIES", per_chunk * n * n)
    assert scan_kernel.chunk_size(n) == per_chunk
    assert scan_graphs(LabeledGraphs(n), k) == enumeration_oracle(n, k)
    assert scan_graphs(iter(LabeledGraphs(n)), k) == enumeration_oracle(n, k)


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
    # The route cmd_scan takes: edge bits from decode_graph6, not Graphs.
    bits = (item for _, item in read_graph6_lines(mixed_lines(), decode_graph6))
    assert scan_graphs(bits, k) == summary


def test_file_chunks_fill_per_vertex_count(monkeypatch, tmp_path, capsys):
    # Graphs on 4, 5 and 6 vertices, interleaved. Each n fills chunks of its
    # own, so the stacked eigensolver runs once per full chunk of each n, once
    # per n on the remainder, and once per row on its winner's certificate.
    monkeypatch.setattr(scan_kernel, "CHUNK_ENTRIES", 100)
    counts = {4: 13, 5: 9, 6: 7}
    rng = random.Random(11)
    graphs = [random_graph(rng, n) for n, count in counts.items() for _ in range(count)]
    rng.shuffle(graphs)
    path = tmp_path / "interleaved.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    stacks = []
    eigvalsh = scan_kernel.eigvalsh

    def spy(adj):
        stacks.append(len(adj))
        return eigvalsh(adj)

    monkeypatch.setattr(scan_kernel, "eigvalsh", spy)
    main(["scan", str(path), "--k", "3"])  # at k = 3 every graph qualifies
    assert "qualifying=29 " in capsys.readouterr().out
    sizes = {n: scan_kernel.chunk_size(n) for n in counts}
    assert len(stacks) == sum(math.ceil(counts[n] / sizes[n]) for n in counts) + len(counts)
    want = [1] * len(counts)  # the winners
    for n, count in counts.items():
        want += [sizes[n]] * (count // sizes[n]) + [count % sizes[n]] * (count % sizes[n] > 0)
    assert sorted(stacks) == sorted(want)


def test_library_graphs_past_graph6_sizes_match_per_graph_scan():
    # Graphs on more than 62 vertices go through the same edge bits.
    graphs = [cycle_graph(101), blow_up(cycle_graph(13), 5), cycle_graph(103), Graph(70)]
    for k in (5, 101):
        assert scan_graphs(iter(graphs), k) == per_graph_scan(graphs, k)


def test_enumeration_masks_build_the_enumerated_graphs():
    for n in range(6):
        graphs = LabeledGraphs(n)
        masks = range(len(graphs))
        assert (
            scan_kernel.mask_adjacency(n, masks)
            == scan_kernel.graph_adjacency(n, list(graphs))
        ).all()


def test_measures_bit_identical_to_eigenvalues():
    graphs = list(LabeledGraphs(5))
    measures = scan_kernel.measures(scan_kernel.graph_adjacency(5, graphs))
    assert measures.tolist() == [eigenvalues(g).measure for g in graphs]


def test_measure_mismatch_counts_as_violation(monkeypatch, capsys):
    # The winner's certificate must reproduce the kernel's measure bit for bit.
    measures = scan_kernel.measures
    monkeypatch.setattr(scan_kernel, "measures", lambda adj: measures(adj) + 2.0**-40)
    assert scan_graphs(LabeledGraphs(5), 5).violations == 1
    assert main(["scan", "--enumerate", "5", "--k", "5"]) == 1
    assert "violations=1" in capsys.readouterr().out


def test_lapack_failure_raises_convergence_error_and_exits_4(monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigenvalues(cycle_graph(5))
    with pytest.raises(ConvergenceError, match="did not converge"):
        scan_kernel.measures(scan_kernel.graph_adjacency(5, [cycle_graph(5)]))
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
    gate = scan_kernel.odd_walk_free(scan_kernel.graph_adjacency(graphs[0].n, graphs), k)
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
