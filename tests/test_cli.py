"""CLI behavior: commands, formats, exit codes, and scan determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddspectrum import (
    Graph,
    Graph6ParseError,
    LabeledGraphs,
    complete_bipartite,
    cycle_graph,
    encode_graph6,
)
from oddspectrum.cli import main, scan_graphs

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Dhc", "--k", "5")
    assert code == 0
    assert "measure=0.07639320225" in out
    assert "result: PASS" in out

    code, out, _ = run_cli(capsys, "analyze", "B?", "--k", "101")
    assert code == 0
    assert (
        "  chain [skipped] proof-chain inequalities (inapplicable: edgeless graph, "
        "measure is trivially lambda1/n)\n" in out
    )


def test_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Dhc", "--k", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["graph"] == "Dhc"
    assert payload["passed"] is True
    assert payload["measure"] == pytest.approx(0.0763932, abs=1e-6)


def test_analyze_csv(capsys):
    code, out, _ = run_cli(capsys, "analyze", "A_", "--k", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("graph,n,odd_girth")
    assert lines[1].startswith("A_,2,inf")


def test_analyze_girth_violation_exits_3(capsys):
    code, out, err = run_cli(capsys, "analyze", "Bw", "--k", "5")
    assert code == 3
    assert out == ""
    assert "odd girth 3" in err


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "analyze", "~~~~", "--k", "5")
    assert code == 2
    assert out == ""
    assert "byte offset" in err

    malformed = tmp_path / "malformed.g6"
    malformed.write_text("Dhc\n~~~~\n")
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    # The offset counts from the start of the line as read.
    prefixed = tmp_path / "prefixed.g6"
    prefixed.write_text("  >>graph6<<Dhc~\n")
    for corpus, message in (
        (malformed, "line 2:"),
        (empty, "no graphs in"),
        (prefixed, "line 1: trailing garbage after edge data (byte offset 15)"),
    ):
        code, out, err = run_cli(capsys, "analyze", str(corpus), "--k", "5")
        assert code == 2
        assert out == ""
        assert message in err


def test_parse_error_offsets_count_bytes(tmp_path, capsys):
    # A no-break space read from a file is the two bytes C2 A0, and an
    # undecodable byte is one byte, wherever the text came from.
    corpus = tmp_path / "nbsp.g6"
    corpus.write_bytes(b"\xc2\xa0Dhcc\n")
    for source in (str(corpus), "\xa0Dhcc"):
        code, out, err = run_cli(capsys, "analyze", source, "--k", "5")
        assert code == 2
        assert out == ""
        assert "trailing garbage after edge data (byte offset 5)" in err
    corpus.write_bytes(b"\xc2\xa0D\xffc\n")
    code, _, err = run_cli(capsys, "analyze", str(corpus), "--k", "5")
    assert "line 1: non-ASCII byte in graph6 input (byte offset 3)" in err


def test_analyze_even_k_exits_2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Dhc", "--k", "4")
    assert code == 2
    assert out == ""


def test_analyze_graph_without_vertices_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "?", "--k", "5")
    assert code == 2
    assert out == ""
    assert "at least one vertex" in err


def test_scan_graph_without_vertices_exits_2(tmp_path, capsys):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("?\nDhc\n")
    for source in ((str(corpus),), ("--enumerate", "0")):
        code, out, err = run_cli(capsys, "scan", *source, "--k", "5")
        assert code == 2
        assert out == ""
        assert "at least one vertex" in err


def test_analyze_file(tmp_path, capsys):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("Dhc\nA_\n")
    code, out, _ = run_cli(capsys, "analyze", str(corpus), "--k", "5", "--format", "json")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_analyze_file_with_violating_graph_exits_3(tmp_path, capsys):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("Dhc\nBw\n")  # second line is a triangle
    code, out, err = run_cli(capsys, "analyze", str(corpus), "--k", "5")
    assert code == 3
    assert out == ""
    assert "odd girth 3" in err


def test_scan_enumerate_five(capsys):
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "5", "--k", "5", "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["scanned"] == 1024
    assert summary["violations"] == 0
    row = summary["rows"][0]
    assert row["n"] == 5
    assert row["max_measure"] == pytest.approx(0.07639320225002103, abs=1e-8)
    assert row["max_measure"] <= row["tightest_bound_value"]


def test_scan_deterministic_across_jobs(capsys, tmp_path):
    outputs = []
    for jobs in ("1", "4"):
        code, out, _ = run_cli(
            capsys, "scan", "--enumerate", "5", "--k", "5", "--jobs", jobs, "--format", "json"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]

    corpus = tmp_path / "mixed.g6"
    corpus.write_text(
        "\n".join(encode_graph6(g) for g in (cycle_graph(5), cycle_graph(7), complete_bipartite(2, 4)))
        + "\n"
    )
    outputs = []
    for jobs in ("1", "4"):
        code, out, _ = run_cli(
            capsys, "scan", str(corpus), "--k", "5", "--jobs", jobs, "--format", "csv"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_scan_file_counts_malformed(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    lines = [encode_graph6(cycle_graph(5)), "not graph6 at all!", encode_graph6(complete_bipartite(3, 3)), ""]
    corpus.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--k", "5", "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["malformed_lines"] == 1
    assert summary["qualifying"] == 2


def test_scan_file_counts_non_utf8_line_as_malformed(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"Dhc\n\xff\xfe\nDhc\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--k", "5")
    assert code == 0
    assert out.startswith("scanned=2  qualifying=2  skipped_girth=0  malformed=1  ")


def test_analyze_file_names_the_non_utf8_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"Dhc\n\xff\xfe\nDhc\n")
    code, out, err = run_cli(capsys, "analyze", str(corpus), "--k", "5")
    assert code == 2
    assert out == ""
    assert "error: line 2: non-ASCII byte" in err


@pytest.mark.parametrize("data", [b"A_\fA_\nDhc\n", b"A_\x1cA_\r\nDhc\r", "A_ A_\nDhc".encode()])
def test_scan_file_breaks_lines_only_at_newlines(tmp_path, capsys, data):
    # A form feed, file separator or line separator inside a line leaves it
    # one (malformed) line; \n, \r\n and \r end it.
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(data)
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--k", "3")
    assert code == 0
    assert out.startswith("scanned=1  qualifying=1  skipped_girth=0  malformed=1  ")


def test_analyze_file_counts_lines_only_at_newlines(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"Dhc\vD\nA_\n")
    code, out, err = run_cli(capsys, "analyze", str(corpus), "--k", "5")
    assert code == 2
    assert out == ""
    assert "error: line 1: trailing garbage after edge data (byte offset 3)" in err


def test_scan_summary_from_one_shot_generator():
    # The scan reads its input once, so a generator that can be iterated only
    # once gives the same summary as a list.
    items = [*LabeledGraphs(5), Graph6ParseError("bad line", 0), cycle_graph(7)]
    items += [cycle_graph(5), complete_bipartite(3, 4)]
    summary = scan_graphs(iter(items), 5)
    assert summary == scan_graphs(items, 5)
    assert (summary.scanned, summary.malformed_lines) == (len(items) - 1, 1)
    assert [row.n for row in summary.rows] == [5, 7]


def test_scan_row_keeps_first_of_equal_maxima():
    # One edge on three vertices, three ways: every measure is exactly 0.0.
    graphs = [Graph(3, [edge]) for edge in [(1, 2), (0, 1), (0, 2)]]
    (row,) = scan_graphs(graphs, 5).rows
    assert (row.count, row.max_measure, row.argmax_graph) == (3, 0.0, "BG")


def test_scan_bipartite_only_file(tmp_path, capsys):
    corpus = tmp_path / "bipartite.g6"
    corpus.write_text(
        "\n".join(encode_graph6(complete_bipartite(a, b)) for a, b in [(2, 2), (3, 3), (1, 4)])
        + "\n"
    )
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--k", "5", "--format", "json")
    assert code == 0
    summary = json.loads(out)
    for row in summary["rows"]:
        assert row["max_measure"] == pytest.approx(0.0, abs=1e-9)


def test_scan_needs_exactly_one_source(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "scan", "--k", "5")
    assert code == 2
    assert out == ""
    code, out, _ = run_cli(capsys, "scan", "file.g6", "--enumerate", "4", "--k", "5")
    assert code == 2
    assert out == ""
    code, out, err = run_cli(capsys, "scan", str(tmp_path / "missing.g6"), "--k", "5")
    assert code == 2
    assert out == ""
    assert "no such file" in err


def test_scan_jobs_must_be_positive(capsys):
    code, out, err = run_cli(capsys, "scan", "--enumerate", "4", "--k", "5", "--jobs", "0")
    assert code == 2
    assert out == ""
    assert "jobs" in err


def test_scan_enumerate_limit(capsys):
    code, out, err = run_cli(capsys, "scan", "--enumerate", "9", "--k", "5")
    assert code == 2
    assert out == ""
    assert "enumeration" in err


def test_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--k-min", "5", "--k-max", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert "0.07639320225" in lines[0]
    assert "n/a" in lines[0]  # no k >= 100 formula at k = 5


def test_bounds_includes_ratio_at_101(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--k-min", "101", "--k-max", "101", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["ratio"] > 1.0


def test_bounds_validation(capsys):
    for argv in (("--k-min", "4", "--k-max", "9"), ("--k-min", "9", "--k-max", "5")):
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 2
        assert out == ""


def test_gamma5_report(capsys):
    code, out, _ = run_cli(capsys, "gamma5", "--eps", "0.1", "--s-max", "20")
    assert code == 0
    assert "s_star = 14" in out
    assert "satisfied   = True" in out
    assert "csikvari" in out


def test_gamma5_huge_sample_count_returns_promptly():
    # A sweep of 25 intervals x 10^9 samples would run for hours.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["gamma5", "--samples", "1000000000", "--eps", "0.1"]
    proc = subprocess.run(
        [sys.executable, "-m", "oddspectrum.cli", *argv],
        capture_output=True,
        env=env,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert "  s_star = 14\n" in proc.stdout


# Runs the CLI, then reports its own CPU seconds and peak RSS (kB) on stderr.
# VmHWM, not ru_maxrss: on Linux a child's ru_maxrss keeps the peak of the
# process it was forked from, here the test runner's, across exec.
_MEASURED_CLI = """\
import resource, sys
from oddspectrum.cli import main
code = main(sys.argv[1:])
usage = resource.getrusage(resource.RUSAGE_SELF)
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(usage.ru_utime + usage.ru_stime, hwm.split()[1], file=sys.stderr)
sys.exit(code)
"""


def test_gamma5_smallest_epsilons_run_in_flat_memory():
    # eps 1e-14 gives n = 394,563,743: as a tuple of entries that would be
    # gigabytes, as runs it is four (value, count) pairs.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["gamma5", "--eps", "1e-14"]
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURED_CLI, *argv],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "epsilon = 1e-14  (n = 394563743)\n" in proc.stdout
    assert proc.stdout.endswith("  satisfied   = True\n")
    cpu_s, peak_kb = proc.stderr.split()
    # CPU seconds rather than wall time, so that a busy machine cannot fail it.
    assert float(cpu_s) < 1.0
    assert int(peak_kb) < 64 * 1024


def test_scan_streams_a_long_file_in_flat_memory(tmp_path):
    # 200,001 lines, read one at a time: the peak stays near a tiny file's.
    lines = [encode_graph6(cycle_graph(5)), encode_graph6(complete_bipartite(2, 3)), "Dhcc"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    peaks_kb = []
    for copies in (1, 66_667):
        path = tmp_path / f"{copies}.g6"
        path.write_text("\n".join(lines * copies) + "\n")
        proc = subprocess.run(
            [sys.executable, "-c", _MEASURED_CLI, "scan", str(path), "--k", "5"],
            capture_output=True,
            env=env,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"scanned={2 * copies}  qualifying={2 * copies}  ")
        assert f"malformed={copies}  " in proc.stdout
        peaks_kb.append(int(proc.stderr.split()[1]))
    # Holding the file's lines as strings adds about 14 MB.
    assert peaks_kb[1] - peaks_kb[0] < 4 * 1024


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_1_without_traceback(unbuffered):
    # `oddspectrum gamma5 ... | head`, with the reader gone before the first
    # line: unbuffered, the first print fails; buffered, the final flush does.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    argv = ["gamma5", "--s-max", "1e300", "--samples", "100", "--eps", "0.1"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oddspectrum.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""  # no traceback, no "Exception ignored" note
    assert proc.returncode == 1


def test_gamma5_validation(capsys):
    for argv in (
        ("--eps", "1.5"),
        ("--eps", "abc"),
        ("--s-max", "3"),
        ("--eps", ","),
        ("--samples", "50"),
        ("--s-max", "nan"),
        ("--eps", "1e-16"),  # below the epsilon floor 2^-50
        ("--eps", "1e-320"),  # the size threshold overflows a float
    ):
        code, out, _ = run_cli(capsys, "gamma5", *argv)
        assert code == 2
        assert out == ""
