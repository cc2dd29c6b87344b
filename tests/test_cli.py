"""CLI behavior: commands, formats, exit codes, and scan determinism."""

import json

import pytest

from oddspectrum import complete_bipartite, cycle_graph, encode_graph6
from oddspectrum.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Dhc", "--k", "5")
    assert code == 0
    assert "measure=0.07639320225" in out
    assert "result: PASS" in out


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


def test_analyze_parse_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "~~~~", "--k", "5")
    assert code == 2
    assert out == ""
    assert "byte offset" in err


def test_analyze_even_k_exits_2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Dhc", "--k", "4")
    assert code == 2
    assert out == ""


def test_analyze_graph_without_vertices_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "?", "--k", "5")
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


def test_scan_needs_exactly_one_source(capsys):
    code, out, _ = run_cli(capsys, "scan", "--k", "5")
    assert code == 2
    assert out == ""
    code, out, _ = run_cli(capsys, "scan", "file.g6", "--enumerate", "4", "--k", "5")
    assert code == 2
    assert out == ""


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


def test_gamma5_validation(capsys):
    for argv in (
        ("--eps", "1.5"),
        ("--eps", "abc"),
        ("--s-max", "3"),
        ("--eps", ","),
        ("--samples", "50"),
        ("--s-max", "nan"),
    ):
        code, out, _ = run_cli(capsys, "gamma5", *argv)
        assert code == 2
        assert out == ""
