"""Golden CLI outputs: stdout bytes and exit code for a fixed command set.

The files under tests/golden/ were captured from the commit before the
one-sequence-type / fsum / single-threaded-scan refactor, which had to keep
every byte; scan_file_k5_text.out was captured from the commit before the
one-pass streaming scan, and analyze_mixed_k5_csv.out and
analyze_file_k101_{text,csv}.out from the commit before the report CSV writer
and the threshold partition were deleted, and gamma5_two_small_eps.out from
f819b4c, before the extremal sequence was built from one float per distinct
value; each of those changes had to keep the bytes too. They were taken on
x86-64 Linux with Python 3.11.7, numpy 2.4.6 and its bundled OpenBLAS 0.3.31.
When the float re-check of the certificate polynomial's trace was deleted
(after 0a3b493), analyze_file_k101_text.out lost its two "chain sum of
certificate polynomial" lines and analyze_bipartite_k101_json.out the third
chain_checks entry. Both were cut by hand, not regenerated; every other byte
is as captured. scan_enum5_k101_{text,csv,json}.out were captured at 40cf85e,
before the k >= 100 scan stopped certifying every qualifying graph, which had
to keep their bytes. bounds_csv.out and bounds_json.out were regenerated when
cycle_lower_bound moved to (4/k) sin^2(pi/(2k)): 148 of their 150 rows
changed in the last digits of cycle_lower_bound and ratio only, while
bounds_text.out, which prints 10 digits, kept its bytes. Nine were
regenerated after 689a1803 when a bipartite graph's spectrum ends were made
exactly opposite (lambda_n = 0.0 - lambda1, lambda1 the half-width of the
solved spectrum) and its measure exactly 0.0: analyze_bipartite_k101_json,
analyze_file_k101_{text,csv}, analyze_mixed_k5_csv,
scan_enum5_k101_{text,csv,json}, scan_file_k5_text and scan_mixed_jobs4_csv.
Only their bipartite graphs' lambda1, lambda_n, measure, the bounds and
slacks taken from these, and the chain values moved, and on all-bipartite
rows the argmax, tightest bound and min_slack; the B? row kept its bytes.
scan_enum7_k5_json.out was captured at 65f3820, before the enumeration built
only the graphs of odd girth >= k one vertex at a time, which had to keep
its bytes.
When certify stopped re-deciding its girth gate as an odd-trace chain below
k = 100 (after a67b8a2), analyze_c5_text.out lost its "chain max |Tr(A^j)|"
line and analyze_petersen_json.out its one chain_checks entry, leaving
"chain_checks": []. Both were cut by hand, not regenerated; every other
byte is as before.
If a numpy or BLAS change moves the last digits, regenerate them from that
parent commit, never from the change under test: copy this file and the .g6
inputs under tests/golden/ into a checkout of the parent and run

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites tests/golden/ next to it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from oddspectrum.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MIXED = str(GOLDEN / "mixed.g6")  # C5, C7 and K2,4: three lines, three n
# A header line, a blank line, two malformed lines, a triangle below the
# girth, and two graphs each on 5 and on 6 vertices.
SCAN_FILE = str(GOLDEN / "scan_file.g6")
# The bipartite 12-vertex graph below, the edgeless graph on 3 vertices (its
# proof chain prints as "chain [skipped]" at k = 101) and K2.
ANALYZE_K101 = str(GOLDEN / "analyze_k101.g6")

COMMANDS = {
    "gamma5_six_eps": ["gamma5", "--eps", "0.1,0.01,0.001,1e-4,1e-5,1e-6"],
    # Sums over extremal sequences of up to n = 394,579 entries.
    "gamma5_two_small_eps": [
        "gamma5", "--eps", "1e-7,1e-8", "--s-max", "15", "--samples", "100"
    ],
    "bounds_text": ["bounds", "--k-min", "3", "--k-max", "301"],
    "bounds_csv": ["bounds", "--k-min", "3", "--k-max", "301", "--format", "csv"],
    "bounds_json": ["bounds", "--k-min", "3", "--k-max", "301", "--format", "json"],
    "analyze_c5_text": ["analyze", "Dhc", "--k", "5"],
    "analyze_petersen_json": ["analyze", "IheA@GUAo", "--k", "5", "--format", "json"],
    # Random bipartite graph on 12 vertices; the JSON carries the two
    # broad-spectrum chain values, r - 1 = 0.0 among them, with full repr
    # precision.
    "analyze_bipartite_k101_json": ["analyze", "K??FSxg|AWY_", "--k", "101", "--format", "json"],
    "analyze_mixed_k5_csv": ["analyze", MIXED, "--k", "5", "--format", "csv"],
    "analyze_file_k101_text": ["analyze", ANALYZE_K101, "--k", "101"],
    "analyze_file_k101_csv": ["analyze", ANALYZE_K101, "--k", "101", "--format", "csv"],
    **{
        f"scan_enum5_k{k}_{fmt}": ["scan", "--enumerate", "5", "--k", str(k), "--format", fmt]
        for k in (3, 5, 101)
        for fmt in ("text", "csv", "json")
    },
    # 2^21 labeled graphs, 133,501 of them triangle-free.
    "scan_enum7_k5_json": ["scan", "--enumerate", "7", "--k", "5", "--format", "json"],
    "scan_mixed_jobs4_csv": ["scan", MIXED, "--k", "5", "--jobs", "4", "--format", "csv"],
    "scan_file_k5_text": ["scan", SCAN_FILE, "--k", "5"],
}


def run(argv) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode()


def exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    code, stdout = run(COMMANDS[name])
    assert code == exit_codes()[name]
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    codes = {}
    for name, argv in sorted(COMMANDS.items()):
        codes[name], stdout = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
