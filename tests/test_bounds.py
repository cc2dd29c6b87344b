"""Bound formulas, comparison constants, and certificate verification."""

import json
import math
import random

import pytest

from oddspectrum import (
    BoundEntry,
    CertificateReport,
    ChainCheck,
    GirthViolationError,
    Graph,
    HypothesisError,
    LabeledGraphs,
    broad_spectrum_bound,
    certify,
    complete_bipartite,
    csikvari_bound,
    cycle_graph,
    cycle_lower_bound,
    eigenvalues,
    gamma5_prime_value,
    high_lambda1_bound,
    main_bound,
    odd_girth,
    petersen_graph,
)
from oddspectrum.bounds import CSV_HEADER
from util import random_graph, trace_powers


def test_cycle_lower_bound_values():
    assert cycle_lower_bound(3) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cycle_lower_bound(5) == pytest.approx(0.07639320225002103, abs=1e-12)
    with pytest.raises(ValueError):
        cycle_lower_bound(4)
    with pytest.raises(ValueError):
        cycle_lower_bound(1)


def test_cycle_lower_bound_matches_eigensolver():
    for k in (5, 21, 101):
        measure = eigenvalues(cycle_graph(k)).measure
        assert abs(measure - cycle_lower_bound(k)) < 1e-8


def test_broad_spectrum_bound_values():
    k = 101
    for n in (1000, 10**6):
        lam1 = n / k**3
        expected = (4.0 / k**2) * (1.0 / k**3) * math.log(2.0 * k**3) ** 2
        assert broad_spectrum_bound(k, lam1, n) == pytest.approx(expected, rel=1e-12)
    # log(2n/lambda1) vanishes at lambda1 = 2n.
    assert broad_spectrum_bound(101, 2000.0, 1000) == 0.0
    # Depends on lambda1/n only.
    a = broad_spectrum_bound(101, 10.0, 1000)
    b = broad_spectrum_bound(101, 20.0, 2000)
    assert a == pytest.approx(b, rel=1e-12)


def test_broad_spectrum_bound_hypotheses():
    with pytest.raises(HypothesisError):
        broad_spectrum_bound(99, 1.0, 10)
    with pytest.raises(HypothesisError):
        broad_spectrum_bound(102, 1.0, 10)
    with pytest.raises(HypothesisError):
        broad_spectrum_bound(101, 1e-9, 1000)  # below n/k^3


def test_high_lambda1_bound_values():
    k, n = 101, 1000
    assert high_lambda1_bound(k, 16.0 * n / k, n) == pytest.approx(2.0, rel=1e-12)
    assert high_lambda1_bound(k, 32.0 * n / k, n) == pytest.approx(1.0, rel=1e-12)
    lam1 = 100.0 * math.log(k) / k * n
    expected = 4.0 * 2.0 ** (-100.0 * math.log(k) / 16.0)
    assert high_lambda1_bound(k, lam1, n) == pytest.approx(expected, rel=1e-12)
    # That regime indeed beats 4 k^-3.
    assert expected <= 4.0 * k**-3
    with pytest.raises(HypothesisError):
        high_lambda1_bound(k, 15.0 * n / k, n)


def test_main_bound_composition():
    assert main_bound(101) == 6400.0 * 101**-3 * math.log(101) ** 3
    assert main_bound(101) / cycle_lower_bound(101) > 1.0
    with pytest.raises(ValueError):
        main_bound(99)
    with pytest.raises(ValueError):
        main_bound(100)


def test_comparison_constants():
    assert csikvari_bound() == 3.0 - 2.0 * math.sqrt(2.0)
    assert gamma5_prime_value() == pytest.approx(0.17157252923534153, abs=1e-15)
    assert gamma5_prime_value() < csikvari_bound()


def test_cycle_bound_approaches_pi_squared():
    scaled = [cycle_lower_bound(k) * k**3 for k in (5, 51, 101, 201)]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    assert all(v < math.pi**2 for v in scaled)


def test_cycle_bound_below_main_bound():
    for k in range(5, 202, 2):
        assert cycle_lower_bound(k) <= main_bound(max(k, 101))


def test_certify_c101():
    report = certify(cycle_graph(101), 101)
    assert report.passed
    assert abs(report.measure - cycle_lower_bound(101)) < 1e-8
    assert report.case == 2
    assert not report.trivial
    names = [b.name for b in report.bounds]
    assert "main_bound" in names and "broad_spectrum" in names
    assert "high_lambda1" not in names  # lambda1 = 2 < 16n/k = 16
    applicable = [c for c in report.chain_checks if c.satisfied is not None]
    assert all(c.satisfied for c in applicable)
    # Certificate polynomial regime needs large lambda1; C_101 is outside it.
    assert any(
        c.satisfied is None and "certificate" in c.description
        for c in report.chain_checks
    )


def test_certify_bipartite_at_high_k():
    report = certify(complete_bipartite(3, 3), 101)
    assert report.passed
    assert abs(report.measure) < 1e-9
    assert report.case == 2
    cert = [c for c in report.chain_checks if "certificate" in c.description][0]
    assert cert.satisfied is True


def test_certify_case_three():
    # Dense bipartite graph at very large k: lambda1/n = 1/2 exceeds
    # 100 log(k)/k, activating the exponential-decay regime.
    k = 1501
    g = complete_bipartite(3, 3)
    report = certify(g, k)
    assert report.case == 3
    assert report.passed
    names = [b.name for b in report.bounds]
    assert "high_lambda1" in names


def test_certify_girth_violation():
    from oddspectrum import blow_up

    with pytest.raises(GirthViolationError) as exc_info:
        certify(cycle_graph(3), 5)
    assert exc_info.value.odd_girth == 3
    with pytest.raises(GirthViolationError):
        certify(blow_up(cycle_graph(3), 2), 5)


def test_certify_trivial_edgeless():
    report = certify(Graph(5), 101)
    assert report.trivial
    assert report.passed
    assert report.measure == 0.0
    assert all(c.satisfied is None for c in report.chain_checks)


def test_certify_validation():
    with pytest.raises(ValueError):
        certify(cycle_graph(5), 4)
    with pytest.raises(ValueError):
        certify(Graph(0), 5)


def test_certify_small_k_has_trace_chain():
    report = certify(cycle_graph(7), 7)
    assert report.case is None
    assert len(report.chain_checks) == 1
    chain = report.chain_checks[0]
    assert "Tr" in chain.description
    assert chain.satisfied and chain.left == 0.0


@pytest.mark.parametrize(
    ("g", "k", "left"),
    [(cycle_graph(3), 5, 6.0), (cycle_graph(5), 7, 10.0), (petersen_graph(), 9, 1680.0)],
    ids=["C3", "C5", "Petersen"],
)
def test_trace_chain_fails_when_the_girth_gate_lets_an_odd_cycle_through(
    monkeypatch, g, k, left
):
    # Behind a girth gate that lies, the chain still finds the odd walks:
    # left is Tr(A^(k-2)), the largest odd trace, and the report fails.
    monkeypatch.setattr("oddspectrum.bounds.odd_girth", lambda g: 99)
    report = certify(g, k)
    (chain,) = report.chain_checks
    assert (chain.left, chain.satisfied, report.passed) == (left, False, False)


def test_trace_chain_left_is_the_largest_odd_trace(monkeypatch):
    monkeypatch.setattr("oddspectrum.bounds.odd_girth", lambda g: 99)
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), p=0.5)
        for k in (3, 5, 7, 9):
            (chain,) = certify(g, k).chain_checks
            worst = max(abs(t) for t in trace_powers(g, k - 2)[::2])
            assert (chain.left, chain.satisfied) == (float(worst), worst == 0)


def test_certify_never_violated_on_small_corpus():
    # The bounds are theorems; a violation on any qualifying graph is a bug.
    for g in LabeledGraphs(4):
        for k in (3, 5):
            if odd_girth(g) >= k:
                assert certify(g, k).passed
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), p=0.4)
        for k in (3, 5, 7):
            if odd_girth(g) >= k:
                assert certify(g, k).passed


def test_certify_exactly_one_case_label():
    for g, k in [(cycle_graph(101), 101), (complete_bipartite(3, 3), 101), (Graph(2), 101)]:
        report = certify(g, k)
        lam1, n = report.lambda1, report.n
        if lam1 <= n / k**3:
            assert report.case == 1
        elif lam1 <= 100.0 * math.log(k) / k * n:
            assert report.case == 2
        else:
            assert report.case == 3


def test_report_serialization():
    report = certify(cycle_graph(5), 5)
    payload = json.loads(report.to_json())
    assert payload["graph"] == "Dhc"
    assert payload["odd_girth"] == 5
    assert payload["passed"] is True
    assert payload["measure"] == pytest.approx(0.0763932, abs=1e-6)

    bipartite = certify(complete_bipartite(2, 2), 5)
    assert json.loads(bipartite.to_json())["odd_girth"] == "inf"

    assert ",".join(CSV_HEADER).startswith("graph,n,odd_girth,lambda1")
    assert len(report.csv_row()) == len(bipartite.csv_row()) == len(CSV_HEADER)
    assert report.csv_row()[0] == "Dhc"


def test_report_failure_flag():
    good = BoundEntry(name="x", value=1.0, satisfied=True, slack=0.5)
    bad = BoundEntry(name="y", value=0.1, satisfied=False, slack=-0.2)
    skipped = ChainCheck(description="d", left=None, relation="<=", right=None, satisfied=None)
    report = CertificateReport(
        graph_id="g",
        n=3,
        odd_girth=5,
        k=5,
        lambda1=1.0,
        lambda_n=-1.0,
        measure=0.3,
        case=None,
        trivial=False,
        bounds=(good, bad),
        chain_checks=(skipped,),
    )
    assert not report.passed
    assert report.tightest_bound() is bad
    passing = CertificateReport(
        graph_id="g",
        n=3,
        odd_girth=5,
        k=5,
        lambda1=1.0,
        lambda_n=-1.0,
        measure=0.05,
        case=None,
        trivial=False,
        bounds=(good,),
        chain_checks=(skipped,),
    )
    assert passing.passed  # inapplicable chain entries do not fail a report
