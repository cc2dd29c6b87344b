"""Spectra, exact traces and the measure, checked against power sums of the
spectrum and the independent oracles in util (Jacobi, signless Laplacian)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspectrum import (
    Spectrum,
    blow_up,
    complete_bipartite,
    cycle_graph,
    eigenvalues,
    odd_girth,
    petersen_graph,
)
from oddspectrum.graph_core import Graph
from util import jacobi_eigenvalues, random_graph, signless_laplacian_min_eig, trace_powers

PETERSEN_SPECTRUM = (3.0,) + (1.0,) * 5 + (-2.0,) * 4


def test_eigenvalues_single_edge():
    s = eigenvalues(complete_bipartite(1, 1))
    assert abs(s.values[0] - 1.0) < 1e-9
    assert abs(s.values[1] + 1.0) < 1e-9


def test_eigenvalues_c5_closed_form():
    s = eigenvalues(cycle_graph(5))
    expected = sorted((2.0 * math.cos(2.0 * math.pi * j / 5.0) for j in range(5)), reverse=True)
    for got, want in zip(s.values, expected):
        assert abs(got - want) < 1e-9
    assert abs(s.lambda1 - 2.0) < 1e-9
    assert abs(s.lambda_n + 2.0 * math.cos(math.pi / 5.0)) < 1e-9


def test_eigenvalues_petersen():
    s = eigenvalues(petersen_graph())
    for got, want in zip(s.values, PETERSEN_SPECTRUM):
        assert abs(got - want) < 1e-9
    # Characteristic polynomial oracle: every computed eigenvalue is a root
    # of (x - 3)(x - 1)^5 (x + 2)^4.
    for lam in s.values:
        assert abs((lam - 3.0) * (lam - 1.0) ** 5 * (lam + 2.0) ** 4) < 1e-6


def test_eigenvalues_large_cycle_and_blow_up_closed_form():
    # The 1e-9 accuracy the docstring claims, past the small graphs above.
    c801 = eigenvalues(cycle_graph(801)).values
    expected = sorted((2.0 * math.cos(2.0 * math.pi * j / 801) for j in range(801)), reverse=True)
    assert max(abs(a - b) for a, b in zip(c801, expected)) < 1e-9

    blown = eigenvalues(blow_up(cycle_graph(101), 3)).values
    expected = sorted(
        [3.0 * 2.0 * math.cos(2.0 * math.pi * j / 101) for j in range(101)] + [0.0] * 202,
        reverse=True,
    )
    assert len(blown) == len(expected) == 303
    assert max(abs(a - b) for a, b in zip(blown, expected)) < 1e-9


def cycle_spectrum(n):
    return [2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n)]


@pytest.mark.parametrize(
    "graph, spectrum",
    [(cycle_graph(n), cycle_spectrum(n)) for n in (3, 5, 101, 401, 801)]
    + [
        (complete_bipartite(7, 9), [math.sqrt(63), -math.sqrt(63)] + [0.0] * 14),
        (petersen_graph(), list(PETERSEN_SPECTRUM)),
    ],
    ids=["C3", "C5", "C101", "C401", "C801", "K7,9", "Petersen"],
)
def test_eigenvalues_within_1e9_of_closed_form(graph, spectrum):
    # The accuracy eigenvalues() promises, on every eigenvalue.
    got = eigenvalues(graph).values
    assert len(got) == graph.n
    assert max(abs(a - b) for a, b in zip(got, sorted(spectrum, reverse=True))) < 1e-9


def test_eigenvalues_degenerate_graphs():
    assert eigenvalues(Graph(0)).values == ()
    s = eigenvalues(Graph(4))
    assert s.values == (0.0, 0.0, 0.0, 0.0)
    assert s.measure == 0.0


def test_spectrum_sorted_and_traceless():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10))
        s = eigenvalues(g)
        assert all(s.values[i] >= s.values[i + 1] for i in range(s.n - 1))
        assert abs(math.fsum(s.values)) < 1e-8 * max(1, s.n)
        assert s.lambda1 >= abs(s.lambda_n) - 1e-9  # Perron-Frobenius


def test_spectrum_constructor_sorts():
    s = Spectrum((1.0, 3.0, -2.0))
    assert s.values == (3.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        Spectrum(()).lambda1


def test_spectrum_from_runs():
    s = Spectrum.from_runs(((3.0, 2), (1.0, 1), (1.0, 2), (0.0, 1), (-0.0, 2), (-2.0, 1)))
    # Equal neighbours merge only when they are the same float.
    assert repr(s.runs) == "((3.0, 2), (1.0, 3), (0.0, 1), (-0.0, 2), (-2.0, 1))"
    assert (s.n, s.lambda1, s.lambda_n, s.measure) == (9, 3.0, -2.0, 1.0 / 9.0)
    assert repr(s.values) == "(3.0, 3.0, 1.0, 1.0, 1.0, 0.0, -0.0, -0.0, -2.0)"
    assert s == Spectrum(s.values)
    assert Spectrum.from_runs(()).n == 0
    with pytest.raises(ValueError):
        Spectrum.from_runs(()).lambda_n
    with pytest.raises(AttributeError):
        s.runs = ()


@pytest.mark.parametrize(
    "runs",
    [((1.0, 1), (2.0, 1)), ((-0.0, 1), (1e-300, 1)), ((1.0, 0),), ((1.0, -1),), ((1.0, 1.5),)],
)
def test_spectrum_from_runs_rejects_bad_runs(runs):
    with pytest.raises(ValueError, match="run"):
        Spectrum.from_runs(runs)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_spectrum_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        Spectrum((1.0, bad, -1.0))
    with pytest.raises(ValueError, match="finite"):
        Spectrum((bad,))
    with pytest.raises(ValueError, match="finite"):
        Spectrum.from_runs(((2.0, 1), (bad, 3)))


_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.5, -1.0)),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(_FLOATS, max_size=40))
def test_spectrum_values_round_trip_bit_for_bit(values):
    s = Spectrum(values)
    # repr tells -0.0 from 0.0; sorted() keeps equal floats in input order.
    assert repr(s.values) == repr(tuple(sorted(values, reverse=True)))
    assert repr(Spectrum.from_runs(s.runs).values) == repr(s.values)
    assert repr(Spectrum(s.values).runs) == repr(s.runs)
    assert s.n == len(values) == sum(c for _, c in s.runs)


def test_jacobi_agrees_with_lapack():
    rng = random.Random(71)
    graphs = [cycle_graph(10), petersen_graph()]
    graphs += [random_graph(rng, rng.randint(2, 12)) for _ in range(15)]
    for g in graphs:
        direct = eigenvalues(g).values
        jacobi = jacobi_eigenvalues(g).values
        assert max(abs(a - b) for a, b in zip(direct, jacobi)) < 1e-9


def test_trace_power_examples():
    triangle = cycle_graph(3)
    assert trace_powers(triangle, 3)[-1] == 6
    assert isinstance(trace_powers(triangle, 3)[-1], int)
    assert trace_powers(cycle_graph(5), 3)[-1] == 0
    assert trace_powers(complete_bipartite(1, 1), 2)[-1] == 2
    with pytest.raises(ValueError):
        trace_powers(triangle, 0)


def test_trace_powers_prefix_consistency():
    g = petersen_graph()
    all_traces = trace_powers(g, 6)
    assert all_traces == [trace_powers(g, j)[-1] for j in range(1, 7)]


def test_power_sum_matches_exact_traces():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10))
        s = eigenvalues(g)
        for j in range(1, 7):
            exact = trace_powers(g, j)[-1]
            power_sum = math.fsum(v**j for v in s.values)
            assert abs(power_sum - exact) <= 1e-6 * max(1, abs(exact))


def test_power_sum_examples():
    edge = eigenvalues(complete_bipartite(1, 1))
    assert abs(math.fsum(v**3 for v in edge.values)) < 1e-12
    c5 = eigenvalues(cycle_graph(5))
    assert abs(math.fsum(v**2 for v in c5.values) - 10.0) < 1e-9
    petersen = eigenvalues(petersen_graph())
    petersen_t3 = trace_powers(petersen_graph(), 3)[-1]
    assert abs(math.fsum(v**3 for v in petersen.values) - petersen_t3) < 1e-6
    assert petersen_t3 == 0


def test_degree_sum_bound():
    # 2e(G) = sum of squared eigenvalues <= n * lambda1.
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9))
        s = eigenvalues(g)
        two_e = math.fsum(v**2 for v in s.values)
        assert abs(two_e - 2 * g.m) < 1e-6
        assert two_e <= g.n * s.lambda1 + 1e-8


def test_trace_identities_examples():
    # Odd girth >= k iff Tr(A^j) = 0 for every odd j <= k - 2.
    assert not any(trace_powers(cycle_graph(5), 3)[::2])
    assert any(trace_powers(cycle_graph(3), 3)[::2])
    assert not any(trace_powers(complete_bipartite(3, 3), 97)[::2])


def test_trace_identities_iff_odd_girth():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), p=0.4)
        girth = odd_girth(g)
        for k in (3, 5, 7):
            assert (not any(trace_powers(g, k - 2)[::2])) == (girth >= k)


def test_bipartiteness_measure_examples():
    assert abs(eigenvalues(complete_bipartite(3, 3)).measure) < 1e-9
    c5 = eigenvalues(cycle_graph(5)).measure
    assert abs(c5 - (2.0 / 5.0) * (1.0 - math.cos(math.pi / 5.0))) < 1e-9
    assert abs(eigenvalues(petersen_graph()).measure - 0.1) < 1e-9
    with pytest.raises(ValueError):
        Spectrum(()).measure


def test_signless_laplacian_examples():
    assert abs(signless_laplacian_min_eig(complete_bipartite(3, 3))) < 1e-9
    c5 = signless_laplacian_min_eig(cycle_graph(5))
    assert abs(c5 - (2.0 - 2.0 * math.cos(math.pi / 5.0))) < 1e-8
    assert abs(signless_laplacian_min_eig(petersen_graph()) - 1.0) < 1e-8
    with pytest.raises(ValueError):
        signless_laplacian_min_eig(Graph(0))


def test_regular_graph_identity():
    # q_n = lambda1 + lambda_n on regular graphs.
    for k in range(3, 52):
        g = cycle_graph(k)
        s = eigenvalues(g)
        assert abs(signless_laplacian_min_eig(g) - (s.lambda1 + s.lambda_n)) < 1e-8
    g = petersen_graph()
    s = eigenvalues(g)
    assert abs(signless_laplacian_min_eig(g) - (s.lambda1 + s.lambda_n)) < 1e-8


def test_blow_up_scales_spectrum():
    rng = random.Random(29)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 6))
        base = eigenvalues(g)
        for m in (2, 3):
            big = eigenvalues(blow_up(g, m))
            expected = sorted(
                [m * v for v in base.values] + [0.0] * ((m - 1) * g.n), reverse=True
            )
            assert max(abs(a - b) for a, b in zip(big.values, expected)) < 1e-8
            assert abs(big.measure - base.measure) < 1e-8


def test_jacobi_converges_on_odd_cycles():
    # Cycles on which an off-diagonal norm taken as ||A||^2 - ||diag||^2
    # stalls at a rounding floor above the Jacobi stopping target.
    for k in (19, 31, 55, 101):
        g = cycle_graph(k)
        direct = eigenvalues(g).values
        jacobi = jacobi_eigenvalues(g).values
        assert max(abs(a - b) for a, b in zip(direct, jacobi)) < 1e-9
