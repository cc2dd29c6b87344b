"""The k = 5 relaxation: objective search, power-sum bounds, and the
extremal construction."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddspectrum.gamma5prime as gamma5prime
from oddspectrum import (
    InfeasibleError,
    Spectrum,
    UnsupportedSizeError,
    check_relaxed_constraints,
    complete_bipartite,
    csikvari_bound,
    cycle_graph,
    eigenvalues,
    extremal_sequence,
    f_of_s,
    gamma5_prime_value,
    maximize_objective,
    n_epsilon,
    objective_g,
    petersen_graph,
    power_sum_max_closed_form,
    solve_simple,
)
from oddspectrum.gamma5prime import EPSILON_FLOOR, interval_bound, subrange_bound
from util import (
    full_grid_max,
    power_sum_max_bruteforce,
    random_graph,
    reference_check_relaxed_constraints,
)


def test_f_of_s_values():
    assert f_of_s(14.0) == 14.0
    assert f_of_s(1.25) == pytest.approx(1.125, abs=1e-15)
    assert f_of_s(0.81) == pytest.approx(0.729, abs=1e-12)
    with pytest.raises(ValueError):
        f_of_s(-0.1)


def test_f_of_s_below_identity():
    for i in range(1, 400):
        s = i / 13.0
        fs = f_of_s(s)
        # f_of_s is the alpha = 3/2 case of the closed form.
        assert fs == power_sum_max_closed_form(s, 1.5)
        assert fs <= s + 1e-15
        if abs(s - round(s)) > 1e-9:
            assert fs < s
    # Non-decreasing along a fine grid.
    grid = [f_of_s(i / 200.0) for i in range(1, 4000)]
    assert all(a <= b + 1e-12 for a, b in zip(grid, grid[1:]))


def test_objective_values():
    assert objective_g(1.0) == 0.0
    assert objective_g(14.0) == pytest.approx(gamma5_prime_value(), abs=1e-15)
    for m in range(2, 30):
        expected = (1.0 - m ** (-1.0 / 3.0)) / (1.0 + m ** (1.0 / 3.0))
        assert objective_g(float(m)) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        objective_g(0.5)


def test_objective_dominated_by_unrelaxed_form():
    # Replacing f(s) by s gives the classical expression, which tops out at
    # 3 - 2 sqrt(2).
    for i in range(100, 4000, 7):
        s = i / 100.0
        unrelaxed = (1.0 - s ** (-1.0 / 3.0)) / (1.0 + s ** (1.0 / 3.0))
        assert objective_g(s) <= unrelaxed + 1e-12
        assert unrelaxed <= csikvari_bound() + 1e-12


def test_maximize_objective():
    s_star, value = maximize_objective(100.0, 1000)
    assert abs(s_star - 14.0) <= 1e-6
    assert value == pytest.approx(gamma5_prime_value(), abs=1e-10)
    assert value < csikvari_bound()
    assert objective_g(13.0) < value and objective_g(15.0) < value


def test_maximize_objective_validation():
    with pytest.raises(ValueError):
        maximize_objective(10.0, 1000)
    with pytest.raises(ValueError):
        maximize_objective(100.0, 50)
    for s_max in (math.nan, math.inf):
        with pytest.raises(ValueError):
            maximize_objective(s_max, 1000)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    s_max=st.one_of(
        st.floats(min_value=15.0, max_value=60.0),
        st.integers(min_value=15, max_value=60).map(float),
    ),
    samples=st.integers(min_value=100, max_value=500),
)
def test_maximize_objective_equals_full_grid(s_max, samples):
    assert maximize_objective(s_max, samples) == full_grid_max(s_max, samples)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    s_max=st.floats(min_value=15.0, max_value=40.0).filter(lambda s: s != math.floor(s)),
    samples=st.integers(min_value=100, max_value=3000),
)
def test_maximize_objective_equals_full_grid_fine_grids(s_max, samples):
    assert maximize_objective(s_max, samples) == full_grid_max(s_max, samples)


def test_maximize_objective_equals_full_grid_on_benchmark_grid():
    assert maximize_objective(1000.0, 2000) == full_grid_max(1000.0, 2000)


def _evaluation_budget(monkeypatch, budget):
    calls = 0

    def counted(s):
        nonlocal calls
        calls += 1
        assert calls <= budget, "objective search made too many evaluations"
        return objective_g(s)

    monkeypatch.setattr(gamma5prime, "objective_g", counted)


def test_maximize_objective_huge_s_max_stops_early(monkeypatch):
    # The search stops at s = 26; a scan that walked the 1e300 intervals
    # would trip the evaluation budget instead of hanging.
    _evaluation_budget(monkeypatch, 30 * 101)
    result = maximize_objective(1e300, 100)
    assert result == (14.0, objective_g(14.0))
    assert result == full_grid_max(30.0, 100)


def test_huge_sample_count_costs_few_evaluations(monkeypatch):
    # A sweep would make 2.5e10 evaluations; bisection makes about 130.
    _evaluation_budget(monkeypatch, 2000)
    assert maximize_objective(1000.0, 10**9) == (14.0, objective_g(14.0))


def test_interval_bound_dominates_objective():
    for m in range(1, 2001):
        bound = interval_bound(m)
        for i in range(1001):
            assert objective_g(m + i / 1000) <= bound, (m, i)


def test_subrange_bound_dominates_objective():
    rng = random.Random(15)
    for _ in range(3000):
        m = rng.randint(1, 2000)
        s_lo, s_hi = sorted(m + rng.random() ** rng.choice((1, 4)) for _ in range(2))
        bound = subrange_bound(s_lo, s_hi)
        assert bound <= interval_bound(m)
        for i in range(51):
            s = min(s_lo + (s_hi - s_lo) * i / 50, s_hi)
            assert objective_g(s) <= bound, (s_lo, s_hi, s)


def test_interval_bound_decreases_from_ten():
    previous = interval_bound(10)
    for m in range(11, 10**6 + 1):
        current = interval_bound(m)
        assert current < previous, m
        previous = current


def test_power_sum_closed_form():
    assert power_sum_max_closed_form(3.0, 1.5) == 3.0
    assert power_sum_max_closed_form(2.25, 1.5) == pytest.approx(2.125, abs=1e-15)
    assert power_sum_max_closed_form(0.5, 2.0) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        power_sum_max_closed_form(2.0, 1.0)
    with pytest.raises(ValueError):
        power_sum_max_closed_form(-1.0, 2.0)


def test_power_sum_bruteforce_examples():
    assert power_sum_max_bruteforce(3, 2.5, 1.5, 200) == pytest.approx(
        2.0 + 0.5**1.5, abs=1e-4
    )
    assert power_sum_max_bruteforce(2, 2.0, 1.5, 200) == pytest.approx(2.0, abs=1e-12)
    assert power_sum_max_bruteforce(4, 0.0, 2.0, 100) == 0.0
    with pytest.raises(InfeasibleError):
        power_sum_max_bruteforce(2, 2.5, 1.5, 100)
    with pytest.raises(ValueError):
        power_sum_max_bruteforce(5, 2.0, 1.5, 100)
    with pytest.raises(ValueError):
        power_sum_max_bruteforce(3, 2.0, 1.5, 50)


def test_power_sum_bruteforce_vs_closed_form():
    for ell in (2, 3, 4):
        for alpha in (1.5, 2.0, 3.0):
            for s in (0.3, 1.0, 1.7, 2.25):
                if s > ell:
                    continue
                brute = power_sum_max_bruteforce(ell, s, alpha, 150)
                closed = power_sum_max_closed_form(s, alpha)
                assert brute <= closed + 1e-4
                assert brute == pytest.approx(closed, abs=1e-4)


def test_power_sum_closed_form_attained_by_canonical_config():
    # (1, ..., 1, frac, 0, ..., 0) realizes the closed form.
    for s, alpha in ((2.25, 1.5), (1.7, 2.0), (3.0, 1.5)):
        m = math.floor(s)
        config = [1.0] * m + [s - m] + [0.0] * 3
        assert math.fsum(x**alpha for x in config) == pytest.approx(
            power_sum_max_closed_form(s, alpha), rel=1e-12
        )


def test_solve_simple_endpoints():
    assert solve_simple(1, 2.0, 8.0) == (2.0,)
    xs = solve_simple(4, 1.0, 1.0)
    assert xs[0] == pytest.approx(1.0, abs=1e-12)
    assert all(abs(x) < 1e-12 for x in xs[1:])


def test_solve_simple_interior():
    xs = solve_simple(2, 2.0, 2.0)
    assert math.fsum(xs) == pytest.approx(2.0, abs=1e-12)
    assert math.fsum(x**3 for x in xs) == pytest.approx(2.0, abs=1e-10)
    assert all(x >= 0 for x in xs)


def test_solve_simple_infeasible():
    with pytest.raises(InfeasibleError):
        solve_simple(2, 1.0, 2.0)  # d > c^3
    with pytest.raises(InfeasibleError):
        solve_simple(2, 2.0, 1.0)  # d < c^3 / n^2
    with pytest.raises(ValueError):
        solve_simple(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_simple(2, -1.0, 1.0)


def test_solve_simple_random_triples():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 50)
        c = rng.uniform(0.0, 20.0)
        lo, hi = c**3 / n**2, c**3
        d = lo + (hi - lo) * rng.random()
        xs = solve_simple(n, c, d)
        assert len(xs) == n
        assert all(x >= 0.0 for x in xs)
        assert abs(math.fsum(xs) - c) <= 1e-12 * max(1.0, c)
        assert abs(math.fsum(x**3 for x in xs) - d) <= 1e-10 * max(1.0, c**3)


def test_n_epsilon():
    expected = 15.0 + math.sqrt((14.0 - 13.99 ** (1.0 / 3.0)) ** 3 / 0.01)
    assert n_epsilon(0.01) == pytest.approx(expected, rel=1e-14)
    assert n_epsilon(0.001) > n_epsilon(0.01) > n_epsilon(0.1)
    for eps in (0.9, 0.5, 0.001):
        assert math.isfinite(n_epsilon(eps))
    with pytest.raises(ValueError):
        n_epsilon(0.0)
    with pytest.raises(ValueError):
        n_epsilon(1.0)


def test_extremal_sequence_construction():
    for eps in (0.1, 0.01):
        n = math.ceil(n_epsilon(eps))
        seq = extremal_sequence(eps, n)
        assert seq.n == n
        assert all(a >= b for a, b in zip(seq.values, seq.values[1:]))
        expected = ((14.0 - eps) ** (2.0 / 3.0) - (14.0 - eps) ** (1.0 / 3.0)) / (
            14.0 ** (2.0 / 3.0) + 14.0 + math.sqrt(14.0 * eps)
        )
        assert seq.measure == pytest.approx(expected, abs=1e-10)
        check = check_relaxed_constraints(seq, 5)
        assert check.satisfied
        assert abs(check.sum1) <= check.tolerance
        assert abs(check.sum3) <= check.tolerance
        assert check.sum2 <= check.n_lambda1 + check.tolerance


def test_extremal_sequence_needs_enough_room():
    with pytest.raises(InfeasibleError) as exc_info:
        extremal_sequence(0.01, 100)
    assert str(math.ceil(n_epsilon(0.01))) in str(exc_info.value)
    with pytest.raises(ValueError):
        extremal_sequence(1.5, 1000)
    with pytest.raises(UnsupportedSizeError):  # the size threshold overflows
        extremal_sequence(1e-320, 10)


def test_extremal_sequence_above_the_old_length_limit():
    # n = 12,477,216 entries, past the 4,000,000 that tuples of entries
    # allowed: four runs, never expanded.
    n = math.ceil(n_epsilon(1e-11))
    assert n == 12_477_216
    seq = extremal_sequence(1e-11, n)
    assert seq.n == n
    assert [c for _, c in seq.runs] == [1, 1, n - 16, 14]
    assert seq._values is None
    check = check_relaxed_constraints(seq, 5)
    assert check.satisfied
    assert seq._values is None
    assert 0 < gamma5_prime_value() - seq.measure < 1.1e-7


def test_n_epsilon_floor():
    assert 14.0 - EPSILON_FLOOR == 14.0
    assert 14.0 - math.nextafter(EPSILON_FLOOR, 1.0) < 14.0
    for eps in (1e-16, EPSILON_FLOOR, 1e-300):
        with pytest.raises(ValueError, match="2\\^-50"):
            n_epsilon(eps)
    assert n_epsilon(math.nextafter(EPSILON_FLOOR, 1.0)) > 1e9
    assert 3.9e8 < n_epsilon(1e-14) < 4e8
    seq = extremal_sequence(1e-14, math.ceil(n_epsilon(1e-14)))
    assert check_relaxed_constraints(seq, 5).satisfied


def test_extremal_measures_increase_toward_limit():
    measures = []
    for eps in (0.1, 0.01, 0.001):
        n = math.ceil(n_epsilon(eps))
        measures.append(extremal_sequence(eps, n).measure)
    assert measures[0] < measures[1] < measures[2] < gamma5_prime_value()


def test_lower_bound_sandwiched_by_upper_bound():
    _, upper = maximize_objective(50.0, 200)
    for eps in (0.1, 0.01):
        n = math.ceil(n_epsilon(eps))
        measure = extremal_sequence(eps, n).measure
        assert measure <= gamma5_prime_value() <= upper + 1e-9


def test_check_relaxed_constraints_on_graph_spectra():
    assert check_relaxed_constraints(eigenvalues(cycle_graph(5)), 5).satisfied
    assert check_relaxed_constraints(eigenvalues(cycle_graph(9)), 9).satisfied
    assert check_relaxed_constraints(eigenvalues(complete_bipartite(3, 3)), 99).satisfied


def _check_outcome(check, seq, k):
    try:
        return repr(check(seq, k))  # repr tells -0.0 from 0.0
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def assert_check_matches_reference(seq, k):
    assert _check_outcome(check_relaxed_constraints, seq, k) == _check_outcome(
        reference_check_relaxed_constraints, seq, k
    )


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001, 1e-4, 1e-5, 1e-6, 1e-7])
def test_check_relaxed_constraints_matches_reference_on_extremal_sequences(eps):
    seq = extremal_sequence(eps, math.ceil(n_epsilon(eps)))
    check = check_relaxed_constraints(seq, 5)
    assert repr(check) == repr(reference_check_relaxed_constraints(seq, 5))
    assert check.satisfied


def test_check_relaxed_constraints_matches_reference_on_graph_spectra():
    # Eigenvalues rarely repeat bit for bit: the runs are mostly of length 1.
    rng = random.Random(7)
    graphs = [cycle_graph(5), petersen_graph(), cycle_graph(101)]
    graphs += [random_graph(rng, rng.randint(1, 40), rng.random()) for _ in range(30)]
    for g in graphs:
        for k in (3, 5, 9):
            assert_check_matches_reference(eigenvalues(g), k)


_FLOAT_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.5, -1.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    pool=st.lists(
        st.one_of(
            st.sampled_from(_FLOAT_SPECIALS),
            st.floats(min_value=-1e-300, max_value=1e-300),
            st.floats(min_value=-100.0, max_value=100.0),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=5,
    ),
    picks=st.lists(st.integers(min_value=0, max_value=4), max_size=60),
    k=st.sampled_from([3, 5, 7, 9]),
)
def test_check_relaxed_constraints_matches_reference_with_repeats(pool, picks, k):
    seq = Spectrum(tuple(pool[i % len(pool)] for i in picks))
    assert_check_matches_reference(seq, k)


@st.composite
def descending_runs(draw):
    """Up to five (value, count) runs, values non-increasing and often
    repeated, with up to about 1e5 entries in all."""
    pool = draw(st.lists(
        st.one_of(
            st.sampled_from((0.0, -0.0)),
            st.sampled_from(_FLOAT_SPECIALS),
            st.floats(min_value=-1e-300, max_value=1e-300),
            st.floats(min_value=-100.0, max_value=100.0),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=3,
    ))
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    values.sort(reverse=True)  # equal floats, +-0.0 included, keep their order
    counts = st.one_of(st.integers(1, 3), st.integers(10_000, 20_000))
    return [(v, draw(counts)) for v in values]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(runs=descending_runs(), k=st.sampled_from([3, 5, 7, 9]))
def test_check_relaxed_constraints_on_runs_matches_reference_on_entries(runs, k):
    seq = Spectrum.from_runs(runs)
    entries = Spectrum([v for v, c in runs for _ in range(c)])
    assert repr(seq.runs) == repr(entries.runs)
    assert _check_outcome(check_relaxed_constraints, seq, k) == _check_outcome(
        reference_check_relaxed_constraints, entries, k
    )
    assert seq._values is None  # the check never expanded the runs


def test_check_relaxed_constraints_overflowing_run_raises():
    # The run's total 2e308 overflows: fsum's OverflowError, never inf.
    with pytest.raises(OverflowError):
        check_relaxed_constraints(Spectrum((1e308, 1e308)), 5)
    with pytest.raises(OverflowError):
        reference_check_relaxed_constraints(Spectrum((1e308, 1e308)), 5)


def test_check_relaxed_constraints_rejects_violations():
    bad = Spectrum((1.0, 1.0))  # sum is 2, not 0
    check = check_relaxed_constraints(bad, 5)
    assert not check.satisfied
    assert check.sum1 == pytest.approx(2.0)
    with pytest.raises(ValueError):
        check_relaxed_constraints(bad, 4)
    # Odd sums vanish; only the quadratic budget fails: sum2 = 8 > n*lambda1 = 4.
    over_budget = check_relaxed_constraints(Spectrum((2.0, -2.0)), 5)
    assert not over_budget.satisfied
    assert over_budget.odd_sums == ((1, 0.0), (3, 0.0))
    assert (over_budget.sum2, over_budget.n_lambda1) == (8.0, 4.0)


def test_check_relaxed_constraints_tolerance_follows_the_sums_scale():
    # The eps = 1e-10 sequence (n = 3,945,653) with its middle run shifted
    # until sum1 = 1.3e4, 1e-3 of sum1's scale, the sum of |x| (1.3e7). A
    # tolerance of 1e-9 * n * lambda1^2 (5.3e9 here) let it pass.
    seq = extremal_sequence(1e-10, math.ceil(n_epsilon(1e-10)))
    assert check_relaxed_constraints(seq, 5).satisfied
    runs = list(seq.runs)
    x, c = runs[2]
    runs[2] = (x + 1.3e4 / c, c)
    check = check_relaxed_constraints(Spectrum.from_runs(runs), 5)
    assert check.sum1 == pytest.approx(1.3e4)
    assert check.tolerance == pytest.approx(1e-9 * sum(abs(x) * c for x, c in runs))
    assert not check.satisfied


def test_check_relaxed_constraints_zero_sequence():
    check = check_relaxed_constraints(Spectrum((0.0,) * 6), 5)
    assert check.satisfied
    assert check.sum2 == 0.0
    assert Spectrum((0.0,) * 6).measure == 0.0


def test_relaxed_sequence_sorts_on_construction():
    seq = Spectrum((0.0, 2.0, -1.0))
    assert seq.values == (2.0, 0.0, -1.0)
    assert seq.lambda1 == 2.0 and seq.lambda_n == -1.0
    with pytest.raises(ValueError):
        Spectrum(()).measure
