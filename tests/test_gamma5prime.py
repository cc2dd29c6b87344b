"""The k = 5 relaxation: objective search, power-sum bounds, and the
extremal construction."""

import math
import random

import pytest

from oddspectrum import (
    InfeasibleError,
    RelaxedSequence,
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
    power_sum_max_bruteforce,
    power_sum_max_closed_form,
    solve_simple,
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


def test_check_relaxed_constraints_rejects_violations():
    bad = RelaxedSequence((1.0, 1.0))  # sum is 2, not 0
    check = check_relaxed_constraints(bad, 5)
    assert not check.satisfied
    assert check.sum1 == pytest.approx(2.0)
    with pytest.raises(ValueError):
        check_relaxed_constraints(bad, 4)


def test_check_relaxed_constraints_zero_sequence():
    check = check_relaxed_constraints(RelaxedSequence((0.0,) * 6), 5)
    assert check.satisfied
    assert check.sum2 == 0.0
    assert RelaxedSequence((0.0,) * 6).measure == 0.0


def test_export_extremal_sequence():
    import json

    from oddspectrum import export_extremal_sequence

    n = math.ceil(n_epsilon(0.1))
    payload = json.loads(export_extremal_sequence(0.1, n))
    assert payload["epsilon"] == 0.1
    assert payload["n"] == n
    assert len(payload["values"]) == n
    assert payload["residuals"]["satisfied"] is True
    seq = extremal_sequence(0.1, n)
    assert payload["measure"] == seq.measure
    assert payload["values"] == list(seq.values)


def test_relaxed_sequence_sorts_on_construction():
    seq = RelaxedSequence((0.0, 2.0, -1.0))
    assert seq.values == (2.0, 0.0, -1.0)
    assert seq.lambda1 == 2.0 and seq.lambda_n == -1.0
    with pytest.raises(ValueError):
        RelaxedSequence(()).measure
