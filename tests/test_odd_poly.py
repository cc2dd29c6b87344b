"""Chebyshev evaluation, and odd polynomials summed over real spectra."""

import math
import random

import pytest

from oddspectrum import (
    chebyshev_T,
    chebyshev_T_recurrence,
    complete_bipartite,
    cycle_graph,
    eigenvalues,
    petersen_graph,
)


def expanded(coeffs, x):
    """sum_i coeffs[i] * x^(2i + 1): an odd polynomial from its coefficients."""
    return sum(c * x ** (2 * i + 1) for i, c in enumerate(coeffs))


def test_evaluate_matches_chebyshev_t3():
    assert abs(chebyshev_T(3, 0.5) + 1.0) < 1e-12
    for x in (-1.7, -0.25, 0.0, 0.4, 2.0):
        assert abs(expanded((-3.0, 4.0), x) - chebyshev_T(3, x)) < 1e-12 * max(1, abs(x) ** 3)


def test_chebyshev_at_one_and_frozen_value():
    for j in range(100):
        assert chebyshev_T(j, 1.0) == pytest.approx(1.0, abs=1e-12)
    # Recurrence from (1, 2): 1, 2, 7, 26, 97, 362.
    assert chebyshev_T_recurrence(5, 2.0) == 362.0
    assert chebyshev_T(5, 2.0) == pytest.approx(362.0, rel=1e-12)
    with pytest.raises(ValueError):
        chebyshev_T(-1, 0.5)


def test_chebyshev_at_the_interval_ends_matches_the_recurrence():
    # The ends return (+-1)^j without running the recurrence, which gives
    # exactly these values; analyze at k = 10^7 + 1 asks for T_j(1.0).
    for j in range(3000):
        for x in (1.0, -1.0):
            assert chebyshev_T(j, x) == chebyshev_T_recurrence(j, x)
    assert chebyshev_T(10**7, 1.0) == 1.0
    assert chebyshev_T(10**7 + 1, -1.0) == -1.0


def test_chebyshev_past_the_float_range_is_infinite():
    # (x + sqrt(x^2 - 1))^j overflows here, and the reflection keeps the sign.
    assert chebyshev_T(10**11, 1 + 2**-52) == math.inf
    assert chebyshev_T(10**11 + 1, -(1 + 2**-52)) == -math.inf


def test_chebyshev_recurrence_vs_closed_form():
    xs = [1.0 + 9.0 * i / 99 for i in range(100)]
    for j in range(100):
        for x in xs:
            reference = chebyshev_T_recurrence(j, x)
            assert chebyshev_T(j, x) == pytest.approx(reference, rel=1e-10)


def test_chebyshev_lower_bound_and_parity():
    xs = [-1.0 + 4.0 * i / 400 for i in range(401)]
    for j in range(0, 100, 7):
        for x in xs:
            assert chebyshev_T(j, x) >= -1.0 - 1e-9
    rng = random.Random(4)
    for j in (1, 3, 7, 25, 99):
        for _ in range(50):
            x = rng.uniform(-4, 4)
            scale = max(1.0, abs(chebyshev_T(j, x)))
            assert chebyshev_T(j, -x) == pytest.approx(-chebyshev_T(j, x), abs=1e-9 * scale)


def test_spectrum_sum_examples():
    c7 = eigenvalues(cycle_graph(7))
    assert abs(math.fsum(v**3 for v in c7.values)) < 1e-6
    assert abs(math.fsum(expanded((1.0, -2.0, 1.0), v) for v in c7.values)) < 1e-6
    k3 = eigenvalues(cycle_graph(3))
    assert math.fsum(v**3 for v in k3.values) == pytest.approx(6.0, abs=1e-6)


def test_random_odd_polynomials_sum_to_zero_below_girth():
    # For odd girth >= k, any odd polynomial of degree <= k - 2 sums to zero
    # over the spectrum.
    rng = random.Random(55)
    cases = [(cycle_graph(7), 7), (cycle_graph(9), 9), (complete_bipartite(3, 4), 11), (petersen_graph(), 5)]
    for g, k in cases:
        s = eigenvalues(g)
        max_terms = (k - 2 + 1) // 2
        for _ in range(20):
            coeffs = tuple(rng.uniform(-2, 2) for _ in range(rng.randint(1, max_terms)))
            abs_coeffs = tuple(abs(c) for c in coeffs)
            scale = sum(expanded(abs_coeffs, abs(v)) for v in s.values)
            assert abs(math.fsum(expanded(coeffs, v) for v in s.values)) <= 1e-6 * max(1.0, scale)
