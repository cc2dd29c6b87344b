"""The factored odd polynomial, Chebyshev evaluation, and the certificate polynomial."""

import math
import random

import pytest

from oddspectrum import (
    FactoredOddPolynomial,
    HypothesisError,
    Spectrum,
    chebyshev_T,
    chebyshev_T_recurrence,
    complete_bipartite,
    cycle_graph,
    eigenvalues,
    high_lambda1_polynomial,
    petersen_graph,
)


def expanded(coeffs, x):
    """sum_i coeffs[i] * x^(2i + 1): an odd polynomial from its coefficients."""
    return sum(c * x ** (2 * i + 1) for i, c in enumerate(coeffs))


def test_evaluate_monomial():
    cube = FactoredOddPolynomial(exponent=3, roots=())
    assert cube.evaluate(2.0) == 8.0
    assert cube.evaluate(0.0) == 0.0
    assert cube.degree == 3
    with pytest.raises(ValueError):
        FactoredOddPolynomial(exponent=4, roots=())


def test_evaluate_matches_chebyshev_t3():
    assert abs(chebyshev_T(3, 0.5) + 1.0) < 1e-12
    for x in (-1.7, -0.25, 0.0, 0.4, 2.0):
        assert abs(expanded((-3.0, 4.0), x) - chebyshev_T(3, x)) < 1e-12 * max(1, abs(x) ** 3)


def test_odd_symmetry():
    rng = random.Random(97)
    for _ in range(20):
        p = FactoredOddPolynomial(
            exponent=rng.randrange(1, 12, 2),
            roots=tuple(rng.uniform(-3, 3) for _ in range(rng.randint(0, 3))),
        )
        for _ in range(50):
            x = rng.uniform(-5, 5)
            assert p.evaluate(-x) == pytest.approx(-p.evaluate(x), abs=1e-10)


def test_factored_polynomial_contract():
    factored = FactoredOddPolynomial(exponent=3, roots=(1.0,))
    coeffs = (0.0, 1.0, -2.0, 1.0)  # x^3 (x^2 - 1)^2
    for x in (-2.0, -1.0, -0.3, 0.0, 0.5, 1.0, 3.0):
        assert factored.evaluate(x) == pytest.approx(expanded(coeffs, x), rel=1e-12, abs=1e-12)
    assert factored.degree == 7
    assert factored.evaluate(1.0) == 0.0 and factored.evaluate(-1.0) == 0.0
    with pytest.raises(ValueError):
        FactoredOddPolynomial(exponent=2, roots=())


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


def test_threshold_partition_examples():
    # d_minus, the count of eigenvalues <= -lambda1/2, is the number of roots.
    assert len(high_lambda1_polynomial(Spectrum((2.0, 0.0, 0.0, -2.0)), 7).roots) == 1
    assert len(high_lambda1_polynomial(eigenvalues(petersen_graph()), 21).roots) == 4
    assert len(high_lambda1_polynomial(eigenvalues(cycle_graph(5)), 11).roots) == 2

    with pytest.raises(ValueError):
        high_lambda1_polynomial(Spectrum((0.0, 0.0)), 7)


def test_threshold_partition_counting_invariants():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if not edges:
            continue
        from oddspectrum import Graph

        s = eigenvalues(Graph(n, edges))
        p = high_lambda1_polynomial(s, 4 * n + 3)  # exponent >= 1 for any d_minus <= n
        assert len(p.roots) <= 4.0 * n / s.lambda1 + 1e-9


def test_certificate_polynomial_empty_product():
    p = high_lambda1_polynomial(Spectrum((2.0, 0.5, 0.1)), 7)
    assert p == FactoredOddPolynomial(exponent=5, roots=())  # x^5


def test_certificate_polynomial_expanded_example():
    p = high_lambda1_polynomial(Spectrum((2.0, 0.0, -1.0)), 9)
    assert p == FactoredOddPolynomial(exponent=3, roots=(1.0,))  # x^3 (x^2 - 1)^2
    assert p.degree == 7
    for x in (-2.0, -1.0, -0.3, 0.0, 0.5, 1.0, 3.0):
        assert p.evaluate(x) == pytest.approx(expanded((0.0, 1.0, -2.0, 1.0), x), rel=1e-12, abs=1e-12)
    assert p.evaluate(1.0) == 0.0 and p.evaluate(-1.0) == 0.0


def test_certificate_polynomial_roots_vanish():
    s = eigenvalues(petersen_graph())
    p = high_lambda1_polynomial(s, 21)  # d_minus = 4, exponent 3, degree 19
    assert isinstance(p, FactoredOddPolynomial)
    assert p.degree == 19
    for root in s.values[-4:]:
        assert p.evaluate(root) == 0.0


def test_certificate_polynomial_factored_for_large_k():
    s = Spectrum((2.0,) + (0.0,) * 6 + (-1.0, -1.0))
    p = high_lambda1_polynomial(s, 101)
    assert isinstance(p, FactoredOddPolynomial)
    assert p.exponent == 101 - 4 * 2 - 2
    assert p.degree == 99
    assert p.evaluate(1.0) == 0.0 and p.evaluate(-1.0) == 0.0


def test_certificate_polynomial_hypothesis_gate():
    with pytest.raises(HypothesisError):
        high_lambda1_polynomial(eigenvalues(cycle_graph(101)), 101)
    with pytest.raises(ValueError):
        high_lambda1_polynomial(Spectrum((2.0, -1.0)), 4)


def test_certificate_polynomial_interval_envelope():
    # |p(x)| <= x^2 lambda1^(k-4) 2^(-k + 4 d_minus + 4) on [-mu, mu].
    for s, k in [
        (eigenvalues(petersen_graph()), 21),
        (Spectrum((2.0, 0.0, -1.0)), 9),
    ]:
        p = high_lambda1_polynomial(s, k)
        mu, d_minus = s.lambda1 / 2.0, len(p.roots)
        cap = s.lambda1 ** (k - 4) * 2.0 ** (-k + 4 * d_minus + 4)
        for i in range(-200, 201):
            x = mu * i / 200.0
            assert abs(p.evaluate(x)) <= x * x * cap * (1.0 + 1e-9) + 1e-12
