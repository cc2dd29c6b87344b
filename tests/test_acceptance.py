"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is pinned to its stated tolerance and runtime budget.
"""

import math
import random
import time

from oddspectrum import (
    GirthViolationError,
    LabeledGraphs,
    blow_up,
    broad_spectrum_bound,
    certify,
    chebyshev_T,
    chebyshev_T_recurrence,
    check_relaxed_constraints,
    csikvari_bound,
    cycle_graph,
    eigenvalues,
    extremal_sequence,
    gamma5_prime_value,
    high_lambda1_bound,
    main_bound,
    maximize_objective,
    n_epsilon,
    odd_girth,
    petersen_graph,
    power_sum_max_closed_form,
    solve_simple,
)
from oddspectrum.scan_kernel import graph_adjacency, odd_walk_free
from util import (
    power_sum_max_bruteforce,
    random_graph,
    signless_laplacian_min_eig,
    trace_powers,
)


def _verdict(name: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.monotonic() - started
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}: {elapsed:.2f}s of {budget:.0f}s budget{suffix}")
    assert ok, f"{name}{suffix}"
    assert in_budget, f"{name}: exceeded {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_cycle_formula():
    started = time.monotonic()
    worst = 0.0
    for k in range(5, 202, 2):
        measure = eigenvalues(cycle_graph(k)).measure
        formula = (2.0 / k) * (1.0 - math.cos(math.pi / k))
        worst = max(worst, abs(measure - formula))
    _verdict(
        "criterion 01 cycle measure formula, odd k in [5, 201]",
        worst <= 1e-8,
        started,
        30.0,
        f"max |measure - formula| = {worst:.2e}",
    )


def test_criterion_02_petersen():
    started = time.monotonic()
    g = petersen_graph()
    s = eigenvalues(g)
    expected = (3.0,) + (1.0,) * 5 + (-2.0,) * 4
    spectrum_ok = all(abs(a - b) <= 1e-9 for a, b in zip(s.values, expected))
    girth_ok = odd_girth(g) == 5
    measure = s.measure
    measure_ok = (
        abs(measure - 0.1) <= 1e-9
        and measure <= csikvari_bound()
        and measure <= gamma5_prime_value()
    )
    _verdict(
        "criterion 02 Petersen spectrum, girth, measure",
        spectrum_ok and girth_ok and measure_ok,
        started,
        1.0,
        f"measure = {measure:.10f}",
    )


def test_criterion_03_exact_trace_identities():
    started = time.monotonic()
    ok = True
    for k in range(5, 16, 2):
        g = cycle_graph(k)
        for j in range(1, k - 1, 2):
            ok = ok and trace_powers(g, j)[-1] == 0
        ok = ok and trace_powers(g, k)[-1] != 0
        # The package decides the same fact with the scan kernel's gate.
        adj = graph_adjacency(g)
        ok = ok and bool(odd_walk_free(adj, k)[0])
        ok = ok and not odd_walk_free(adj, k + 2)[0]
        ok = ok and certify(g, k).odd_girth == k
        try:
            certify(g, k + 2)
            ok = False
        except GirthViolationError:
            pass
    _verdict(
        "criterion 03 exact odd-trace identities on C_k, k in [5, 15]",
        ok,
        started,
        5.0,
    )


def test_criterion_04_exhaustive_gamma5_sanity():
    started = time.monotonic()
    limit = gamma5_prime_value() + 1e-9
    max_per_n = {}
    for n in (5, 6):
        best = 0.0
        count = 0
        for g in LabeledGraphs(n):
            count += 1
            if odd_girth(g) >= 5:
                best = max(best, eigenvalues(g).measure)
        assert count == 2 ** (n * (n - 1) // 2)
        max_per_n[n] = best
    c5_value = (2.0 / 5.0) * (1.0 - math.cos(math.pi / 5.0))
    ok = (
        max_per_n[5] <= limit
        and max_per_n[6] <= limit
        and abs(max_per_n[5] - c5_value) <= 1e-8
    )
    _verdict(
        "criterion 04 exhaustive scan at n = 5, 6 stays below gamma5'",
        ok,
        started,
        120.0,
        f"max measures {max_per_n[5]:.8f}, {max_per_n[6]:.8f}",
    )


def test_criterion_05_objective_maximum():
    started = time.monotonic()
    s_star, value = maximize_objective(100.0, 1000)
    exact = (1.0 - 14.0 ** (-1.0 / 3.0)) / (1.0 + 14.0 ** (1.0 / 3.0))
    ok = (
        abs(s_star - 14.0) <= 1e-6
        and abs(value - exact) <= 1e-10
        and value < 3.0 - 2.0 * math.sqrt(2.0)
    )
    _verdict(
        "criterion 05 objective attains its maximum at s = 14",
        ok,
        started,
        5.0,
        f"s* = {s_star:.8f}, value = {value:.12f}",
    )


def test_criterion_06_extremal_construction():
    started = time.monotonic()
    measures = []
    ok = True
    for eps in (0.1, 0.01, 0.001):
        n = math.ceil(n_epsilon(eps))
        seq = extremal_sequence(eps, n)
        check = check_relaxed_constraints(seq, 5)
        expected = ((14.0 - eps) ** (2.0 / 3.0) - (14.0 - eps) ** (1.0 / 3.0)) / (
            14.0 ** (2.0 / 3.0) + 14.0 + math.sqrt(14.0 * eps)
        )
        ok = ok and check.satisfied
        ok = ok and abs(check.sum1) <= check.tolerance
        ok = ok and abs(check.sum3) <= check.tolerance
        ok = ok and check.sum2 <= check.n_lambda1 + check.tolerance
        ok = ok and abs(seq.measure - expected) <= 1e-10
        measures.append(seq.measure)
    gap = gamma5_prime_value() - measures[-1]
    ok = ok and measures[0] < measures[1] < measures[2] < gamma5_prime_value()
    ok = ok and gap < 0.002
    _verdict(
        "criterion 06 extremal sequences meet the displayed measure",
        ok,
        started,
        10.0,
        f"gap at eps = 0.001 is {gap:.6f}",
    )


def test_criterion_07_power_sum_oracle():
    started = time.monotonic()
    worst = 0.0
    for ell in (2, 3, 4):
        for alpha in (1.5, 2.0):
            for s in (0.5, 1.0, 1.5, 2.25, 3.0):
                if s > ell:
                    continue
                brute = power_sum_max_bruteforce(ell, s, alpha, 200)
                closed = power_sum_max_closed_form(s, alpha)
                worst = max(worst, abs(brute - closed))
    _verdict(
        "criterion 07 brute-force power-sum oracle matches closed form",
        worst <= 1e-4,
        started,
        30.0,
        f"max |brute - closed| = {worst:.2e}",
    )


def test_criterion_08_solve_simple():
    started = time.monotonic()
    rng = random.Random(808)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 50)
        c = rng.uniform(0.0, 10.0)
        lo, hi = c**3 / n**2, c**3
        d = lo + (hi - lo) * rng.random()
        xs = solve_simple(n, c, d)
        ok = ok and all(x >= 0.0 for x in xs)
        ok = ok and abs(math.fsum(xs) - c) <= 1e-12 * max(1.0, c)
        ok = ok and abs(math.fsum(x**3 for x in xs) - d) <= 1e-10 * max(1.0, c**3)
        if not ok:
            break
    _verdict(
        "criterion 08 interpolation solver on 1000 random feasible triples",
        ok,
        started,
        5.0,
    )


def test_criterion_09_blow_up_invariance():
    started = time.monotonic()
    rng = random.Random(909)
    ok = True
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8), p=rng.choice([0.3, 0.5, 0.7]))
        base = eigenvalues(g)
        base_measure = base.measure
        base_girth = odd_girth(g)
        for m in (2, 3):
            big = blow_up(g, m)
            ok = ok and odd_girth(big) == base_girth
            big_spec = eigenvalues(big)
            ok = ok and abs(big_spec.measure - base_measure) <= 1e-8
            expected = sorted(
                [m * v for v in base.values] + [0.0] * ((m - 1) * g.n), reverse=True
            )
            ok = ok and max(
                abs(a - b) for a, b in zip(big_spec.values, expected)
            ) <= 1e-8
        if not ok:
            break
    _verdict(
        "criterion 09 blow-up preserves girth and scales the spectrum",
        ok,
        started,
        30.0,
    )


def test_criterion_10_chebyshev_machinery():
    started = time.monotonic()
    ok = True
    xs_outer = [1.0 + 9.0 * i / 99 for i in range(100)]
    for j in range(100):
        for x in xs_outer:
            reference = chebyshev_T_recurrence(j, x)
            if abs(chebyshev_T(j, x) - reference) > 1e-10 * max(1.0, abs(reference)):
                ok = False
    xs_inner = [-1.0 + 4.0 * i / 200 for i in range(201)]
    for j in range(100):
        for x in xs_inner:
            if chebyshev_T(j, x) < -1.0 - 1e-9:
                ok = False
    _verdict(
        "criterion 10 Chebyshev recurrence vs closed form and lower bound",
        ok,
        started,
        5.0,
    )


def test_criterion_11_regular_identity():
    started = time.monotonic()
    worst = 0.0
    graphs = [cycle_graph(k) for k in range(3, 52)] + [petersen_graph()]
    for g in graphs:
        s = eigenvalues(g)
        worst = max(
            worst, abs(signless_laplacian_min_eig(g) - (s.lambda1 + s.lambda_n))
        )
    _verdict(
        "criterion 11 signless Laplacian identity on regular graphs",
        worst <= 1e-8,
        started,
        10.0,
        f"max deviation = {worst:.2e}",
    )


def test_criterion_12_bound_formula_boundaries():
    started = time.monotonic()
    k = 101
    ok = True
    for n in (1000, 12345):
        lam_low = n / k**3
        expected = (4.0 / k**2) * (1.0 / k**3) * math.log(2.0 * k**3) ** 2
        got = broad_spectrum_bound(k, lam_low, n)
        ok = ok and abs(got - expected) <= 1e-12 * expected

        lam_mid = 100.0 * n * math.log(k) / k
        expected = (
            (4.0 / k**2)
            * (100.0 * math.log(k) / k)
            * math.log(2.0 * k / (100.0 * math.log(k))) ** 2
        )
        got = broad_spectrum_bound(k, lam_mid, n)
        ok = ok and abs(got - expected) <= 1e-12 * expected

        expected = 4.0 * 2.0 ** (-100.0 * math.log(k) / 16.0)
        got = high_lambda1_bound(k, lam_mid, n)
        ok = ok and abs(got - expected) <= 1e-12 * expected

        lam_high = 16.0 * n / k
        got = high_lambda1_bound(k, lam_high, n)
        ok = ok and abs(got - 2.0) <= 1e-12 * 2.0

        expected = (4.0 / k**2) * (16.0 / k) * math.log(2.0 * k / 16.0) ** 2
        got = broad_spectrum_bound(k, lam_high, n)
        ok = ok and abs(got - expected) <= 1e-12 * expected

    ok = ok and main_bound(101) == 6400.0 * 101**-3 * math.log(101) ** 3
    _verdict(
        "criterion 12 bound formulas at the case boundaries, k = 101",
        ok,
        started,
        1.0,
    )
