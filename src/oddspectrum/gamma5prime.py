"""The exact k = 5 relaxation: real sequences constrained by the odd power-sum
identities and the quadratic budget, the piecewise-smooth objective whose
supremum gives the upper bound, and the explicit extremal construction that
meets it from below.

The objective (1 - f(s)^(-1/3)) / (1 + s f(s)^(-2/3)) with
f(s) = floor(s) + frac(s)^(3/2) is smooth on each interval [m, m+1) and
kinked at the integers, so the search works on a grid over each unit
interval whose endpoints are the integers themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InfeasibleError, UnsupportedSizeError, require_odd_k
from .spectral import Spectrum

# Where the scaled-by-n extremal construction concentrates: one positive head
# entry, fourteen -1 tail entries, and a nonnegative middle block.
_TAIL_LENGTH = 14

# Half a unit in the last place of 14: for any epsilon at or below it,
# 14 - epsilon rounds to 14 and the construction degenerates.
EPSILON_FLOOR = 2.0**-50


def f_of_s(s: float) -> float:
    """floor(s) + frac(s)^(3/2), power_sum_max_closed_form(s, 3/2); exact at
    integers, below s everywhere else."""
    return power_sum_max_closed_form(s, 1.5)


def objective_g(s: float) -> float:
    """(1 - f(s)^(-1/3)) / (1 + s f(s)^(-2/3)) for s >= 1."""
    if s < 1:
        raise ValueError(f"argument must be at least 1, got {s}")
    fs = f_of_s(s)
    return (1.0 - fs ** (-1.0 / 3.0)) / (1.0 + s * fs ** (-2.0 / 3.0))


def subrange_bound(s_lo: float, s_hi: float) -> float:
    """(1 - f(s_hi)^(-1/3)) / (1 + s_lo f(s_hi)^(-2/3)): an upper bound on the
    objective over [s_lo, s_hi] when that lies in one unit interval
    [m, m+1], where f is non-decreasing, so f(s) <= f(s_hi), and s >= s_lo."""
    fs = f_of_s(s_hi)
    return (1.0 - fs ** (-1.0 / 3.0)) / (1.0 + s_lo * fs ** (-2.0 / 3.0))


def interval_bound(m: int) -> float:
    """(1 - (m+1)^(-1/3)) / (1 + m (m+1)^(-2/3)): subrange_bound over the
    whole unit interval [m, m+1]."""
    return subrange_bound(m, m + 1)


# Index ranges of at most this many grid points are evaluated point by point.
_LEAF_POINTS = 16


def maximize_objective(
    s_max: float, per_interval_samples: int
) -> tuple[float, float]:
    """Argmax and max of the objective over [1, s_max] on a grid.

    Each unit interval is sampled on a uniform grid with both endpoints
    included, so every integer, where the objective is kinked, is a grid
    point. The maximum sits at the kink s = 14 (s_max >= 15 keeps it in
    range): the objective rises into 14 and falls just after it, so no
    refinement between grid points could beat the sample there.

    A first pass takes L, the best objective value at the integers, and
    stops at the first interval [m, m+1] whose interval_bound U(m) cannot
    beat it. With x = (m+1)^(1/3), U = x(x-1)/(x^3 + x^2 - 1), and dU/dx has
    the sign of -x^4 + 2x^3 + x^2 - 2x + 1, negative for x >= 2.2; so U
    strictly decreases from m = 10 on and no later interval can beat L
    either.

    The scanned intervals are then searched by bisecting their index range
    [0, samples]. A sub-range whose grid points run from s_lo to s_hi is
    skipped when subrange_bound(s_lo, s_hi) * (1 + 1e-9) < L; one of at most
    16 points is evaluated in grid order, keeping a new best only when it is
    strictly greater. The 1e-9 margin covers rounding in the bound and in the
    objective, so every skipped point has a value strictly below L. L is
    attained at a grid point, so the maximum over the grid is at least L,
    and every point that reaches it is evaluated, in grid order: the first
    of them is the one a sweep of the full grid would keep. The result is
    bit-identical to that sweep over [1, s_max], whatever s_max is, and the
    number of evaluations grows with log(samples), not with samples.
    """
    if not (math.isfinite(s_max) and s_max >= 15):
        raise ValueError(f"s_max must be finite and at least 15, got {s_max}")
    if per_interval_samples < 100:
        raise ValueError(
            f"need at least 100 samples per interval, got {per_interval_samples}"
        )

    best_s, best_v = 1.0, objective_g(1.0)
    lower = best_v
    stop = 2
    while stop < s_max:
        if stop >= 10 and interval_bound(stop) * (1.0 + 1e-9) <= lower:
            break
        lower = max(lower, objective_g(float(stop)))
        stop += 1

    for m in range(1, stop):
        a = float(m)
        b = min(float(m + 1), s_max)
        step = (b - a) / per_interval_samples
        ranges = [(0, per_interval_samples)]  # a stack, left half on top
        while ranges:
            i0, i1 = ranges.pop()
            if subrange_bound(a + i0 * step, a + i1 * step) * (1.0 + 1e-9) < lower:
                continue
            if i1 - i0 < _LEAF_POINTS:
                for i in range(i0, i1 + 1):
                    s = a + i * step
                    v = objective_g(s)
                    if v > best_v:
                        best_s, best_v = s, v
            else:
                mid = (i0 + i1) // 2
                ranges += ((mid + 1, i1), (i0, mid))
    return best_s, best_v


def power_sum_max_closed_form(s: float, alpha: float) -> float:
    """floor(s) + frac(s)^alpha: the maximum of sum x_i^alpha over x_i in [0, 1]
    with sum x_i = s, attained by (1, ..., 1, frac(s), 0, ..., 0)."""
    if s < 0:
        raise ValueError(f"target sum must be non-negative, got {s}")
    if alpha <= 1:
        raise ValueError(f"exponent must exceed 1, got {alpha}")
    m = math.floor(s)
    return m + (s - m) ** alpha


def _cube_sum_at(c: float, n: int, t: float) -> float:
    tail = c * t / n
    head = c - (n - 1) * tail
    return head**3 + (n - 1) * tail**3


def solve_simple(n: int, c: float, d: float) -> tuple[float, ...]:
    """Non-negative reals with sum exactly c and cube-sum d, for
    c^3 n^-2 <= d <= c^3: one head entry, then n - 1 equal tail entries.

    Uses the one-parameter family head(t) = c(1 - t + t/n), tail(t) = ct/n:
    the linear sum is c identically, while the cube-sum falls continuously
    from c^3 at t = 0 to c^3 n^-2 at t = 1, so bisection on the sign change
    lands on the target without assuming monotonicity.
    """
    head, tail = _solve_head_tail(n, c, d)
    return (head,) + (tail,) * (n - 1)


def _solve_head_tail(n: int, c: float, d: float) -> tuple[float, float]:
    """solve_simple's two distinct values, head and tail, in O(1) memory."""
    if n < 1:
        raise ValueError(f"need at least one variable, got n = {n}")
    if c < 0 or d < 0:
        raise ValueError("c and d must be non-negative")
    hi = c**3
    lo = hi / n**2
    rtol = 1e-12
    if d < lo * (1.0 - rtol) - 1e-300 or d > hi * (1.0 + rtol) + 1e-300:
        raise InfeasibleError(
            f"cube-sum {d} outside the feasible range [{lo:.6g}, {hi:.6g}] "
            f"for n = {n}, c = {c}"
        )

    cube_lo_t = _cube_sum_at(c, n, 0.0)  # = c^3
    cube_hi_t = _cube_sum_at(c, n, 1.0)  # = c^3 / n^2
    target = min(max(d, cube_hi_t), cube_lo_t)

    t_lo, t_hi = 0.0, 1.0  # cube_sum(t_lo) >= target >= cube_sum(t_hi)
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        if mid == t_lo or mid == t_hi:
            break
        if _cube_sum_at(c, n, mid) >= target:
            t_lo = mid
        else:
            t_hi = mid

    t = min(
        (t_lo, t_hi, 0.5 * (t_lo + t_hi)),
        key=lambda u: abs(_cube_sum_at(c, n, u) - target),
    )
    tail = c * t / n
    return c - (n - 1) * tail, tail


def n_epsilon(epsilon: float) -> float:
    """Size threshold 15 + sqrt((14 - (14 - eps)^(1/3))^3 / eps) above which
    the extremal construction is feasible.

    UnsupportedSizeError if it overflows (eps below about 8.7e-306);
    otherwise ValueError for eps at or below EPSILON_FLOOR = 2^-50, about
    8.9e-16, where 14 - eps rounds to 14.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    c = 14.0 - (14.0 - epsilon) ** (1.0 / 3.0)
    threshold = 15.0 + math.sqrt(c**3 / epsilon)
    if math.isinf(threshold):
        raise UnsupportedSizeError(f"size threshold for epsilon = {epsilon} overflows")
    if epsilon <= EPSILON_FLOOR:
        raise ValueError(
            f"epsilon must exceed 2^-50 = {EPSILON_FLOOR:.3g}, where 14 - epsilon "
            f"rounds to 14; got {epsilon}"
        )
    return threshold


def extremal_sequence(epsilon: float, n: int) -> Spectrum:
    """The near-extremal sequence for the k = 5 constraint system.

    Before scaling: head entry (14 - eps)^(1/3), fourteen trailing -1
    entries, and a middle block of n - 15 non-negative reals with linear sum
    14 - (14 - eps)^(1/3) and cube-sum eps, so the full sequence has both
    odd power sums exactly zero. Every entry is then scaled by
    n * head / (14^(2/3) + 14 + sqrt(14 eps)), which saturates the quadratic
    budget by the Cauchy-Schwarz estimate of the middle block.

    Its measure is ((14-eps)^(2/3) - (14-eps)^(1/3)) / (14^(2/3) + 14 + sqrt(14 eps)),
    which increases to the exact supremum as eps decreases to 0.

    The middle block is solve_simple's: one entry, then n - 16 equal ones.
    So the sequence is four runs (value, count), built with
    Spectrum.from_runs in O(1) time and memory whatever n is.
    """
    required = math.ceil(n_epsilon(epsilon))
    if n < required:
        raise InfeasibleError(
            f"need n >= {required} for epsilon = {epsilon}, got {n}"
        )
    head = (14.0 - epsilon) ** (1.0 / 3.0)
    mid_head, mid_tail = _solve_head_tail(n - _TAIL_LENGTH - 1, 14.0 - head, epsilon)
    scale = n * head / (14.0 ** (2.0 / 3.0) + 14.0 + math.sqrt(14.0 * epsilon))
    return Spectrum.from_runs((
        (scale * head, 1),
        (scale * mid_head, 1),
        (scale * mid_tail, n - _TAIL_LENGTH - 2),
        (-scale, _TAIL_LENGTH),
    ))


@dataclass(frozen=True)
class ConstraintCheck:
    """Residuals of the constraint system for one sequence.

    odd_sums holds (j, sum of j-th powers) for every odd j <= k - 2; each
    must vanish within 1e-9 * max(1, sum of |x|^j), its own scale. sum2
    must stay below the budget n * lambda1 up to 1e-9 * max(1, sum2).
    tolerance is the bound on sum1.
    """

    odd_sums: tuple[tuple[int, float], ...]
    sum2: float
    n_lambda1: float
    tolerance: float
    satisfied: bool

    @property
    def sum1(self) -> float | None:
        return next((v for j, v in self.odd_sums if j == 1), None)

    @property
    def sum3(self) -> float | None:
        return next((v for j, v in self.odd_sums if j == 3), None)


def _power_sum(runs: tuple[tuple[float, int], ...], power) -> float:
    """math.fsum of power(v) over every entry of the runs, bit for bit,
    without expanding them.

    A run of c copies of x adds the float t = c * power(x) and its rounding
    error c * power(x) - t. The error is exactly a float: it is a whole
    number of units in the last place of power(x), fewer than 2^53 of them
    since c < 2^52. It is computed with integers from as_integer_ratio(),
    whose denominators are powers of two, so the one fsum rounds the exact
    total, as the per-element fsum does. A run whose t is not finite falls
    back to the per-element fsum, which raises OverflowError or returns inf
    or nan just as before, each entry taken lazily from its run.
    """
    terms = []
    for x, c in runs:
        y = power(x)
        t = c * y
        if not math.isfinite(t):
            return math.fsum(power(v) for x, c in runs for v in itertools.repeat(x, c))
        terms.append(t)
        p, q = y.as_integer_ratio()
        tp, tq = t.as_integer_ratio()
        d = max(q, tq)  # both are powers of two
        error = (c * p * (d // q) - tp * (d // tq)) / d
        if error:
            terms.append(error)
    return math.fsum(terms)


def check_relaxed_constraints(seq: Spectrum, k: int) -> ConstraintCheck:
    """Evaluate the odd power sums (j <= k - 2) and the quadratic budget.

    seq is a Spectrum: a relaxed sequence such as extremal_sequence()
    returns, or the eigenvalues of a graph. Each sum is taken over its runs,
    which are never expanded, and equals the math.fsum of the individual
    terms bit for bit.
    """
    require_odd_k(k, 3)
    runs = seq.runs
    n = seq.n
    lam1 = runs[0][0] if runs else 0.0

    def tol(j):  # 1e-9 of the scale, sum of |x|^j: a plain float sum over the runs
        return 1e-9 * max(1.0, sum(abs(x) ** j * c for x, c in runs))

    odd_sums = []
    satisfied = True
    for j in range(1, k - 1, 2):
        total = _power_sum(runs, lambda v: v**j)
        if abs(total) > tol(j):
            satisfied = False
        odd_sums.append((j, total))

    sum2 = _power_sum(runs, lambda v: v * v)
    n_lambda1 = n * lam1
    if sum2 > n_lambda1 + 1e-9 * max(1.0, sum2):  # sum2 is its own scale
        satisfied = False

    return ConstraintCheck(
        odd_sums=tuple(odd_sums),
        sum2=sum2,
        n_lambda1=n_lambda1,
        tolerance=tol(1),
        satisfied=satisfied,
    )
