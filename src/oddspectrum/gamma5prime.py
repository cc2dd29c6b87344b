"""The exact k = 5 relaxation: real sequences constrained by the odd power-sum
identities and the quadratic budget, the piecewise-smooth objective whose
supremum gives the upper bound, and the explicit extremal construction that
meets it from below.

The objective (1 - f(s)^(-1/3)) / (1 + s f(s)^(-2/3)) with
f(s) = floor(s) + frac(s)^(3/2) is smooth on each interval [m, m+1) and
kinked at the integers, so the search samples every unit interval and treats
integer points as explicit candidates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, require_odd_k
from .spectral import Spectrum

# Where the scaled-by-n extremal construction concentrates: one positive head
# entry, fourteen -1 tail entries, and a nonnegative middle block.
_TAIL_LENGTH = 14

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# A relaxed sequence is the same sorted-tuple type as a graph spectrum.
RelaxedSequence = Spectrum


def f_of_s(s: float) -> float:
    """floor(s) + frac(s)^(3/2); exact at integers, below s everywhere else."""
    if s < 0:
        raise ValueError(f"argument must be non-negative, got {s}")
    m = math.floor(s)
    return m + (s - m) ** 1.5


def objective_g(s: float) -> float:
    """(1 - f(s)^(-1/3)) / (1 + s f(s)^(-2/3)) for s >= 1."""
    if s < 1:
        raise ValueError(f"argument must be at least 1, got {s}")
    fs = f_of_s(s)
    return (1.0 - fs ** (-1.0 / 3.0)) / (1.0 + s * fs ** (-2.0 / 3.0))


def _golden_section_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def maximize_objective(
    s_max: float, per_interval_samples: int
) -> tuple[float, float]:
    """Argmax and max of the objective over [1, s_max].

    Each unit interval is sampled on a uniform grid (both endpoints
    included; the objective is continuous, merely kinked at integers), the
    best sample is refined by golden-section search inside its interval to
    1e-10 in s, and every integer point competes as an explicit candidate.
    """
    if not (math.isfinite(s_max) and s_max >= 15):
        raise ValueError(f"s_max must be finite and at least 15, got {s_max}")
    if per_interval_samples < 100:
        raise ValueError(
            f"need at least 100 samples per interval, got {per_interval_samples}"
        )

    best_s, best_v = 1.0, objective_g(1.0)
    best_bracket = (1.0, min(2.0, s_max))

    m = 1
    while m < s_max:
        a = float(m)
        b = min(float(m + 1), s_max)
        step = (b - a) / per_interval_samples
        for i in range(per_interval_samples + 1):
            s = a + i * step
            v = objective_g(s)
            if v > best_v:
                best_s, best_v = s, v
                best_bracket = (max(a, s - step), min(b, s + step))
        m += 1

    refined_s, refined_v = _golden_section_max(
        objective_g, best_bracket[0], best_bracket[1], 1e-10
    )
    if refined_v > best_v:
        best_s, best_v = refined_s, refined_v
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


def _bruteforce_value(config, alpha: float) -> float:
    return math.fsum(x**alpha for x in config)


def power_sum_max_bruteforce(
    ell: int, s: float, alpha: float, grid_steps: int
) -> float:
    """Independent oracle for the constrained power-sum maximum.

    Grid search over the (ell-1)-dimensional slice of [0, 1]^ell with the
    last coordinate forced by the sum constraint, followed by pairwise mass
    shifts pushed to the box boundary (the exchange move that makes the
    maximizer have at most one fractional coordinate).
    """
    if not 1 <= ell <= 4:
        raise ValueError(f"oracle supports 1 <= ell <= 4, got {ell}")
    if grid_steps < 100:
        raise ValueError(f"need at least 100 grid steps, got {grid_steps}")
    if alpha <= 1:
        raise ValueError(f"exponent must exceed 1, got {alpha}")
    if s < 0 or s > ell:
        raise InfeasibleError(f"sum {s} outside the feasible range [0, {ell}]")

    vals = np.linspace(0.0, 1.0, grid_steps + 1)
    slack = 1e-12

    best_config: tuple[float, ...] | None = None
    best_value = -math.inf

    def consider(config: tuple[float, ...]) -> None:
        nonlocal best_config, best_value
        value = _bruteforce_value(config, alpha)
        if value > best_value:
            best_value = value
            best_config = config

    if ell == 1:
        consider((s,))
    elif ell == 2:
        last = s - vals
        mask = (last >= -slack) & (last <= 1.0 + slack)
        clipped = np.clip(last, 0.0, 1.0)
        totals = vals**alpha + clipped**alpha
        totals[~mask] = -np.inf
        i = int(np.argmax(totals))
        consider((float(vals[i]), float(clipped[i])))
    elif ell == 3:
        for x1 in vals:
            last = s - x1 - vals
            mask = (last >= -slack) & (last <= 1.0 + slack)
            if not mask.any():
                continue
            clipped = np.clip(last, 0.0, 1.0)
            totals = x1**alpha + vals**alpha + clipped**alpha
            totals[~mask] = -np.inf
            i = int(np.argmax(totals))
            consider((float(x1), float(vals[i]), float(clipped[i])))
    else:
        x2_grid = vals[:, None]
        x3_grid = vals[None, :]
        pow2 = vals**alpha
        for x1 in vals:
            last = s - x1 - x2_grid - x3_grid
            mask = (last >= -slack) & (last <= 1.0 + slack)
            if not mask.any():
                continue
            clipped = np.clip(last, 0.0, 1.0)
            totals = x1**alpha + pow2[:, None] + pow2[None, :] + clipped**alpha
            totals[~mask] = -np.inf
            flat = int(np.argmax(totals))
            i2, i3 = divmod(flat, totals.shape[1])
            consider(
                (float(x1), float(vals[i2]), float(vals[i3]), float(clipped[i2, i3]))
            )

    assert best_config is not None  # the all-feasible grid always yields one

    # Pairwise refinement: x^alpha is convex, so shifting mass between two
    # coordinates is maximized at the box boundary.
    config = list(best_config)
    for _ in range(4 * ell * ell):
        improved = False
        for i in range(ell):
            for j in range(ell):
                if i == j:
                    continue
                t = min(config[i], 1.0 - config[j])
                if t <= 0.0:
                    continue
                candidate = config.copy()
                candidate[i] -= t
                candidate[j] += t
                if _bruteforce_value(candidate, alpha) > best_value + 1e-15:
                    config = candidate
                    best_value = _bruteforce_value(candidate, alpha)
                    improved = True
        if not improved:
            break
    return best_value


def _cube_sum_at(c: float, n: int, t: float) -> float:
    tail = c * t / n
    head = c - (n - 1) * tail
    return head**3 + (n - 1) * tail**3


def solve_simple(n: int, c: float, d: float) -> tuple[float, ...]:
    """Non-negative reals with sum exactly c and cube-sum d, for
    c^3 n^-2 <= d <= c^3.

    Uses the one-parameter family head(t) = c(1 - t + t/n), tail(t) = ct/n:
    the linear sum is c identically, while the cube-sum falls continuously
    from c^3 at t = 0 to c^3 n^-2 at t = 1, so bisection on the sign change
    lands on the target without assuming monotonicity.
    """
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
    if n == 1:
        return (c,)

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
    head = c - (n - 1) * tail
    return (head,) + (tail,) * (n - 1)


def n_epsilon(epsilon: float) -> float:
    """Size threshold 15 + sqrt((14 - (14 - eps)^(1/3))^3 / eps) above which
    the extremal construction is feasible."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    c = 14.0 - (14.0 - epsilon) ** (1.0 / 3.0)
    return 15.0 + math.sqrt(c**3 / epsilon)


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
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    required = math.ceil(n_epsilon(epsilon))
    if n < required:
        raise InfeasibleError(
            f"need n >= {required} for epsilon = {epsilon}, got {n}"
        )
    head = (14.0 - epsilon) ** (1.0 / 3.0)
    middle = solve_simple(n - _TAIL_LENGTH - 1, 14.0 - head, epsilon)
    scale = n * head / (14.0 ** (2.0 / 3.0) + 14.0 + math.sqrt(14.0 * epsilon))
    raw = (head,) + middle + (-1.0,) * _TAIL_LENGTH
    return Spectrum(tuple(scale * x for x in raw))


@dataclass(frozen=True)
class ConstraintCheck:
    """Residuals of the constraint system for one sequence.

    odd_sums holds (j, sum of j-th powers) for every odd j <= k - 2; each
    must vanish within 1e-9 * n * max(1, lambda1^2) (powers above 3 scale
    the tolerance by lambda1^j instead, matching the growth of the terms).
    sum2 must stay below the budget n * lambda1 up to the same base slop.
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


def check_relaxed_constraints(seq: Spectrum, k: int) -> ConstraintCheck:
    """Evaluate the odd power sums (j <= k - 2) and the quadratic budget.

    seq is a Spectrum: a relaxed sequence such as extremal_sequence()
    returns, or the eigenvalues of a graph.
    """
    require_odd_k(k, 3)
    values = seq.values
    n = len(values)
    lam1 = values[0] if values else 0.0

    odd_sums = []
    satisfied = True
    base_tol = 1e-9 * n * max(1.0, lam1 * lam1)
    for j in range(1, k - 1, 2):
        total = math.fsum(v**j for v in values)
        tol_j = base_tol if j <= 3 else 1e-9 * n * max(1.0, abs(lam1) ** j)
        if abs(total) > tol_j:
            satisfied = False
        odd_sums.append((j, total))

    sum2 = math.fsum(v * v for v in values)
    n_lambda1 = n * lam1
    if sum2 > n_lambda1 + base_tol:
        satisfied = False

    return ConstraintCheck(
        odd_sums=tuple(odd_sums),
        sum2=sum2,
        n_lambda1=n_lambda1,
        tolerance=base_tol,
        satisfied=satisfied,
    )


def export_extremal_sequence(epsilon: float, n: int) -> str:
    """JSON document for one extremal sequence: a metadata header (epsilon,
    n, measure, constraint residuals) followed by the value array."""
    seq = extremal_sequence(epsilon, n)
    check = check_relaxed_constraints(seq, 5)
    payload = {
        "epsilon": epsilon,
        "n": seq.n,
        "measure": seq.measure,
        "residuals": {
            "sum1": check.sum1,
            "sum3": check.sum3,
            "sum2": check.sum2,
            "n_lambda1": check.n_lambda1,
            "satisfied": check.satisfied,
        },
        "values": list(seq.values),
    }
    return json.dumps(payload)
