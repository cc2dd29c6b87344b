"""Chebyshev polynomials of the first kind and the spectrum-dependent
certificate polynomial used in the high-lambda1 regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HypothesisError, require_odd_k
from .spectral import Spectrum


@dataclass(frozen=True)
class FactoredOddPolynomial:
    """x^exponent * prod_r (x^2 - r^2)^2, kept in factored form.

    evaluate(x) is the product at x, computed without ever expanding the
    coefficients. exponent must be odd so the whole product is odd.
    """

    exponent: int
    roots: tuple[float, ...]

    def __post_init__(self):
        if self.exponent < 1 or self.exponent % 2 == 0:
            raise ValueError(f"exponent must be odd and positive, got {self.exponent}")
        object.__setattr__(self, "roots", tuple(float(r) for r in self.roots))

    @property
    def degree(self) -> int:
        return self.exponent + 4 * len(self.roots)

    def evaluate(self, x: float) -> float:
        acc = float(x) ** self.exponent
        y = x * x
        for r in self.roots:
            d = y - r * r
            acc *= d * d
        return acc


def chebyshev_T_recurrence(j: int, x: float) -> float:
    """Three-term recurrence T_{j+1} = 2x T_j - T_{j-1}; reference route."""
    if j < 0:
        raise ValueError(f"order must be non-negative, got {j}")
    if j == 0:
        return 1.0
    t_prev, t = 1.0, float(x)
    for _ in range(j - 1):
        t_prev, t = t, 2.0 * x * t - t_prev
    return t


def chebyshev_T(j: int, x: float) -> float:
    """Chebyshev polynomial of the first kind, stable on the whole real line.

    At x = +-1 the value is (+-1)^j, which the recurrence also gives exactly,
    without the j steps. Inside (-1, 1) the recurrence is used directly. For
    x > 1 the closed form ((x + sqrt(x^2-1))^j + (x - sqrt(x^2-1))^j) / 2 is
    evaluated with the second term as a reciprocal power, avoiding the
    subtractive cancellation; past the float range it is inf.
    x < -1 reduces by parity T_j(-x) = (-1)^j T_j(x).
    """
    if j < 0:
        raise ValueError(f"order must be non-negative, got {j}")
    if x == 1.0:
        return 1.0
    if x == -1.0:
        return -1.0 if j % 2 else 1.0
    if x > 1.0:
        u = x + math.sqrt(x * x - 1.0)
        try:
            return 0.5 * (u**j + u**-j)
        except OverflowError:  # u**j is past the float range
            return math.inf
    if x < -1.0:
        value = chebyshev_T(j, -x)
        return -value if j % 2 else value
    return chebyshev_T_recurrence(j, x)


def high_lambda1_polynomial(s: Spectrum, k: int) -> FactoredOddPolynomial:
    """Certificate polynomial x^(k - 4d - 2) * prod (x^2 - lambda_i^2)^2 over the
    d = d_minus eigenvalues <= -lambda1/2 (compared exactly, no tolerance).

    The result is odd of degree k - 2 and vanishes at +-lambda_i for each
    used eigenvalue. It is kept in factored form for every k: expanded
    coefficients blow up and cancel catastrophically as k grows.
    Raises HypothesisError when k - 4*d_minus - 2 < 1, which happens exactly
    when the spectrum is outside the large-lambda1 regime.
    """
    require_odd_k(k, 3)
    if s.lambda1 <= 0:
        raise ValueError("certificate polynomial needs a positive largest eigenvalue")
    mu = s.lambda1 / 2.0
    d_minus = sum(1 for v in s.values if v <= -mu)
    exponent = k - 4 * d_minus - 2
    if exponent < 1:
        raise HypothesisError(
            f"certificate exponent k - 4*d_minus - 2 = {exponent} < 1 "
            f"(d_minus = {d_minus}); spectrum outside the certificate regime"
        )
    roots = tuple(abs(v) for v in s.values[s.n - d_minus :])
    return FactoredOddPolynomial(exponent=exponent, roots=roots)
