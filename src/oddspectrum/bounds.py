"""Closed-form bound formulas and per-graph certificate verification.

Every inequality evaluated here is a theorem for graphs satisfying the
stated hypotheses, so a certificate reporting a violated bound indicates a
bug, not an interesting graph. Comparisons use a relative 1e-12 slop to
absorb floating rounding. A bipartite graph's spectrum is symmetric, so its
two ends are taken as exactly opposite (spectrum_ends) and its measure is
exactly 0.0, in certify and in the scan alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .errors import GirthViolationError, HypothesisError, require_odd_k
from .graph_core import MAX_GRAPH6_VERTICES, Graph, encode_graph6, odd_girth
from .odd_poly import chebyshev_T

# Relative slop for "measure <= bound" style comparisons.
COMPARISON_RTOL = 1e-12

CSV_HEADER = (
    "graph",
    "n",
    "odd_girth",
    "lambda1",
    "lambda_n",
    "measure",
    "tightest_bound",
    "tightest_bound_value",
    "slack",
)


def girth_field(girth: float) -> str | int:
    """An odd girth as reported: "inf" for a bipartite graph, else an int."""
    return "inf" if math.isinf(girth) else int(girth)


def cycle_lower_bound(k: int) -> float:
    """(2/k)(1 - cos(pi/k)): the measure of the k-cycle, hence a lower bound
    on the supremum at odd girth k. Grows like pi^2 / k^3. Evaluated as
    (4/k) sin^2(pi/(2k)), free of 1 - cos's cancellation, to keep its digits."""
    require_odd_k(k, 3)
    return (4.0 / k) * math.sin(math.pi / (2 * k)) ** 2


def broad_spectrum_bound(k: int, lambda1: float, n: int) -> float:
    """(4/k^2) (lambda1/n) log^2(2n/lambda1), valid for odd k >= 100 when
    lambda1 >= n/k^3."""
    require_odd_k(k, 100, HypothesisError)
    if n < 1:
        raise HypothesisError(f"requires n >= 1, got {n}")
    if lambda1 < n / k**3:
        raise HypothesisError(
            f"requires lambda1 >= n/k^3 = {n / k**3:.6g}, got {lambda1:.6g}"
        )
    return (4.0 / k**2) * (lambda1 / n) * math.log(2.0 * n / lambda1) ** 2


def high_lambda1_bound(k: int, lambda1: float, n: int) -> float:
    """4 * 2^(-k lambda1 / (16 n)), valid for odd k >= 100 when lambda1 >= 16n/k."""
    require_odd_k(k, 100, HypothesisError)
    if n < 1:
        raise HypothesisError(f"requires n >= 1, got {n}")
    if lambda1 < 16.0 * n / k:
        raise HypothesisError(
            f"requires lambda1 >= 16n/k = {16.0 * n / k:.6g}, got {lambda1:.6g}"
        )
    return 4.0 * 2.0 ** (-k * lambda1 / (16.0 * n))


def main_bound(k: int) -> float:
    """6400 k^-3 log^3 k: the unconditional upper bound for odd k >= 100."""
    require_odd_k(k, 100)
    return 6400.0 * k**-3 * math.log(k) ** 3


def csikvari_bound() -> float:
    """3 - 2 sqrt(2), the classical upper bound for triangle-free graphs."""
    return 3.0 - 2.0 * math.sqrt(2.0)


def gamma5_prime_value() -> float:
    """(1 - 14^(-1/3)) / (1 + 14^(1/3)): the exact value of the k = 5 relaxation."""
    return (1.0 - 14.0 ** (-1.0 / 3.0)) / (1.0 + 14.0 ** (1.0 / 3.0))


def constant_bounds(k: int) -> list[tuple[str, float]]:
    """(name, value) of the bounds at odd girth k that do not depend on the
    graph: for k >= 5 the k = 5 relaxation and Csikvari's bound, else none."""
    if k < 5:
        return []
    return [("gamma5_prime", gamma5_prime_value()), ("csikvari", csikvari_bound())]


@dataclass(frozen=True)
class BoundEntry:
    """One applicable upper bound on the measure, with its slack."""

    name: str
    value: float
    satisfied: bool
    slack: float


@dataclass(frozen=True)
class ChainCheck:
    """One inequality from a proof chain; satisfied is None when inapplicable."""

    description: str
    left: float | None
    relation: str
    right: float | None
    satisfied: bool | None


@dataclass(frozen=True)
class CertificateReport:
    """Per-graph record of the measure against every applicable bound."""

    graph_id: str
    n: int
    odd_girth: float
    k: int
    lambda1: float
    lambda_n: float
    measure: float
    case: int | None
    trivial: bool
    bounds: tuple[BoundEntry, ...]
    chain_checks: tuple[ChainCheck, ...]

    @property
    def passed(self) -> bool:
        return passes(self.bounds, self.chain_checks)

    def tightest_bound(self) -> BoundEntry | None:
        return tightest(self.bounds)

    def to_json(self) -> str:
        """The fields in declaration order, graph_id as "graph", plus passed."""
        fields = asdict(self)
        fields["odd_girth"] = girth_field(self.odd_girth)
        return json.dumps({"graph": fields.pop("graph_id"), **fields, "passed": self.passed})

    def csv_row(self) -> tuple:
        tight = self.tightest_bound()
        return (
            self.graph_id,
            self.n,
            girth_field(self.odd_girth),
            repr(self.lambda1),
            repr(self.lambda_n),
            repr(self.measure),
            tight.name if tight else "",
            repr(tight.value) if tight else "",
            repr(tight.slack) if tight else "",
        )


def passes(bounds: Sequence[BoundEntry], chains: Sequence[ChainCheck]) -> bool:
    """False as soon as any bound or applicable chain check fails."""
    return all(b.satisfied for b in bounds) and all(c.satisfied is not False for c in chains)


def tightest(bounds: Sequence[BoundEntry]) -> BoundEntry | None:
    """The bound of least value (the first of equal ones), None if none applies."""
    return min(bounds, key=lambda b: b.value, default=None)


def within_bound(measure, value: float):
    """measure <= value + 1e-12 * max(1, |value|, |measure|), for a float
    measure or elementwise on a numpy array. The max is split into two
    comparisons, which is exact since rounding is monotone."""
    return (measure <= value + COMPARISON_RTOL * max(1.0, abs(value))) | (
        measure <= value + COMPARISON_RTOL * abs(measure)
    )


def _bound_entry(name: str, value: float, measure: float) -> BoundEntry:
    return BoundEntry(
        name=name,
        value=value,
        satisfied=within_bound(measure, value),
        slack=value - measure,
    )


def count_violations(measures, values: Sequence[float]) -> int:
    """How many of a numpy array of measures are not within_bound of one of
    the bound values."""
    import numpy as np  # here, so that importing bounds loads no numpy

    bad = np.zeros(len(measures), bool)
    for value in values:
        bad |= ~within_bound(measures, value)
    return int(bad.sum())


def spectrum_ends(bipartite: bool, top: float, bottom: float) -> tuple[float, float]:
    """lambda1 and lambda_n from the eigensolver's largest and smallest
    eigenvalue. A bipartite graph's spectrum is symmetric, so there they are
    (top - bottom)/2 and its negative, and the measure is exactly 0.0; the
    negative is 0.0 - lambda1, so an edgeless graph's lambda_n is 0.0, not -0.0."""
    if not bipartite:
        return top, bottom
    lam1 = (top - bottom) / 2
    return lam1, 0.0 - lam1


def _inapplicable(description: str, relation: str = "<=") -> ChainCheck:
    return ChainCheck(
        description=description, left=None, relation=relation, right=None, satisfied=None
    )


def _broad_spectrum_chains(lam1: float, lamn: float, k: int, n: int) -> list[ChainCheck]:
    r = lam1 / abs(lamn)
    chains = []

    lhs = lam1 * lam1 * chebyshev_T(k - 4, r)
    rhs = n * lam1
    chains.append(
        ChainCheck(
            description=f"lambda1^2 * T_{k - 4}(lambda1/|lambda_n|) <= n*lambda1",
            left=lhs,
            relation="<=",
            right=rhs,
            satisfied=lhs <= rhs * (1.0 + COMPARISON_RTOL),
        )
    )

    if lam1 >= n / k**3:
        gap_rhs = (4.0 / k**2) * math.log(2.0 * n / lam1) ** 2
        chains.append(
            ChainCheck(
                description="r - 1 < (4/k^2) log^2(2n/lambda1)",
                left=r - 1.0,
                relation="<",
                right=gap_rhs,
                satisfied=r - 1.0 < gap_rhs + COMPARISON_RTOL * max(1.0, gap_rhs),
            )
        )
    else:
        chains.append(
            _inapplicable(
                "r - 1 < (4/k^2) log^2(2n/lambda1) (inapplicable: lambda1 < n/k^3)",
                relation="<",
            )
        )
    return chains


def assess(
    k: int, n: int, m: int, lam1: float, lamn: float
) -> tuple[list[BoundEntry], int | None, list[ChainCheck]]:
    """The bounds, the case and the proof chains at odd girth k of a graph on
    n >= 1 vertices and m edges, from its spectrum's two ends alone; the girth
    is taken as checked. Below k = 100 the regime formulas do not apply: the
    bounds are the k = 5 comparison constants, with no case and no chain.
    From k = 100 inapplicable entries are marked rather than extrapolated."""
    measure = (lam1 + lamn) / n
    bounds = [_bound_entry(name, value, measure) for name, value in constant_bounds(k)]
    if k < 100:
        return bounds, None, []
    bounds.append(_bound_entry("trivial_lambda1", lam1 / n, measure))
    bounds.append(_bound_entry("main_bound", main_bound(k), measure))
    if lam1 >= n / k**3:
        bounds.append(_bound_entry("broad_spectrum", broad_spectrum_bound(k, lam1, n), measure))
    if lam1 >= 16.0 * n / k:
        bounds.append(_bound_entry("high_lambda1", high_lambda1_bound(k, lam1, n), measure))
    case = 1 if lam1 <= n / k**3 else (2 if lam1 <= 100.0 * math.log(k) / k * n else 3)
    if m == 0:
        edgeless = "edgeless graph, measure is trivially lambda1/n"
        return bounds, case, [_inapplicable(f"proof-chain inequalities (inapplicable: {edgeless})")]
    return bounds, case, _broad_spectrum_chains(lam1, lamn, k, n)


def certify(g: Graph, k: int) -> CertificateReport:
    """Verify every applicable bound and proof-chain inequality for one graph.

    Requires odd_girth(g) >= k, which is exactly Tr(A^j) = 0 for every odd
    j <= k - 2; raises GirthViolationError (carrying the actual shortest odd
    cycle length) otherwise. The report carries the measure and what assess
    finds from the spectrum's two ends, read from scan_kernel.eigvalsh as
    the scan reads them and made exactly opposite by spectrum_ends when the
    odd girth is infinite.
    """
    from . import scan_kernel  # here, so that importing bounds loads no numpy

    require_odd_k(k, 3)
    if g.n < 1:
        raise ValueError("certification needs at least one vertex")
    girth = odd_girth(g)
    if girth < k:
        raise GirthViolationError(girth, k)

    graph_id = encode_graph6(g) if g.n <= MAX_GRAPH6_VERTICES else f"<n={g.n},m={g.m}>"
    vals = scan_kernel.eigvalsh(scan_kernel.graph_adjacency(g, float))[0]
    lam1, lamn = spectrum_ends(math.isinf(girth), float(vals[-1]), float(vals[0]))
    bounds, case, chains = assess(k, g.n, g.m, lam1, lamn)
    return CertificateReport(
        graph_id=graph_id,
        n=g.n,
        odd_girth=girth,
        k=k,
        lambda1=lam1,
        lambda_n=lamn,
        measure=(lam1 + lamn) / g.n,
        case=case,
        trivial=g.m == 0,
        bounds=tuple(bounds),
        chain_checks=tuple(chains),
    )
