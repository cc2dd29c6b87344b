"""Exception types and the odd-k check shared across the package."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedSizeError(ValueError):
    """Graph too large for the requested encoding or enumeration."""


class HypothesisError(ValueError):
    """A formula was evaluated outside the regime where it holds."""


class GirthViolationError(ValueError):
    """Certification requested at a level above the graph's actual odd girth."""

    def __init__(self, odd_girth, k: int):
        super().__init__(f"odd girth {odd_girth} is below the requested k = {k}")
        self.odd_girth = odd_girth
        self.k = k


class InfeasibleError(ValueError):
    """The constraint system has no solution for the given parameters."""


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to converge."""


# The largest k taken. Up to it every bound formula is a positive normal
# float: the least, cycle_lower_bound(k) ~ pi^2/k^3, is about 1e-299 there.
MAX_K = 10**100


def require_odd_k(k: int, minimum: int, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless k is an odd integer in [minimum, MAX_K]."""
    if k < minimum or k > MAX_K or k % 2 == 0:
        raise error(f"k must be an odd integer in [{minimum}, 10^100], got {k}")
