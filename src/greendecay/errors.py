"""Exception types shared across the package."""

from __future__ import annotations


class ZeroPivotError(ArithmeticError):
    """No-pivot elimination broke down at step ``k`` (1-based).

    The pivot ``value`` of step k is zero, too small to divide by safely
    relative to the largest entry of the matrix, not finite, or no larger
    than the rounding error it was computed with; or the elimination has
    overflowed by step k. A matrix raising this admits no LU factorization
    without pivoting in floating point.
    """

    def __init__(self, k: int, value: float = 0.0):
        self.k = k
        self.value = value
        super().__init__(f"no-pivot elimination breaks down at step k={k} (pivot={value!r})")


class HypothesisError(ValueError):
    """Hypotheses of a bound family are not satisfied by the given matrix."""


class DominanceError(HypothesisError):
    """The hypothesis of the LU and Varah families, strong column dominance, fails.

    Raised when mu >= 1 or a diagonal entry is zero; as a HypothesisError it
    makes those two families not applicable, as any other family's does.
    """

    def __init__(self, mu: float, zero_diagonal_index: int | None = None):
        self.mu = mu
        self.zero_diagonal_index = zero_diagonal_index
        if zero_diagonal_index is not None:
            msg = f"zero diagonal entry at k={zero_diagonal_index}; dominance undefined"
        else:
            msg = f"strong dominance condition not satisfied: mu = {mu!r} >= 1"
        super().__init__(msg)


class RegionError(IndexError):
    """Requested entry lies outside the region covered by the representation."""


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
