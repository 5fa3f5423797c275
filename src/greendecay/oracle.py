"""Independent dense reference computations used to validate structured results.

These routines deliberately avoid the band-structured code paths: the LU
oracle is classical full-matrix elimination, the inverse and the symmetric
spectrum are LAPACK-backed (``inv`` and ``eigvalsh``), and the determinant
oracle runs fraction-free elimination in exact rational arithmetic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ZeroPivotError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "dense_lu_no_pivot",
    "dense_inverse",
    "symmetric_spectrum",
    "determinant_fraction_free",
]

# Its own copy of the structured LU's scale-relative pivot floor, so that the
# oracle does not depend on the code it checks.
_PIVOT_RTOL = np.finfo(float).tiny


@np.errstate(over="ignore", invalid="ignore")
def dense_lu_no_pivot(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical Doolittle factorization A = L R without pivoting.

    Requires all leading principal minors nonzero (guaranteed under strong
    column dominance). Raises ZeroPivotError with the 1-based step index at
    the first pivot no larger than tiny * max|A(i, j)| or not finite; the
    full trailing update carries any overflow (0 * inf is NaN) into a later
    pivot. L is unit lower triangular, R upper triangular.
    """
    U = np.array(a, dtype=float, copy=True)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    n = U.shape[0]
    floor = _PIVOT_RTOL * np.abs(U).max()
    L = np.eye(n)
    for k in range(n):
        p = U[k, k]
        if not floor < abs(p) < np.inf:
            raise ZeroPivotError(k + 1, float(p))
        m = U[k + 1 :, k] / p
        L[k + 1 :, k] = m
        U[k + 1 :, k + 1 :] -= np.outer(m, U[k, k + 1 :])
        U[k + 1 :, k] = 0.0
    return L, U


def dense_inverse(a: np.ndarray) -> np.ndarray:
    """Reference inverse with a residual guard.

    Computed by LAPACK (partial pivoting); rejects matrices whose inverse is
    meaningless at working precision by checking the 1-norm residual
    ||A X - I||_1 against the condition-scaled roundoff level.
    """
    A = np.asarray(a, dtype=float)
    X = np.linalg.inv(A)
    n = A.shape[0]
    resid = np.abs(A @ X - np.eye(n)).sum(axis=0).max()
    cond = np.abs(A).sum(axis=0).max() * np.abs(X).sum(axis=0).max()
    if resid > 1e-8 * max(1.0, cond):
        raise np.linalg.LinAlgError(
            f"matrix is singular to working precision (residual {resid:.3e})"
        )
    return X


def symmetric_spectrum(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``).

    ``eigvalsh`` reads only the lower triangle, so a matrix whose asymmetry
    exceeds 1e-12 * max|A(i, j)| is rejected; the guard is scale-invariant.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if np.abs(A - A.T).max() > 1e-12 * np.abs(A).max():
        raise ValueError("matrix is not symmetric to 1e-12")
    return np.linalg.eigvalsh(A)


def determinant_fraction_free(a: np.ndarray) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Floating inputs are binary rationals, so the result is the exact
    determinant of the stored matrix. A zero pivot is replaced by a row swap
    (flipping the sign); a column with no nonzero candidate makes the
    determinant zero. Intended for small N only; entry sizes grow quickly.
    """
    from fractions import Fraction  # only this oracle needs it

    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    M = [[Fraction(A[i, j]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
            M[i][k] = Fraction(0)
        prev = M[k][k]
    return sign * M[n - 1][n - 1]
