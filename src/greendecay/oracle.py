"""Independent dense reference computations used to validate structured results.

These routines deliberately avoid the band-structured code paths: the LU
oracle is classical full-matrix elimination, and the inverse and the
symmetric spectrum are LAPACK-backed (``inv`` and ``eigvalsh``).
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroPivotError

__all__ = ["dense_lu_no_pivot", "dense_inverse", "symmetric_spectrum"]

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
    ||A X - I||_1 against the condition-scaled roundoff level; an inverse
    with a non-finite entry or a residual that is not finite fails it too.
    """
    A = np.asarray(a, dtype=float)
    X = np.linalg.inv(A)
    n = A.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(A @ X - np.eye(n)).sum(axis=0).max()
        cond = np.abs(A).sum(axis=0).max() * np.abs(X).sum(axis=0).max()
    if not (np.isfinite(X).all() and np.isfinite(resid) and resid <= 1e-8 * max(1.0, cond)):
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
