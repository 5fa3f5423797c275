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
    meaningless at working precision. Two 1-norm residuals are checked:
    ||A X - I||_1 against the condition-scaled roundoff level, and the
    residual of A with each row i divided by its largest |entry| d_i,
    ||D^-1 (A X - I) D||_1, against 1. Below 1, A X = D (I + F) D^-1 with
    ||F||_1 < 1 is invertible (a convergent Neumann series), so X is an
    approximate inverse however large the condition number; at 1 or more X
    is none, as when LAPACK meets no exact zero pivot in an exactly singular
    matrix. The row scaling keeps a matrix that is only badly scaled: for
    [[c, 0], [1e150, c]], c = 1 + 2^-52, rounding at the scale of 1e150
    leaves ||A X - I||_1 = 4.0e133 but the scaled residual 1.5e-16. An
    inverse with a non-finite entry, or a residual that is not finite,
    fails too.
    """
    A = np.asarray(a, dtype=float)
    X = np.linalg.inv(A)
    n = A.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        E = A @ X - np.eye(n)
        resid = np.abs(E).sum(axis=0).max()
        cond = np.abs(A).sum(axis=0).max() * np.abs(X).sum(axis=0).max()
        # E(i, j) d_j / d_i: the residual once row i of A is divided by d_i
        d = np.abs(A).max(axis=1)
        scaled = np.abs(E / d[:, None] * d).sum(axis=0).max()
    if not (np.isfinite(X).all() and np.isfinite(resid) and resid <= 1e-8 * max(1.0, cond)
            and scaled < 1.0):
        raise np.linalg.LinAlgError(
            f"matrix is singular to working precision (residual {resid:.3e})"
        )
    return X


def symmetric_spectrum(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``).

    ``eigvalsh`` reads only the lower triangle, so a matrix whose asymmetry
    exceeds 1e-12 * max|A(i, j)| is rejected; the guard is scale-invariant.
    An eigenvalue past the float range, which ``eigvalsh`` returns as inf
    (as for [[0, 1.8e308], [1.8e308, 1e308]]), raises LinAlgError.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if np.abs(A - A.T).max() > 1e-12 * np.abs(A).max():
        raise ValueError("matrix is not symmetric to 1e-12")
    w = np.linalg.eigvalsh(A)
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("an eigenvalue lies beyond the float range")
    return w
