"""Structured LU factorization of lower band matrices and Green generators
of their inverses.

For a strongly regular lower band matrix A of order r the factorization
A = L R (L unit lower triangular, R upper triangular) needs no pivoting and
creates no fill outside the band: elimination step k only touches the rows
k+1 .. min(k+r, N) below the pivot and, in them, the columns
k+1 .. min(k+s, N), s the upper bandwidth (s = N-1 for a one-sided matrix),
one r x s rank-one update each. R keeps the upper bandwidth s. Column k of L
holds the multipliers f_k, of length r inside the band and N-k once the
window of rows below the pivot shrinks at the end. The inverse of L is the
product of the elementary elimination matrices; partitioning each
elimination block

    L_k = [[1, 0], [-f_k, I]]

row/column-wise yields the Green generators of L^{-1}: the transition
a(k) = [-f_k, I][:, :r], which is -f_k e_1^T + J (J the upper-shift matrix)
inside the band, q_L(k) = e_r and p_L(k) = e_1^T. One backward recursion
through the rows of R then assembles the Green generators of A^{-1} itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .banded import BandedMatrix
from .errors import ZeroPivotError
from .green import GreenGenerators

__all__ = [
    "StructuredLU",
    "structured_lu",
    "linv_generators",
    "inverse_green_generators",
    "p_tail_cross_check",
    "schur_complement",
]

# A pivot no larger than PIVOT_RTOL * max|A(i, j)| aborts the factorization
# instead of being perturbed: dividing by it could overflow the multipliers.
# The floor scales with A, so cA factors whenever A does; under strong
# dominance the pivots stay above (1 - mu^2)|A(k, k)|.
PIVOT_RTOL = np.finfo(float).tiny


@dataclass(frozen=True)
class StructuredLU:
    """Per-step elimination data of the banded no-pivot LU factorization.

    ``gamma[k-1]`` is the k-th pivot R(k, k); ``f[k-1]`` holds the
    elimination multipliers of step k (length r for k <= N-r, length N-k
    afterwards); ``R`` is the upper triangular factor, zero beyond the upper
    bandwidth of A, and its row k right of the diagonal is the subrow X_k of
    the generator recursion. Built by :func:`structured_lu`, which marks all
    of these arrays read-only.
    """

    n: int
    r: int
    gamma: np.ndarray
    f: tuple[np.ndarray, ...]
    R: np.ndarray

    def lower_factor(self) -> np.ndarray:
        """Reassemble the dense unit lower triangular factor L from the f_k."""
        L = np.eye(self.n)
        for k, fk in enumerate(self.f, start=1):
            L[k : k + fk.size, k - 1] = fk
        return L


def _eliminate(W: np.ndarray, r: int, s: int, steps: int) -> list[np.ndarray]:
    """Run elimination steps 1 .. ``steps`` on ``W`` in place.

    ``W`` is banded with lower bandwidth r and upper bandwidth s. Step k
    divides the rows k+1 .. min(k+r, N) of column k by the pivot W(k, k),
    subtracts the multiples of row k from columns k+1 .. min(k+s, N) (the
    rest of row k is zero: no-pivot LU creates no fill beyond s) and zeroes
    the eliminated column. Returns the multiplier vectors f_1 .. f_steps.
    """
    n = W.shape[0]
    floor = PIVOT_RTOL * max(np.abs(W.diagonal(d)).max() for d in range(-r, s + 1))
    fs = []
    for k in range(1, steps + 1):
        g = W[k - 1, k - 1]
        if abs(g) <= floor:
            raise ZeroPivotError(k, float(g))
        rows = slice(k, min(k + r, n))
        cols = slice(k, min(k + s, n))
        f = W[rows, k - 1] / g
        W[rows, cols] -= np.outer(f, W[k - 1, cols])
        W[rows, k - 1] = 0.0
        fs.append(f)
    return fs


def structured_lu(A: BandedMatrix) -> StructuredLU:
    """No-pivot LU factorization of a lower band matrix.

    Parameters
    ----------
    A : BandedMatrix
        Strongly regular (all leading principal minors nonzero), lower banded
        of order ``A.r_lower``; the upper part may be full.

    Returns
    -------
    StructuredLU
        Factor data with L @ R == A, where L is reassembled from the
        multiplier columns f_k.

    Raises
    ------
    ZeroPivotError
        If a pivot no larger than ``PIVOT_RTOL * max|A(i, j)|`` in magnitude
        is met (an exact zero always is); the error carries the 1-based step
        index.
    """
    R = A.data.copy()
    # step N has no row left to eliminate; it only checks the last pivot
    *fs, _ = _eliminate(R, A.r_lower, A.r_upper, A.n)
    # freeze the buffers built here instead of copying them; gamma is a view
    # of R's diagonal
    for v in (R, *fs):
        v.flags.writeable = False
    return StructuredLU(A.n, A.r_lower, R.diagonal(), tuple(fs), R)


def _corner(slu: StructuredLU) -> np.ndarray:
    """r x r product of the embedded trailing elimination blocks."""
    r = slu.r
    corner = np.eye(r)
    for idx, fi in enumerate(slu.f[slu.n - r :]):
        emb = np.eye(r)
        emb[idx + 1 :, idx] = -fi
        corner = emb @ corner
    return corner


def linv_generators(slu: StructuredLU) -> GreenGenerators:
    """Green generators of L^{-1}: p(k) = e_1^T, q(k) = e_r, a(k) = -f_k e_1^T + J.

    The bottom generator is the r x r product of the embedded trailing
    elimination blocks. Together with zeros on the non-represented upper
    region this reconstructs L^{-1} exactly (L^{-1} is unit lower triangular,
    so all entries with j > i vanish, including the block-diagonal ones).
    """
    n, r = slu.n, slu.r
    a_stack = np.tile(np.eye(r, k=1), (n - r, 1, 1))
    a_stack[:, :, 0] -= slu.f[: n - r]
    return GreenGenerators(
        np.tile(np.eye(1, r), (n - r, 1)),
        _corner(slu),
        np.tile(np.eye(1, r, r - 1), (n - r, 1)),
        a_stack,
    )


def inverse_green_generators(A: BandedMatrix) -> GreenGenerators:
    """Green generators of A^{-1} for a strongly regular lower band matrix.

    The transition and column generators of A^{-1} coincide with those of
    L^{-1}; the row generators satisfy the backward recursion

        P_N  = 1 / gamma_N,
        p(k) = (e_1^T - X_k P_{k+1} a(k)) / gamma_k,
        P_k  = [p(k); P_{k+1} a(k)],

    for k = N-1 .. 1 with a(k) = [-f_k, I][:, :r], so that
    P a(k) = [-P f_k, P[:, :r-1]]. The block P_{N-r+1} is the r x r bottom
    generator; the rows p(k), k <= N-r, are the others. X_k is nonzero only
    on R(k, k+1:k+s) (s the upper bandwidth), so X_k P_{k+1} reads the first
    s rows of P_{k+1}, and row t of P_k is row t-1 of P_{k+1} a(k): a window
    of the first max(r, s) rows of P carries the recursion in O(N r max(r, s))
    time and O(N r^2) memory on top of the factorization.
    """
    slu = structured_lu(A)
    n, r, s = slu.n, slu.r, A.r_upper
    window = max(r, s)
    e1 = np.eye(1, r)[0]

    P = np.array([[1.0 / slu.gamma[n - 1]]])
    bottom = P
    p_rows = np.empty((n - r, r))
    for k in range(n - 1, 0, -1):
        x = slu.R[k - 1, k : k + s]
        # Z = [X_k P_{k+1}; first rows of P_{k+1}], then P_k = Z a(k) with
        # its first row turned into p(k)
        Z = np.empty((min(window, n - k + 1), P.shape[1]))
        Z[0] = x @ P[: x.size]
        Z[1:] = P[: len(Z) - 1]
        m = min(r, n - k + 1)  # a(k) has m columns
        P = np.empty((len(Z), m))
        P[:, 0] = -(Z @ slu.f[k - 1])
        P[:, 1:] = Z[:, : m - 1]
        P[0] = (e1[:m] - P[0]) / slu.gamma[k - 1]
        if k == n - r + 1:
            bottom = P
        elif k <= n - r:
            p_rows[k - 1] = P[0]
    return replace(linv_generators(slu), p_rows=p_rows, bottom=bottom)


def p_tail_cross_check(slu: StructuredLU) -> np.ndarray:
    """Bottom Green generator via the trailing R block: R_tail^{-1} L_tail.

    Independent of the backward recursion in :func:`inverse_green_generators`;
    the two must agree to roundoff. L_tail is the composite r x r product of
    the trailing elimination blocks, which is also the bottom generator of
    :func:`linv_generators`.
    """
    n, r = slu.n, slu.r
    return np.linalg.solve(slu.R[n - r :, n - r :], _corner(slu))


def schur_complement(A: BandedMatrix, ell: int) -> np.ndarray:
    """Trailing (N-ell) x (N-ell) matrix after ell elimination steps.

    The result is again lower banded of order r (elimination of a band
    column touches only the r rows below the pivot) and inherits the strong
    dominance condition of A with the same mu. Returned as a plain dense
    array: for ell = N - r the trailing block is r x r, too small to carry
    the order-r band declaration.
    """
    n, r = A.n, A.r_lower
    if not 1 <= ell <= n - r:
        raise ValueError(f"need 1 <= ell <= N - r = {n - r}, got {ell}")
    W = A.data.copy()
    _eliminate(W, r, A.r_upper, ell)
    return W[ell:, ell:].copy()
