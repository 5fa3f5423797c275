"""Structured LU factorization of lower band matrices and Green generators
of their inverses.

For a strongly regular lower band matrix A of order r the factorization
A = L R (L unit lower triangular, R upper triangular) needs no pivoting and
creates no fill outside the band: elimination step k divides the r entries
below the pivot by it, giving the multipliers f_k (column k of L), and
makes one r x s rank-one update of the rows below, s the upper bandwidth
(s = N-1 for a one-sided matrix). R keeps the upper bandwidth s. The
inverse of L is the product of the elementary elimination matrices;
partitioning each elimination block

    L_k = [[1, 0], [-f_k, I]]

row/column-wise yields the Green generators of L^{-1}: the transition
a(k) = [-f_k, I][:, :r], which is -f_k e_1^T + J (J the upper-shift matrix)
inside the band, q_L(k) = e_r and p_L(k) = e_1^T. A^{-1} shares the
transitions and the column generators, so its ``GreenGenerators`` store
f_1 .. f_{N-r} in their place; one backward recursion through the rows of R
assembles the row generators p(k) of A^{-1}. The generators thus depend on A
only through f and R, the two arrays a ``StructuredLU`` holds, and
:func:`inverse_green_generators` takes that factorization in place of A, so
a caller that needs the factors as well as the generators factors A once.

For a two-sided band neither part holds an N x N array. The factorization
eliminates in the work array W = ``A.band(r)``, of shape (N+r, r+s+1),
W[i, t] = A(i, i+t-r) (0-based): the row-wise form of LAPACK ``dgbtrf``'s
band storage, with r zero rows at the bottom so that every step addresses
a full (r+1) x (s+1) window G[k] = A(k : k+r+1, k : k+s+1) of one strided
view of W (row stride w-1 inside a window, w = r+s+1). The multipliers
replace the entries they eliminate, as in ``dgbtrf``, so R, the pivots and
f are views of W: O(N (r+s)) memory and O(N r s) time.

Narrow windows (r s <= 48) are eliminated on Python floats, wider ones,
the one-sided among them, with numpy calls on the window views; both round
every operation alike and leave the same bits (see :func:`_eliminate`).

The recursion's state P_k is the block A^{-1}(k : k+w-1, k : k+r-1)
(1-based, w = max(r, s) here), so p(k) = A^{-1}(k, k : k+r-1) is its first
row and the bottom generator is the trailing r x r block of A^{-1}. All P_k
are windows of one band array of A^{-1}, shape (N, w+r), strided like W (the
last w-1 of them cut at row N): step k writes the column A^{-1}(k : k+w-1,
k) and the row p(k), and the rest of P_k is P_{k+1}, already in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .banded import BandedMatrix, _band_to_dense
from .errors import ZeroPivotError
from .green import GreenGenerators

__all__ = [
    "StructuredLU",
    "structured_lu",
    "inverse_green_generators",
    "p_tail_cross_check",
    "schur_complement",
]

# A pivot no larger than PIVOT_RTOL * max|A(i, j)| aborts the factorization
# instead of being perturbed: dividing by it could overflow the multipliers.
# The floor scales with A, so cA factors whenever A does; under strong
# dominance the pivots stay above (1 - mu^2)|A(k, k)|.
PIVOT_RTOL = np.finfo(float).tiny

# Largest r * s that _eliminate runs on Python floats; wider windows run in
# numpy. Set below the measured break-even near r * s = 55.
_ROWS_MAX_UPDATES = 48


@dataclass(frozen=True, eq=False)
class StructuredLU:
    """Per-step elimination data of the banded no-pivot LU factorization.

    Both arrays are read-only views of the band work array that
    :func:`structured_lu` eliminates in; neither is N x N unless the upper
    bandwidth s is. ``R`` is the (N, s+1) band of the upper factor,
    ``R[k-1, t] = R(k, k+t)``, so row k-1 right of its first entry is the
    subrow X_k of the generator recursion; entries past column N are zero.
    ``f`` is (N-1, r): ``f[k-1]`` holds the multipliers f_k of step k, and
    the short trailing f_k (length N-k for k > N-r) are padded to length r
    with 0 / gamma_k, a zero of the pivot's sign. N, r and s follow from the
    shapes, and ``gamma`` is the view ``R[:, 0]`` of the pivots R(k, k). The
    dense factors, for the oracle checks, come from :meth:`lower_factor` and
    :meth:`upper_factor`.
    """

    f: np.ndarray  # (N-1, r)
    R: np.ndarray  # (N, s+1)

    @property
    def n(self) -> int:
        return len(self.R)

    @property
    def r(self) -> int:
        return self.f.shape[1]

    @property
    def s(self) -> int:
        return self.R.shape[1] - 1

    @property
    def gamma(self) -> np.ndarray:
        return self.R[:, 0]

    def lower_factor(self) -> np.ndarray:
        """Reassemble the dense unit lower triangular factor L from the f_k."""
        L = np.eye(self.n)
        for k in range(1, self.n):
            L[k : k + self.r, k - 1] = self.f[k - 1, : self.n - k]
        return L

    def upper_factor(self) -> np.ndarray:
        """Reassemble the dense upper triangular factor R from its band."""
        return _band_to_dense(self.R, 0)


def _windows(W: np.ndarray, r: int, s: int) -> np.ndarray:
    """View G of W with G[k, i, j] = A(k+i, k+j), shape (N, r+1, s+1)."""
    n, w = len(W) - r, W.shape[1]
    b = W.itemsize
    # np.ndarray checks that the last window, up to A(N-1+r, N-1+s), lies in W
    return np.ndarray((n, r + 1, s + 1), W.dtype, W, r * b, (w * b, (w - 1) * b, b))


def _eliminate(W: np.ndarray, r: int, s: int, steps: int) -> None:
    """Run elimination steps 1 .. ``steps`` on the band work array ``W`` in place.

    Step k divides the r entries below the pivot A(k, k) by it, leaving the
    multipliers f_k where column k was, and subtracts the multiples of row k
    from the next s columns (no-pivot LU creates no fill beyond s). Past row
    and column N the window holds zeros and computes 0 / g, 0 - f * 0 and
    x - 0 * u: the padding stays (signed) zero, and the entries of A get the
    arithmetic of a window cut at N.

    A step's r divisions and r s multiply-subtracts run in one of two loops,
    chosen by r s alone. As three numpy calls on views of the window
    (:func:`_eliminate_windows`) a step costs a few microseconds of call
    overhead at any r and s; as Python floats on the rows of ``W.tolist()``
    (:func:`_eliminate_rows`) it costs in proportion to r s. The row loop
    takes 0.45 of the window loop's time at r = s = 4 and breaks even near
    r s = 55 (N = 500, medians of 11 runs on a shared 2-vCPU host), so it
    runs up to ``_ROWS_MAX_UPDATES`` = 48; one-sided windows (s = N-1) keep
    numpy. Each loop rounds every quotient, product and difference once, as
    an IEEE double operation on the same operands in the same order, with no
    fused multiply-add, so on return both have left the same bits in W, and
    both raise the same error.

    A pivot that is zero, below the floor or not finite raises
    ZeroPivotError at its step. Overflow runs on, but inf and NaN never turn
    finite (0 * inf is NaN) and reach a later pivot along their row; only an
    early stop (:func:`schur_complement`) leaves them to the final check.
    """
    floor = PIVOT_RTOL * max(W.max(), -W.min())  # max|W| without a copy of |W|
    loop = _eliminate_rows if r * s <= _ROWS_MAX_UPDATES else _eliminate_windows
    loop(W, r, s, steps, float(floor))
    if not np.isfinite(W).all():
        raise ZeroPivotError(steps, float(W[steps - 1, r]))


@np.errstate(over="ignore", invalid="ignore")
def _eliminate_windows(W: np.ndarray, r: int, s: int, steps: int, floor: float) -> None:
    """The steps of :func:`_eliminate` as three numpy calls on each window."""
    G = _windows(W, r, s)
    windows = zip(G[:steps, 0, 0], G[:, 1:, 0], G[:, 0, 1:], G[:, 1:, 1:])
    for k, (g, f, u, T) in enumerate(windows, start=1):
        if not floor < abs(g) < np.inf:
            raise ZeroPivotError(k, float(g))
        f /= g
        T -= np.multiply.outer(f, u)


def _eliminate_rows(W: np.ndarray, r: int, s: int, steps: int, floor: float) -> None:
    """The steps of :func:`_eliminate` on the rows of W as lists of floats.

    Row k+i of window k holds f_i at column r-i and T[i, j] at r-i+j, and
    row k holds u_j at r+j. A Python float operation rounds once, as a numpy
    one does, and f_i * u_j is rounded before it is subtracted, as in
    ``T -= np.multiply.outer(f, u)``.
    """
    rows = W.tolist()
    plan = [(i, r - i, [(r - i + j, r + j) for j in range(1, s + 1)]) for i in range(1, r + 1)]
    for k in range(steps):
        top = rows[k]
        g = top[r]
        if not floor < abs(g) < np.inf:
            raise ZeroPivotError(k + 1, g)
        for i, c, cols in plan:
            row = rows[k + i]
            f = row[c] = row[c] / g
            for t, j in cols:
                row[t] -= f * top[j]
    W[:] = rows


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
        Band factor data with ``lower_factor() @ upper_factor() == A`` up
        to roundoff.

    Raises
    ------
    ZeroPivotError
        If a pivot no larger than ``PIVOT_RTOL * max|A(i, j)|`` in magnitude
        is met (an exact zero always is), the elimination overflows, or a
        computed pivot gamma_k is no larger than its own rounding error
        bound gamma_{r+1} (|L||R|)(k, k); the error carries the 1-based step
        index of the first such pivot.
    """
    n, r, s = A.n, A.r_lower, A.r_upper
    W = A.band(r)
    # step N has no row left to eliminate; it only checks the last pivot
    _eliminate(W, r, s, n)
    # freeze W instead of copying it; every factor array is a view of it
    W.flags.writeable = False
    slu = StructuredLU(_windows(W, r, s)[: n - 1, 1:, 0], W[:n, r:])
    _reject_residue_pivots(slu)
    return slu


def _reject_residue_pivots(slu: StructuredLU) -> None:
    """Raise ZeroPivotError at the first pivot that may be rounding residue.

    The computed factors are exact for A + dA with |dA| <= gamma_{r+1} |L||R|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm
    9.3; no entry of L R sums more than r+1 terms), gamma_m = m u / (1 - m u).
    A pivot no larger than that bound on its own entry is indistinguishable
    from zero, although the floor test passed it: the residue of a
    cancellation such as 1e100 - 1e100. (|L||R|)(k, k) sums
    |L(k, k-t)| |R(k-t, k)| over t = 0 .. min(r, s), L(k, k) = 1.
    """
    n, r, s = slu.n, slu.r, slu.s
    u = np.finfo(float).eps / 2
    scale = np.abs(slu.gamma)  # the term t = 0
    for t in range(1, min(r, s) + 1):
        # L(k, k-t) = f[k-t-1, t-1] and R(k-t, k) = R[k-t-1, t], k = t+1 .. N
        scale[t:] += np.abs(slu.f[: n - t, t - 1]) * np.abs(slu.R[: n - t, t])
    residue = np.abs(slu.gamma) <= (r + 1) * u / (1 - (r + 1) * u) * scale
    if residue.any():
        k = int(residue.argmax())
        raise ZeroPivotError(k + 1, float(slu.gamma[k]))


def _corner(slu: StructuredLU) -> np.ndarray:
    """r x r product of the embedded trailing elimination blocks."""
    r = slu.r
    corner = np.eye(r)
    for idx, fi in enumerate(slu.f[slu.n - r :]):
        emb = np.eye(r)
        emb[idx + 1 :, idx] = -fi[: r - 1 - idx]
        corner = emb @ corner
    return corner


@np.errstate(over="ignore", invalid="ignore")
def inverse_green_generators(A: BandedMatrix | StructuredLU) -> GreenGenerators:
    """Green generators of A^{-1} for a strongly regular lower band matrix.

    ``A`` is the matrix, which is factored with :func:`structured_lu`, or its
    factorization, of which only ``f`` and ``R`` are read.

    The transition and column generators of A^{-1} coincide with those of
    L^{-1}; the row generators satisfy the backward recursion

        P_N  = 1 / gamma_N,
        p(k) = (e_1^T - X_k P_{k+1} a(k)) / gamma_k,
        P_k  = [p(k); P_{k+1} a(k)],

    for k = N-1 .. 1 with a(k) = [-f_k, I][:, :r], so that
    P a(k) = [-P f_k, P[:, :r-1]], and X_k = R(k, k+1 : k+s). P_k is the
    block A^{-1}(k : k+w-1, k : k+r-1), w = max(r, s), one window of the
    band array of A^{-1} (see the module docstring); a step writes one
    column and one row of it. Time O(N r w) and memory O(N (r + w)) on top
    of the factorization. Generators that overflow raise ValueError.
    """
    slu = A if isinstance(A, StructuredLU) else structured_lu(A)
    n, r, s = slu.n, slu.r, slu.s
    w = max(r, s)
    # B[i, t] = A^{-1}(i, i+t-w+1) (0-based). Q[k-1] is P_k with one more
    # column; row 0 of columns 1 .. r holds X_k P_{k+1} until p(k) replaces
    # it. Q holds the whole windows, k = 1 .. N-w+1. S is B read with a
    # window's row stride, S[i, j] = A^{-1}(i, j) inside the band; the later
    # windows, which would reach past row N, are slices of S. The last
    # element of S is that of B, and np.ndarray checks that S lies in B.
    B = np.zeros((n, w + r))
    Q = _windows(B, w - 1, r)
    b = B.itemsize
    S = np.ndarray((n, n + r), B.dtype, B, (w - 1) * b, ((w + r - 1) * b, b))
    B[n - 1, w - 1] = 1.0 / slu.gamma[n - 1]
    e1 = np.eye(1, r)[0]

    def cut(k):
        # the last w-1 steps cut their operands at row and column N: padding
        # the products with zeros would change how BLAS sums them
        c, m = min(s, n - k), min(r, n - k)
        Z = S[k - 1 :, k - 1 : k + r]  # P_k and one more column, cut at row N
        # P_{k+1} is Z shifted by one row and one column
        return (slu.R[k - 1, 1 : 1 + c], Z[1 : 1 + c, 1 : 1 + m], Z[:, 1 : 1 + m],
                Z[:, 0], Z[0, :r], slu.f[k - 1, :m], slu.gamma[k - 1])

    # steps k = N-1 .. 1; those up to k = N-w use whole windows
    whole = (slu.R[:, 1:], Q[1:, :s, :r], Q[:, :, 1:], Q[:, :, 0], Q[:, 0, :r], slu.f, slu.gamma)
    steps = chain(map(cut, range(n - 1, n - w, -1)), zip(*(a[n - w - 1 :: -1] for a in whole)))
    for x, P, Z, col, p, f, g in steps:
        # BLAS sums a strided column (r = 1) in another order than a contiguous one
        np.dot(x, P if r > 1 else P.copy(), out=Z[0])
        np.negative(Z.dot(f), out=col)
        np.subtract(e1, p, out=p)
        p /= g
    return GreenGenerators(B[: n - r, w - 1 : w - 1 + r], S[n - r :, n - r : n], slu.f[: n - r])


def p_tail_cross_check(slu: StructuredLU) -> np.ndarray:
    """Bottom Green generator via the trailing R block: R_tail^{-1} L_tail.

    Independent of the backward recursion in :func:`inverse_green_generators`;
    the two must agree to roundoff. L_tail is the composite r x r product of
    the trailing elimination blocks, the trailing r x r block of L^{-1}.
    """
    r = slu.r
    return np.linalg.solve(_band_to_dense(slu.R[-r:], 0), _corner(slu))


def schur_complement(A: BandedMatrix, ell: int) -> np.ndarray:
    """Trailing (N-ell) x (N-ell) matrix after ell elimination steps.

    The result is again lower banded of order r (elimination of a band
    column touches only the r rows below the pivot) and inherits the strong
    dominance condition of A with the same mu. Returned as a plain dense
    array: for ell = N - r the trailing block is r x r, too small to carry
    the order-r band declaration. The elimination runs on the band work
    array of :func:`structured_lu`; only the trailing block is expanded.
    """
    n, r = A.n, A.r_lower
    if not 1 <= ell <= n - r:
        raise ValueError(f"need 1 <= ell <= N - r = {n - r}, got {ell}")
    W = A.band(r)
    _eliminate(W, r, A.r_upper, ell)
    return _band_to_dense(W[ell:n], r)
