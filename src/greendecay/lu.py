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
The constructor of ``StructuredLU`` is the one check of a factorization
that every consumer reads: finite entries, no zero or residue pivot.

For a two-sided band neither part holds an N x N array. The factorization
eliminates in the work array W = ``A.band(r)``, of shape (N+r, r+s+1),
W[i, t] = A(i, i+t-r) (0-based): the row-wise form of LAPACK ``dgbtrf``'s
band storage, with r zero rows at the bottom so that every step addresses
a full (r+1) x (s+1) window G[k] = A(k : k+r+1, k : k+s+1) of one strided
view of W (row stride w-1 inside a window, w = r+s+1). The multipliers
replace the entries they eliminate, as in ``dgbtrf``, so R, the pivots and
f are views of W: O(N (r+s)) memory and O(N r s) time.

The recursion's state P_k is the block A^{-1}(k : k+w-1, k : k+r-1)
(1-based, w = max(r, s) here), so p(k) = A^{-1}(k, k : k+r-1) is its first
row and the bottom generator is the trailing r x r block of A^{-1}. All P_k
lie in one band array of A^{-1}, shape (N, w+r), strided like W, and every
step slices P_k and P_{k+1} from it by one rule, cut at row and column N:
step k writes the column A^{-1}(k : k+w-1, k) and the row p(k), and the
rest of P_k is P_{k+1}, already in place.

Both stages run in one of two ways, picked from the shape by one rule,
:func:`_on_floats`: r max(r, s) <= 48 and N >= 512. The two stages meet
only in the ``StructuredLU`` that one returns and the other reads, so the
rule routes both alike whether the recursion starts from A or from its
factorization. Where it holds, the elimination runs as a kernel of
Python floats generated for its (r, s) (:func:`_elimination_source`): it
holds the trailing r x s block of the window in local floats, reads the
entries that enter each window from one array of them and yields each
step's f_k and row k of R, which fill the one ``[f | R]`` array of which
``f`` and ``R`` are views. The recursion runs as such a kernel too
(:func:`_recursion_source`): it holds P_k in local floats, reads the rows
of ``[f | R]`` for k = N-1 .. 1, each in the one column order
``(f_k[0..r-1], gamma_k, R(k, k+1..k+s))`` that the elimination kernel
writes, zero-padded past row N, and yields each p(k) into the array of
the row generators. Both kernels are Python generators:
a step reads its inputs as one tuple of floats from a numpy array and
yields its outputs as another, which ``np.fromiter`` writes into the
result, so no list of the N (r+s+1) entries is built. Each kernel
overwrites its state in place, reading every old value first. Every other
shape, and every Schur complement, runs numpy calls: three per
elimination step on a window of W, four per recursion step on slices of
the band array of A^{-1}. Both eliminations round every operation alike
and leave the same bits; the recursion kernel sums its products left to
right, BLAS in its own order, so the two recursions give generators that
agree to roundoff, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice

import numpy as np

from .banded import BandedMatrix, _band_to_dense, _check_int
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

# Largest r * max(r, s) whose factorization and recursion run as generated
# kernels on Python floats; wider bands run numpy calls on windows, whose
# call overhead per step barely grows with r and s. The elimination kernel
# streams its band, so its cost per step does not grow with N. At r = 1,
# the widest shapes it runs, the warm kernel took 0.76 to 0.88 of the window
# loop's CPU at s = 38, 0.92 to 1.02 at s = 44 and 0.96 to 1.15 at s = 47
# and 48; the first call in a fresh process, its compile included, took
# 0.89 to 1.68 (N = 512, 1000 and 4000; medians of 25 to 31 alternating
# pairs warm, 11 to 15 cold; one BLAS thread).
_ROWS_MAX_UPDATES = 48

# Smallest N whose factorization and recursion run as generated kernels: the
# one-time compile of both pays off from N = 40 at r = s = 1 to N = 300 at
# r = s = 6 and 600 .. 1000 at r max(r, s) = 48 with r >= 2.
_KERNEL_MIN_N = 512


@dataclass(frozen=True, eq=False)
class StructuredLU:
    """Per-step elimination data of the banded no-pivot LU factorization.

    Both arrays are read-only views of one array that :func:`structured_lu`
    makes: the band work array it eliminates in, or the ``[f | R]`` array
    of its elimination kernel; neither is N x N unless the upper bandwidth s
    is. ``R`` is the (N, s+1) band of the upper factor,
    ``R[k-1, t] = R(k, k+t)``, so row k-1 right of its first entry is the
    subrow X_k of the generator recursion; entries past column N are zero.
    ``f`` is (N-1, r): ``f[k-1]`` holds the multipliers f_k of step k, and
    the short trailing f_k (length N-k for k > N-r) are padded to length r
    with 0 / gamma_k, a zero of the pivot's sign. N, r and s follow from the
    shapes, and ``gamma`` is the view ``R[:, 0]`` of the pivots R(k, k). The
    dense factors, for the oracle checks, come from :meth:`lower_factor` and
    :meth:`upper_factor`.

    The constructor is the one check of a factorization, however it was
    built: shapes that disagree raise ValueError, the first pivot that is
    zero or not finite ZeroPivotError at its step, any other entry of ``f``
    or ``R`` that is not finite ValueError naming the array, and then the
    first pivot that is rounding residue (:func:`_reject_residue_pivots`)
    ZeroPivotError at its step.
    """

    f: np.ndarray  # (N-1, r)
    R: np.ndarray  # (N, s+1)

    def __post_init__(self):
        f, R = np.shape(self.f), np.shape(self.R)
        if not (len(f) == len(R) == 2 and R[0] - 1 == f[0] >= f[1] >= 1 and 1 <= R[1] <= R[0]):
            raise ValueError("StructuredLU needs f of shape (N-1, r) and R of shape (N, s+1), "
                             f"N > r >= 1 and s < N; got f of shape {f} and R of shape {R}")
        bad = (self.gamma == 0.0) | ~np.isfinite(self.gamma)
        if bad.any():
            k = int(bad.argmax())
            raise ZeroPivotError(k + 1, float(self.gamma[k]))
        for name in ("f", "R"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"StructuredLU's {name} has non-finite entries")
        _reject_residue_pivots(self)

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
        """Reassemble the dense unit lower triangular factor L from its band.

        The f_k fill the (N, r+1) band of L, ``V[i, t] = L(i, i+t-r)``, in
        the windows of :func:`structured_lu`'s work array; r padding rows
        take the padded f_k past row N, and ``_band_to_dense`` ignores them.
        """
        n, r = self.n, self.r
        V = np.zeros((n + r, r + 1))
        V[:, r] = 1.0
        _windows(V, r, 0)[: n - 1, 1:, 0] = self.f
        return _band_to_dense(V[:n], r)

    def upper_factor(self) -> np.ndarray:
        """Reassemble the dense upper triangular factor R from its band."""
        return _band_to_dense(self.R, 0)


def _windows(W: np.ndarray, r: int, s: int) -> np.ndarray:
    """View G of W with G[k, i, j] = A(k+i, k+j), shape (N, r+1, s+1)."""
    n, w = len(W) - r, W.shape[1]
    b = W.itemsize
    # np.ndarray checks that the last window, up to A(N-1+r, N-1+s), lies in W
    return np.ndarray((n, r + 1, s + 1), W.dtype, W, r * b, (w * b, (w - 1) * b, b))


def _pivot_floor(W: np.ndarray) -> float:
    """PIVOT_RTOL * max|W|, without a copy of |W|."""
    return float(PIVOT_RTOL * max(W.max(), -W.min()))


def _on_floats(n: int, r: int, s: int) -> bool:
    """Whether the factorization and the recursion of this shape run as generated kernels."""
    return r * max(r, s) <= _ROWS_MAX_UPDATES and n >= _KERNEL_MIN_N


@np.errstate(over="ignore", invalid="ignore")
def _eliminate(W: np.ndarray, r: int, s: int, steps: int) -> None:
    """Run elimination steps 1 .. ``steps`` on the band work array ``W`` in place.

    Step k divides the r entries below the pivot A(k, k) by it, leaving the
    multipliers f_k where column k was, and subtracts the multiples of row k
    from the next s columns (no-pivot LU creates no fill beyond s): three
    numpy calls on views of window k. Past row and column N the window holds
    zeros and computes 0 / g, 0 - f * 0 and x - 0 * u: the padding stays
    (signed) zero, and the entries of A get the arithmetic of a window cut
    at N. Long, narrow bands are factored by :func:`_eliminate_kernel`
    instead, with the same arithmetic and the same bits.

    A pivot that is zero, below the floor or not finite raises
    ZeroPivotError at its step. Overflow runs on, but inf and NaN never turn
    finite (0 * inf is NaN) and reach a later pivot along their row or
    column, so all N steps leave W finite; an early stop may not.
    """
    floor = _pivot_floor(W)
    G = _windows(W, r, s)
    windows = zip(G[:steps, 0, 0], G[:, 1:, 0], G[:, 0, 1:], G[:, 1:, 1:])
    for k, (g, f, u, T) in enumerate(windows, start=1):
        if not floor < abs(g) < np.inf:
            raise ZeroPivotError(k, float(g))
        f /= g
        T -= np.multiply.outer(f, u)


def _eliminate_kernel(W: np.ndarray, r: int, s: int) -> np.ndarray:
    """All N steps of :func:`_eliminate` in the generated kernel.

    The kernel (:func:`_elimination_source`) starts from the r x s block
    A(1 : r, 1 : s) of window 1 and takes the r+s+1 entries that enter
    window k, the column A(k : k+r-1, k+s) and the row A(k+r, k : k+s), as
    one tuple of Python floats, streamed from the first N rows of W, which
    they overwrite, so that W and ``[f | R]`` are the only arrays of that
    size held at once. Returns the (N, r+s+1) read-only array ``[f | R]``
    that the kernel's steps fill, row k-1 for step k. The pivot floor is
    that of :func:`_eliminate`, so all N steps leave every entry finite.
    """
    n, m = len(W) - r, r + s + 1
    G = _windows(W, r, s)
    state, floor = tuple(G[0, :r, :s].ravel().tolist()), _pivot_floor(W)
    W[:n] = np.concatenate((G[:, :r, s], G[:, r]), axis=1)
    out = _kernel(_elimination_source, r, s)(_rows(W[:n]), state, floor)
    F = np.fromiter(chain.from_iterable(out), float, n * m).reshape(n, m)
    F.flags.writeable = False
    return F


def _rows(E: np.ndarray):
    """The rows of the contiguous 2-D array E as tuples of Python floats, read lazily."""
    return zip(*[iter(memoryview(E.ravel()))] * E.shape[1])


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
        to roundoff, from either elimination of the module docstring; both
        leave the same bits.

    Raises
    ------
    ZeroPivotError
        If a pivot no larger than ``PIVOT_RTOL * max|A(i, j)|`` in magnitude
        is met (an exact zero always is), a pivot is not finite (an overflow
        reaches one), or a computed pivot gamma_k is no larger than its own
        rounding error bound gamma_{r+1} (|L||R|)(k, k); the error carries
        the 1-based step index of the first such pivot.
    """
    n, r, s = A.n, A.r_lower, A.r_upper
    W = A.band(r)
    # step N has no row left to eliminate; it only checks the last pivot
    if _on_floats(n, r, s):
        F = _eliminate_kernel(W, r, s)
        return StructuredLU(F[: n - 1, :r], F[:, r:])
    _eliminate(W, r, s, n)
    # freeze W instead of copying it; every factor array is a view of it
    W.flags.writeable = False
    return StructuredLU(_windows(W, r, s)[: n - 1, 1:, 0], W[:n, r:])


@np.errstate(over="ignore")
def _reject_residue_pivots(slu: StructuredLU) -> None:
    """Raise ZeroPivotError at the first pivot that may be rounding residue.

    The computed factors are exact for A + dA with |dA| <= gamma_{r+1} |L||R|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm
    9.3; no entry of L R sums more than r+1 terms), gamma_m = m u / (1 - m u).
    A pivot no larger than that bound on its own entry is indistinguishable
    from zero, though nonzero: the residue of a cancellation such as
    1e100 - 1e100. (|L||R|)(k, k) sums |L(k, k-t)| |R(k-t, k)| over
    t = 0 .. min(r, s), L(k, k) = 1; a sum that overflows marks a residue.
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
    factorization, of which only ``f`` and ``R`` are read; both give the
    same bits.

    The transition and column generators of A^{-1} coincide with those of
    L^{-1}; the row generators satisfy the backward recursion

        P_N  = 1 / gamma_N,
        p(k) = (e_1^T - X_k P_{k+1} a(k)) / gamma_k,
        P_k  = [p(k); P_{k+1} a(k)],

    for k = N-1 .. 1 with a(k) = [-f_k, I][:, :r], so that
    P a(k) = [-P f_k, P[:, :r-1]], and X_k = R(k, k+1 : k+s). P_k is the
    block A^{-1}(k : k+w-1, k : k+r-1), w = max(r, s), cut at row N, a
    slice of the band array of A^{-1} (see the module docstring); a step
    writes one column and one row of it. Time O(N r w) and memory
    O(N (r + w)) on top of the factorization.

    A step costs a few microseconds of numpy call overhead on the windows,
    or time in proportion to r w in a kernel of Python floats generated and
    compiled once per (r, s) (:func:`_kernel_generators`), on the shapes
    the module docstring names. Counting both compiles
    (0.2 ms at r = s = 1 to 2 ms at r w = 48), factorization and recursion
    from A together break even with the window loops near N = 40 at
    r = s = 1, 64 at r = 2, s = 3, 128 at r = s = 4, 300 at r = s = 6 and
    600 .. 1000 at r = 4, s = 12 and r = 2, s = 24 (process CPU, medians of
    7, one BLAS thread, shared 2-vCPU host), and at r = 1, s = 40 and 48
    between N = 256 and 512 (first calls in fresh processes, medians of 9).
    At N = 4000, r = s = 4 they take about 0.20 of the window loops' CPU.
    The generators agree with the window loop's to roundoff (worst 3.0e-16
    relative to max|p| on 6000 random bands of N <= 24).

    Generators that overflow raise ValueError.
    """
    slu = A if isinstance(A, StructuredLU) else structured_lu(A)
    n, r, s = slu.n, slu.r, slu.s
    w = max(r, s)
    if _on_floats(n, r, s):
        return _kernel_generators(slu)
    # B[i, t] = A^{-1}(i, i+t-w+1) (0-based), and S is B read with a
    # window's row stride, S[i, j] = A^{-1}(i, j) inside the band. Every step
    # slices its operands from S cut at row and column N, as padding the
    # products with zeros would change how BLAS sums them: Z is P_k with one
    # more column, whose row 0 holds X_k P_{k+1} right of its first entry
    # until p(k) replaces it, and P is P_{k+1}. The last element of S is that
    # of B, and np.ndarray checks that S lies in B.
    B = np.zeros((n, w + r))
    b = B.itemsize
    S = np.ndarray((n, n + r), B.dtype, B, (w - 1) * b, ((w + r - 1) * b, b))
    B[n - 1, w - 1] = 1.0 / slu.gamma[n - 1]
    e1 = np.eye(1, r)[0]
    for k in range(n - 1, 0, -1):
        c, m = min(s, n - k), min(r, n - k)
        Z = S[k - 1 : k - 1 + w, k - 1 : k + m]
        P = S[k : k + c, k : k + m]
        p = Z[0, :r]
        # BLAS sums a strided column (r = 1) in another order than a contiguous one
        np.dot(slu.R[k - 1, 1 : 1 + c], P if r > 1 else P.copy(), out=Z[0, 1:])
        np.negative(Z[:, 1:].dot(slu.f[k - 1, :m]), out=Z[:, 0])
        np.subtract(e1[: p.size], p, out=p)
        p /= slu.gamma[k - 1]
    return GreenGenerators(B[: n - r, w - 1 : w - 1 + r], S[n - r :, n - r : n], slu.f[: n - r])


def _kernel_generators(slu: StructuredLU) -> GreenGenerators:
    """The recursion of :func:`inverse_green_generators` as one generated kernel.

    The kernel (:func:`_recursion_source`) reads the rows of ``[f | R]``
    for k = N-1 .. 1, each in the column order ``(f_k[0..r-1], gamma_k,
    R(k, k+1..k+s))`` of ``StructuredLU``, no column reversed, as Python
    floats streamed from one array of them, zero-padded past row and column
    N, so every step runs the products of a whole window: the first r-1
    steps lead to the bottom generator, the kernel's last item after them,
    and the rest yield p(N-r) .. p(1) into one array.
    """
    n, r, s = slu.n, slu.r, slu.s
    steps = _rows(np.concatenate((slu.f[::-1], slu.R[-2::-1]), axis=1))
    kernel = _kernel(_recursion_source, r, s)
    state = (1.0 / float(slu.gamma[n - 1]),) + (0.0,) * (max(r, s) * r - 1)
    *_, state = kernel(islice(steps, r - 1), state)
    bottom = np.reshape(state[: r * r], (r, r))
    # the last item, the final state, is past the count and never read
    p_rows = np.fromiter(chain.from_iterable(kernel(steps, state)), float, (n - r) * r)
    del steps  # the rows it streams are as large as [f | R]; free them before the copies
    return GreenGenerators(p_rows.reshape(n - r, r)[::-1], bottom, slu.f[: n - r])


@cache
def _kernel(source, r: int, s: int):
    """The function ``kernel`` that ``source(r, s)`` defines, compiled once per shape."""
    namespace = {"ZeroPivotError": ZeroPivotError, "inf": math.inf}
    exec(compile(source(r, s), f"<{source.__name__} r={r} s={s}>", "exec"), namespace)
    return namespace["kernel"]


def _tuple(names: list[str]) -> str:
    """Source of the tuple of ``names``."""
    return f"({', '.join(names)}{',' * (len(names) == 1)})"


def _elimination_source(r: int, s: int) -> str:
    """Python source of the band elimination for bandwidths r and s.

    ``kernel(steps, state, floor)`` runs one step per item of ``steps``, the
    entries that enter window k in one tuple. Window k of :func:`_windows`,
    G[i, j] = A(k+i, k+j) for i <= r and j <= s, is held in local floats:
    its first r rows and s columns, ``t{i}_{j}``, are the state (given row
    by row in ``state``), and the column ``c{i}`` = G[i, s], i < r, and the
    row ``b{j}`` = G[r, j] enter with the step. The step tests the pivot
    g = G[0, 0] against ``floor``, divides f_i = G[i, 0] / g, yields f_k
    and row k of R, (g, G[0, 1 : s+1]), as one tuple and then forms the
    next state G[i, j] - f_i * G[0, j], i = 1 .. r, j = 1 .. s: the
    operations of :func:`_eliminate`, each rounded once. A pivot that fails
    the floor test raises ZeroPivotError at its step.
    The next state overwrites the old one in place, one statement per
    entry, column j = 1 .. s in turn: past the divisions ``t{a}_{b}`` is
    read only by column b's updates (as G[a, b], and for a = 0 as G[0, b])
    and overwritten in column b+1, so no old value is lost or copied.
    ``test_elimination_source_is_pinned`` shows the sources for
    (r, s) = (2, 1) and (3, 2).
    """

    def G(i, j):
        return f"b{j}" if i == r else f"c{i}" if j == s else f"t{i}_{j}"

    state = _tuple([G(i, j) for i in range(r) for j in range(s)])
    f = [f"f{i}" for i in range(r)]
    entering = _tuple([*(G(i, s) for i in range(r)), *(G(r, j) for j in range(s + 1))])
    return "\n".join([
        "def kernel(steps, state, floor):",
        *([f"    {state} = state"] if s else []),
        f"    for k, {entering} in enumerate(steps, 1):",
        f"        g = {G(0, 0)}",
        "        if not floor < abs(g) < inf:",
        "            raise ZeroPivotError(k, g)",
        *(f"        {f[i - 1]} = {G(i, 0)} / g" for i in range(1, r + 1)),
        f"        yield {_tuple([*f, 'g', *(G(0, j) for j in range(1, s + 1))])}",
        *(f"        {G(i - 1, j - 1)} = {G(i, j)} - {f[i - 1]} * {G(0, j)}"
          for j in range(1, s + 1) for i in range(1, r + 1)),
        "",
    ])


def _recursion_source(r: int, s: int) -> str:
    """Python source of the generator recursion for bandwidths r and s.

    ``kernel(steps, state)`` runs one step per item of ``steps``, step k's
    f_k and row k of R in the column order of ``StructuredLU``,
    ``(f_k[0], .., f_k[r-1], gamma_k, R(k, k+1), .., R(k, k+s))``, on the
    state P_{k+1}: w x r (w = max(r, s)) local floats ``p{i}_{j}``, given
    row by row in ``state``. It yields the
    row p(k) of each P_k it makes and, after the last step, that P_k row by
    row as its last item. Step k forms y = X_k P_{k+1}, then in place, one
    statement per entry, rows i = w-1 .. 1 of P_k, [-P_{k+1}[i-1] f,
    P_{k+1}[i-1, :r-1]], each before the row i-1 it reads is overwritten,
    and last row 0,
    (e_1^T - [-y f, y[:r-1]]) / gamma_k. Each product is rounded, then the
    products are summed left to right with no fused multiply-add, so the
    bits depend on r and s only, not on a BLAS build.
    ``test_generated_source_is_pinned`` shows the sources for
    (r, s) = (2, 1) and (3, 2).
    """
    w = max(r, s)
    P = [[f"p{i}_{j}" for j in range(r)] for i in range(w)]
    x = [f"x{t}" for t in range(s)]
    f = [f"f{j}" for j in range(r)]
    y = [f"y{j}" for j in range(r)]

    def dot(u, v):
        return " + ".join(f"{a} * {b}" for a, b in zip(u, v)) or "0.0"

    rows = [[f"(1.0 + ({dot(y, f)})) / g", *(f"-{v} / g" for v in y[:-1])]]
    rows += [[f"-({dot(P[i - 1], f)})", *P[i - 1][:-1]] for i in range(1, w)]
    state = _tuple([*chain(*P)])
    return "\n".join([
        "def kernel(steps, state):",
        f"    {state} = state",
        f"    for {_tuple([*f, 'g', *x])} in steps:",
        *(f"        {y[j]} = {dot(x, [P[t][j] for t in range(s)])}" for j in range(r)),
        *(f"        {P[i][j]} = {rows[i][j]}" for i in reversed(range(w)) for j in range(r)),
        f"        yield {_tuple(P[0])}",
        f"    yield {state}",
        "",
    ])


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
    array of :func:`structured_lu`; only the trailing block is expanded. A
    pivot that fails its test raises ZeroPivotError at its step, and so does
    an inf or NaN that no pivot has met, at step ell. ``ell`` is an integer
    in 1..N-r; anything else is a ValueError.
    """
    n, r = A.n, A.r_lower
    ell = _check_int("ell", ell, 1, n - r)
    W = A.band(r)
    _eliminate(W, r, A.r_upper, ell)
    if not np.isfinite(W).all():
        raise ZeroPivotError(ell, float(W[ell - 1, r]))
    return _band_to_dense(W[ell:n], r)
