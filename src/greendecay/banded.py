"""Banded matrix container, column-dominance metrics, and Matrix Market input.

Matrices are stored densely with the declared bandwidths enforced exactly:
every entry outside the band is bit-exact zero, not merely small. The public
API is 1-based (row/column indices i, j run from 1 to N), so
``A.entry(i, j) == A.data[i - 1, j - 1]``. All containers are immutable after
construction (backing arrays are marked read-only) and safe to share between
threads.

``make_banded`` samples only the band: O(N (r_lower + r_upper + 1)) calls of
its entry function, whose values are checked and written once onto the band
diagonals of a fresh N x N array. Dense input (``BandedMatrix(...)``,
``from_dense``, ``read_matrix_market``) is copied and scanned in full: only
a scan can show that its entries outside the band are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MatrixMarketError

__all__ = [
    "BandedMatrix",
    "DominanceReport",
    "make_banded",
    "from_dense",
    "dominance_mu",
    "read_matrix_market",
]


@dataclass(frozen=True)
class BandedMatrix:
    """Dense-backed real N x N matrix with declared lower/upper bandwidths.

    Entries A(i, j) with i - j > r_lower or j - i > r_upper are exactly zero,
    and every entry is finite (NaN and +-inf are rejected).
    ``r_upper`` may be as large as N - 1 ("one-sided" matrices with an
    unrestricted upper part); ``r_lower`` must satisfy 1 <= r_lower < N.
    """

    n: int
    r_lower: int
    r_upper: int
    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=float, copy=True, order="C")
        if data.shape != (self.n, self.n):
            raise ValueError(f"data shape {data.shape} does not match n={self.n}")
        _check_dimensions(self.n, self.r_lower, self.r_upper)
        # every nonzero must lie on one of the in-band diagonals (views, no
        # copy); a NaN counts as nonzero, so once the counts agree only the
        # band can hold a non-finite entry
        band = _band_diagonals(data, self.r_lower, self.r_upper)
        if np.count_nonzero(data) != sum(np.count_nonzero(v) for v in band):
            _raise_first_non_finite(data)
            raise ValueError("entries outside the declared band must be exactly zero")
        self._seal(data, band)

    @classmethod
    def _from_band(cls, V: np.ndarray, r_lower: int, r_upper: int) -> BandedMatrix:
        """Build A from its band array, ``V[i, t] = A(i, i + t - r_lower)`` (0-based).

        Entries of V that fall outside the matrix are ignored. The in-matrix
        ones are written once onto the band diagonals of a fresh zero N x N
        array. Its out-of-band zeros hold by construction, so the copy and
        the N^2 scan of dense input are skipped; the dimension and finiteness
        checks, and their messages, are those of ``BandedMatrix(...)``.
        """
        n = len(V)
        _check_dimensions(n, r_lower, r_upper)
        data = np.zeros((n, n))
        # diagonal d starts at flat index lo*(N+1) + d and steps by N+1
        flat = data.reshape(-1)
        for t, d in enumerate(range(-r_lower, r_upper + 1)):
            lo, hi = max(0, -d), min(n, n - d)
            flat[lo * (n + 1) + d :: n + 1][: hi - lo] = V[lo:hi, t]
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r_lower", r_lower)
        object.__setattr__(self, "r_upper", r_upper)
        self._seal(data, _band_diagonals(data, r_lower, r_upper))
        return self

    def _seal(self, data: np.ndarray, band: list) -> None:
        """Check that the band views of ``data`` are finite, freeze and store it."""
        if not all(np.isfinite(v).all() for v in band):
            _raise_first_non_finite(data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def entry(self, i: int, j: int) -> float:
        """1-based entry access: A(i, j)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"indices ({i}, {j}) outside 1..{self.n}")
        return float(self.data[i - 1, j - 1])

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        """|A(i, j) - A(j, i)| <= rtol * max|A| for all i, j.

        The tolerance is relative to the largest entry, so cA is symmetric
        exactly when A is, and the zero matrix is symmetric. Only the
        diagonals d and -d for d <= max(r_lower, r_upper) are compared:
        O(N (r_lower + r_upper)) time.
        """
        diag = self.data.diagonal
        scale = max(np.abs(diag(d)).max() for d in range(-self.r_lower, self.r_upper + 1))
        gap = max(
            np.abs(diag(d) - diag(-d)).max()
            for d in range(1, max(self.r_lower, self.r_upper) + 1)
        )
        return bool(gap <= rtol * scale)


def make_banded(
    n: int,
    r_lower: int,
    r_upper: int,
    entry_fn: Callable[[int, int], float],
) -> BandedMatrix:
    """Sample ``entry_fn(i, j)`` (1-based) inside the band, zeros outside.

    ``entry_fn`` is called once per in-band entry, O(N (r_lower + r_upper + 1))
    times, row by row and with j ascending in each row. The samples fill a
    band array of shape (N, r_lower + r_upper + 1), which is checked and
    written once onto the band diagonals of the one N x N array.
    """
    _check_dimensions(n, r_lower, r_upper)
    cols = np.arange(n)[:, None] + np.arange(-r_lower, r_upper + 1)
    i, t = np.nonzero((cols >= 0) & (cols < n))
    V = np.zeros(cols.shape)
    # Python ints, as a range() loop would pass them
    V[i, t] = [entry_fn(a + 1, b + 1) for a, b in zip(i.tolist(), cols[i, t].tolist())]
    return BandedMatrix._from_band(V, r_lower, r_upper)


def _check_dimensions(n: int, r_lower: int, r_upper: int) -> None:
    if not (n > r_lower >= 1):
        raise ValueError(f"need N > r_lower >= 1, got N={n}, r_lower={r_lower}")
    if not (0 <= r_upper <= n - 1):
        raise ValueError(f"need 0 <= r_upper <= N-1, got r_upper={r_upper}, N={n}")


def _band_diagonals(data: np.ndarray, r_lower: int, r_upper: int) -> list:
    """Read-only views of the diagonals d = -r_lower .. r_upper of ``data``."""
    return [data.diagonal(d) for d in range(-r_lower, r_upper + 1)]


def _raise_first_non_finite(data: np.ndarray) -> None:
    """Raise ValueError naming the row-major first non-finite entry, if any."""
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0] + 1
        raise ValueError(
            f"entry ({i}, {j}) is {data[i - 1, j - 1]}; entries must be finite"
        )


def from_dense(
    data: np.ndarray,
    r_lower: int | None = None,
    r_upper: int | None = None,
) -> BandedMatrix:
    """Wrap a dense square array, inferring the tightest bandwidths if not given.

    An empty lower part is reported as r_lower = 1 (bandwidths of order zero
    are not representable).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {data.shape}")
    n = data.shape[0]
    if r_lower is None or r_upper is None:
        ii, jj = np.nonzero(data)
        if r_lower is None:
            r_lower = int(max(1, (ii - jj).max(initial=0)))
        if r_upper is None:
            r_upper = int(max(0, (jj - ii).max(initial=0)))
    return BandedMatrix(n, r_lower, r_upper, data)


@dataclass(frozen=True)
class DominanceReport:
    """Result of the strong column-dominance check.

    ``per_column_ratios[k-1]`` is the off-diagonal absolute column sum of
    column k (all rows above the diagonal plus the r_lower rows below it)
    divided by |A(k, k)|; ``mu`` is the largest such ratio, i.e. the smallest
    value for which the dominance inequality holds. ``satisfied`` requires
    mu < 1 and a nonzero diagonal.
    """

    mu: float
    min_diag: float
    satisfied: bool
    per_column_ratios: np.ndarray
    zero_diagonal_index: int | None = None

    def __post_init__(self):
        ratios = np.asarray(self.per_column_ratios, dtype=float)
        ratios.flags.writeable = False
        object.__setattr__(self, "per_column_ratios", ratios)


def _band_column_sums(A: BandedMatrix, fn) -> np.ndarray:
    """Column sums of fn(A(i, j)) over the band, each summed in row order.

    Diagonal d holds the entries A(i, i + d), so running d from r_upper down
    to -r_lower adds each column's band entries top to bottom: the same order
    and the same bits as a full ``fn(A.data).sum(axis=0)`` whenever fn maps
    0 to 0, since the out-of-band terms of that sum are exact zeros.
    """
    n = A.n
    sums = np.zeros(n)
    for d in range(A.r_upper, -A.r_lower - 1, -1):
        v = fn(A.data.diagonal(d))
        if d >= 0:
            sums[d:] += v
        else:
            sums[: n + d] += v
    return sums


def dominance_mu(A: BandedMatrix) -> DominanceReport:
    """Smallest mu with mu*|A(k,k)| >= off-diagonal column sums, per column.

    The sum for column k runs over the rows i = k-r_upper .. k+r_lower of the
    band (all rows i < k for a one-sided matrix, r_upper = N-1); the
    out-of-band entries are exact zeros, so this is the full off-diagonal
    column sum. Only the band diagonals are read, in O(N (r_lower+r_upper))
    time and O(N) extra memory. A zero diagonal entry makes the condition
    unsatisfiable; the report then carries the first offending 1-based index
    instead of raising.
    """
    diag = np.abs(A.data.diagonal())
    off = _band_column_sums(A, np.abs) - diag
    zero_idx = None
    if np.any(diag == 0.0):
        zero_idx = int(np.flatnonzero(diag == 0.0)[0]) + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(diag > 0.0, off / diag, np.inf)
    mu = float(ratios.max())
    min_diag = float(diag.min())
    satisfied = mu < 1.0 and min_diag > 0.0
    return DominanceReport(mu, min_diag, satisfied, ratios, zero_idx)


def _parse_header(line: str) -> tuple[str, str]:
    tokens = line.strip().lower().split()
    if len(tokens) < 5 or tokens[0] != "%%matrixmarket":
        raise MatrixMarketError("missing %%MatrixMarket header", line=1)
    obj, fmt, field, symmetry = tokens[1], tokens[2], tokens[3], tokens[4]
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(
            f"unsupported object/format {obj!r}/{fmt!r}; need matrix coordinate",
            line=1,
        )
    if field not in ("real", "integer"):
        raise MatrixMarketError(f"unsupported field {field!r}; need real", line=1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(
            f"unsupported symmetry {symmetry!r}; need general or symmetric", line=1
        )
    return field, symmetry


def read_matrix_market(path) -> BandedMatrix:
    """Read a real coordinate Matrix Market file into a BandedMatrix.

    Bandwidths are inferred as the tightest values containing all nonzeros
    (with r_lower floored at 1). General and symmetric storage are supported;
    duplicate coordinates are accumulated in file order. The file is read
    line by line, and every entry and the entry count are checked before the
    dense N x N array is allocated; parse failures report the 1-based line
    number, and an order too large to allocate is a MatrixMarketError.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header:
            raise MatrixMarketError("empty file", line=1)
        _, symmetry = _parse_header(header)
        lines = enumerate(fh, start=2)

        lineno = 1
        size_line = None
        for lineno, raw in lines:
            stripped = raw.strip()
            if stripped and not stripped.startswith("%"):
                size_line = stripped
                break
        if size_line is None:
            raise MatrixMarketError("missing size line", line=lineno)
        parts = size_line.split()
        if len(parts) != 3:
            raise MatrixMarketError(f"malformed size line {size_line!r}", line=lineno)
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError:
            raise MatrixMarketError(f"malformed size line {size_line!r}", line=lineno)
        if nrows != ncols:
            raise MatrixMarketError(
                f"matrix is not square: {nrows} x {ncols}", line=lineno
            )
        if nrows < 1:
            raise MatrixMarketError(f"order must be positive, got {nrows}", line=lineno)
        size_lineno = lineno

        # 0-based (row, col, value) in the order the entries are added
        rows, cols, vals = [], [], []
        seen = 0
        for lineno, raw in lines:
            stripped = raw.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise MatrixMarketError(f"malformed entry {stripped!r}", line=lineno)
            try:
                i, j = int(parts[0]), int(parts[1])
                v = float(parts[2])
            except ValueError:
                raise MatrixMarketError(f"malformed entry {stripped!r}", line=lineno)
            if not math.isfinite(v):
                raise MatrixMarketError(
                    f"entry ({i}, {j}) is {parts[2]}; entries must be finite", line=lineno
                )
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise MatrixMarketError(
                    f"index ({i}, {j}) outside 1..{nrows}", line=lineno
                )
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
            if symmetry == "symmetric" and i != j:
                rows.append(j - 1)
                cols.append(i - 1)
                vals.append(v)
            seen += 1
    if seen != nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {seen}")
    try:
        data = np.zeros((nrows, ncols))
    except (MemoryError, ValueError):
        raise MatrixMarketError(
            f"cannot allocate a dense matrix of order {nrows}", line=size_lineno
        ) from None
    np.add.at(data, (np.array(rows, dtype=int), np.array(cols, dtype=int)), vals)
    return from_dense(data)
