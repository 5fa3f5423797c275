"""Banded matrix container, column-dominance metrics, and Matrix Market input.

The declared bandwidths are enforced exactly: every entry outside the band
is bit-exact zero, not merely small. The public API is 1-based (row/column
indices i, j run from 1 to N), so ``A.entry(i, j) == A.to_dense()[i - 1, j - 1]``.
All containers are immutable after construction (backing arrays are marked
read-only) and safe to share between threads.

Every constructor builds A from its band array V of shape
(N, r_lower + r_upper + 1), ``V[i, t] = A(i, i + t - r_lower)`` (0-based),
with zeros where that lies outside the matrix, and keeps V, read-only. The
readers read V alone: :meth:`BandedMatrix.band` copies it, ``entry`` and
``_diagonal`` index it, so none of them touches more than the band. No other
module knows how V is laid out. :func:`from_band` is the constructor from a
band a caller already holds: it copies V, so the caller keeps its array,
and checks the shape, the dimensions, that V is zero outside the matrix and
that every entry is finite, reading nothing of order N^2. ``make_banded``
and ``read_matrix_market`` fill a band array and build through it.
``make_banded`` samples only the band: O(N (r_lower + r_upper + 1)) calls
of its entry function. ``read_matrix_market`` reads one header shape,
``matrix coordinate real general|symmetric``, and fills V from the summed
file entries. Dense input (``BandedMatrix(...)``, ``from_dense``) is
scanned in full but not copied: only a scan can show that its entries
outside the band are zero, and then its band diagonals are read into V. A
-0.0 outside the band of dense input is therefore stored as +0.0.

One writer, :func:`_band_to_dense`, puts V onto the band diagonals of a
fresh N x N array of zeros. :meth:`BandedMatrix.to_dense` writes a new one
from the kept V on each call. Each constructor also writes V once onto
``data``, an N x N image that nothing in the package reads: it is kept only
for callers outside the package, until they read ``to_dense()`` instead and
it can be deleted. It is a zero-filled private anonymous memory mapping,
not an ``np.zeros`` allocation: the kernel maps a page only when it is first
written, so only the pages that hold band entries become resident,
O(N (r_lower + r_upper + 1) * 8) bytes rounded up to whole 4 KiB pages,
about one page per row for a narrow band. Reading an untouched page gives
zeros. The mapping asks for no transparent huge pages: numpy marks its own
large allocations for them, and then the first write into each 2 MiB page
zeroes and keeps all of it, so the whole N^2 * 8 bytes become resident for
a band of a few diagonals. ``A.data.nbytes`` still reports N^2 * 8.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MatrixMarketError

__all__ = [
    "BandedMatrix",
    "DominanceReport",
    "make_banded",
    "from_band",
    "from_dense",
    "dominance_mu",
    "read_matrix_market",
]


@dataclass(frozen=True, eq=False)
class BandedMatrix:
    """Real N x N matrix with declared lower/upper bandwidths, kept as its band.

    The band array V (see the module docstring), kept read-only as ``_V``,
    is what every reader uses, :meth:`to_dense` among them. ``data`` is its
    read-only, C-ordered float64 N x N image on a memory mapping of which
    only the pages holding the band are resident, whatever the constructor:
    dense input is checked and its band copied over, the array itself is not
    kept. Nothing in the package reads ``data``; it is written only for
    callers outside it.

    Entries A(i, j) with i - j > r_lower or j - i > r_upper are exactly zero,
    and every entry is finite (NaN and +-inf are rejected).
    ``r_upper`` may be as large as N - 1 ("one-sided" matrices with an
    unrestricted upper part); ``r_lower`` must satisfy 1 <= r_lower < N.
    Every constructor takes N and both bandwidths as integers, Python ints or
    numpy integers but not bools (anything else is a ValueError), and keeps
    them as Python ints.
    """

    n: int
    r_lower: int
    r_upper: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.n, self.n):
            raise ValueError(f"data shape {data.shape} does not match n={self.n}")
        n, r_lower, r_upper = _check_dimensions(self.n, self.r_lower, self.r_upper)
        vars(self).update(n=n, r_lower=r_lower, r_upper=r_upper)  # past the frozen __setattr__
        V = _read_band(data, r_lower, r_upper)
        # every nonzero must lie in the band; a NaN counts as nonzero, so
        # once the counts agree only the band can hold a non-finite entry
        if np.count_nonzero(data) != np.count_nonzero(V):
            _raise_first_non_finite(data)
            raise ValueError("entries outside the declared band must be exactly zero")
        self._store(V)

    def _store(self, V: np.ndarray) -> None:
        """Check the band V is finite, write it onto fresh mapped zeros, freeze and store both."""
        _raise_first_non_finite(V, self.r_lower)
        data = _band_to_dense(V, self.r_lower, _mapped_zeros(self.n))
        for arr in (V, data):
            arr.flags.writeable = False
        vars(self).update(_V=V, data=data)  # past the frozen __setattr__

    def band(self, pad: int = 0) -> np.ndarray:
        """New band array V of shape (N + pad, r_lower + r_upper + 1).

        ``V[i, t] = A(i, i + t - r_lower)`` (0-based), the row-wise form of
        LAPACK's band storage; entries outside the matrix, the ``pad`` rows
        at the bottom among them, are zero. The array is the caller's to
        overwrite.
        """
        return np.concatenate((self._V, np.zeros((pad, self._V.shape[1]))))

    def to_dense(self) -> np.ndarray:
        """New writable dense N x N array of A, the caller's to overwrite.

        The kept band V is written onto fresh zeros: O(N^2) memory and
        O(N (r_lower + r_upper + 1)) writes.
        """
        return _band_to_dense(self._V, self.r_lower)

    def entry(self, i: int, j: int) -> float:
        """1-based entry access: A(i, j); IndexError unless i and j are integers in 1..N."""
        _check_indices(i, j, self.n)
        t = j - i + self.r_lower
        return float(self._V[i - 1, t]) if 0 <= t < self._V.shape[1] else 0.0

    def is_symmetric(self) -> bool:
        """|A(i, j) - A(j, i)| <= 1e-12 * max|A| for all i, j.

        The tolerance is relative to the largest entry, so cA is symmetric
        exactly when A is, and the zero matrix is symmetric. Only the
        diagonals d and -d for d <= max(r_lower, r_upper) are compared:
        O(N (r_lower + r_upper)) time. A gap that overflows, as between
        1e308 and -1e308, is inf, with no warning: not symmetric.
        """
        scale = max(
            np.abs(_diagonal(self, d)).max() for d in range(-self.r_lower, self.r_upper + 1)
        )
        with np.errstate(over="ignore"):
            gap = max(
                np.abs(_diagonal(self, d) - _diagonal(self, -d)).max()
                for d in range(1, max(self.r_lower, self.r_upper) + 1)
            )
        return bool(gap <= 1e-12 * scale)


def make_banded(
    n: int,
    r_lower: int,
    r_upper: int,
    entry_fn: Callable[[int, int], float],
) -> BandedMatrix:
    """Sample ``entry_fn(i, j)`` (1-based) inside the band, zeros outside.

    ``entry_fn`` is called once per in-band entry, O(N (r_lower + r_upper + 1))
    times, row by row and with j ascending in each row. Both indices are
    Python ints, read from memoryviews of one int64 pair of arrays, the rows
    and the columns of the in-band positions; the samples go straight into a
    band array of shape (N, r_lower + r_upper + 1), from which
    :func:`from_band` builds A.
    """
    n, r_lower, r_upper = _check_dimensions(n, r_lower, r_upper)
    inside = _in_matrix(n, r_lower, r_upper)
    # 1-based (i, j) in row-major order, made in place, read as Python ints
    i, j = np.nonzero(inside)
    j += i + (1 - r_lower)
    i += 1
    V = np.zeros(inside.shape)
    V[inside] = np.fromiter(map(entry_fn, memoryview(i), memoryview(j)), float, len(i))
    del inside, i, j  # from_band copies V
    return from_band(V, r_lower, r_upper)


def from_band(V: np.ndarray, r_lower: int, r_upper: int) -> BandedMatrix:
    """Build A from its band array V, ``V[i, t] = A(i, i + t - r_lower)`` (0-based).

    V has shape (N, r_lower + r_upper + 1), the row-wise form of LAPACK's
    band storage that :meth:`BandedMatrix.band` returns; its entries that
    fall outside the matrix (the top left and bottom right corners) must be
    zero, since the factorization reads them. The dimension and finiteness
    checks, and their messages, are those of ``BandedMatrix(...)``; a
    non-finite entry of V is named by its (i, j) in A. No N x N array is
    scanned. V is copied: the caller keeps its array and may go on writing
    it, and A never sees those writes.
    """
    V = np.array(V, dtype=float)
    if V.ndim == 2:  # the dimensions are integers before the width adds them
        n, r_lower, r_upper = _check_dimensions(len(V), r_lower, r_upper)
    if V.ndim != 2 or V.shape[1] != r_lower + r_upper + 1:
        raise ValueError(
            f"band array of shape {V.shape} is not (N, r_lower + r_upper + 1) "
            f"for r_lower={r_lower}, r_upper={r_upper}"
        )
    outside = np.argwhere(~_in_matrix(n, r_lower, r_upper) & (V != 0.0))
    if outside.size:
        i, t = outside[0]
        raise ValueError(
            f"band array entry V[{i}, {t}] = {V[i, t]} lies outside the matrix and must be zero"
        )
    A = object.__new__(BandedMatrix)
    vars(A).update(n=n, r_lower=r_lower, r_upper=r_upper)
    A._store(V)
    return A


def _in_matrix(n: int, r_lower: int, r_upper: int) -> np.ndarray:
    """Mask of the band array positions (i, t) whose column i + t - r_lower lies in 0..N-1."""
    i = np.arange(n)[:, None]
    d = np.arange(-r_lower, r_upper + 1)  # the diagonal j - i of each t
    return (d >= -i) & (d < n - i)


def _mapped_zeros(n: int) -> np.ndarray:
    """Zero float64 n x n array on a fresh private anonymous memory mapping.

    Pages are mapped when first written, so untouched ones cost no memory.
    The mapping lives as long as the array, its ``base``. A mapping that
    cannot be made raises MemoryError, as ``np.zeros`` does. Where ``mmap``
    has no ``MAP_PRIVATE`` (Windows) the default anonymous mapping is used,
    also zero-filled on demand.
    """
    private = getattr(mmap, "MAP_PRIVATE", None)
    flags = {} if private is None else {"flags": private | mmap.MAP_ANONYMOUS}
    try:
        buf = mmap.mmap(-1, n * n * 8, **flags)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map a float64 array of order {n}") from exc
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # a huge page would make 2 MiB resident for each band entry written;
        # the hint is advisory, and a kernel without huge pages rejects it
        try:
            buf.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:
            pass
    return np.frombuffer(buf, dtype=float).reshape(n, n)


def _check_dimensions(n: int, r_lower: int, r_upper: int) -> tuple[int, int, int]:
    """(N, r_lower, r_upper) as Python ints; ValueError unless they are integers
    with N > r_lower >= 1 and 0 <= r_upper <= N - 1."""
    if not all(_is_integer(x) for x in (n, r_lower, r_upper)):
        raise ValueError(
            f"need integer N, r_lower and r_upper, got N={n!r}, r_lower={r_lower!r}, "
            f"r_upper={r_upper!r}"
        )
    n, r_lower, r_upper = int(n), int(r_lower), int(r_upper)
    if not (n > r_lower >= 1):
        raise ValueError(f"need N > r_lower >= 1, got N={n}, r_lower={r_lower}")
    if not (0 <= r_upper <= n - 1):
        raise ValueError(f"need 0 <= r_upper <= N-1, got r_upper={r_upper}, N={n}")
    return n, r_lower, r_upper


def _is_integer(x) -> bool:
    """True for a Python int or a numpy integer; False for a bool, and for 1.0 too."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_indices(i: int, j: int, n: int) -> None:
    """IndexError unless the 1-based indices i and j are integers in 1..n."""
    if not (_is_integer(i) and _is_integer(j)):
        raise IndexError(f"indices must be integers, got ({i!r}, {j!r})")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices ({i}, {j}) outside 1..{n}")


def _band_to_dense(V: np.ndarray, r_lower: int, out: np.ndarray | None = None) -> np.ndarray:
    """m x m matrix M with M(i, i + t - r_lower) = V[i, t] (0-based), zero elsewhere.

    V has m rows; its entries that fall outside the matrix are ignored. The
    band is written into ``out``, a C-ordered m x m array of zeros (a new
    one by default), one strided slice per diagonal: diagonal d starts at
    flat index lo*(m+1) + d and steps by m+1. Nothing off the band is
    touched.
    """
    m, w = V.shape
    out = np.zeros((m, m)) if out is None else out
    flat = out.reshape(-1)
    for t in range(max(0, r_lower - m + 1), min(w, r_lower + m)):
        d = t - r_lower
        lo, hi = max(0, -d), min(m, m - d)
        flat[lo * (m + 1) + d :: m + 1][: hi - lo] = V[lo:hi, t]
    return out


def _read_band(data: np.ndarray, r_lower: int, r_upper: int) -> np.ndarray:
    """Band array of the N x N ``data``, shape (N, r_lower + r_upper + 1).

    The inverse of :func:`_band_to_dense` on the band: ``V[i, t] =
    data[i, i + t - r_lower]``, zero where that lies outside the matrix.
    Only the band diagonals of ``data`` are read.
    """
    n = len(data)
    V = np.zeros((n, r_lower + r_upper + 1))
    for t, d in enumerate(range(-r_lower, r_upper + 1)):
        diag = data.diagonal(d)
        V[max(0, -d) :, t][: diag.size] = diag
    return V


def _diagonal(A: BandedMatrix, d: int) -> np.ndarray:
    """Diagonal d of A, the N - |d| entries A(i, i + d).

    Inside the band it is a read-only view of a column of V, no copy; a d
    outside the band gives new zeros.
    """
    n, r = A.n, A.r_lower
    if not -r <= d <= A.r_upper:
        return np.zeros(n - abs(d))
    return A._V[max(0, -d) : n - max(0, d), r + d]


def _raise_first_non_finite(M: np.ndarray, r_lower: int | None = None) -> None:
    """Raise ValueError naming the row-major first non-finite entry of A, if any.

    M is A itself, or with ``r_lower`` its band array V, ``M[i, t] =
    A(i, i + t - r_lower)``: row-major order in V is row-major order in A,
    and V's entries outside the matrix are zero, so only the band is read.
    """
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, t = bad[0]
        j = t if r_lower is None else i + t - r_lower
        raise ValueError(f"entry ({i + 1}, {j + 1}) is {M[i, t]}; entries must be finite")


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


@dataclass(frozen=True, eq=False)
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
    per_column_ratios: np.ndarray
    zero_diagonal_index: int | None = None

    def __post_init__(self):
        ratios = np.asarray(self.per_column_ratios, dtype=float)
        ratios.flags.writeable = False
        object.__setattr__(self, "per_column_ratios", ratios)

    @property
    def satisfied(self) -> bool:
        return self.mu < 1.0 and self.min_diag > 0.0


def _band_column_sums(A: BandedMatrix, fn) -> np.ndarray:
    """Off-diagonal column sums of fn(A(i, j)) over the band, in row order.

    Diagonal d holds the entries A(i, i + d), so running d from r_upper down
    to -r_lower, skipping d = 0, adds each column's off-diagonal band entries
    top to bottom. Whenever fn maps 0 to 0 this gives the same bits as the
    full ``fn(A.to_dense()).sum(axis=0)`` with the diagonal set to zero,
    since the zero terms of that sum change nothing. The diagonal is skipped rather
    than subtracted afterwards: a diagonal that dwarfs the rest of its column
    would cancel the off-diagonal terms to zero.

    A term or a sum that overflows is inf, with no warning: for fn = abs an
    infinite sum makes that column's ratio, and mu, inf (dominance fails),
    and for fn = square it is an s_k^2 that :func:`qr_bound` rejects. fn
    must be non-negative, so no inf - inf arises.
    """
    n = A.n
    sums = np.zeros(n)
    with np.errstate(over="ignore"):
        for d in range(A.r_upper, -A.r_lower - 1, -1):
            if d == 0:
                continue
            v = fn(_diagonal(A, d))
            if d > 0:
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
    instead of raising. A ratio that overflows (a subnormal diagonal entry,
    or an infinite column sum) is inf, with no warning: mu = inf, and
    dominance fails.
    """
    diag = np.abs(_diagonal(A, 0))
    off = _band_column_sums(A, np.abs)
    zero_idx = None
    if np.any(diag == 0.0):
        zero_idx = int(np.flatnonzero(diag == 0.0)[0]) + 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = np.where(diag > 0.0, off / diag, np.inf)
    return DominanceReport(float(ratios.max()), float(diag.min()), ratios, zero_idx)


def _parse_header(line: str) -> str:
    """Symmetry of the one header shape read, ``matrix coordinate real general|symmetric``."""
    tokens = line.strip().lower().split()
    if len(tokens) < 5 or tokens[0] != "%%matrixmarket":
        raise MatrixMarketError("missing %%MatrixMarket header", line=1)
    obj, fmt, field, symmetry = tokens[1], tokens[2], tokens[3], tokens[4]
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(
            f"unsupported object/format {obj!r}/{fmt!r}; need matrix coordinate",
            line=1,
        )
    if field != "real":
        raise MatrixMarketError(f"unsupported field {field!r}; need real", line=1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(
            f"unsupported symmetry {symmetry!r}; need general or symmetric", line=1
        )
    return symmetry


def _ascii_lines(fh):
    """(1-based line number, line) of each line of ``fh``, all of it ASCII.

    ``fh`` decodes ASCII with ``errors="surrogateescape"``, which keeps a
    byte b above 0x7f as the lone surrogate U+DC00 + b, so the first such
    byte raises MatrixMarketError at its own line.
    """
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():
            byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
            raise MatrixMarketError(f"non-ASCII byte 0x{byte:02x}", line=lineno)
        yield lineno, line


def read_matrix_market(path) -> BandedMatrix:
    """Read a real coordinate Matrix Market file into a BandedMatrix.

    The one header read is ``%%MatrixMarket matrix coordinate real general``
    or ``... symmetric`` (case-insensitive); any other object, format, field
    or symmetry is a MatrixMarketError at line 1. An integer-valued matrix
    reads as a ``real`` file; the field ``integer`` is rejected.
    Bandwidths are inferred as the tightest values containing all nonzeros
    (with r_lower floored at 1); duplicate coordinates are summed in file
    order. The file is read line by line, and every entry, every sum and
    the entry count are checked before
    anything of order N is allocated; parse failures (an overflowing sum, a
    byte that is not ASCII and a number with Python's digit-group
    underscores among them) report the 1-based line number. The sums fill a
    band array of shape (N, r_lower + r_upper + 1), written once onto the
    band of the N x N array as in ``make_banded``; an order too large to
    allocate either is a MatrixMarketError.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = _ascii_lines(fh)
        _, header = next(lines, (1, ""))
        if not header:
            raise MatrixMarketError("empty file", line=1)
        symmetry = _parse_header(header)

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
        # Python's int and float would read the digit groups of 2_0 as 20
        if len(parts) != 3 or "_" in size_line:
            raise MatrixMarketError(f"malformed size line {size_line!r}", line=lineno)
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError:
            raise MatrixMarketError(f"malformed size line {size_line!r}", line=lineno)
        if nrows != ncols:
            raise MatrixMarketError(
                f"matrix is not square: {nrows} x {ncols}", line=lineno
            )
        if nrows < 2:
            raise MatrixMarketError(f"order must be at least 2, got {nrows}", line=lineno)
        size_lineno = lineno

        # running sum of each 1-based (row, col), added in file order from 0.0
        sums: dict[tuple[int, int], float] = {}
        seen = 0
        for lineno, raw in lines:
            stripped = raw.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            if len(parts) != 3 or "_" in stripped:
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
            mirror = symmetry == "symmetric" and i != j
            for key in ((i, j), (j, i))[: 1 + mirror]:
                sums[key] = total = sums.get(key, 0.0) + v
                if not math.isfinite(total):
                    raise MatrixMarketError(f"entry {key} overflows to {total}", line=lineno)
            seen += 1
    if seen != nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {seen}")
    # the tightest band holding every nonzero sum, as from_dense infers it;
    # Python ints, so no index overflows before the allocations are tried
    keys = [key for key, total in sums.items() if total != 0.0]
    r_lower = max([1, *(i - j for i, j in keys)])
    r_upper = max([0, *(j - i for i, j in keys)])
    too_big = MatrixMarketError(
        f"cannot allocate a dense matrix of order {nrows}", line=size_lineno
    )
    try:
        V = np.zeros((nrows, r_lower + r_upper + 1))
    except (MemoryError, ValueError):
        raise too_big from None
    i, j = np.array(keys, dtype=int).reshape(-1, 2).T
    V[i - 1, j - i + r_lower] = [sums[key] for key in keys]
    try:
        return from_band(V, r_lower, r_upper)
    except MemoryError:
        raise too_big from None
