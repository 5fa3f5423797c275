"""Green (quasiseparable) generator representation of lower Green matrices.

An invertible matrix B is a lower Green matrix of order r exactly when it is
the inverse of an invertible lower band matrix of order r (Asplund). Its
lower part admits a compact block representation: with the block splitting

    row sizes    m_0 = 0, m_1 = ... = m_{N-r} = 1, m_{N-r+1} = r
    column sizes n_0 = r, n_1 = ... = n_{N-r} = 1, n_{N-r+1} = 0

(block indices 0 .. N-r+1), the strictly lower block part is

    B'(i, j) = p(i) * a(i-1)*...*a(j+1) * q(j),    0 <= j < i <= N-r+1,

with generators p(i) (1 x r rows; p(N-r+1) is r x r), q(j) (r x 1 columns;
q(0) = I_r by convention) and transition matrices a(k) (r x r). In scalar
indices this covers exactly the entries with j <= i + r - 1: block column 0
holds scalar columns 1..r, block column j >= 1 holds scalar column j + r, and
the bottom block row holds scalar rows N-r+1..N. Note the block-diagonal
positions (scalar (i, i+r)) are *not* encoded by the generators.

For B = A^{-1}, A = L R strongly regular, the generators come in companion
form (Eidelman, Gohberg & Haimovici, *Separable Type Representations of
Matrices and Fast Algorithms*, vol. 1, 2014): every column generator is
q(k) = e_r and every transition is a(k) = -f_k e_1^T + J, J the upper-shift
matrix and f_k the multipliers of elimination step k. So the family is
stored as the rows p, the bottom block and the N-r vectors f_k; the
evaluators build the transitions from f as they need them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .banded import _check_indices, _is_integer
from .errors import RegionError

__all__ = [
    "GreenGenerators",
    "green_scalar_entry",
    "reconstruct_lower",
]

# green_scalar_entry multiplies its chain in chunks of this many transitions,
# so a walk holds O(CHAIN_CHUNK r^2) floats however long the chain is
CHAIN_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class GreenGenerators:
    """Companion-form generator family (p, q, a) of the lower part of A^{-1}.

    Three stacked arrays, copied and marked read-only on construction:
    ``p_rows[i-1]`` is p(i) for i = 1..N-r, ``bottom`` is the r x r p(N-r+1)
    and ``f[k-1]`` is the f_k of the transition a(k) = -f_k e_1^T + J for
    k = 1..N-r; the column generators are q(0) = I_r and q(j) = e_r for
    j >= 1. N and r follow from the shapes. Arrays of the wrong shape or
    with non-finite entries raise ValueError. The 1-based accessor p(i)
    returns a read-only view in the block's shape.
    """

    p_rows: np.ndarray  # (N-r, r)
    bottom: np.ndarray  # (r, r)
    f: np.ndarray  # (N-r, r)

    def __post_init__(self):
        shape = np.shape(self.f)
        if len(shape) != 2 or min(shape) < 1:
            raise ValueError(f"f has shape {shape}, expected (N-r, r), N > r >= 1")
        r = shape[1]
        for name, want in (("p_rows", shape), ("bottom", (r, r)), ("f", shape)):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise ValueError(f"{name} has shape {arr.shape}, expected {want}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.p_rows) + self.r

    @property
    def r(self) -> int:
        return len(self.bottom)

    def p(self, i: int) -> np.ndarray:
        """Row generator p(i), i = 1 .. N-r+1 (the last one is r x r)."""
        if not _is_integer(i):
            raise IndexError(f"p index must be an integer, got {i!r}")
        k = len(self.p_rows)
        if not 1 <= i <= k + 1:
            raise IndexError(f"p index {i} outside 1..{k + 1}")
        return self.p_rows[i - 1 : i] if i <= k else self.bottom


def _transitions(f: np.ndarray) -> np.ndarray:
    """The companion matrices -f_k e_1^T + J, stacked in the order of the rows of ``f``."""
    m, r = f.shape
    a = np.empty((m, r, r))
    a[:] = np.eye(r, k=1)
    a[:, :, 0] -= f
    return a


def green_scalar_entry(gens: GreenGenerators, i: int, j: int) -> float:
    """Scalar entry B(i, j) for 1-based integer indices with j <= i + r - 1.

    This is the exact region the generators encode: block column 0 gives
    scalar columns 1..r, block column j - r gives scalar column j, and the
    bottom block row gives scalar rows N-r+1..N in full. Entries with
    j - i >= r are not represented and raise RegionError.

    The L transitions between the two blocks are multiplied pairwise, one
    batched product per level, in chunks of ``CHAIN_CHUNK`` consecutive
    transitions that the row is carried through in turn: O(L r^3) flops in
    O(log L) numpy calls per chunk, and O(CHAIN_CHUNK r^2) memory. Under
    dominance every partial product is bounded, and in
    any order of association the rounding error is a small multiple of
    L r u |p||a|...|a||q|, u the unit roundoff.
    """
    n, r = gens.n, gens.r
    _check_indices(i, j, n)
    if j > i + r - 1:
        raise RegionError(
            f"entry ({i}, {j}) with j - i = {j - i} lies outside the represented "
            f"region j <= i + r - 1 (r = {r})"
        )
    # v = p a(bi-1)...a(bj+1) for the row p of p(bi) that holds scalar row i
    bi = min(i, n - r + 1)
    v = gens.p(bi)[i - bi]
    bj = 0 if j <= r else j - r
    chain = gens.f[bj : bi - 1][::-1]  # the f of a(bi-1), ..., a(bj+1)
    for start in range(0, len(chain), CHAIN_CHUNK):
        T = _transitions(chain[start : start + CHAIN_CHUNK])
        while len(T) > 1:
            if len(T) % 2:  # v takes the first factor of an odd chain
                v, T = v @ T[0], T[1:]
            T = T[::2] @ T[1::2]
        v = v @ T[0]
    return float(v[j - 1] if bj == 0 else v[r - 1])


def reconstruct_lower(gens: GreenGenerators) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the represented region into a dense array plus a region mask.

    Returns ``(values, mask)`` where ``mask[i-1, j-1]`` is True exactly on the
    represented region j <= i + r - 1; non-represented entries hold zero
    rather than a (necessarily wrong) extrapolation.

    Block row i = 1..N-r is p(i) C[:, :w], w = i+r-1, where column j of the
    r x N array C holds a(i-1)...a(bj+1) q(bj), bj the block column of
    scalar column j; C then takes a(i) on those columns, and column w+1
    joins as q(i) = e_r, which it holds from the start (q(0) = I fills the
    first r). The bottom block row is p(N-r+1) C. One numpy step per block
    row: O(N^2 r) flops and no N x N array besides ``values`` and ``mask``.
    """
    n, r = gens.n, gens.r
    values = np.zeros((n, n))
    C = np.eye(r, n)
    C[r - 1, r:] = 1.0
    for i, a in enumerate(_transitions(gens.f), start=1):
        w = i + r - 1
        values[i - 1, :w] = gens.p_rows[i - 1] @ C[:, :w]
        C[:, :w] = a @ C[:, :w]
    values[n - r :] = gens.bottom @ C
    return values, np.tri(n, k=r - 1, dtype=bool)
