"""Computable exponential decay bounds for entries of banded-matrix inverses.

All bound families share one evaluable shape: a pair (M, gamma) yielding a
geometric envelope on |A^{-1}(i, j)|; :func:`eval_bound` fixes each region.

LU family (from the strong dominance condition, mu < 1, bandwidth r):

    |A^{-1}(i, j)| <= M * gamma^(i-j)  for i >= j,
    gamma = mu^(1/r),
    M = (1 + mu^2) / ((1 - mu) (1 - mu^2) min_k |A(k, k)|).

QR family (from a 2-norm dominance constant K):

    delta = 2/K,  mu = delta / sqrt(1 + delta^2),
    M = 2 mu + 1,  gamma = (mu r sqrt(r))^(1/r),  region i >= j.

Varah:       ||A^{-1}||_1 <= 1 / ((1 - mu) min_k |A(k, k)|) — a flat
             entrywise envelope.
DMS:         rate lambda0 = ((sqrt(b/a)-1)/(sqrt(b/a)+1))^(1/r) for SPD
             spectrum in [a, b]; lambda1 = ((b/a-1)/(b/a+1))^(1/2r) for
             symmetric indefinite spectrum in [-b,-a] u [a,b]. The rate is
             the result; the constant M = 1/a is advisory.
Frommer:     C = 2/lambda_1, q1 = (sqrt(ke)-1)/(sqrt(ke)+1) with effective
             condition number ke = lambda_{N-1}/lambda_1; value
             C * q1^(|i-j|/r - 1) on |i-j| >= r.
Chui-Hasson: rate ((b-a)/(b+a))^(1/2r), no computable constant.

Every family's (M, gamma) passes through the :class:`DecayBound` constructor:
a degenerate rate (gamma rounds to 1) or a constant that overflows raises
HypothesisError, which makes the family not applicable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .banded import (
    BandedMatrix,
    DominanceReport,
    _band_column_sums,
    _check_int,
    _diagonal,
    dominance_mu,
)
from .errors import DominanceError, HypothesisError

__all__ = [
    "DecayBound",
    "QRHypothesisReport",
    "lu_bound",
    "eval_bound",
    "varah_bound",
    "qr_bound",
    "dms_rate",
    "frommer_bound",
    "chui_hasson_rate",
]

KINDS = ("LU", "QR", "DMS-SPD", "DMS-indefinite", "Frommer", "ChuiHasson", "Varah")


@dataclass(frozen=True)
class DecayBound:
    """A geometric envelope (M, gamma) on |A^{-1}(i, j)|.

    ``M`` is None for the constant-free family (Chui-Hasson) and advisory
    for DMS. The constructor is every family's one check: a rate outside
    [0, 1) or an M that is not positive and finite raises HypothesisError
    (the family does not apply), so no evaluation is inf or NaN; an unknown
    kind, or a bandwidth r that is not an integer >= 1, raises ValueError.
    Evaluate with :func:`eval_bound`, which fixes each family's region.
    """

    kind: str
    gamma: float
    r: int
    M: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        _check_int("bandwidth r", self.r, 1)
        if not 0.0 <= self.gamma < 1.0:
            raise HypothesisError(f"decay rate must satisfy 0 <= gamma < 1, got {self.gamma}")
        if self.M is not None and not 0.0 < self.M < math.inf:
            raise HypothesisError(f"constant must be positive and finite, got {self.M}")


def eval_bound(bound: DecayBound, i: int, j: int) -> float | None:
    """Value of the bound at 1-based (i, j), or None outside its region.

    Region and exponent d of M * gamma^d by family: LU and QR on i >= j with
    d = i - j; Frommer on |i-j| >= r with d = |i-j| - r; Varah everywhere
    with d = 0; DMS and Chui-Hasson everywhere with d = |i-j|. Chui-Hasson
    returns the bare rate power gamma^|i-j| (constant-free). i and j are
    integers >= 1; anything else is an IndexError.
    """
    i = _check_int("index i", i, 1, error=IndexError)
    d = i - _check_int("index j", j, 1, error=IndexError)
    if bound.kind in ("LU", "QR"):
        if d < 0:
            return None
    elif bound.kind == "Frommer":
        d = abs(d)
        if d < bound.r:
            return None
        d -= bound.r  # M * gamma^(|i-j| - r) == C * q1^(|i-j|/r - 1)
    elif bound.kind == "Varah":
        d = 0
    else:  # DMS-SPD, DMS-indefinite, ChuiHasson: symmetric region
        d = abs(d)
    base = 1.0 if bound.M is None else bound.M
    return base * bound.gamma**d  # gamma**0 == 1.0, also for gamma = 0


def lu_bound(A: BandedMatrix) -> DecayBound:
    """LU-based envelope M * gamma^(i-j) on the lower part i >= j.

    Raises DominanceError (carrying mu) unless strong dominance, mu < 1,
    holds, and HypothesisError when M overflows (a subnormal min|A(k,k)|, or
    mu within rounding of 1). mu = 0 (a diagonal A) gives gamma = 0 and
    M = 1/min|A(k,k)|, exact on the diagonal.
    """
    rep = _dominance(A)
    mu, r = rep.mu, A.r_lower
    M = _constant("LU", 1.0 + mu**2, (1.0 - mu) * (1.0 - mu**2), rep)
    return DecayBound("LU", mu ** (1.0 / r), r, M=M)


def varah_bound(A: BandedMatrix) -> DecayBound:
    """Varah's flat envelope M = 1/((1-mu) min|A(k,k)|) on ||A^{-1}||_1; raises as lu_bound."""
    rep = _dominance(A)
    return DecayBound("Varah", 0.0, A.r_lower, M=_constant("Varah", 1.0, 1.0 - rep.mu, rep))


def _dominance(A: BandedMatrix) -> DominanceReport:
    """A's dominance report, or DominanceError when strong dominance fails."""
    rep = dominance_mu(A)
    if not rep.satisfied:
        raise DominanceError(rep.mu, rep.zero_diagonal_index)
    return rep


def _constant(kind: str, numerator: float, scale: float, rep: DominanceReport) -> float:
    """M = numerator / (scale min|A(k,k)|); HypothesisError if M overflows or divides by 0."""
    denominator = scale * rep.min_diag
    M = numerator / denominator if denominator else math.inf
    if M == math.inf:
        raise HypothesisError(f"{kind} bound constant M overflows: "
                              f"min|A(k,k)| = {rep.min_diag!r}, mu = {rep.mu!r}")
    return M


@dataclass(frozen=True)
class QRHypothesisReport:
    """Derived constants and hypothesis status of the QR-based bound.

    delta = 2/K and mu = delta / sqrt(1 + delta^2) follow from K; M and gamma
    are those of the DecayBound returned with the report. ``k_threshold_met``
    checks K against the computable threshold terms 4(3 + 2 C0 r sqrt(r)) and
    2 sqrt(r^3 ((sqrt(3)+1)/2)^(2r) - 1), which is inf, met by no K, from
    r = 1138 on; the third term depends on an undefined constant, unchecked.
    """

    C0: float
    K: float
    k_threshold_met: bool


def _qr_row_energy(A: BandedMatrix) -> float:
    """C0 = max over k = 1..N-r of E(k) = sum_{i<k} sum_{j>k} A(i, j)^2.

    E(1) = 0 and E(k+1) = E(k) + sum_{j>k} A(k, j)^2 - sum_{i<k+1} A(i, k+1)^2,
    so C0 follows from the strict upper row and column sums of squares over
    the upper band diagonals of A, read as views: O(N r_upper) time and O(N)
    extra memory. A row sum or an E(k) that overflows gives C0 = inf, which
    no K meets; the column sums are finite, as :func:`qr_bound` checked, so
    no inf - inf arises.
    """
    n, r = A.n, A.r_lower
    upper_rows, upper_cols = np.zeros(n), np.zeros(n)
    with np.errstate(over="ignore"):
        for d in range(1, A.r_upper + 1):
            v = np.square(_diagonal(A, d))
            upper_rows[: n - d] += v
            upper_cols[d:] += v
        # E[k-1] = E(k+1) for k = 1..N-r-1
        E = np.cumsum(upper_rows[: n - r - 1] - upper_cols[1 : n - r])
    return float(E.max(initial=0.0))


def qr_bound(A: BandedMatrix) -> tuple[QRHypothesisReport, DecayBound]:
    """QR-based envelope with hypothesis report.

    K is the largest dominance constant with |A(k,k)| >= K * s_k + 1 in
    every column k, where s_k is the 2-norm of the off-diagonal column
    segment (full upper part plus the r rows below the diagonal); a smaller
    K only weakens the envelope. The row-block energy constant C0 of the
    report is computed from A, and only once the hypotheses hold. A is read
    through views of its band diagonals, in O(N (r_lower + r_upper)) time
    and O(N) extra memory.

    Raises
    ------
    HypothesisError
        If some |A(k,k)| <= 1 (no K is feasible), some s_k^2 overflows, the
        s_k^2 of a column with an off-diagonal entry falls below the normal
        range (its squares underflowed, so s_k and K would be wrong), K
        overflows while A has an off-diagonal entry (delta = 2/K would then
        be rounded to a subnormal or zero, and the envelope off the diagonal
        with it), or the resulting rate (mu r sqrt(r))^(1/r) is >= 1
        (rate-degenerate). K = inf is kept only for a diagonal A, where
        delta = 0 is exact.
    """
    r = A.r_lower
    diag = np.abs(_diagonal(A, 0))
    if np.any(diag <= 1.0):
        worst = int(np.argmin(diag)) + 1
        raise HypothesisError(
            f"|A(k,k)| must exceed 1 for a feasible K; column {worst} has "
            f"|A(k,k)| = {float(diag[worst - 1])!r}"
        )
    s2 = _band_column_sums(A, np.square)
    if not np.isfinite(s2).all():
        worst = int(np.argmin(np.isfinite(s2))) + 1
        raise HypothesisError(
            f"s_k^2, the off-diagonal sum of squares, overflows in column {worst}"
        )
    active = _band_column_sums(A, np.abs) > 0.0  # columns with an off-diagonal entry
    lost = active & (s2 < np.finfo(float).tiny)  # squares that underflowed
    if lost.any():
        raise HypothesisError(
            f"s_k^2, the off-diagonal sum of squares, underflows in column "
            f"{int(np.argmax(lost)) + 1}"
        )
    # positive: every diag - 1 > 0 and every s_k is finite; inf when A is
    # diagonal, or when every quotient overflows
    with np.errstate(over="ignore"):
        K = float(((diag - 1.0)[active] / np.sqrt(s2[active])).min(initial=math.inf))
    if K == math.inf and active.any():
        raise HypothesisError("K, the least (|A(k,k)| - 1) / s_k, overflows")
    delta = 2.0 / K
    try:
        mu = delta / math.sqrt(1.0 + delta**2)
    except OverflowError:  # delta > ~1.3e154, where mu is 1 to working precision
        mu = 1.0
    M = 2.0 * mu + 1.0
    gamma_pow = mu * r * math.sqrt(r)
    if gamma_pow >= 1.0:
        raise HypothesisError(
            f"rate degenerate: (mu r sqrt(r))^(1/r) = {gamma_pow ** (1.0 / r):.6g} >= 1"
        )
    gamma = gamma_pow ** (1.0 / r)
    # C0 only decides k_threshold_met, so it is computed once the hypotheses hold
    c0 = _qr_row_energy(A)
    t_energy = 4.0 * (3.0 + 2.0 * c0 * r * math.sqrt(r))
    try:
        t_band = 2.0 * math.sqrt(r**3 * ((math.sqrt(3.0) + 1.0) / 2.0) ** (2 * r) - 1.0)
    except OverflowError:  # r >= 1138, past the float range
        t_band = math.inf
    report = QRHypothesisReport(float(c0), K, bool(K >= max(t_energy, t_band)))
    return report, DecayBound("QR", gamma, r, M=M)


def dms_rate(a: float, b: float, r: int, definite: bool = True) -> DecayBound:
    """Polynomial-approximation decay rate for symmetric spectra.

    ``definite=True``: spectrum in [a, b], 0 < a <= b, rate
    ((sqrt(b/a)-1)/(sqrt(b/a)+1))^(1/r). ``definite=False``: spectrum in
    [-b, -a] u [a, b], rate ((b/a-1)/(b/a+1))^(1/2r). The literature's
    multiplicative constant lives outside this rate; the returned bound
    carries the advisory M = 1/a. A b/a past the float range counts as the
    largest float, where the rate rounds to 1 (HypothesisError) instead of
    reading inf/inf = NaN.
    """
    r = _check_int("bandwidth r", r, 1)
    if not 0.0 < a <= b:
        raise ValueError(f"need spectrum endpoints 0 < a <= b, got a={a}, b={b}")
    kappa = min(b / a, sys.float_info.max)
    if definite:
        root = math.sqrt(kappa)
        rate = ((root - 1.0) / (root + 1.0)) ** (1.0 / r)
        kind = "DMS-SPD"
    else:
        rate = ((kappa - 1.0) / (kappa + 1.0)) ** (1.0 / (2 * r))
        kind = "DMS-indefinite"
    return DecayBound(kind, rate, r, M=1.0 / a)


def frommer_bound(lambda1: float, lambda_nm1: float, r: int) -> DecayBound:
    """Effective-condition-number envelope C * q1^(|i-j|/r - 1) on |i-j| >= r.

    ``lambda1`` is the smallest and ``lambda_nm1`` the second-largest
    eigenvalue (so one large outlier does not spoil the rate);
    C = 2/lambda1 and q1 = (sqrt(ke)-1)/(sqrt(ke)+1), ke = lambda_nm1/lambda1;
    a ke past the float range counts as the largest float, as in :func:`dms_rate`.
    """
    r = _check_int("bandwidth r", r, 1)
    if not 0.0 < lambda1 <= lambda_nm1:
        raise ValueError(
            f"need 0 < lambda1 <= lambda_(N-1), got {lambda1}, {lambda_nm1}"
        )
    ke = min(lambda_nm1 / lambda1, sys.float_info.max)
    root = math.sqrt(ke)
    q1 = (root - 1.0) / (root + 1.0)
    return DecayBound("Frommer", q1 ** (1.0 / r), r, M=2.0 / lambda1)


def chui_hasson_rate(a: float, b: float, r: int) -> DecayBound:
    """Rate-only envelope ((b-a)/(b+a))^(1/2r) for spectra in [-b,-a] u [a,b].

    No computable constant exists for this family; :func:`eval_bound`
    returns the bare rate power. The rate is formed from b/2 and a/2, so a
    b + a past the float range gives no rate of 0.
    """
    r = _check_int("bandwidth r", r, 1)
    if not 0.0 < a <= b:
        raise ValueError(f"need spectrum endpoints 0 < a <= b, got a={a}, b={b}")
    # halves, whose sum stays finite where b + a overflows; halving is exact
    # for a, b >= 2^-1021, so then the bits are those of (b - a) / (b + a)
    rate = ((0.5 * b - 0.5 * a) / (0.5 * b + 0.5 * a)) ** (1.0 / (2 * r))
    return DecayBound("ChuiHasson", rate, r)
