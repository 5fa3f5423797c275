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
from dataclasses import dataclass

import numpy as np

from .banded import BandedMatrix, DominanceReport, _band_column_sums, _diagonal, dominance_mu
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
    kind raises ValueError. Evaluate with :func:`eval_bound`, which fixes
    each family's region.
    """

    kind: str
    gamma: float
    r: int
    M: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise HypothesisError(f"decay rate must satisfy 0 <= gamma < 1, got {self.gamma}")
        if self.M is not None and not 0.0 < self.M < math.inf:
            raise HypothesisError(f"constant must be positive and finite, got {self.M}")


def eval_bound(bound: DecayBound, i: int, j: int) -> float | None:
    """Value of the bound at 1-based (i, j), or None outside its region.

    Region and exponent d of M * gamma^d by family: LU and QR on i >= j with
    d = i - j; Frommer on |i-j| >= r with d = |i-j| - r; Varah everywhere
    with d = 0; DMS and Chui-Hasson everywhere with d = |i-j|. Chui-Hasson
    returns the bare rate power gamma^|i-j| (constant-free).
    """
    d = i - j
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
    return base if d == 0 else base * bound.gamma**d


def lu_bound(A: BandedMatrix) -> DecayBound:
    """LU-based envelope M * gamma^(i-j) on the lower part i >= j.

    Requires the strong dominance condition with mu < 1 (checked via
    :func:`dominance_mu`); raises DominanceError carrying the computed mu
    otherwise. The degenerate mu = 0 (diagonal matrix) yields gamma = 0 and
    M = 1/min|A(k,k)|, exact on the diagonal. An M that overflows (a
    subnormal min|A(k,k)|, or mu within rounding of 1) raises
    HypothesisError.
    """
    rep = dominance_mu(A)
    if not rep.satisfied:
        raise DominanceError(rep.mu, rep.zero_diagonal_index)
    mu = rep.mu
    r = A.r_lower
    gamma = mu ** (1.0 / r)
    M = (1.0 + mu**2) / ((1.0 - mu) * (1.0 - mu**2) * rep.min_diag)
    return DecayBound("LU", gamma, r, M=_finite("LU", M, rep))


def varah_bound(A: BandedMatrix) -> DecayBound:
    """Varah's flat envelope M = 1/((1-mu) min|A(k,k)|) on ||A^{-1}||_1.

    Raises DominanceError and HypothesisError as :func:`lu_bound` does.
    """
    rep = dominance_mu(A)
    if not rep.satisfied:
        raise DominanceError(rep.mu, rep.zero_diagonal_index)
    M = 1.0 / ((1.0 - rep.mu) * rep.min_diag)
    return DecayBound("Varah", 0.0, A.r_lower, M=_finite("Varah", M, rep))


def _finite(kind: str, M: float, rep: DominanceReport) -> float:
    """The dominance-based constant M, or HypothesisError if it overflowed."""
    if M == math.inf:
        raise HypothesisError(f"{kind} bound constant M overflows: "
                              f"min|A(k,k)| = {rep.min_diag!r}, mu = {rep.mu!r}")
    return M


@dataclass(frozen=True)
class QRHypothesisReport:
    """Derived constants and hypothesis status of the QR-based bound.

    delta = 2/K and mu = delta / sqrt(1 + delta^2) follow from K, and M and
    gamma are those of the DecayBound returned with the report.
    ``k_threshold_met`` checks K against the two computable threshold terms
    4(3 + 2 C0 r sqrt(r)) and 2 sqrt(r^3 ((sqrt(3)+1)/2)^(2r) - 1); the third
    term depends on an undefined constant and is never checked.
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
    upper_rows = np.zeros(n)
    upper_cols = np.zeros(n)
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
        If some |A(k,k)| <= 1 (no K is feasible), some s_k^2 overflows, or
        the resulting rate (mu r sqrt(r))^(1/r) is >= 1 (rate-degenerate).
    """
    r = A.r_lower
    diag = np.abs(_diagonal(A, 0))
    if np.any(diag <= 1.0):
        worst = int(np.argmin(diag)) + 1
        raise HypothesisError(
            f"|A(k,k)| must exceed 1 for a feasible K; column {worst} has "
            f"|A(k,k)| = {float(diag[worst - 1])!r}"
        )
    with np.errstate(over="ignore"):
        s2 = _band_column_sums(A, np.square)
    if not np.isfinite(s2).all():
        worst = int(np.argmin(np.isfinite(s2))) + 1
        raise HypothesisError(
            f"s_k^2, the off-diagonal sum of squares, overflows in column {worst}"
        )
    s = np.sqrt(s2)
    active = s > 0.0
    # positive: every diag - 1 > 0 and every s_k is finite
    K = float(((diag - 1.0)[active] / s[active]).min()) if active.any() else math.inf
    delta = 0.0 if math.isinf(K) else 2.0 / K
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
    t_band = 2.0 * math.sqrt(r**3 * ((math.sqrt(3.0) + 1.0) / 2.0) ** (2 * r) - 1.0)
    report = QRHypothesisReport(float(c0), K, bool(K >= max(t_energy, t_band)))
    return report, DecayBound("QR", gamma, r, M=M)


def dms_rate(a: float, b: float, r: int, definite: bool = True) -> DecayBound:
    """Polynomial-approximation decay rate for symmetric spectra.

    ``definite=True``: spectrum in [a, b], 0 < a <= b, rate
    ((sqrt(b/a)-1)/(sqrt(b/a)+1))^(1/r). ``definite=False``: spectrum in
    [-b, -a] u [a, b], rate ((b/a-1)/(b/a+1))^(1/2r). The literature's
    multiplicative constant lives outside this rate; the returned bound
    carries the advisory M = 1/a.
    """
    if not 0.0 < a <= b:
        raise ValueError(f"need spectrum endpoints 0 < a <= b, got a={a}, b={b}")
    kappa = b / a
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
    C = 2/lambda1 and q1 = (sqrt(ke)-1)/(sqrt(ke)+1), ke = lambda_nm1/lambda1.
    """
    if not 0.0 < lambda1 <= lambda_nm1:
        raise ValueError(
            f"need 0 < lambda1 <= lambda_(N-1), got {lambda1}, {lambda_nm1}"
        )
    ke = lambda_nm1 / lambda1
    root = math.sqrt(ke)
    q1 = (root - 1.0) / (root + 1.0)
    return DecayBound("Frommer", q1 ** (1.0 / r), r, M=2.0 / lambda1)


def chui_hasson_rate(a: float, b: float, r: int) -> DecayBound:
    """Rate-only envelope ((b-a)/(b+a))^(1/2r) for spectra in [-b,-a] u [a,b].

    No computable constant exists for this family; :func:`eval_bound`
    returns the bare rate power.
    """
    if not 0.0 < a <= b:
        raise ValueError(f"need spectrum endpoints 0 < a <= b, got a={a}, b={b}")
    rate = ((b - a) / (b + a)) ** (1.0 / (2 * r))
    return DecayBound("ChuiHasson", rate, r)
