"""Invariant sweep behind ``greendecay verify`` and the acceptance suite.

:func:`invariants` runs the library's structural identities and bounds on a
list of matrices and returns the worst value of each, keyed by the names in
``CHECKS``. :func:`run_all` draws a random strongly dominant ensemble,
compares each worst value with its limit in ``CHECKS`` and prints one
pass/fail line per check, so an installed CLI can re-validate itself without
the test tree. The acceptance tests read the same values against their own
limits.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .banded import BandedMatrix, _check_seed, _is_integer, dominance_mu, from_dense
from .bounds import lu_bound, varah_bound
from .ensembles import dominant_ensemble
from .green import reconstruct_lower
from .lu import inverse_green_generators, p_tail_cross_check, schur_complement, structured_lu
from .oracle import dense_inverse, dense_lu_no_pivot

__all__ = ["CHECKS", "invariants", "run_all"]

# (key in the invariants() result, printed name, verify's limit)
CHECKS = (
    ("factorization_residual", "factorization residual |LR - A|_1 / |A|_1", 1e-11),
    ("r_vs_dense", "structured R vs dense elimination", 1e-10),
    ("multiplier_excess", "multiplier norms |f_k|_1 - mu", 1e-12),
    ("pivot_floor_excess", "pivot floor (1-mu^2)|A(k,k)| - |gamma_k|", 1e-12),
    ("schur_mu_excess", "Schur complement mu inheritance", 1e-12),
    ("suffix_mismatch", "generator suffix property", 1e-10),
    ("reconstruction_error", "inverse reconstruction on represented region", 1e-10),
    ("tail_cross_check", "trailing generator cross-check", 1e-12),
    ("lu_bound_excess", "LU bound soundness on the lower part", 0.0),
    ("varah_excess", "Varah bound vs reference inverse 1-norm", 0.0),
)


def _one_norm(M: np.ndarray) -> float:
    return float(np.abs(M).sum(axis=0).max())


def _sample_steps(n: int, r: int) -> list[int]:
    steps = {1, max(1, (n - r) // 2), n - r - 1}
    return sorted(s for s in steps if 1 <= s <= n - r - 1)


def invariants(mats: Iterable[BandedMatrix]) -> dict[str, float]:
    """Worst value of every invariant in ``CHECKS`` over ``mats``.

    Each value is the maximum of its per-instance measurements, and NaN
    when none was taken (an empty list, or N = r + 1 for the Schur keys,
    which have no step to sample); NaN measurements propagate. Either way a
    NaN fails any limit, so a check that measured nothing does not pass.
    """
    worst: dict[str, float | None] = {key: None for key, _, _ in CHECKS}

    def record(key: str, value: float) -> None:
        old = worst[key]
        worst[key] = float(value if old is None else np.maximum(old, value))

    for A in mats:
        n, r = A.n, A.r_lower
        slu = structured_lu(A)
        gens = inverse_green_generators(slu)
        D = A.to_dense()
        inv = dense_inverse(D)
        mu = dominance_mu(A).mu
        scale = _one_norm(D)

        R = slu.upper_factor()
        record("factorization_residual", _one_norm(slu.lower_factor() @ R - D) / scale)
        record("r_vs_dense", np.abs(R - dense_lu_no_pivot(D)[1]).max() / scale)
        record("multiplier_excess", (np.abs(slu.f[: n - r]).sum(axis=1) - mu).max())
        lower = (1.0 - mu**2) * np.abs(D.diagonal())
        record("pivot_floor_excess", (lower - np.abs(slu.gamma)).max())

        for ell in _sample_steps(n, r):
            m = n - ell
            S = from_dense(schur_complement(A, ell), r_lower=r, r_upper=min(A.r_upper, m - 1))
            record("schur_mu_excess", dominance_mu(S).mu - mu)
            sub = inverse_green_generators(S)
            # a(i) and a(i + ell) differ only in column 0, -f_i against -f_{i+ell}
            record("suffix_mismatch", np.abs(sub.p_rows - gens.p_rows[ell:]).max())
            record("suffix_mismatch", np.abs(sub.f - gens.f[ell:]).max())
            record("suffix_mismatch", np.abs(sub.p(m - r + 1) - gens.p(n - r + 1)).max())

        values, mask = reconstruct_lower(gens)
        record("reconstruction_error", np.abs(values - inv)[mask].max() / _one_norm(inv))
        ref = gens.p(n - r + 1)
        alt = p_tail_cross_check(slu)
        record("tail_cross_check", np.abs(alt - ref).max() / max(1.0, np.abs(ref).max()))

        b = lu_bound(A)
        d = np.subtract.outer(np.arange(n), np.arange(n))
        envelope = b.M * b.gamma ** np.maximum(d, 0)  # gamma**0 == 1.0, also for gamma 0
        record("lu_bound_excess", (np.abs(inv) - envelope * (1.0 + 1e-12))[d >= 0].max())
        record("varah_excess", _one_norm(inv) - varah_bound(A).M * (1.0 + 1e-12))
    return {key: np.nan if value is None else value for key, value in worst.items()}


def run_all(trials: int = 20, seed: int = 20260810, verbose: bool = True) -> bool:
    """Run every invariant check; returns True when all pass."""
    if not _is_integer(trials) or trials < 1:
        raise ValueError(f"verify needs at least one trial, got {trials!r}")
    _check_seed(seed)
    worst = invariants(dominant_ensemble(trials, seed, n_max=80, r_max=6))
    passed = 0
    for key, name, limit in CHECKS:
        ok = worst[key] <= limit
        passed += ok
        if verbose:
            tag = "PASS" if ok else "FAIL"
            print(f"{tag} {name}: worst {worst[key]:.3e} (limit {limit:.1e})")
    ok = passed == len(CHECKS)
    if verbose:
        print(f"{'ALL CHECKS PASSED' if ok else 'CHECK FAILURES PRESENT'} "
              f"({passed}/{len(CHECKS)})")
    return ok
