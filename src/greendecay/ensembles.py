"""Random strongly dominant banded matrices for validation sweeps."""

from __future__ import annotations

import numpy as np

from .banded import BandedMatrix

__all__ = ["random_dominant_matrix", "dominant_ensemble"]


def random_dominant_matrix(
    rng: np.random.Generator,
    n: int | None = None,
    r_lower: int | None = None,
    one_sided: bool | None = None,
    mu_target: float | None = None,
    r_max: int = 6,
    n_max: int = 150,
) -> BandedMatrix:
    """Draw a random banded matrix satisfying the strong dominance condition.

    Off-diagonal entries are uniform in [-1, 1] inside the band (the full
    upper triangle for one-sided draws); each diagonal entry is scaled so its
    column ratio is a random fraction of ``mu_target``, with one column
    pinned at ``mu_target``, and given a random sign. Mixed-sign, one- and
    two-sided cases are all exercised.
    """
    if n is None:
        n = int(rng.integers(8, n_max + 1))
    if r_lower is None:
        r_lower = int(rng.integers(1, min(r_max, n - 1) + 1))
    if one_sided is None:
        one_sided = bool(rng.random() < 0.5)
    r_upper = n - 1 if one_sided else int(rng.integers(0, min(r_max, n - 1) + 1))
    if mu_target is None:
        mu_target = float(rng.uniform(0.05, 0.95))

    W = np.triu(np.tril(rng.uniform(-1.0, 1.0, (n, n)), r_upper), -r_lower)
    np.fill_diagonal(W, 0.0)

    off = np.abs(W).sum(axis=0)
    ratios = mu_target * rng.uniform(0.25, 1.0, n)
    pin = int(rng.integers(n))
    if off[pin] > 0.0:
        ratios[pin] = mu_target
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    diag = np.where(off > 0.0, off / ratios, 1.0) * signs
    W[np.arange(n), np.arange(n)] = diag
    return BandedMatrix(n, r_lower, r_upper, W)


def dominant_ensemble(
    count: int,
    seed: int,
    n_max: int = 150,
    r_max: int = 6,
    pinned: tuple[tuple[int, int, bool], ...] = (),
) -> list[BandedMatrix]:
    """A reproducible list of random dominant matrices.

    ``pinned`` entries (n, r_lower, one_sided) are generated first, so a
    sweep always contains the extreme sizes it claims to cover.
    """
    rng = np.random.default_rng(seed)
    mats = [
        random_dominant_matrix(rng, n=n, r_lower=r, one_sided=os)
        for n, r, os in pinned
    ]
    while len(mats) < count:
        mats.append(random_dominant_matrix(rng, n_max=n_max, r_max=r_max))
    return mats[:count]
