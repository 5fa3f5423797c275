"""Allocation guards: the per-op kernels read only the band of A.

These compare tracemalloc peaks, never timings, so they are deterministic.
At N = 2000 the dense array is 30.5 MiB; a kernel that builds any N x N
temporary peaks far above the limits below.
"""

import tracemalloc

import numpy as np
import pytest

import greendecay as gd

N, R = 2000, 2
MIB = 2**20


@pytest.fixture(scope="module")
def band():
    """Two-sided band, r = s = 2, mu = 0.5 and every |A(k, k)| > 1."""
    rng = np.random.default_rng(3)
    W = np.triu(np.tril(rng.uniform(-1.0, 1.0, (N, N)), R), -R)
    np.fill_diagonal(W, 0.0)
    np.fill_diagonal(W, np.abs(W).sum(axis=0) / 0.5 + 1.0)
    return gd.BandedMatrix(N, R, R, W)


def peak_bytes(fn, *args):
    """Peak traced allocation of fn(*args), started from zero."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn", [gd.dominance_mu, gd.lu_bound, gd.varah_bound])
def test_dominance_kernels_allocate_o_n(band, fn):
    assert peak_bytes(fn, band) < MIB


def test_rate_degenerate_qr_bound_allocates_o_n(band):
    def rejected(A):
        with pytest.raises(gd.HypothesisError, match="degenerate"):
            gd.qr_bound(A)

    assert peak_bytes(rejected, band) < MIB


@pytest.mark.parametrize("fn", [gd.structured_lu, gd.inverse_green_generators])
def test_factor_and_generators_allocate_o_n(band, fn):
    # the band work array is (N + r) x (r + s + 1): 80 KiB here
    assert peak_bytes(fn, band) < MIB


def test_generators_add_o_n_r2_to_one_copy_of_r(band):
    # R is the one dense copy; the multipliers f_k, the window of P and the
    # stacked generators are O(N r^2), well under 1 MiB here
    peak = peak_bytes(gd.inverse_green_generators, band)
    assert peak < band.data.nbytes + MIB


def test_reconstruct_lower_allocates_only_values_and_mask(band):
    # the recurrence keeps one r x N array of open columns and r x N
    # temporaries; only the returned values and mask are N x N
    gens = gd.inverse_green_generators(band)
    values, mask = gd.reconstruct_lower(gens)
    assert peak_bytes(gd.reconstruct_lower, gens) < values.nbytes + mask.nbytes + MIB
