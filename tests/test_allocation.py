"""Allocation guards: construction and the per-op kernels touch only the band of A.

These compare tracemalloc peaks and resident set sizes, never timings, so
they are deterministic. At N = 2000 the dense array is 30.5 MiB; a kernel
that builds any N x N temporary peaks far above the limits below.
tracemalloc does not see memory mappings, so the N x N array of
``make_banded`` is checked by the resident set size of a fresh process.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


def test_make_banded_writes_one_dense_array(band):
    # the samples and their band array are O(N (r+s+1)); the N x N array is
    # allocated once, written on the band and never copied
    W = band.data
    peak = peak_bytes(gd.make_banded, N, R, R, lambda i, j: W[i - 1, j - 1])
    assert peak < N * N * 8 + MIB


def test_dense_input_keeps_only_the_band(band):
    # dense input is scanned in place and only its band is read out, into an
    # (N, r+s+1) array written onto the memory mapping, which tracemalloc
    # does not see; a copy of the input would be 30.5 MiB
    W = band.data
    assert peak_bytes(gd.BandedMatrix, N, R, R, W) < MIB
    assert peak_bytes(gd.from_dense, W, R, R) < MIB


RESIDENT = """
import json, resource, sys
import greendecay as gd

def peak():
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit

before = peak()
A = gd.make_banded(6000, 4, 4, lambda i, j: 9.0 if i == j else 1.0)
flags = A.data.flags
print(json.dumps([peak() - before, flags.writeable, flags.c_contiguous, A.data.shape]))
"""


@pytest.mark.skipif(os.name != "posix", reason="ru_maxrss is POSIX")
def test_make_banded_keeps_only_the_band_resident():
    # the 6000 x 6000 array spans 275 MiB, its 9 diagonals about one 4 KiB
    # page per row: 23 MiB. A fresh process, so no earlier test's peak hides it.
    src = str(Path(gd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", RESIDENT], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    grown, writeable, c_contiguous, shape = json.loads(run.stdout)
    assert grown < 64 * MIB
    assert not writeable and c_contiguous and shape == [6000, 6000]


@pytest.mark.parametrize("fn", [gd.dominance_mu, gd.lu_bound, gd.varah_bound])
def test_dominance_kernels_allocate_o_n(band, fn):
    assert peak_bytes(fn, band) < MIB


def test_rate_degenerate_qr_bound_allocates_o_n(band):
    def rejected(A):
        with pytest.raises(gd.HypothesisError, match="degenerate"):
            gd.qr_bound(A)

    assert peak_bytes(rejected, band) < MIB


def test_one_sided_qr_bound_reads_no_band_copy():
    # s = N-1, so a copy of the band array would be N x (N + r): 7.7 MiB here
    rng = np.random.default_rng(4)
    A = gd.random_dominant_matrix(rng, n=1000, r_lower=3, one_sided=True)

    def rejected(A):
        with pytest.raises(gd.HypothesisError):
            gd.qr_bound(A)

    assert peak_bytes(rejected, A) < MIB / 2


@pytest.mark.parametrize("fn", [gd.structured_lu, gd.inverse_green_generators])
def test_factor_and_generators_allocate_o_n(band, fn):
    # the band work array is (N + r) x (r + s + 1): 80 KiB here
    assert peak_bytes(fn, band) < MIB


def test_generators_add_o_n_r2_to_one_copy_of_r(band):
    # R is the one dense copy; the multipliers f_k, the window of P and the
    # stacked generators are O(N r^2), well under 1 MiB here
    peak = peak_bytes(gd.inverse_green_generators, band)
    assert peak < band.data.nbytes + MIB


def test_one_sided_generators_hold_two_n_by_n_arrays():
    # for s = N-1 the work array of the factorization and the band array of
    # A^{-1} are each about N x N; rows of either past row N would add more
    n = 1000
    rng = np.random.default_rng(4)
    A = gd.random_dominant_matrix(rng, n=n, r_lower=3, one_sided=True, mu_target=0.5)
    assert peak_bytes(gd.inverse_green_generators, A) < 2 * n * n * 8 + MIB


def test_reconstruct_lower_allocates_only_values_and_mask(band):
    # the recurrence keeps one r x N array of open columns and r x N
    # temporaries; only the returned values and mask are N x N
    gens = gd.inverse_green_generators(band)
    values, mask = gd.reconstruct_lower(gens)
    assert peak_bytes(gd.reconstruct_lower, gens) < values.nbytes + mask.nbytes + MIB
