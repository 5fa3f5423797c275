"""Allocation guards: construction and the per-op kernels touch only the band of A.

These compare tracemalloc peaks and resident set sizes, never timings, so
they are deterministic. At N = 2000 the dense array is 30.5 MiB; a kernel
that builds any N x N temporary peaks far above the limits below.
tracemalloc does not see memory mappings, so the N x N array of
``make_banded`` is checked by the resident set size of a fresh process.
At N = 10^5 the generated kernels run on a band work array built without
a BandedMatrix, so that no N x N mapping is made.

This is the one test module that reads ``A.data``, the N x N image that
each constructor still writes for callers outside the package: its flags,
its resident pages, its memory mapping, and that ``to_dense()`` and
``lower_factor()``, which write the kept bands instead, give its bytes.
"""

import errno
import json
import math
import mmap
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import greendecay as gd
from greendecay import lu
from greendecay.cli import main as cli_main

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
    # the samples, their band array and the (i, j) index pair, all O(N (r+s+1)),
    # take 0.33 MiB, traced; a list of the indices as Python ints peaked at
    # 0.60 MiB. The N x N array is a memory mapping, which tracemalloc does
    # not see: the resident set test below shows it is written only on the band
    W = band.data
    assert peak_bytes(gd.make_banded, N, R, R, lambda i, j: W[i - 1, j - 1]) < 0.4 * MIB


def test_non_finite_band_entry_is_found_in_the_band():
    # the band is scanned before the N x N mapping is made; a scan of the
    # mapping built an N x N boolean array and peaked at 4.1 MiB here
    bad = (N // 2, N // 2 + 2)

    def make():
        with pytest.raises(ValueError) as err:
            gd.make_banded(N, R, R, lambda i, j: math.nan if (i, j) == bad else 1.0)
        assert str(err.value) == f"entry {bad} is nan; entries must be finite"

    assert peak_bytes(make) < 0.4 * MIB


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
    # the band work array is (N + r) x (r + s + 1): 80 KiB here. The kernels
    # stream it, so the peaks are a few such arrays: 0.23 MiB for the
    # factorization and 0.25 MiB for the generators; the limit leaves 1.6x
    # of the latter. Lists of Python floats in the kernels peaked at 0.65 MiB.
    assert peak_bytes(fn, band) < 0.4 * MIB


def band_work_array(n, r, s, rng):
    """Band work array of structured_lu for a column-dominant band, built
    without a BandedMatrix and its N x N mapping: W[i, t] = A(i, i+t-r),
    zero outside the matrix and in the r rows past row N."""
    W = rng.uniform(-1.0, 1.0, (n + r, r + s + 1))
    rows = np.arange(n + r)[:, None]
    cols = rows + np.arange(-r, s + 1)
    W[(cols < 0) | (cols >= n) | (rows >= n)] = 0.0
    W[:n, r] = 2.0 * (r + s) + 1.0
    return W


N_SCALE, R_SCALE = 10**5, 4
BAND_BYTES = N_SCALE * (2 * R_SCALE + 1) * 8


@pytest.fixture(scope="module")
def scale_band():
    """Work array and factorization of the kernels at N = 10^5, r = s = 4,
    where the band holds 6.9 MiB and a BandedMatrix would map 75 GiB.

    Both kernels run once here, untraced: a first run in the process took
    about four times as long under tracemalloc as a later one."""
    W = band_work_array(N_SCALE, R_SCALE, R_SCALE, np.random.default_rng(1))
    assert lu._on_floats(N_SCALE, R_SCALE, R_SCALE)
    F = lu._eliminate_kernel(W, R_SCALE, R_SCALE)
    slu = gd.StructuredLU(F[: N_SCALE - 1, :R_SCALE], F[:, R_SCALE:])
    gd.inverse_green_generators(slu)
    return W, slu


def test_elimination_at_scale_peaks_at_two_bands(scale_band):
    # the entering entries and the [f | R] output, one band each; lists of
    # Python floats for both peaked at 7.7 bands
    W = scale_band[0]
    assert peak_bytes(lu._eliminate_kernel, W, R_SCALE, R_SCALE) < 3 * BAND_BYTES


def test_recursion_at_scale_peaks_near_two_bands(scale_band):
    # the rows of [f | R] read backwards (one band), the p rows and the
    # generators' copies: 2.4 bands; lists of Python floats peaked at 5.8
    assert peak_bytes(gd.inverse_green_generators, scale_band[1]) < 3 * BAND_BYTES


def test_zero_pivot_midway_at_scale_names_its_step(scale_band):
    # row k of A is zero left of and on the diagonal, so no earlier step
    # updates it and its pivot stays an exact zero
    k = N_SCALE // 2
    W = scale_band[0].copy()
    W[k - 1, : R_SCALE + 1] = 0.0
    with pytest.raises(gd.ZeroPivotError, match=f"step k={k} ") as err:
        lu._eliminate_kernel(W, R_SCALE, R_SCALE)
    assert (err.value.k, err.value.value) == (k, 0.0)


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


def test_image_is_read_only(lower2x2):
    with pytest.raises(ValueError):
        lower2x2.data[0, 0] = 9.0


class NoHugePageHint(mmap.mmap):
    """A mapping whose kernel has no transparent huge pages."""

    def madvise(self, *args):
        raise OSError(errno.EINVAL, "Invalid argument")


class TestMappedArray:
    @staticmethod
    def build():
        return gd.make_banded(300, 2, 5, lambda i, j: i + 0.5 * j if i != j else 40.0)

    def assert_same_array(self, expected):
        A = self.build()
        assert A.data.tobytes() == expected.data.tobytes()
        assert not A.data.flags.writeable and A.data.flags.c_contiguous
        assert (A.r_lower, A.r_upper) == (2, 5)

    def test_rejected_huge_page_hint_is_ignored(self, monkeypatch):
        if not hasattr(mmap, "MADV_NOHUGEPAGE"):
            pytest.skip("mmap defines no MADV_NOHUGEPAGE here")
        expected = self.build()
        monkeypatch.setattr(mmap, "mmap", NoHugePageHint)
        self.assert_same_array(expected)

    def test_mapping_without_map_private(self, monkeypatch):
        expected = self.build()
        monkeypatch.delattr(mmap, "MAP_PRIVATE", raising=False)
        self.assert_same_array(expected)

    def test_a_mapping_that_cannot_be_made(self, monkeypatch, tmp_path, capsys):
        # the path of an order too large for memory: each constructor raises
        # MemoryError, the reader names the order at its size line
        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_memory)
        with pytest.raises(MemoryError, match=r"^cannot map a float64 array of order 3$"):
            gd.from_band(np.array([[0.0, 4.0], [1.0, 4.0], [1.0, 4.0]]), 1, 0)
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n% a comment\n3 3 1\n1 1 4.0\n"
        )
        message = "cannot allocate a dense matrix of order 3 (line 3)"
        with pytest.raises(gd.MatrixMarketError, match=rf"^{re.escape(message)}$"):
            gd.read_matrix_market(path)
        assert cli_main(["bounds", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def one_sided_with_negative_zero(tmp_path):
    # -0.0 on the first subdiagonal: the band, the image and f_k keep its sign
    return gd.make_banded(
        40, 2, 39, lambda i, j: 9.0 if i == j else -0.0 if i == j + 1 else np.sin(i + 2 * j)
    )


def matrix_market(tmp_path):
    path = tmp_path / "m.mtx"
    rows = [f"{i} {j} {9.0 if i == j else float(np.cos(i - 3 * j))!r}"
            for i in range(1, 31) for j in range(max(1, i - 3), min(30, i + 1) + 1)]
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        f"30 30 {len(rows)}\n" + "\n".join(rows) + "\n"
    )
    return gd.read_matrix_market(path)


BUILDS = {
    "make_banded": lambda tmp_path: gd.make_banded(
        50, 3, 2, lambda i, j: 7.0 if i == j else np.sin(i + 2 * j)
    ),
    "make_banded-one-sided": one_sided_with_negative_zero,
    "from_dense": lambda tmp_path: gd.from_dense(
        np.triu(np.tril(np.cos(np.add.outer(np.arange(25.0), 2 * np.arange(25.0))), 4), -2)
        + 8.0 * np.eye(25)
    ),
    "read_matrix_market": matrix_market,
    "dominant_ensemble": lambda tmp_path: gd.dominant_ensemble(1, seed=11)[0],
}


def row_loop_lower_factor(slu):
    """Dense L written one column at a time from the f_k (the reference)."""
    L = np.eye(slu.n)
    for k in range(1, slu.n):
        L[k : k + slu.r, k - 1] = slu.f[k - 1, : slu.n - k]
    return L


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_band_writers_give_the_image_and_row_loop_bytes(tmp_path, build):
    A = build(tmp_path)
    dense = A.to_dense()
    assert dense.tobytes() == np.array(A.data).tobytes()
    assert dense.flags.writeable and dense.flags.c_contiguous
    slu = gd.structured_lu(A)
    assert slu.lower_factor().tobytes() == row_loop_lower_factor(slu).tobytes()
