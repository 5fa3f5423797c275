"""Property-based and metamorphic tests on random strongly dominant matrices.

Examples are derandomized, so every run checks the same bounded set.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
# imported by name: in tests, only test_allocation.py reads an attribute named data
from hypothesis.strategies import data as draws

import greendecay as gd
from conftest import dense_elimination, one_norm
from greendecay import lu
from greendecay.banded import _band_column_sums, _diagonal

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)


@st.composite
def dominant(draw, mu_max=0.9999):
    """A random dominant matrix, N = r+1 and mu near 1 drawn often."""
    r = draw(st.integers(1, 6))
    n = r + draw(st.one_of(st.just(1), st.integers(1, 20)))
    mu = draw(st.one_of(st.just(mu_max), st.floats(0.05, mu_max)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gd.random_dominant_matrix(
        rng, n=n, r_lower=r, one_sided=draw(st.booleans()), mu_target=mu
    )


@st.composite
def any_band(draw):
    """A random dominant matrix of any bandwidths r >= 1, 0 <= s <= N-1.

    s = 0, s = N-1 (one-sided) and arbitrary s are drawn alike, so s < r,
    s > r and r + s >= N-1 all occur often.
    """
    n = draw(st.integers(2, 24))
    r = draw(st.integers(1, n - 1))
    s = draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)))
    mu = draw(st.floats(0.05, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = np.triu(np.tril(rng.uniform(-1.0, 1.0, (n, n)), s), -r)
    np.fill_diagonal(W, 0.0)
    off = np.abs(W).sum(axis=0)
    diag = np.where(off > 0.0, off / (mu * rng.uniform(0.25, 1.0, n)), 1.0)
    np.fill_diagonal(W, diag * np.where(rng.random(n) < 0.5, -1.0, 1.0))
    return gd.BandedMatrix(n, r, s, W)


TINY = np.finfo(float).tiny


def assert_scaled(scaled, base, c):
    """scaled == c * base, bit for bit wherever c * base is a normal number.

    A result in the subnormal range keeps fewer bits, so there the scaled
    and the unscaled rounding may differ by a few units of 2^-1074.
    """
    want = c * base
    normal = np.abs(want) >= TINY
    np.testing.assert_array_equal(scaled[normal], want[normal])
    np.testing.assert_allclose(scaled, want, rtol=0, atol=4 * 2.0**-1074)


EXTREME_K = st.one_of(st.sampled_from([-1000, 1000]), st.integers(-1000, 1000))


@PROPERTY
@given(A=dominant(mu_max=0.95), k=EXTREME_K)
def test_power_of_two_scaling_is_exact(A, k):
    # scaling by 2^k is exact, so every derived quantity moves by an exact
    # power of two or not at all
    c = 2.0**k
    B = gd.BandedMatrix(A.n, A.r_lower, A.r_upper, c * A.to_dense())
    slu, slu_c = gd.structured_lu(A), gd.structured_lu(B)
    assert_scaled(slu_c.R, slu.R, c)
    assert_scaled(slu_c.gamma, slu.gamma, c)
    for f, f_c in zip(slu.f, slu_c.f):
        np.testing.assert_array_equal(f_c, f)
    assert_scaled(gd.dense_lu_no_pivot(B.to_dense())[1], slu.upper_factor(), c)
    assert gd.dominance_mu(B).mu == gd.dominance_mu(A).mu
    lu, lu_c = gd.lu_bound(A), gd.lu_bound(B)
    assert lu_c.gamma == lu.gamma
    assert lu_c.M == lu.M / c
    gens, gens_c = gd.inverse_green_generators(A), gd.inverse_green_generators(B)
    assert_scaled(gens_c.p_rows, gens.p_rows, 1 / c)
    assert_scaled(gens_c.bottom, gens.bottom, 1 / c)
    np.testing.assert_array_equal(gens_c.f, gens.f)

@PROPERTY
@given(A=dominant(), k=st.integers(-60, 60))
def test_lu_envelope_is_sound(A, k):
    A = gd.BandedMatrix(A.n, A.r_lower, A.r_upper, 2.0**k * A.to_dense())
    inv = gd.dense_inverse(A.to_dense())
    b = gd.lu_bound(A)
    d = np.subtract.outer(np.arange(A.n), np.arange(A.n))
    lower = d >= 0
    envelope = b.M * b.gamma ** np.where(lower, d, 0)
    assert np.all(np.abs(inv)[lower] <= envelope[lower] * (1.0 + 1e-12))


@PROPERTY
@given(A=dominant())
def test_reconstruction_matches_dense_inverse(A):
    gens = gd.inverse_green_generators(A)
    values, mask = gd.reconstruct_lower(gens)
    inv = gd.dense_inverse(A.to_dense())
    assert np.abs(values - inv)[mask].max() <= 1e-10 * one_norm(inv)
    ref = gens.p(A.n - A.r_lower + 1)
    alt = gd.p_tail_cross_check(gd.structured_lu(A))
    assert np.abs(alt - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@PROPERTY
@given(A=any_band())
def test_from_band_reproduces_the_band(A):
    B = gd.from_band(A.band(), A.r_lower, A.r_upper)
    assert (B.n, B.r_lower, B.r_upper) == (A.n, A.r_lower, A.r_upper)
    assert B.band().tobytes() == A.band().tobytes()


@PROPERTY
@given(A=any_band())
def test_band_column_sums_equal_dense_sums(A):
    # the band sums add each column's off-diagonal entries top to bottom, as
    # the dense sum with the diagonal zeroed does
    off = A.to_dense()
    diag = np.abs(off.diagonal())
    np.fill_diagonal(off, 0.0)
    W = np.abs(off)
    ratios = W.sum(axis=0) / diag
    rep = gd.dominance_mu(A)
    np.testing.assert_array_equal(rep.per_column_ratios, ratios)
    assert rep.mu == ratios.max()
    np.testing.assert_array_equal(_band_column_sums(A, np.abs), W.sum(axis=0))
    # the column sums of squares behind the QR s_k
    np.testing.assert_array_equal(_band_column_sums(A, np.square), (off**2).sum(axis=0))


@PROPERTY
@given(A=any_band())
def test_factor_keeps_the_band_and_inverts(A):
    # no-pivot LU makes no fill beyond the upper bandwidth, so the (N, s+1)
    # band holds all of R
    assert not np.triu(gd.dense_lu_no_pivot(A.to_dense())[1], A.r_upper + 1).any()
    assert gd.structured_lu(A).R.shape == (A.n, A.r_upper + 1)
    gens = gd.inverse_green_generators(A)
    values, mask = gd.reconstruct_lower(gens)
    inv = gd.dense_inverse(A.to_dense())
    assert np.abs(values - inv)[mask].max() <= 1e-10 * one_norm(inv)


@PROPERTY
@given(A=any_band(), data=draws())
def test_band_kernel_matches_dense_elimination(A, data):
    n, r, s = A.n, A.r_lower, A.r_upper
    slu = gd.structured_lu(A)
    D = A.to_dense()
    S = dense_elimination(D, n)
    # R, gamma and f read off the band equal the dense elimination's bits
    np.testing.assert_array_equal(slu.upper_factor(), np.triu(S))
    for t in range(s + 1):
        np.testing.assert_array_equal(slu.R[: n - t, t], S.diagonal(t))
        assert not slu.R[n - t :, t].any()
    np.testing.assert_array_equal(slu.gamma, S.diagonal())
    assert slu.f.shape == (n - 1, r)
    for k in range(n - 1):
        f = S[k + 1 : k + 1 + r, k]  # f_{k+1}, cut at row N
        np.testing.assert_array_equal(slu.f[k, : f.size], f)
        assert not slu.f[k, f.size :].any()
    assert one_norm(slu.lower_factor() @ slu.upper_factor() - D) <= 1e-13 * one_norm(D)
    ell = data.draw(st.integers(1, n - r), label="ell")
    T = dense_elimination(D, ell)[ell:, ell:]
    np.testing.assert_array_equal(gd.schur_complement(A, ell), T)


# Values of lu._KERNEL_MIN_N that force one path onto every shape, with
# lu._ROWS_MAX_UPDATES lifted: the generated kernels, or the numpy window loops.
KERNEL, WINDOWS = 0, math.inf


def forced(min_n):
    """Patch lu so that every shape takes the path min_n stands for."""
    return mock.patch.multiple(lu, _KERNEL_MIN_N=min_n, _ROWS_MAX_UPDATES=math.inf)


def factor_with(min_n, A):
    """Bytes of structured_lu's f and R on the path min_n forces, or (k, pivot bytes)."""
    with forced(min_n):
        try:
            slu = gd.structured_lu(A)
        except gd.ZeroPivotError as err:
            return err.k, np.float64(err.value).tobytes()
    return slu.f.tobytes(), slu.R.tobytes()


def eliminate_with(min_n, A):
    """Bytes of f and R after all N elimination steps in the loop min_n
    stands for, or (k, pivot bytes)."""
    r, s = A.r_lower, A.r_upper
    W = A.band(r)
    try:
        if min_n == KERNEL:
            F = lu._eliminate_kernel(W, r, s)
            f, R = F[:, :r], F[:, r:]
        else:
            lu._eliminate(W, r, s, A.n)
            f, R = lu._windows(W, r, s)[:, 1:, 0], W[: A.n, r:]
    except gd.ZeroPivotError as err:
        return err.k, np.float64(err.value).tobytes()
    return f.tobytes(), R.tobytes()


@st.composite
def overflowing_band(draw):
    """A band of N <= 8 whose entries come from a few values near overflow,
    underflow and 1, so that the eliminations overflow, underflow and cancel."""
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, n - 1))
    s = draw(st.integers(0, n - 1))
    values = [0.0, 1.0, -1.0, 1e300, -1e300, 1e200, 1e154, 1e-300, 1e-200, 0.5, 2.0]
    entries = draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n))
    D = np.triu(np.tril(np.reshape(entries, (n, n)), s), -r)
    return gd.BandedMatrix(n, r, s, D)


@PROPERTY
@given(A=st.one_of(any_band(), overflowing_band()))
def test_kernel_and_window_eliminations_leave_the_same_bits(A):
    # every shape, one-sided s = N-1 included, through structured_lu and
    # through both loops alone. Neither loop scans for overflow: an inf or
    # NaN reaches a pivot by step N, so where both loops finish f and R are
    # finite
    assert factor_with(KERNEL, A) == factor_with(WINDOWS, A)
    eliminated = eliminate_with(KERNEL, A)
    assert eliminated == eliminate_with(WINDOWS, A)
    if isinstance(eliminated[0], bytes):  # both finished, with f and R
        assert all(np.isfinite(np.frombuffer(b)).all() for b in eliminated)


# Worst measured gap between the kernel and the window recursion, relative
# to max|p|: 3.0e-16 over 6000 seeded any_band draws, 7.2e-17 over this
# test's 50; the bound leaves a margin of 13.
KERNEL_RTOL = 4e-15


@PROPERTY
@given(A=any_band())
def test_kernel_and_window_recursions_agree(A):
    # every shape, one-sided ones included; given A, the recursion kernel
    # reads the elimination kernel's list, given the factorization one list
    # made from [f | R], and both give the same bits
    slu = gd.structured_lu(A)
    with forced(KERNEL):
        kernel = gd.inverse_green_generators(slu)
        from_A = gd.inverse_green_generators(A)
    for name in ("p_rows", "bottom", "f"):
        assert getattr(from_A, name).tobytes() == getattr(kernel, name).tobytes()
    with forced(WINDOWS):
        window = gd.inverse_green_generators(slu)
    scale = max(np.abs(window.p_rows).max(), np.abs(window.bottom).max())
    assert np.abs(kernel.p_rows - window.p_rows).max() <= KERNEL_RTOL * scale
    assert np.abs(kernel.bottom - window.bottom).max() <= KERNEL_RTOL * scale


@pytest.mark.parametrize(
    "dense, k, pivot",
    [
        ([[0.0, 1.0], [1.0, 0.0]], 1, 0.0),
        ([[1e-310, 1.0], [1.0, 1.0]], 1, 1e-310),
        ([[TINY, 1.0], [1.0, 1.0]], 1, TINY),
    ],
    ids=["zero-pivot", "below-floor", "at-floor"],
)
def test_kernel_and_window_eliminations_raise_alike(dense, k, pivot):
    A = gd.from_dense(np.array(dense))
    want = (k, np.float64(pivot).tobytes())
    assert eliminate_with(KERNEL, A) == eliminate_with(WINDOWS, A) == want
    assert factor_with(KERNEL, A) == factor_with(WINDOWS, A) == want


@PROPERTY
@given(
    n=st.integers(2, 12),
    rl=st.integers(1, 11),
    ru=st.integers(0, 11),
    i=st.integers(0, 11),
    j=st.integers(0, 11),
)
def test_band_check_accepts_exactly_the_band(n, rl, ru, i, j):
    rl, ru, i, j = min(rl, n - 1), min(ru, n - 1), i % n, j % n
    W = np.eye(n)
    W[i, j] = 0.5
    if -ru <= i - j <= rl:
        gd.BandedMatrix(n, rl, ru, W)
    else:
        with pytest.raises(ValueError, match="outside the declared band"):
            gd.BandedMatrix(n, rl, ru, W)


@st.composite
def band_shape(draw):
    """N <= 30 with any bandwidths 1 <= r < N and 0 <= s < N."""
    n = draw(st.integers(2, 30))
    return n, draw(st.integers(1, n - 1)), draw(st.integers(0, n - 1))


@PROPERTY
@given(
    shape=band_shape(),
    seed=st.integers(0, 2**32 - 1),
    bad=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2),
)
def test_make_banded_matches_the_dense_route(shape, seed, bad):
    n, r, s = shape
    rng = np.random.default_rng(seed)
    # mixed signs over seven decades, with exact zeros of both signs
    W = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
    W[rng.random((n, n)) < 0.2] = 0.0
    W[rng.random((n, n)) < 0.1] = -0.0
    in_band = np.triu(np.tril(np.ones((n, n), dtype=bool), s), -r)
    i, j = np.nonzero(in_band)
    picks = rng.choice(i.size, size=len(bad), replace=False)
    W[i[picks], j[picks]] = bad
    W[~in_band] = np.nan  # make_banded must never sample these

    def entry_fn(a, b):
        return W[a - 1, b - 1]

    D = np.zeros((n, n))
    for a, b in zip(i.tolist(), j.tolist()):
        D[a, b] = entry_fn(a + 1, b + 1)
    if not bad:
        got = gd.make_banded(n, r, s, entry_fn).to_dense()
        assert got.tobytes() == gd.BandedMatrix(n, r, s, D).to_dense().tobytes()
        return
    first = min(zip(i[picks].tolist(), j[picks].tolist()))
    with pytest.raises(ValueError) as dense:
        gd.BandedMatrix(n, r, s, D)
    with pytest.raises(ValueError) as banded:
        gd.make_banded(n, r, s, entry_fn)
    assert str(banded.value) == str(dense.value)
    assert str(banded.value).startswith(f"entry ({first[0] + 1}, {first[1] + 1}) is ")


@PROPERTY
@given(shape=band_shape(), seed=st.integers(0, 2**32 - 1), symmetric=st.booleans())
def test_read_matrix_market_matches_from_dense(shape, seed, symmetric):
    n, r, s = shape
    rng = np.random.default_rng(seed)
    lines = []
    for i, j in zip(*np.nonzero(np.triu(np.tril(np.ones((n, n)), s), -r))):
        if symmetric and j > i:
            continue
        v = float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))
        lines += [(i + 1, j + 1, v)] * int(rng.integers(1, 3))
    # explicit zeros and duplicates that sum to zero, anywhere: neither
    # widens the band
    for i, j in rng.integers(1, n + 1, (int(rng.integers(0, 6)), 2)):
        if symmetric and j > i:
            i, j = j, i
        v = float(rng.choice([0.0, 1.5]))
        lines += [(i, j, v), (i, j, -v)]
    lines = [lines[k] for k in rng.permutation(len(lines))]
    D = np.zeros((n, n))
    for i, j, v in lines:  # file order, mirrored as the reader does
        for a, b in {(i, j), (j, i)} if symmetric else [(i, j)]:
            D[a - 1, b - 1] += v
    kind = "symmetric" if symmetric else "general"
    text = f"%%MatrixMarket matrix coordinate real {kind}\n{n} {n} {len(lines)}\n"
    text += "".join(f"{i} {j} {v!r}\n" for i, j, v in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mtx"
        path.write_text(text)
        got = gd.read_matrix_market(path)
    want = gd.from_dense(D)
    assert (got.n, got.r_lower, got.r_upper) == (want.n, want.r_lower, want.r_upper)
    assert got.to_dense().tobytes() == want.to_dense().tobytes()


@PROPERTY
@given(
    shape=st.one_of(band_shape(), st.integers(2, 30).map(lambda n: (n, n // 2, n - 1))),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_constructor_writes_the_same_bytes(shape, seed):
    # one band V, with exact zeros of both signs inside it, through every
    # constructor; one-sided shapes (s = N-1) are drawn on their own too
    n, r, s = shape
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, r + s + 1))
    V[rng.random(V.shape) < 0.2] = 0.0
    V[rng.random(V.shape) < 0.2] = -0.0
    cols = np.arange(n)[:, None] + np.arange(-r, s + 1)
    inside = (cols >= 0) & (cols < n)
    V[~inside] = 0.0
    D = np.zeros((n, n))  # the band written entry by entry
    D[np.nonzero(inside)[0], cols[inside]] = V[inside]
    signed = D.copy()
    in_band = np.triu(np.tril(np.ones((n, n), dtype=bool), s), -r)
    signed[~in_band] = -0.0  # out of band, a -0.0 is stored as +0.0
    want = D.tobytes()
    built = {
        "BandedMatrix": gd.BandedMatrix(n, r, s, signed),
        "from_dense": gd.from_dense(signed, r, s),
        "make_banded": gd.make_banded(n, r, s, lambda i, j: D[i - 1, j - 1]),
    }
    for name, A in built.items():
        assert A.to_dense().tobytes() == want, name
        assert A.band().tobytes() == V.tobytes(), name
    # the reader sums a file's entries from +0.0 and drops zero sums, so a
    # -0.0 in the band reads as +0.0 there; its bandwidths are inferred
    i, j = np.nonzero(D)
    text = f"%%MatrixMarket matrix coordinate real general\n{n} {n} {i.size}\n"
    entries = zip(i.tolist(), j.tolist(), D[i, j].tolist())
    text += "".join(f"{a + 1} {b + 1} {v!r}\n" for a, b, v in entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mtx"
        path.write_text(text)
        got = gd.read_matrix_market(path)
    assert got.to_dense().tobytes() == (D + 0.0).tobytes()


@PROPERTY
@given(A=any_band(), data=draws())
def test_band_reads_equal_dense_reads(A, data):
    # band(pad), _diagonal and entry read the kept band V; each must give the
    # bytes of the dense image, a -0.0 inside the band among them
    n, r, s = A.n, A.r_lower, A.r_upper
    D = A.to_dense()
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(max(0, i - r), min(n - 1, i + s)), label="j")
    D[i, j] = -0.0
    A = gd.BandedMatrix(n, r, s, D)
    D = A.to_dense()
    assert np.signbit(D[i, j])
    pad = data.draw(st.integers(0, r + 1), label="pad")
    want = np.zeros((n + pad, r + s + 1))
    for t, d in enumerate(range(-r, s + 1)):
        want[max(0, -d) : n - max(0, d), t] = D.diagonal(d)
    assert A.band(pad).tobytes() == want.tobytes()
    for d in range(1 - n, n):
        assert _diagonal(A, d).tobytes() == D.diagonal(d).tobytes()
        if not -r <= d <= s:
            assert _diagonal(A, d).size == n - abs(d) and not _diagonal(A, d).any()
    entries = [[A.entry(a, b) for b in range(1, n + 1)] for a in range(1, n + 1)]
    assert np.array(entries).tobytes() == D.tobytes()
