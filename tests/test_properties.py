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

import greendecay as gd
from conftest import one_norm
from greendecay import lu
from greendecay.banded import _band_column_sums

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
    B = gd.BandedMatrix(A.n, A.r_lower, A.r_upper, c * A.data)
    slu, slu_c = gd.structured_lu(A), gd.structured_lu(B)
    assert_scaled(slu_c.R, slu.R, c)
    assert_scaled(slu_c.gamma, slu.gamma, c)
    for f, f_c in zip(slu.f, slu_c.f):
        np.testing.assert_array_equal(f_c, f)
    assert_scaled(gd.dense_lu_no_pivot(B.data)[1], slu.upper_factor(), c)
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
    A = gd.BandedMatrix(A.n, A.r_lower, A.r_upper, 2.0**k * A.data)
    inv = gd.dense_inverse(A.data)
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
    inv = gd.dense_inverse(A.data)
    assert np.abs(values - inv)[mask].max() <= 1e-10 * one_norm(inv)
    ref = gens.p(A.n - A.r_lower + 1)
    alt = gd.p_tail_cross_check(gd.structured_lu(A))
    assert np.abs(alt - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@PROPERTY
@given(A=any_band())
def test_band_column_sums_equal_dense_sums(A):
    # the band sums add each column's off-diagonal entries top to bottom, as
    # the dense sum with the diagonal zeroed does
    off = A.data.copy()
    np.fill_diagonal(off, 0.0)
    W = np.abs(off)
    ratios = W.sum(axis=0) / np.abs(A.data.diagonal())
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
    assert not np.triu(gd.dense_lu_no_pivot(A.data)[1], A.r_upper + 1).any()
    assert gd.structured_lu(A).R.shape == (A.n, A.r_upper + 1)
    gens = gd.inverse_green_generators(A)
    values, mask = gd.reconstruct_lower(gens)
    inv = gd.dense_inverse(A.data)
    assert np.abs(values - inv)[mask].max() <= 1e-10 * one_norm(inv)


def dense_elimination(W, r, s, steps):
    """Reference band elimination on a dense copy: (eliminated W, [f_1 .. f_steps]).

    Step k divides rows k+1 .. min(k+r, N) of column k by the pivot and
    updates columns k+1 .. min(k+s, N) of those rows, in the same order of
    operations as the band kernel, so the two must agree bit for bit.
    """
    W = np.array(W, dtype=float)
    n = len(W)
    fs = []
    for k in range(1, steps + 1):
        rows = slice(k, min(k + r, n))
        cols = slice(k, min(k + s, n))
        f = W[rows, k - 1] / W[k - 1, k - 1]
        W[rows, cols] -= np.outer(f, W[k - 1, cols])
        W[rows, k - 1] = 0.0
        fs.append(f)
    return W, fs


@PROPERTY
@given(A=any_band(), data=st.data())
def test_band_kernel_matches_dense_elimination(A, data):
    n, r, s = A.n, A.r_lower, A.r_upper
    slu = gd.structured_lu(A)
    W, fs = dense_elimination(A.data, r, s, n)
    # R, gamma and f read off the band equal the dense elimination's bits
    np.testing.assert_array_equal(slu.upper_factor(), W)
    for t in range(s + 1):
        np.testing.assert_array_equal(slu.R[: n - t, t], W.diagonal(t))
        assert not slu.R[n - t :, t].any()
    np.testing.assert_array_equal(slu.gamma, W.diagonal())
    assert slu.f.shape == (n - 1, r)
    for k, f in enumerate(fs[:-1]):
        np.testing.assert_array_equal(slu.f[k, : f.size], f)
        assert not slu.f[k, f.size :].any()
    assert one_norm(slu.lower_factor() @ slu.upper_factor() - A.data) <= 1e-13 * one_norm(A.data)
    ell = data.draw(st.integers(1, n - r), label="ell")
    np.testing.assert_array_equal(
        gd.schur_complement(A, ell), dense_elimination(A.data, r, s, ell)[0][ell:, ell:]
    )


# Values of lu._ROWS_MAX_UPDATES under which _eliminate takes one loop for
# every r * s: the row loop on Python floats, or the numpy window loop.
ROW_LOOP, WINDOW_LOOP = math.inf, -1


def eliminate_with(loop, A, steps):
    """W's bytes after ``steps`` elimination steps in the given loop, or (k, pivot bytes)."""
    W = A.band(A.r_lower)
    with mock.patch.object(lu, "_ROWS_MAX_UPDATES", loop):
        try:
            lu._eliminate(W, A.r_lower, A.r_upper, steps)
        except gd.ZeroPivotError as err:
            return err.k, np.float64(err.value).tobytes()
    return W.tobytes()


@PROPERTY
@given(A=any_band(), data=st.data())
def test_row_and_window_loops_leave_the_same_bits(A, data):
    # r * s falls on both sides of lu._ROWS_MAX_UPDATES, one-sided s = N-1
    # included, and steps < N is the schur_complement path
    steps = data.draw(st.one_of(st.just(A.n), st.integers(1, A.n)), label="steps")
    assert eliminate_with(ROW_LOOP, A, steps) == eliminate_with(WINDOW_LOOP, A, steps)


@pytest.mark.parametrize(
    "dense, steps, k, pivot",
    [
        ([[0.0, 1.0], [1.0, 0.0]], 2, 1, 0.0),
        ([[1e-310, 1.0], [1.0, 1.0]], 2, 1, 1e-310),
        ([[TINY, 1.0], [1.0, 1.0]], 2, 1, TINY),
        # step 1 overflows A(2, 2), which no later pivot test reads
        ([[1.0, 1e200, 0.0], [1e200, 1.0, 1e200], [0.0, 1e200, 1.0]], 1, 1, 1.0),
    ],
    ids=["zero-pivot", "below-floor", "at-floor", "final-check"],
)
def test_row_and_window_loops_raise_alike(dense, steps, k, pivot):
    A = gd.from_dense(np.array(dense))
    want = (k, np.float64(pivot).tobytes())
    assert eliminate_with(ROW_LOOP, A, steps) == eliminate_with(WINDOW_LOOP, A, steps) == want


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
        got = gd.make_banded(n, r, s, entry_fn).data
        assert got.tobytes() == gd.BandedMatrix(n, r, s, D).data.tobytes()
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
    assert got.data.tobytes() == want.data.tobytes()


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
        assert A.data.tobytes() == want, name
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
    assert got.data.tobytes() == (D + 0.0).tobytes()
