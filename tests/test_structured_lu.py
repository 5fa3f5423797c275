import math
import operator
import re
from functools import reduce

import numpy as np
import pytest

import greendecay as gd
from conftest import a_block, dense_elimination, one_norm
from greendecay import lu


# Finite, but no-pivot elimination overflows at its first step.
OVERFLOW_3X3 = np.array([[1.0, 1e200, 0.0], [1e200, 1.0, 1e200], [0.0, 1e200, 1.0]])


def dyadic_lu_product(n, zero_step, one_sided):
    """A = L R, r = 2, whose no-pivot elimination meets the pivot 0.0 at zero_step.

    L has 1/2 and 1/4 below its diagonal and R holds 2 on its diagonal, 1
    above it and 1/4 further up for a one-sided A, except R(k, k) = 0 for
    k = zero_step. All of it is exact in binary, so the elimination recovers
    L and R exactly up to the zero pivot.
    """
    R = np.triu(np.full((n, n), 0.25), 2) if one_sided else np.zeros((n, n))
    R += np.diag(np.full(n, 2.0)) + np.diag(np.ones(n - 1), 1)
    R[zero_step - 1, zero_step - 1] = 0.0
    L = np.eye(n) + np.diag(np.full(n - 1, 0.5), -1) + np.diag(np.full(n - 2, 0.25), -2)
    return gd.BandedMatrix(n, 2, n - 1 if one_sided else 1, L @ R)


# Worst measured identity_error: 7.0e-16 on small_ensemble, 2.3e-16 on ex1a,
# 2.1e-16 on the edge shapes.
IDENTITY_TOL = 1e-14


def identity_error(A):
    """Worst gap between the row generators and the entries of A^{-1} they hold.

    p(k) must be A^{-1}(k, k : k+r-1) and the bottom generator the trailing
    r x r block of A^{-1}. Each gap is scaled by the LU envelope
    M gamma^max(i-j, 0) at its entry.
    """
    n, r = A.n, A.r_lower
    gens = gd.inverse_green_generators(A)
    b = gd.lu_bound(A)
    inv = gd.dense_inverse(A.to_dense())
    env = b.M * b.gamma ** np.maximum(np.subtract.outer(np.arange(n), np.arange(n)), 0)
    rows = np.arange(n - r)[:, None]
    cols = rows + np.arange(r)
    p_err = np.abs(gens.p_rows - inv[rows, cols]) / env[rows, cols]
    tail = slice(n - r, n)
    bottom_err = np.abs(gens.bottom - inv[tail, tail]) / env[tail, tail]
    return max(p_err.max(), bottom_err.max())


def reference_row_generators(A):
    """The generator recursion with a fresh P_k of its exact size per step.

    Test reference for the band-window recursion: P_k has min(w, N-k+1)
    rows and min(r, N-k+1) columns, and every product has its exact length.
    """
    slu = gd.structured_lu(A)
    n, r, s = A.n, A.r_lower, A.r_upper
    P = np.array([[1.0 / slu.gamma[n - 1]]])
    bottom, p_rows = P, np.empty((n - r, r))
    for k in range(n - 1, 0, -1):
        x = slu.R[k - 1, 1 : 1 + min(s, n - k)]
        Z = np.empty((min(max(r, s), n - k + 1), P.shape[1]))
        Z[0] = x @ P[: x.size]
        Z[1:] = P[: len(Z) - 1]
        m = min(r, n - k + 1)
        P = np.empty((len(Z), m))
        P[:, 0] = -(Z @ slu.f[k - 1, : Z.shape[1]])
        P[:, 1:] = Z[:, : m - 1]
        P[0] = (np.eye(1, m)[0] - P[0]) / slu.gamma[k - 1]
        if k == n - r + 1:
            bottom = P
        elif k <= n - r:
            p_rows[k - 1] = P[0]
    return p_rows, bottom


def dot_left_to_right(u, v):
    """Sum of the products u_i v_i, each rounded, summed left to right; 0.0 if empty.

    Not ``sum``, which compensates the rounding of float sums from Python 3.12 on.
    """
    return reduce(operator.add, map(operator.mul, u, v)) if u else 0.0


def python_row_generators(slu):
    """The generator recursion on Python floats, written from its definition.

    Test reference for the generated kernel: P_k is a w x r list of rows
    (w = max(r, s)), zero past row and column N, and every product is
    rounded and summed left to right, as the kernel is generated. Returns
    (p_rows, bottom).
    """
    n, r, s = slu.n, slu.r, slu.s
    w = max(r, s)
    R, F = slu.R.tolist(), slu.f.tolist()
    P = [[0.0] * r for _ in range(w)]
    P[0][0] = 1.0 / R[n - 1][0]
    bottom, p_rows = P[:r], []
    for k in range(n - 1, 0, -1):
        g, x, f = R[k - 1][0], R[k - 1][1:], F[k - 1]
        y = [dot_left_to_right(x, [row[j] for row in P[:s]]) for j in range(r)]
        first = [(1.0 + dot_left_to_right(y, f)) / g] + [-v / g for v in y[: r - 1]]
        P = [first] + [[-dot_left_to_right(row, f)] + row[: r - 1] for row in P[: w - 1]]
        if k == n - r + 1:
            bottom = P[:r]
        elif k <= n - r:
            p_rows.append(P[0])
    return np.array(p_rows[::-1]), np.array(bottom)


def dominant_band(n, r, s):
    """Column dominant A of bandwidths r and s, entries sin(i + 2j) off the diagonal."""
    return gd.make_banded(n, r, s, lambda i, j: r + s + 2.0 if i == j else np.sin(i + 2 * j))


# Every (r, s) whose factorization and recursion lu._on_floats runs as
# generated kernels at N >= 512, from either entry point: 123 shapes, r <= 6
# and s <= 48.
# The grid's last row and column admit nothing, so the rule admits no shape
# beyond it.
GRID = 64
KERNEL_SHAPES = [
    (r, s) for r in range(1, GRID + 1) for s in range(GRID + 1)
    if lu._on_floats(lu._KERNEL_MIN_N, r, s)
]
assert not any(r == GRID or s == GRID for r, s in KERNEL_SHAPES)

# For each r <= 7 the narrowest s whose factorization and recursion run on
# windows from either entry point.
PAST_A_RULE = [
    (r, min(s for s in range(GRID) if not lu._on_floats(lu._KERNEL_MIN_N, r, s)))
    for r in range(1, 8)
]


# Every reader of a StructuredLU: each gets its arrays checked on construction.
CONSUMERS = pytest.mark.parametrize(
    "use",
    [gd.inverse_green_generators, gd.StructuredLU.lower_factor, gd.StructuredLU.upper_factor,
     gd.p_tail_cross_check],
    ids=["generators", "lower-factor", "upper-factor", "tail-cross-check"],
)


@pytest.fixture
def built(monkeypatch):
    """Names of the kernel sources that lu._kernel is asked for, in order."""
    names = []
    kernel = lu._kernel

    def recording(source, r, s):
        names.append(source.__name__)
        return kernel(source, r, s)

    monkeypatch.setattr(lu, "_kernel", recording)
    return names


class TestFactorization:
    def test_two_by_two(self, lower2x2):
        slu = gd.structured_lu(lower2x2)
        np.testing.assert_array_equal(slu.gamma, [2.0, 2.0])
        np.testing.assert_array_equal(slu.f[0], [0.5])
        np.testing.assert_array_equal(slu.R, [[2.0], [2.0]])
        np.testing.assert_array_equal(slu.upper_factor(), [[2.0, 0.0], [0.0, 2.0]])

    def test_tridiagonal(self, tridiag3):
        slu = gd.structured_lu(tridiag3)
        np.testing.assert_allclose(slu.gamma, [4.0, 3.75, 56.0 / 15.0], rtol=1e-15)
        np.testing.assert_allclose(slu.f[0], [-0.25], rtol=1e-15)
        np.testing.assert_allclose(slu.f[1], [-1.0 / 3.75], rtol=1e-15)

    def test_identity(self):
        slu = gd.structured_lu(gd.from_dense(np.eye(5)))
        np.testing.assert_array_equal(slu.gamma, np.ones(5))
        assert all(np.all(f == 0.0) for f in slu.f)
        np.testing.assert_array_equal(slu.upper_factor(), np.eye(5))

    @pytest.mark.parametrize("min_n", [0, math.inf], ids=["kernel", "windows"])
    def test_factor_arrays_are_read_only(self, tridiag3, monkeypatch, min_n):
        monkeypatch.setattr(lu, "_KERNEL_MIN_N", min_n)
        slu = gd.structured_lu(tridiag3)
        for arr in (slu.R, slu.gamma, *slu.f):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_zero_pivot_raises_with_index(self):
        A = gd.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(gd.ZeroPivotError) as err:
            gd.structured_lu(A)
        assert err.value.k == 1

    @pytest.mark.parametrize("min_n", [0, math.inf], ids=["kernel", "windows"])
    @pytest.mark.parametrize("one_sided", [False, True], ids=["two-sided", "one-sided"])
    @pytest.mark.parametrize("tail", [1, 0], ids=["step-N-1", "step-N"])
    @pytest.mark.parametrize(
        "lu", [gd.structured_lu, gd.inverse_green_generators], ids=["lu", "generators"]
    )
    def test_zero_pivot_in_the_tail_raises_with_index(
        self, lu, tail, one_sided, min_n, monkeypatch
    ):
        # the last steps eliminate windows that reach into the padding rows;
        # one-sided shapes take the kernel only with r max(r, s) unbounded
        monkeypatch.setattr(gd.lu, "_KERNEL_MIN_N", min_n)
        monkeypatch.setattr(gd.lu, "_ROWS_MAX_UPDATES", math.inf)
        n = 7
        k = n - tail
        A = dyadic_lu_product(n, k, one_sided)
        pivots = dense_elimination(A.to_dense(), k - 1).diagonal()[:k]
        np.testing.assert_array_equal(pivots, [2.0] * (k - 1) + [0.0])
        with pytest.raises(gd.ZeroPivotError, match=f"step k={k}") as err:
            lu(A)
        assert err.value.k == k and err.value.value == 0.0

    @pytest.mark.parametrize("scale", [1e-301, 1e300])
    def test_pivot_floor_follows_the_scale(self, scale):
        # mu = 0.25 at any scale, so the factorization must not depend on it
        A = gd.make_banded(6, 1, 1, lambda i, j: scale * (4.0 if i == j else -0.5))
        assert gd.dominance_mu(A).mu == pytest.approx(0.25, rel=1e-15)
        gd.lu_bound(A)
        unit = gd.structured_lu(gd.make_banded(6, 1, 1, lambda i, j: 4.0 if i == j else -0.5))
        np.testing.assert_allclose(gd.structured_lu(A).gamma / scale, unit.gamma, rtol=1e-14)
        np.testing.assert_allclose(
            gd.dense_lu_no_pivot(A.to_dense())[1] / scale, unit.upper_factor(), rtol=1e-14
        )
        for lu in (gd.structured_lu, lambda B: gd.dense_lu_no_pivot(B.to_dense())):
            with pytest.raises(gd.ZeroPivotError) as err:
                lu(gd.from_dense(scale * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])))
            assert err.value.k == 2

    @pytest.mark.parametrize(
        "lu", [gd.structured_lu, gd.inverse_green_generators], ids=["lu", "generators"]
    )
    def test_overflowing_pivot_raises_with_index(self, lu):
        # finite entries, but step 1 leaves A(2, 2) = 1 - 1e400 = -inf; a
        # floor test |pivot| <= floor is False for inf and NaN
        A = gd.from_dense(OVERFLOW_3X3)
        with pytest.raises(gd.ZeroPivotError, match="step k=2") as err:
            lu(A)
        assert err.value.k == 2 and err.value.value == -np.inf

    def test_generator_overflow_is_rejected(self):
        # the factorization is exact (pivots 1e-200, multipliers 1e200), but
        # A^{-1}(2, 1) = -1e400, an entry of P_1, overflows the recursion
        M = np.diag(np.full(3, 1e-200)) + np.diag(np.ones(2), -1)
        A = gd.make_banded(3, 1, 2, lambda i, j: M[i - 1, j - 1])
        assert np.isfinite(gd.structured_lu(A).R).all()
        with pytest.raises(ValueError, match="non-finite"):
            gd.inverse_green_generators(A)

    @pytest.mark.parametrize(
        "lu", [gd.structured_lu, gd.inverse_green_generators], ids=["lu", "generators"]
    )
    def test_cancellation_residue_pivot_raises(self, lu):
        # LAPACK calls this matrix singular. Every pivot passes the floor,
        # but the last, 1.94e84, is what rounding leaves of 1e100 - 1e100:
        # |gamma_3| / (u (|L||R|)(3, 3)) = 1.75, only 12.5 % below the
        # threshold gamma_{r+1} / u = 2 / (1 - 2u)
        M = np.array([[1e200, 1e200, 0.0], [1e-200, 1e-100, 1e-200], [0.0, 1e200, 1e100]])
        A = gd.make_banded(3, 1, 1, lambda i, j: M[i - 1, j - 1])
        with pytest.raises(gd.ZeroPivotError, match="step k=3") as err:
            lu(A)
        gamma, u = err.value.value, np.finfo(float).eps / 2
        assert gamma == pytest.approx(1.94e84, rel=1e-2)
        # (|L||R|)(3, 3) = |L(3, 2)| |R(2, 3)| + |gamma_3|, L(3, 2) = 1e300
        assert gamma / (u * (1e300 * 1e-200 + gamma)) == pytest.approx(1.75, abs=0.01)

    def test_matches_dense_oracle_on_ensemble(self, small_ensemble):
        for A in small_ensemble:
            slu = gd.structured_lu(A)
            D = A.to_dense()
            scale = one_norm(D)
            R = slu.upper_factor()
            assert one_norm(slu.lower_factor() @ R - D) <= 1e-11 * scale
            _, R_ref = gd.dense_lu_no_pivot(D)
            assert np.abs(R - R_ref).max() <= 1e-10 * scale

    def test_lower_factor_band_structure(self, small_ensemble):
        # column k of L is nonzero only in rows k .. k+r
        for A in small_ensemble[:6]:
            L = gd.structured_lu(A).lower_factor()
            d = np.subtract.outer(np.arange(A.n), np.arange(A.n))
            assert np.all(L[d > A.r_lower] == 0.0)
            assert np.all(np.tril(L, -1)[d < 0] == 0.0)

    def test_r_is_upper_triangular(self, small_ensemble):
        # the band R[k, t] = R(k+1, k+1+t) holds s+1 diagonals, zero past column N
        for A in small_ensemble[:6]:
            slu = gd.structured_lu(A)
            assert slu.R.shape == (A.n, A.r_upper + 1)
            k, t = np.indices(slu.R.shape)
            assert np.all(slu.R[k + t >= A.n] == 0.0)
            assert np.all(np.tril(slu.upper_factor(), -1) == 0.0)


def linv_generators(slu):
    """Definition-level reference: the Green generators of L^{-1}.

    p(k) = e_1^T, q(k) = e_r and a(k) = -f_k e_1^T + J, stored as f_k. The
    bottom generator p(N-r+1) is the trailing r x r block of L^{-1}, the
    inverse of the trailing block of L. With zeros on the non-represented
    upper region this reconstructs L^{-1} (unit lower triangular, so every
    entry with j > i vanishes, the block-diagonal ones included).
    """
    n, r = slu.n, slu.r
    bottom = np.linalg.inv(slu.lower_factor()[n - r :, n - r :])
    return gd.GreenGenerators(np.tile(np.eye(1, r), (n - r, 1)), bottom, slu.f[: n - r])


class TestLInverseGenerators:
    def test_two_by_two_partition(self, lower2x2):
        lg = linv_generators(gd.structured_lu(lower2x2))
        np.testing.assert_array_equal(a_block(lg, 1), [[-0.5]])
        np.testing.assert_array_equal(lg.p(1), [[1.0]])

    def test_identity_gives_pure_shift(self):
        A = gd.from_dense(np.eye(6))
        lg = linv_generators(gd.structured_lu(A))
        # with zero multipliers the transition matrix is the upper shift
        np.testing.assert_array_equal(a_block(lg, 1), np.eye(1, 1, 1))

    def test_identity_order_three_shift(self):
        W = np.eye(7)
        A = gd.BandedMatrix(7, 3, 0, W)
        lg = linv_generators(gd.structured_lu(A))
        np.testing.assert_array_equal(a_block(lg, 2), np.eye(3, k=1))
        np.testing.assert_array_equal(lg.bottom, np.eye(3))

    def test_tridiagonal_a_value(self, tridiag3):
        lg = linv_generators(gd.structured_lu(tridiag3))
        np.testing.assert_allclose(a_block(lg, 1), [[0.25]], rtol=1e-15)

    def test_structural_shapes(self, small_ensemble):
        A = small_ensemble[0]
        n, r = A.n, A.r_lower
        lg = linv_generators(gd.structured_lu(A))
        np.testing.assert_array_equal(lg.p(1), np.eye(1, r))
        assert lg.f.shape == (n - r, r)
        assert lg.bottom.shape == (r, r)

    def test_a_blocks_have_multiplier_column_plus_shift(self, small_ensemble):
        for A in small_ensemble[:5]:
            slu = gd.structured_lu(A)
            lg = linv_generators(slu)
            r = A.r_lower
            J = np.eye(r, k=1)
            for k in range(1, A.n - r + 1):
                want = J.copy()
                want[:, 0] -= slu.f[k - 1]
                np.testing.assert_array_equal(a_block(lg, k), want)

    def test_green_view_reconstructs_l_inverse(self, small_ensemble):
        for A in small_ensemble[:8]:
            slu = gd.structured_lu(A)
            values, mask = gd.reconstruct_lower(linv_generators(slu))
            Linv = np.where(mask, values, 0.0)
            resid = np.abs(slu.lower_factor() @ Linv - np.eye(A.n)).max()
            assert resid <= 1e-12


class TestInverseGenerators:
    def test_two_by_two_values(self, lower2x2):
        gens = gd.inverse_green_generators(lower2x2)
        np.testing.assert_allclose(gens.p(1), [[0.5]], rtol=1e-15)
        np.testing.assert_allclose(a_block(gens, 1), [[-0.5]], rtol=1e-15)
        np.testing.assert_allclose(gens.p(2), [[0.5]], rtol=1e-15)

    def test_scaled_identity(self):
        A = gd.from_dense(2.0 * np.eye(7))
        gens = gd.inverse_green_generators(A)
        for i in range(1, 7):
            np.testing.assert_array_equal(gens.p(i), [[0.5]])
            np.testing.assert_array_equal(a_block(gens, i), [[0.0]])
        values, _ = gd.reconstruct_lower(gens)
        np.testing.assert_allclose(np.diag(values), 0.5 * np.ones(7), rtol=1e-15)

    def test_ex1a_region_agreement(self, ex1a_matrix):
        gens = gd.inverse_green_generators(ex1a_matrix)
        values, mask = gd.reconstruct_lower(gens)
        inv = gd.dense_inverse(ex1a_matrix.to_dense())
        assert np.abs(values - inv)[mask].max() <= 1e-10 * one_norm(inv)

    def test_ensemble_region_agreement(self, small_ensemble):
        for A in small_ensemble:
            gens = gd.inverse_green_generators(A)
            values, mask = gd.reconstruct_lower(gens)
            inv = gd.dense_inverse(A.to_dense())
            assert np.abs(values - inv)[mask].max() <= 1e-10 * one_norm(inv)

    @pytest.mark.parametrize("one_sided", [True, False])
    @pytest.mark.parametrize(
        "n, r", [(r + 1, r) for r in range(1, 9)] + [(200, 1)]
    )
    def test_edge_shapes(self, n, r, one_sided):
        # N = r+1 has a single band step; r = 1 has no trailing step
        rng = np.random.default_rng(1000 * n + r)
        A = gd.random_dominant_matrix(rng, n=n, r_lower=r, one_sided=one_sided)
        slu = gd.structured_lu(A)
        gens = gd.inverse_green_generators(A)
        values, mask = gd.reconstruct_lower(gens)
        inv = gd.dense_inverse(A.to_dense())
        assert np.abs(values - inv)[mask].max() <= 1e-10 * one_norm(inv)
        ref = gens.p(n - r + 1)
        alt = gd.p_tail_cross_check(slu)
        assert np.abs(alt - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_band_windows_keep_the_reference_bits(self, small_ensemble, ex1a_matrix):
        # one-sided matrices run longer BLAS products on strided windows,
        # whose sums may round differently in the last bit
        band = gd.make_banded(300, 4, 4, lambda i, j: 10.0 if i == j else np.sin(i + 2 * j))
        column = gd.make_banded(150, 1, 8, lambda i, j: 10.0 if i == j else np.cos(i * j))
        for A in [*small_ensemble, ex1a_matrix, band, column]:
            gens = gd.inverse_green_generators(A)
            for got, ref in zip((gens.p_rows, gens.bottom), reference_row_generators(A)):
                if A.r_upper < A.n - 1:
                    np.testing.assert_array_equal(got, ref)
                else:
                    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_factorization_gives_the_same_generators(self, acceptance_ensemble, built):
        # the recursion reads only f and R, so passing the factorization, or
        # a copy of its arrays built by hand, in place of the matrix changes
        # no bit. The last matrix, of band_long's shape, runs both kernels
        band = dominant_band(4000, 4, 4)
        mats = [*acceptance_ensemble, band]
        assert {A.r_lower for A in mats} >= {1, 8}
        assert {A.r_upper == A.n - 1 for A in mats} == {True, False}
        for A in mats:
            slu = gd.structured_lu(A)
            assert (slu.n, slu.r, slu.s) == (A.n, A.r_lower, A.r_upper)
            copied = gd.StructuredLU(slu.f.copy(), slu.R.copy())
            ref = gd.inverse_green_generators(A)
            for got in (gd.inverse_green_generators(slu), gd.inverse_green_generators(copied)):
                for name in ("p_rows", "bottom", "f"):
                    assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
        built.clear()
        gd.inverse_green_generators(band)
        assert built == ["_elimination_source", "_recursion_source"]

    def test_row_generators_are_entries_of_the_inverse(self, small_ensemble, ex1a_matrix):
        for A in [*small_ensemble, ex1a_matrix]:
            assert identity_error(A) <= IDENTITY_TOL

    @pytest.mark.parametrize("one_sided", [True, False])
    @pytest.mark.parametrize("n, r", [(r + 1, r) for r in range(1, 9)] + [(200, 1)])
    def test_row_generators_are_entries_of_the_inverse_at_edge_shapes(self, n, r, one_sided):
        rng = np.random.default_rng(1000 * n + r)
        A = gd.random_dominant_matrix(rng, n=n, r_lower=r, one_sided=one_sided)
        assert identity_error(A) <= IDENTITY_TOL

    def test_row_generators_bounded_by_decay_constant(self, small_ensemble):
        for A in small_ensemble[:10]:
            gens = gd.inverse_green_generators(A)
            M = gd.lu_bound(A).M
            for i in range(1, A.n - A.r_lower + 2):
                assert np.abs(gens.p(i)).max() <= M + 1e-12


class TestGeneratorKernel:
    """The factorization and the recursion as generated kernels.

    Shapes with r max(r, s) <= lu._ROWS_MAX_UPDATES and N >= lu._KERNEL_MIN_N
    run both kernels, from A or through structured_lu alike; tests of
    smaller N force them by lowering _KERNEL_MIN_N, and an infinite
    _KERNEL_MIN_N forces the numpy window loops.
    """

    @pytest.mark.parametrize(
        "n, r, s",
        [(4000, 4, 4), (512, 1, 0), (600, 2, 5), (512, 3, 3), (700, 4, 12), (512, 5, 2),
         (512, 6, 8), (2000, 1, 40), (4000, 1, 47)],
    )
    def test_kernel_keeps_the_reference_bits(self, monkeypatch, built, n, r, s):
        # band_long's shape is the first; all of them run both kernels, the
        # bands of r = 1, s = 40 and 47 among the widest
        assert lu._on_floats(n, r, s)
        A = dominant_band(n, r, s)
        slu = gd.structured_lu(A)
        gens = gd.inverse_green_generators(slu)
        assert built == ["_elimination_source", "_recursion_source"]
        p_rows, bottom = python_row_generators(slu)
        np.testing.assert_array_equal(gens.p_rows, p_rows)
        np.testing.assert_array_equal(gens.bottom, bottom)
        monkeypatch.setattr(lu, "_KERNEL_MIN_N", math.inf)
        windows = gd.structured_lu(A)
        assert slu.f.tobytes() == windows.f.tobytes() and slu.R.tobytes() == windows.R.tobytes()

    @pytest.mark.parametrize("r, s", KERNEL_SHAPES, ids=[f"r{r}-s{s}" for r, s in KERNEL_SHAPES])
    def test_every_admitted_shape_keeps_the_reference_bits(self, monkeypatch, built, r, s):
        # N = r + w + 2 runs whole windows and the last w-1 steps, which
        # reach past row N
        A = dominant_band(r + max(r, s) + 2, r, s)
        monkeypatch.setattr(lu, "_KERNEL_MIN_N", math.inf)
        windows = gd.structured_lu(A)
        assert built == []
        monkeypatch.setattr(lu, "_KERNEL_MIN_N", 0)
        slu = gd.structured_lu(A)
        assert slu.f.tobytes() == windows.f.tobytes() and slu.R.tobytes() == windows.R.tobytes()
        gens = gd.inverse_green_generators(slu)
        p_rows, bottom = python_row_generators(slu)
        np.testing.assert_array_equal(gens.p_rows, p_rows)
        np.testing.assert_array_equal(gens.bottom, bottom)
        from_A = gd.inverse_green_generators(A)
        assert from_A.p_rows.tobytes() == gens.p_rows.tobytes()
        assert from_A.bottom.tobytes() == gens.bottom.tobytes()
        # both entry points factor A alike
        assert built == ["_elimination_source", "_recursion_source"] * 2

    @pytest.mark.parametrize("r, s", PAST_A_RULE, ids=[f"r{r}-s{s}" for r, s in PAST_A_RULE])
    def test_shapes_past_a_rule_run_its_window_loop(self, built, r, s):
        # both stages, from A as well as through structured_lu
        A = dominant_band(lu._KERNEL_MIN_N, r, s)
        gd.inverse_green_generators(gd.structured_lu(A))
        gd.inverse_green_generators(A)
        assert built == []

    def test_generated_source_is_pinned(self):
        assert lu._recursion_source(2, 1) == (
            "def kernel(steps, state):\n"
            "    (p0_0, p0_1, p1_0, p1_1) = state\n"
            "    for (f0, f1, g, x0) in steps:\n"
            "        y0 = x0 * p0_0\n"
            "        y1 = x0 * p0_1\n"
            "        p1_0 = -(p0_0 * f0 + p0_1 * f1)\n"
            "        p1_1 = p0_0\n"
            "        p0_0 = (1.0 + (y0 * f0 + y1 * f1)) / g\n"
            "        p0_1 = -y0 / g\n"
            "        yield (p0_0, p0_1)\n"
            "    yield (p0_0, p0_1, p1_0, p1_1)\n"
        )
        # row i of P_k reads row i-1 of P_{k+1}, so rows w-1 .. 1 are each
        # written before the row they read, and row 0, which reads y, last
        assert lu._recursion_source(3, 2) == (
            "def kernel(steps, state):\n"
            "    (p0_0, p0_1, p0_2, p1_0, p1_1, p1_2, p2_0, p2_1, p2_2) = state\n"
            "    for (f0, f1, f2, g, x0, x1) in steps:\n"
            "        y0 = x0 * p0_0 + x1 * p1_0\n"
            "        y1 = x0 * p0_1 + x1 * p1_1\n"
            "        y2 = x0 * p0_2 + x1 * p1_2\n"
            "        p2_0 = -(p1_0 * f0 + p1_1 * f1 + p1_2 * f2)\n"
            "        p2_1 = p1_0\n"
            "        p2_2 = p1_1\n"
            "        p1_0 = -(p0_0 * f0 + p0_1 * f1 + p0_2 * f2)\n"
            "        p1_1 = p0_0\n"
            "        p1_2 = p0_1\n"
            "        p0_0 = (1.0 + (y0 * f0 + y1 * f1 + y2 * f2)) / g\n"
            "        p0_1 = -y0 / g\n"
            "        p0_2 = -y1 / g\n"
            "        yield (p0_0, p0_1, p0_2)\n"
            "    yield (p0_0, p0_1, p0_2, p1_0, p1_1, p1_2, p2_0, p2_1, p2_2)\n"
        )

    def test_elimination_source_is_pinned(self):
        assert lu._elimination_source(2, 1) == (
            "def kernel(steps, state, floor):\n"
            "    (t0_0, t1_0) = state\n"
            "    for k, (c0, c1, b0, b1) in enumerate(steps, 1):\n"
            "        g = t0_0\n"
            "        if not floor < abs(g) < inf:\n"
            "            raise ZeroPivotError(k, g)\n"
            "        f0 = t1_0 / g\n"
            "        f1 = b0 / g\n"
            "        yield (f0, f1, g, c0)\n"
            "        t0_0 = c1 - f0 * c0\n"
            "        t1_0 = b1 - f1 * c0\n"
        )
        # t{i-1}_{j-1} overwrites an entry that only column j-1's updates
        # read, so column by column every entry is read before it is
        # overwritten: t0_1, row 0 of the window, feeds all of column 1 and
        # is replaced only in column 2
        assert lu._elimination_source(3, 2) == (
            "def kernel(steps, state, floor):\n"
            "    (t0_0, t0_1, t1_0, t1_1, t2_0, t2_1) = state\n"
            "    for k, (c0, c1, c2, b0, b1, b2) in enumerate(steps, 1):\n"
            "        g = t0_0\n"
            "        if not floor < abs(g) < inf:\n"
            "            raise ZeroPivotError(k, g)\n"
            "        f0 = t1_0 / g\n"
            "        f1 = t2_0 / g\n"
            "        f2 = b0 / g\n"
            "        yield (f0, f1, f2, g, t0_1, c0)\n"
            "        t0_0 = t1_1 - f0 * t0_1\n"
            "        t1_0 = t2_1 - f1 * t0_1\n"
            "        t2_0 = b1 - f2 * t0_1\n"
            "        t0_1 = c1 - f0 * c0\n"
            "        t1_1 = c2 - f1 * c0\n"
            "        t2_1 = b2 - f2 * c0\n"
        )

    def test_generator_overflow_is_rejected_on_both_paths(self, monkeypatch):
        # the matrix of TestFactorization.test_generator_overflow_is_rejected
        M = np.diag(np.full(3, 1e-200)) + np.diag(np.ones(2), -1)
        A = gd.make_banded(3, 1, 2, lambda i, j: M[i - 1, j - 1])
        messages = []
        for min_n in (0, math.inf):
            monkeypatch.setattr(lu, "_KERNEL_MIN_N", min_n)
            with pytest.raises(ValueError, match="non-finite") as err:
                gd.inverse_green_generators(A)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @CONSUMERS
    @pytest.mark.parametrize("k", [4, 8], ids=["interior", "step-N"])
    @pytest.mark.parametrize(
        "pivot", [0.0, -0.0, np.nan, np.inf, -np.inf], ids=["0", "-0", "nan", "inf", "-inf"]
    )
    def test_bad_pivot_of_a_built_factorization_raises(self, use, k, pivot):
        # a StructuredLU built by hand skips structured_lu's elimination; its
        # constructor names the first bad pivot, step k of N = 8, before any
        # consumer reads it. Step N is the tail that p_tail_cross_check reads
        slu = gd.structured_lu(dominant_band(8, 2, 1))
        R = slu.R.copy()
        R[k - 1 :, 0] = pivot
        with pytest.raises(gd.ZeroPivotError, match=f"step k={k}") as err:
            use(gd.StructuredLU(slu.f, R))
        assert err.value.k == k
        assert np.float64(err.value.value).tobytes() == np.float64(pivot).tobytes()

    @CONSUMERS
    @pytest.mark.parametrize(
        "name, at, value", [("f", (-1, 0), np.inf), ("R", (2, 1), np.nan)],
        ids=["inf-in-last-row-of-f", "nan-off-the-diagonal-of-R"],
    )
    def test_built_factorization_with_bad_values_raises(self, use, name, at, value):
        # every pivot is good, so the message names the array with the entry
        slu = gd.structured_lu(dominant_band(8, 2, 1))
        arrays = {"f": slu.f.copy(), "R": slu.R.copy()}
        arrays[name][at] = value
        with pytest.raises(ValueError, match=f"StructuredLU's {name} has non-finite entries"):
            use(gd.StructuredLU(**arrays))

    @CONSUMERS
    def test_built_factorization_with_a_residue_pivot_raises(self, use):
        # the matrix of TestFactorization.test_cancellation_residue_pivot_raises,
        # factored by the dense oracle: every pivot is nonzero and finite, but
        # the last is what rounding leaves of 1e100 - 1e100
        M = np.array([[1e200, 1e200, 0.0], [1e-200, 1e-100, 1e-200], [0.0, 1e200, 1e100]])
        L, U = gd.dense_lu_no_pivot(M)
        f = np.diag(L, -1)[:, None]
        R = np.stack([np.diag(U), np.append(np.diag(U, 1), 0.0)], axis=1)
        with pytest.raises(gd.ZeroPivotError, match="step k=3") as err:
            use(gd.StructuredLU(f, R))
        assert err.value.value == pytest.approx(1.94e84, rel=1e-2)

    @CONSUMERS
    @pytest.mark.parametrize(
        "f_shape, R_shape",
        [((8, 2), (10, 3)), ((9,), (10, 3)), ((9, 2), (10,)), ((9, 2), (10, 11)),
         ((9, 0), (10, 3)), ((2, 3), (3, 1)), ((9, 2), (10, 0))],
        ids=["short-f", "1-D-f", "1-D-R", "wide-R", "r-0", "N-r", "s-minus-1"],
    )
    def test_built_factorization_with_bad_shapes_raises(self, use, f_shape, R_shape):
        # one message names both shapes before any consumer reads them
        want = rf"got f of shape {re.escape(str(f_shape))} and R of shape {re.escape(str(R_shape))}"
        with pytest.raises(ValueError, match=want):
            use(gd.StructuredLU(np.zeros(f_shape), np.ones(R_shape)))


class TestTailCrossCheck:
    def test_two_by_two(self, lower2x2):
        slu = gd.structured_lu(lower2x2)
        np.testing.assert_allclose(gd.p_tail_cross_check(slu), [[0.5]], rtol=1e-15)

    def test_identity(self):
        A = gd.BandedMatrix(6, 2, 0, np.eye(6))
        slu = gd.structured_lu(A)
        np.testing.assert_allclose(gd.p_tail_cross_check(slu), np.eye(2), atol=1e-15)

    def test_agrees_with_recursion_on_ensemble(self, small_ensemble):
        for A in small_ensemble:
            slu = gd.structured_lu(A)
            gens = gd.inverse_green_generators(A)
            ref = gens.p(A.n - A.r_lower + 1)
            alt = gd.p_tail_cross_check(slu)
            assert np.abs(alt - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


class TestSchurComplement:
    def test_two_by_two(self, lower2x2):
        np.testing.assert_array_equal(gd.schur_complement(lower2x2, 1), [[2.0]])

    def test_tridiagonal(self, tridiag3):
        np.testing.assert_allclose(
            gd.schur_complement(tridiag3, 1), [[3.75, -1.0], [-1.0, 4.0]], rtol=1e-15
        )

    def test_diagonal_matrix_unchanged(self):
        A = gd.from_dense(np.diag([2.0, 3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(gd.schur_complement(A, 2), np.diag([4.0, 5.0]))

    def test_overflow_in_the_trailing_block_raises(self):
        # step 1 overflows A(2, 2) but checks no pivot after it
        with pytest.raises(gd.ZeroPivotError, match="step k=1") as err:
            gd.schur_complement(gd.from_dense(OVERFLOW_3X3), 1)
        assert err.value.k == 1

    def test_early_stop_matches_dense_elimination(self, small_ensemble):
        # the last steps eliminate full windows into W's padding rows; the
        # block must still be that of dense elimination, bit for bit, with
        # the rows below the reach of step ell still those of A
        for A in small_ensemble:
            n, r, D = A.n, A.r_lower, A.to_dense()
            for ell in sorted({1, n - r - 1, n - r} - {0}):
                T = gd.schur_complement(A, ell)
                np.testing.assert_array_equal(T, dense_elimination(D, ell)[ell:, ell:])
                np.testing.assert_array_equal(T[r:], D[ell + r :, ell:])

    @pytest.mark.parametrize("ell", [0, -1, 3, 100, 2.0, True])
    def test_rejects_bad_step_counts(self, ell, tridiag3):
        message = f"ell must be an integer in 1..2, got {ell!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gd.schur_complement(tridiag3, ell)

    def test_keeps_band_structure_exactly(self, small_ensemble):
        for A in small_ensemble[:6]:
            n, r = A.n, A.r_lower
            ell = (n - r) // 2
            if ell < 1:
                continue
            T = gd.schur_complement(A, ell)
            m = n - ell
            d = np.subtract.outer(np.arange(m), np.arange(m))
            assert np.all(T[d > r] == 0.0)
            assert np.all(T[-d > A.r_upper] == 0.0)

    def test_mu_never_increases_full_sweep(self, small_ensemble):
        # every elimination step, on instances small enough to sweep fully
        for A in small_ensemble[:6]:
            n, r = A.n, A.r_lower
            mu = gd.dominance_mu(A).mu
            for ell in range(1, n - r):
                S = gd.from_dense(
                    gd.schur_complement(A, ell),
                    r_lower=min(r, n - ell - 1),
                    r_upper=min(A.r_upper, n - ell - 1),
                )
                assert gd.dominance_mu(S).mu <= mu * (1.0 + 1e-12)

    def test_pivot_growth_sandwich(self, small_ensemble):
        # (1-mu^2)|A(k,k)| <= |gamma_k| and (1+mu^2)|T(j,j)| >= |gamma_(ell+j)|
        for A in small_ensemble[:8]:
            n, r = A.n, A.r_lower
            mu = gd.dominance_mu(A).mu
            slu = gd.structured_lu(A)
            diag = np.abs(A.to_dense().diagonal())
            assert np.all((1.0 - mu**2) * diag <= np.abs(slu.gamma) * (1.0 + 1e-12))
            for ell in (1, max(1, (n - r) // 2)):
                T = gd.schur_complement(A, ell)
                lhs = (1.0 + mu**2) * np.abs(T.diagonal())
                assert np.all(lhs * (1.0 + 1e-12) >= np.abs(slu.gamma[ell:]))

    def test_multiplier_norms_bounded_by_mu(self, small_ensemble):
        for A in small_ensemble:
            mu = gd.dominance_mu(A).mu
            slu = gd.structured_lu(A)
            for k in range(1, A.n - A.r_lower + 1):
                assert np.abs(slu.f[k - 1]).sum() <= mu * (1.0 + 1e-12)


class TestGeneratorSuffix:
    def test_full_sweep_on_small_instances(self, small_ensemble):
        for A in small_ensemble[:5]:
            n, r = A.n, A.r_lower
            gens = gd.inverse_green_generators(A)
            for ell in range(1, n - r):
                T = gd.from_dense(
                    gd.schur_complement(A, ell),
                    r_lower=r,
                    r_upper=min(A.r_upper, n - ell - 1),
                )
                sub = gd.inverse_green_generators(T)
                for i in range(1, n - ell - r + 1):
                    np.testing.assert_allclose(
                        sub.p(i), gens.p(i + ell), rtol=1e-10, atol=1e-12
                    )
                    np.testing.assert_allclose(
                        a_block(sub, i), a_block(gens, i + ell), rtol=1e-10, atol=1e-12
                    )
                np.testing.assert_allclose(
                    sub.p(n - ell - r + 1), gens.p(n - r + 1), rtol=1e-10, atol=1e-12
                )

    def test_final_block_is_inverse_of_trailing_schur(self, small_ensemble):
        # after N-r steps the trailing r x r block's inverse is the bottom generator
        for A in small_ensemble[:8]:
            n, r = A.n, A.r_lower
            gens = gd.inverse_green_generators(A)
            T = gd.schur_complement(A, n - r)
            np.testing.assert_allclose(
                np.linalg.inv(T), gens.p(n - r + 1), rtol=1e-9, atol=1e-12
            )
