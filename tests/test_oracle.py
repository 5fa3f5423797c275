from fractions import Fraction

import numpy as np
import pytest

import greendecay as gd

RNG = np.random.default_rng(314)


# ----------------------------------------------------------------------
# dense no-pivot LU
# ----------------------------------------------------------------------

def test_lu_two_by_two():
    L, R = gd.dense_lu_no_pivot(np.array([[2.0, 0.0], [1.0, 2.0]]))
    np.testing.assert_array_equal(L, [[1.0, 0.0], [0.5, 1.0]])
    np.testing.assert_array_equal(R, [[2.0, 0.0], [0.0, 2.0]])


def test_lu_identity():
    L, R = gd.dense_lu_no_pivot(np.eye(4))
    np.testing.assert_array_equal(L, np.eye(4))
    np.testing.assert_array_equal(R, np.eye(4))


def test_lu_pivot_is_determinant_quotient(tridiag3):
    # R(2,2) = det(A[:2,:2]) / det(A[:1,:1]) = 15/4
    _, R = gd.dense_lu_no_pivot(tridiag3.to_dense())
    assert R[1, 1] == pytest.approx(3.75, rel=1e-15)


def test_lu_zero_pivot_raises():
    with pytest.raises(gd.ZeroPivotError) as err:
        gd.dense_lu_no_pivot(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert err.value.k == 2


@pytest.mark.parametrize(
    "a, k",
    [
        # step 1 makes the pivot of step 2 -inf
        (np.array([[1.0, 1e200, 0.0], [1e200, 1.0, 1e200], [0.0, 1e200, 1.0]]), 2),
        # step 1 makes A(2, 3) -inf; step 2 (multiplier 0) carries it, as
        # 0 * -inf = NaN, into the pivot of step 3
        (np.array([[1.0, 0.0, 1e200], [1e200, 1.0, 0.0], [0.0, 0.0, 1.0]]), 3),
    ],
    ids=["pivot", "pivot-row"],
)
def test_lu_overflow_raises_with_index(a, k):
    with pytest.raises(gd.ZeroPivotError, match=f"step k={k}") as err:
        gd.dense_lu_no_pivot(a)
    assert err.value.k == k and not np.isfinite(err.value.value)


def test_lu_reproduces_random_matrices():
    for _ in range(5):
        A = RNG.uniform(-1, 1, (20, 20)) + 10.0 * np.eye(20)
        L, R = gd.dense_lu_no_pivot(A)
        np.testing.assert_allclose(L @ R, A, atol=1e-12 * np.abs(A).max())
        assert np.all(np.diag(L) == 1.0)
        assert np.all(np.tril(R, -1) == 0.0)


# ----------------------------------------------------------------------
# dense inverse
# ----------------------------------------------------------------------

def test_inverse_two_by_two():
    X = gd.dense_inverse(np.array([[2.0, 0.0], [1.0, 2.0]]))
    np.testing.assert_allclose(X, [[0.5, 0.0], [-0.25, 0.5]], atol=1e-15)


def test_inverse_identity():
    np.testing.assert_array_equal(gd.dense_inverse(np.eye(5)), np.eye(5))


@pytest.mark.parametrize("k", [-300, 0, 300])
def test_inverse_rejects_an_exactly_singular_matrix(k):
    # det = 0, but LAPACK meets no exact zero pivot: X has entries near
    # 1.8e15 and ||A X - I||_1 = 2.1 lies within 1e-8 * cond = 5.1e8; a
    # residual of 1 or more is no approximate inverse at any scale
    a = 2.0**k * np.array([[5.0, -3.0, 4.0], [-3.0, 5.0, 0.0], [4.0, 0.0, 5.0]])
    with pytest.raises(np.linalg.LinAlgError, match=r"^matrix is singular to working precision"):
        gd.dense_inverse(a)


def test_inverse_of_a_badly_scaled_matrix_is_kept():
    # rounding at the scale of 1e150 leaves ||A X - I||_1 = 4e133, but with
    # each row of A divided by its largest entry the residual is 1.5e-16
    c = 1.0 + 2.0**-52
    X = gd.dense_inverse(np.array([[c, 0.0], [1e150, c]]))
    exact = [[1.0 / c, 0.0], [-1e150 / c**2, 1.0 / c]]
    np.testing.assert_allclose(X, exact, rtol=1e-15, atol=1e-160)


def test_inverse_diagonal_reciprocals():
    d = np.array([2.0, 5.0, 0.25])
    np.testing.assert_allclose(gd.dense_inverse(np.diag(d)), np.diag(1.0 / d), rtol=1e-15)


def test_inverse_rejects_singular():
    with pytest.raises(np.linalg.LinAlgError):
        gd.dense_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize(
    "A", [np.diag([1e-320, 1.0]), np.array([[np.nan, 0.0], [0.0, 1.0]])],
    ids=["subnormal-pivot", "nan-entry"],
)
def test_inverse_rejects_non_finite_results(A):
    # LAPACK returns [[inf, nan], [0, 1]] for the subnormal pivot; its
    # residual is NaN, which no comparison with the limit rejects
    with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
        gd.dense_inverse(A)


def test_inverse_rejects_an_unmeasured_residual(monkeypatch):
    # the exact inverse, finite, but A X overflows (inf, or inf - inf = NaN
    # without a fused multiply-add) and so does the condition number, so the
    # residual guard would measure nothing
    A = np.diag([1e160, 1e-160]) @ np.array([[2.0, 1.0], [1.0, 2.0]])
    X = np.linalg.inv(np.array([[2.0, 1.0], [1.0, 2.0]])) @ np.diag([1e-160, 1e160])
    assert np.isfinite(X).all()
    monkeypatch.setattr(np.linalg, "inv", lambda a: X)
    with pytest.raises(np.linalg.LinAlgError, match=r"residual (inf|nan)"):
        gd.dense_inverse(A)


def test_inverse_is_an_involution():
    for _ in range(5):
        A = RNG.uniform(-1, 1, (15, 15)) + 8.0 * np.eye(15)
        np.testing.assert_allclose(
            gd.dense_inverse(gd.dense_inverse(A)), A, rtol=1e-10, atol=1e-12
        )


# ----------------------------------------------------------------------
# symmetric spectrum
# ----------------------------------------------------------------------

def test_spectrum_of_diagonal():
    np.testing.assert_allclose(
        gd.symmetric_spectrum(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]
    )


def test_spectrum_two_by_two():
    np.testing.assert_allclose(
        gd.symmetric_spectrum(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0], rtol=1e-12
    )


def test_spectrum_tridiagonal(tridiag3):
    want = [4.0 - np.sqrt(2.0), 4.0, 4.0 + np.sqrt(2.0)]
    np.testing.assert_allclose(gd.symmetric_spectrum(tridiag3.to_dense()), want, rtol=1e-12)


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        gd.symmetric_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-13, 1e-20])
def test_rejects_tiny_nonsymmetric(scale):
    # eigvalsh would read only the lower triangle; the guard follows max|A|
    W = scale * np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        gd.symmetric_spectrum(W)


def test_rejects_an_eigenvalue_beyond_the_float_range():
    # the larger eigenvalue is about 2.3e308, which eigvalsh returns as inf
    big = np.finfo(float).max
    with pytest.raises(np.linalg.LinAlgError, match="^an eigenvalue lies beyond the float range$"):
        gd.symmetric_spectrum(np.array([[0.0, big], [big, 1e308]]))


@pytest.mark.parametrize("k", [-1000, 1000])
def test_spectrum_scales_with_powers_of_two(k):
    W = np.array([[4.0, 1.0, 0.5], [1.0, 4.0, 1.0], [0.5, 1.0, 4.0]])
    np.testing.assert_allclose(
        gd.symmetric_spectrum(2.0**k * W) / 2.0**k, gd.symmetric_spectrum(W), rtol=1e-14
    )
    np.testing.assert_array_equal(gd.symmetric_spectrum(np.zeros((2, 2))), [0.0, 0.0])


def test_eigensystem_residuals_and_invariants():
    for n in (10, 35):
        A = RNG.uniform(-1, 1, (n, n))
        A = A + A.T
        w = gd.symmetric_spectrum(A)
        scale = np.linalg.norm(A, "fro")
        # each value makes A - w I singular (smallest singular value ~ 0)
        for x in w:
            sigma = np.linalg.svd(A - x * np.eye(n), compute_uv=False)
            assert sigma[-1] <= 1e-12 * scale
        # orthogonal similarity preserves trace and Frobenius norm
        assert abs(w.sum() - np.trace(A)) <= 1e-12 * max(1.0, abs(np.trace(A)))
        assert abs(np.sqrt((w**2).sum()) - scale) <= 1e-12 * scale
        assert np.all(np.diff(w) >= 0.0)
        # the general (nonsymmetric) eigensolver agrees
        np.testing.assert_allclose(
            w, np.sort(np.linalg.eigvals(A).real), rtol=0.0, atol=1e-12 * scale
        )


# ----------------------------------------------------------------------
# exact determinant reference
# ----------------------------------------------------------------------

def determinant_fraction_free(a):
    """Exact determinant via fraction-free (Bareiss) elimination.

    Floating inputs are binary rationals, so the result is the exact
    determinant of the stored matrix. A zero pivot is replaced by a row swap
    (flipping the sign); a column with no nonzero candidate makes the
    determinant zero. Intended for small N only; entry sizes grow quickly.
    """
    A = np.asarray(a, dtype=float)
    n = A.shape[0]
    M = [[Fraction(A[i, j]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
            M[i][k] = Fraction(0)
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def test_determinant_small_cases():
    assert determinant_fraction_free(np.array([[2.0, 0.0], [1.0, 2.0]])) == 4
    M = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]])
    assert determinant_fraction_free(M) == -3
    assert determinant_fraction_free(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1
    # zero leading entries force row swaps: an upper triangular matrix with
    # diagonal 1..8 and its first two rows swapped has determinant -8!
    U = np.triu(np.arange(64.0).reshape(8, 8) % 5 - 2.0, 1) + np.diag(np.arange(1.0, 9.0))
    assert U[1, 0] == 0.0
    assert determinant_fraction_free(U[[1, 0, 2, 3, 4, 5, 6, 7]]) == -40320
    # a zero pivot in the middle: det [[1,1,0],[1,1,1],[0,1,1]] = -1
    M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    assert determinant_fraction_free(M) == -1
    # a column without any nonzero entry
    assert determinant_fraction_free(np.triu(np.ones((8, 8)), 1)) == 0


def test_determinant_matches_numpy():
    for _ in range(4):
        A = RNG.uniform(-2, 2, (6, 6))
        exact = float(determinant_fraction_free(A))
        assert exact == pytest.approx(np.linalg.det(A), rel=1e-9)


def test_pivots_equal_determinant_quotients():
    # gamma_k == det(A[:k,:k]) / det(A[:k-1,:k-1]) in exact arithmetic
    rng = np.random.default_rng(2024)
    for _ in range(3):
        A = gd.random_dominant_matrix(rng, n=10, r_lower=3)
        gamma = gd.structured_lu(A).gamma
        prev = Fraction(1)
        for k in range(1, 11):
            det_k = determinant_fraction_free(A.to_dense()[:k, :k])
            quotient = det_k / prev
            assert float(quotient) == pytest.approx(gamma[k - 1], rel=1e-9)
            prev = det_k


@pytest.mark.parametrize("oracle", [gd.dense_lu_no_pivot, gd.symmetric_spectrum])
def test_rejects_a_non_square_array(oracle):
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        oracle(np.ones((2, 3)))
