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
    _, R = gd.dense_lu_no_pivot(tridiag3.data)
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


def test_inverse_diagonal_reciprocals():
    d = np.array([2.0, 5.0, 0.25])
    np.testing.assert_allclose(gd.dense_inverse(np.diag(d)), np.diag(1.0 / d), rtol=1e-15)


def test_inverse_rejects_singular():
    with pytest.raises(np.linalg.LinAlgError):
        gd.dense_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


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
    np.testing.assert_allclose(gd.symmetric_spectrum(tridiag3.data), want, rtol=1e-12)


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        gd.symmetric_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-13, 1e-20])
def test_rejects_tiny_nonsymmetric(scale):
    # eigvalsh would read only the lower triangle; the guard follows max|A|
    W = scale * np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        gd.symmetric_spectrum(W)


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
# exact determinant oracle
# ----------------------------------------------------------------------

def test_determinant_small_cases():
    assert gd.determinant_fraction_free(np.array([[2.0, 0.0], [1.0, 2.0]])) == 4
    M = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]])
    assert gd.determinant_fraction_free(M) == -3
    assert gd.determinant_fraction_free(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1
    # zero leading entries force row swaps: an upper triangular matrix with
    # diagonal 1..8 and its first two rows swapped has determinant -8!
    U = np.triu(np.arange(64.0).reshape(8, 8) % 5 - 2.0, 1) + np.diag(np.arange(1.0, 9.0))
    assert U[1, 0] == 0.0
    assert gd.determinant_fraction_free(U[[1, 0, 2, 3, 4, 5, 6, 7]]) == -40320
    # a zero pivot in the middle: det [[1,1,0],[1,1,1],[0,1,1]] = -1
    M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    assert gd.determinant_fraction_free(M) == -1
    # a column without any nonzero entry
    assert gd.determinant_fraction_free(np.triu(np.ones((8, 8)), 1)) == 0


def test_determinant_matches_numpy():
    for _ in range(4):
        A = RNG.uniform(-2, 2, (6, 6))
        exact = float(gd.determinant_fraction_free(A))
        assert exact == pytest.approx(np.linalg.det(A), rel=1e-9)


def test_pivots_equal_determinant_quotients():
    # gamma_k == det(A[:k,:k]) / det(A[:k-1,:k-1]) in exact arithmetic
    rng = np.random.default_rng(2024)
    for _ in range(3):
        A = gd.random_dominant_matrix(rng, n=10, r_lower=3)
        gamma = gd.structured_lu(A).gamma
        prev = Fraction(1)
        for k in range(1, 11):
            det_k = gd.determinant_fraction_free(A.data[:k, :k])
            quotient = det_k / prev
            assert float(quotient) == pytest.approx(gamma[k - 1], rel=1e-9)
            prev = det_k
