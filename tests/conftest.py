import warnings

import numpy as np
import pytest

import greendecay as gd

# Hypothesis imports its patch writer (and with it libcst, when installed)
# only while reporting a failing example. Under -W error, libcst's import-time
# DeprecationWarning from mypy_extensions would then abort the session with
# an INTERNALERROR in place of the failure report. Import it once here, with
# that warning silenced for the import alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def small_ensemble():
    """Mixed one-/two-sided strongly dominant matrices for module sweeps."""
    return gd.dominant_ensemble(
        25, seed=1234, n_max=60, r_max=5, pinned=((60, 5, True), (60, 5, False))
    )


@pytest.fixture(scope="session")
def acceptance_ensemble():
    """The acceptance suite's 100 matrices: N up to 200, r up to 8, extremes pinned."""
    pinned = ((200, 8, False), (200, 8, True), (173, 1, True), (151, 5, False))
    return gd.dominant_ensemble(100, 977, n_max=200, r_max=8, pinned=pinned)


@pytest.fixture(scope="session")
def ex1a_matrix():
    return gd.make_banded(50, 3, 3, lambda i, j: 6.25 if i == j else 0.25)


@pytest.fixture()
def tridiag3():
    return gd.make_banded(3, 1, 1, lambda i, j: 4.0 if i == j else -1.0)


@pytest.fixture()
def lower2x2():
    return gd.from_dense(np.array([[2.0, 0.0], [1.0, 2.0]]))


def one_norm(M):
    return np.abs(M).sum(axis=0).max()


def q_block(gens, j):
    """Column generator q(j), j = 0 .. N-r: q(0) = I_r, the rest e_r (r x 1)."""
    assert 0 <= j <= len(gens.f)
    return np.eye(gens.r) if j == 0 else np.eye(gens.r, 1, 1 - gens.r)


def a_block(gens, k):
    """Transition a(k) = -f_k e_1^T + J, k = 1 .. N-r, J the upper shift."""
    assert 1 <= k <= len(gens.f)
    a = np.eye(gens.r, k=1)
    a[:, 0] = 0.0 - gens.f[k - 1]
    return a


def dense_elimination(D, steps):
    """Dense no-pivot elimination of D, run for ``steps`` steps (test reference).

    Returns a copy of D with each step's multipliers in place of the entries
    they eliminate, as LAPACK stores them: the rows of R above, and the
    Schur complement in the trailing (N-steps) x (N-steps) block. Entries
    outside the band stay zero, so every entry in the band gets the
    operations of the band elimination, in its order, and the same bits.
    """
    S = np.array(D, dtype=float)
    for k in range(steps):
        S[k + 1 :, k] /= S[k, k]
        S[k + 1 :, k + 1 :] -= np.multiply.outer(S[k + 1 :, k], S[k, k + 1 :])
    return S
