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
def ex1a_matrix():
    return gd.make_banded(50, 3, 3, lambda i, j: 6.25 if i == j else 0.25)


@pytest.fixture()
def tridiag3():
    return gd.make_banded(3, 1, 1, lambda i, j: 4.0 if i == j else -1.0)


@pytest.fixture()
def lower2x2():
    return gd.from_dense(np.array([[2.0, 0.0], [1.0, 2.0]]))
