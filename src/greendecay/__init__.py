"""Green (quasiseparable) representations of banded-matrix inverses and
computable exponential off-diagonal decay bounds.

The inverse of a lower band matrix of order r is a lower Green matrix of the
same order: its lower part is fully described by O(N) small generators. This
package computes those generators through a structured no-pivot LU
factorization, derives a-priori geometric envelopes M * gamma^(i-j) on
|A^{-1}(i, j)| from a strong column-dominance condition, and compares them
with the classical spectrum-based decay bounds on a set of reproducible
experiments.

The public names below live in their submodules, and the package imports a
submodule (and numpy with it) only when one of its names is first used
(PEP 562): ``import greendecay`` loads nothing, and a CLI command loads only
the modules it runs. ``gd.make_banded``, ``from greendecay import *`` and
``greendecay.lu`` resolve as with eager imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# the defining submodule of every public name
_SUBMODULE_NAMES = {
    "banded": (
        "BandedMatrix",
        "DominanceReport",
        "dominance_mu",
        "from_dense",
        "make_banded",
        "read_matrix_market",
    ),
    "bounds": (
        "DecayBound",
        "QRHypothesisReport",
        "chui_hasson_rate",
        "dms_rate",
        "eval_bound",
        "frommer_bound",
        "lu_bound",
        "qr_bound",
        "varah_bound",
    ),
    "ensembles": ("dominant_ensemble", "random_dominant_matrix"),
    "errors": (
        "DominanceError",
        "HypothesisError",
        "MatrixMarketError",
        "RegionError",
        "ZeroPivotError",
    ),
    "experiments": (
        "CSV_COLUMNS",
        "EXPERIMENT_NAMES",
        "ExperimentReport",
        "ExperimentSpec",
        "emit_csv",
        "generate",
        "run_experiment",
    ),
    "green": ("GreenGenerators", "green_scalar_entry", "reconstruct_lower"),
    "lu": (
        "StructuredLU",
        "inverse_green_generators",
        "p_tail_cross_check",
        "schur_complement",
        "structured_lu",
    ),
    "oracle": (
        "dense_inverse",
        "dense_lu_no_pivot",
        "symmetric_spectrum",
    ),
}
_SUBMODULES = frozenset({*_SUBMODULE_NAMES, "cli", "verify"})
_ORIGIN = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
