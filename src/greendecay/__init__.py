"""Green (quasiseparable) representations of banded-matrix inverses and
computable exponential off-diagonal decay bounds.

The inverse of a lower band matrix of order r is a lower Green matrix of the
same order: its lower part is fully described by O(N) small generators. This
package computes those generators through a structured no-pivot LU
factorization, derives a-priori geometric envelopes M * gamma^(i-j) on
|A^{-1}(i, j)| from a strong column-dominance condition, and compares them
with the classical spectrum-based decay bounds on a set of reproducible
experiments.
"""

from .banded import (
    BandedMatrix,
    DominanceReport,
    dominance_mu,
    from_dense,
    make_banded,
    read_matrix_market,
)
from .bounds import (
    DecayBound,
    QRHypothesisReport,
    chui_hasson_rate,
    dms_rate,
    eval_bound,
    frommer_bound,
    lu_bound,
    qr_bound,
    varah_bound,
)
from .ensembles import dominant_ensemble, random_dominant_matrix
from .errors import (
    DominanceError,
    HypothesisError,
    MatrixMarketError,
    RegionError,
    ZeroPivotError,
)
from .experiments import (
    CSV_COLUMNS,
    EXPERIMENT_NAMES,
    ExperimentReport,
    ExperimentSpec,
    FamilyResult,
    emit_csv,
    generate,
    run_experiment,
)
from .green import (
    GreenGenerators,
    green_scalar_entry,
    reconstruct_lower,
)
from .lu import (
    StructuredLU,
    inverse_green_generators,
    p_tail_cross_check,
    schur_complement,
    structured_lu,
)
from .oracle import (
    dense_inverse,
    dense_lu_no_pivot,
    determinant_fraction_free,
    symmetric_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BandedMatrix",
    "CSV_COLUMNS",
    "DecayBound",
    "DominanceError",
    "DominanceReport",
    "EXPERIMENT_NAMES",
    "ExperimentReport",
    "ExperimentSpec",
    "FamilyResult",
    "GreenGenerators",
    "HypothesisError",
    "MatrixMarketError",
    "QRHypothesisReport",
    "RegionError",
    "StructuredLU",
    "ZeroPivotError",
    "chui_hasson_rate",
    "dense_inverse",
    "dense_lu_no_pivot",
    "determinant_fraction_free",
    "dms_rate",
    "dominance_mu",
    "dominant_ensemble",
    "emit_csv",
    "eval_bound",
    "from_dense",
    "frommer_bound",
    "generate",
    "green_scalar_entry",
    "inverse_green_generators",
    "lu_bound",
    "make_banded",
    "p_tail_cross_check",
    "qr_bound",
    "random_dominant_matrix",
    "read_matrix_market",
    "reconstruct_lower",
    "run_experiment",
    "schur_complement",
    "structured_lu",
    "symmetric_spectrum",
    "varah_bound",
]
