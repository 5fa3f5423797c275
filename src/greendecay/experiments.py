"""Experiment harness: matrix generators, bound sweeps, and CSV reports.

Each named experiment builds a matrix, probes one column of the exact
(reference) inverse and evaluates every applicable bound family at each
entry. ``_EXPERIMENTS`` maps each name, in the paper's order, to its recipe
(a function of the :class:`ExperimentSpec`) and its report note;
``EXPERIMENT_NAMES`` and :func:`generate` read it, and ``ExperimentSpec`` is
the one check of a name. Results serialize to CSV with columns

    i,j,exact,lu,qr,varah,dms,frommer,chui_hasson

where inapplicable cells read ``NA`` and floats are written in full
round-trip scientific notation, so identical runs produce byte-identical
files.

Matrix recipes
--------------
ex1a   50 x 50 symmetric positive definite Toeplitz, bandwidth 3:
       6.25 on the diagonal, 0.25 for 0 < |i-j| <= 3.
ex1b   ex1a with A(20,20) = 100 (one large eigenvalue).
ex1c   ex1a with 100 added to the first 25 diagonal entries.
ex1d   ex1a with the diagonal sign flipped at indices 10, 11, 12
       (symmetric indefinite).
ex2    ex1a made nonsymmetric: columns 20 and 21 get their three
       subdiagonal entries scaled by 25 and diagonal set to -100; column 30
       is divided by 100 and its diagonal set to 1.
ex3    a Matrix Market file (e.g. gre_512) plus a diagonal shift of +1 on
       the first half of the rows and -1 on the second half.
ex4a   100 x 100 one-sided, lower bandwidth 5: 2 x 2 rotation blocks placing
       conjugate eigenvalue pairs near the ellipse with real semiaxis 2 and
       imaginary semiaxis 1, plus uniform noise in [-1e-3, 1e-3] on the
       remaining off-diagonal positions. Only the eigenvalue regime is
       meaningful; the concrete entries are one way to realize it.
ex4b   as ex4a but with real diagonal values +-10^u, u uniform in [0, 4]
       (log-distributed real parts).
ex5    20 x 20 one-sided Hessenberg: subdiagonal 0.5, upper part
       0.5 * 2^-(j-i), diagonal +12 / -12 in two blocks (eigenvalues
       clustered near +-12).

ex1b-ex1d and ex3 change only the diagonal: they edit the diagonal column
of the band array of ex1a or of the file's matrix and build from it with
``from_band``, with no dense copy. ex2 edits entries off the diagonal, so
it keeps the dense route (``to_dense``, then ``from_dense``), as ex4a,
ex4b and ex5, which are built dense, do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .banded import (
    BandedMatrix,
    DominanceReport,
    _is_integer,
    dominance_mu,
    from_band,
    from_dense,
    make_banded,
    read_matrix_market,
)
from .bounds import (
    DecayBound,
    chui_hasson_rate,
    dms_rate,
    eval_bound,
    frommer_bound,
    lu_bound,
    qr_bound,
    varah_bound,
)
from .errors import HypothesisError
from .oracle import dense_inverse, symmetric_spectrum

__all__ = [
    "EXPERIMENT_NAMES",
    "ExperimentSpec",
    "ExperimentReport",
    "generate",
    "run_experiment",
    "emit_csv",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("i", "j", "exact", "lu", "qr", "varah", "dms", "frommer", "chui_hasson")


@dataclass(frozen=True)
class ExperimentSpec:
    """Which experiment to run, with seed, probe column, and input file.

    Only ex3 reads a file, and only ex3 takes an ``input_path``.
    """

    name: str
    seed: int = 0
    column: int = 1
    input_path: str | None = None

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(
                f"unknown experiment {self.name!r}; choose one of {EXPERIMENT_NAMES}"
            )
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_integer(self.column):
            raise ValueError(f"probe column must be an integer, got {self.column!r}")
        if self.column < 1:
            raise ValueError(f"probe column must be >= 1, got {self.column}")
        if self.input_path is not None and self.name != "ex3":
            raise ValueError(f"experiment {self.name!r} reads no input file; only ex3 does")


def _ex1a(spec: ExperimentSpec) -> BandedMatrix:
    return make_banded(50, 3, 3, lambda i, j: 6.25 if i == j else 0.25)


def _ex1_variant(spec: ExperimentSpec) -> BandedMatrix:
    V = _ex1a(spec).band()  # column 3 holds the diagonal A(i, i)
    if spec.name == "ex1b":
        V[19, 3] = 100.0
    elif spec.name == "ex1c":
        V[:25, 3] += 100.0
    else:  # ex1d
        V[9:12, 3] = -V[9:12, 3]
    return from_band(V, 3, 3)


def _ex2(spec: ExperimentSpec) -> BandedMatrix:
    W = _ex1a(spec).to_dense()
    W[20:23, 19] *= 25.0
    W[19, 19] = -100.0
    W[21:24, 20] *= 25.0
    W[20, 20] = -100.0
    W[0:33, 29] /= 100.0
    W[29, 29] = 1.0
    return from_dense(W, r_lower=3, r_upper=3)


def _ex3(spec: ExperimentSpec) -> BandedMatrix:
    if spec.input_path is None:
        raise FileNotFoundError(
            "experiment ex3 needs --input pointing to a Matrix Market file"
        )
    base = read_matrix_market(spec.input_path)
    V = base.band()
    half = base.n // 2
    V[:half, base.r_lower] += 1.0
    V[half:, base.r_lower] -= 1.0
    return from_band(V, base.r_lower, base.r_upper)


def _one_sided_noise(rng: np.random.Generator, n: int, r_lower: int) -> np.ndarray:
    """Uniform [-1e-3, 1e-3] noise on the band's off-diagonal positions."""
    noise = rng.uniform(-1e-3, 1e-3, (n, n))
    d = np.subtract.outer(np.arange(n), np.arange(n))
    keep = (d <= r_lower) & (d != 0)  # whole upper triangle + lower band
    return np.where(keep, noise, 0.0)


def _ex4a(spec: ExperimentSpec) -> BandedMatrix:
    rng = np.random.default_rng(spec.seed)
    n, r = 100, 5
    W = np.zeros((n, n))
    for b in range(n // 2):
        # conjugate pair 2 cos(theta) +- i sin(theta); angles stay away from
        # the imaginary axis so the diagonal can dominate the columns
        theta = rng.uniform(-1.0, 1.0)
        re = 2.0 * np.cos(theta) * (1.0 if b % 2 == 0 else -1.0)
        im = np.sin(theta)
        k = 2 * b
        W[k, k] = re
        W[k + 1, k + 1] = re
        W[k, k + 1] = im
        W[k + 1, k] = -im
    # every column holds |A(k,k)| = 2 cos(theta) >= 2 cos 1 against at most
    # sin 1 plus 99 noise entries of 1e-3: mu <= (sin 1 + 0.099) / (2 cos 1) < 0.871
    W += _one_sided_noise(rng, n, r)
    return from_dense(W, r_lower=r, r_upper=n - 1)


def _ex4b(spec: ExperimentSpec) -> BandedMatrix:
    rng = np.random.default_rng(spec.seed)
    n, r = 100, 5
    W = np.zeros((n, n))
    mags = 10.0 ** rng.uniform(0.0, 4.0, n)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    np.fill_diagonal(W, signs * mags)
    # |A(k,k)| >= 1 against at most 99 noise entries of 1e-3: mu <= 0.099
    W += _one_sided_noise(rng, n, r)
    return from_dense(W, r_lower=r, r_upper=n - 1)


def _ex5(spec: ExperimentSpec) -> BandedMatrix:
    n = 20
    W = np.zeros((n, n))
    for i in range(n):
        W[i, i] = 12.0 if i < n // 2 else -12.0
        for j in range(i + 1, n):
            W[i, j] = 0.5 * 2.0 ** (-(j - i))
        if i + 1 < n:
            W[i + 1, i] = 0.5
    return from_dense(W, r_lower=1, r_upper=n - 1)


# every experiment in the paper's order: its recipe and its report note
_EXPERIMENTS = {
    "ex1a": (_ex1a, None),
    "ex1b": (_ex1_variant, None),
    "ex1c": (_ex1_variant, None),
    "ex1d": (_ex1_variant, None),
    "ex2": (_ex2, "nonsymmetric variant with a real spectrum: two eigenvalues near "
            "-100 (-101.2 and -98.9), one near 1 and the other 47 in [5.6, 7.7]"),
    "ex3": (_ex3, None),
    "ex4a": (_ex4a, "generator targets an eigenvalue regime (ellipse with semiaxes "
             "2 and 1); the concrete matrix entries are one realization of it"),
    "ex4b": (_ex4b, "generator targets log-distributed real parts in "
             "[-1e4,-1] u [1,1e4]; the concrete matrix entries are one realization"),
    "ex5": (_ex5, "generator targets eigenvalue clusters near +-12 via a 0.5 "
            "subdiagonal and an exponentially decaying upper part"),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def generate(spec: ExperimentSpec) -> BandedMatrix:
    """Build the matrix of a named experiment (deterministic under the seed)."""
    recipe, _ = _EXPERIMENTS[spec.name]
    return recipe(spec)


@dataclass(frozen=True)
class ExperimentReport:
    """Exact probe-column values next to every applicable bound family.

    ``A`` is the experiment's matrix and ``dominance`` its dominance report.
    ``families`` maps each family to its bound and note, or to None and the
    reason it does not apply (see :func:`_bound_table`).
    """

    spec: ExperimentSpec
    A: BandedMatrix
    dominance: DominanceReport
    symmetric: bool
    families: dict[str, tuple[DecayBound | None, str]]
    rows: tuple[dict, ...]
    notes: tuple[str, ...] = ()

    @property
    def applicable_families(self) -> tuple[str, ...]:
        return tuple(k for k, (bound, _) in self.families.items() if bound is not None)


_SPECTRAL = ("dms", "frommer", "chui_hasson")


def _bound_table(
    A: BandedMatrix, spectrum: np.ndarray | None
) -> dict[str, tuple[DecayBound | None, str]]:
    """Each family's bound and note, or None and the reason it does not apply.

    ``spectrum`` is A's ascending spectrum, or None for a nonsymmetric A;
    the table calls no oracle. Families whose hypotheses fail are marked
    inapplicable, not errors: nonsymmetric matrices get no spectrum-based
    baselines, an indefinite spectrum disables the effective-condition-number
    bound, and any family that raises HypothesisError is disabled with its
    message. That one rule covers the LU and Varah families' dominance
    condition (DominanceError), QR's K, and a rate that rounds to 1 or a
    constant that overflows in any family (see :class:`DecayBound`).
    """
    def qr():
        report, bound = qr_bound(A)
        return bound, "" if report.k_threshold_met else "K threshold not met"

    # each family is a call giving (bound, note), or the reason it is skipped
    families = {
        "lu": lambda: (lu_bound(A), ""),
        "varah": lambda: (varah_bound(A), ""),
        "qr": qr,
    }
    if spectrum is None:
        reason = "nonsymmetric matrix; spectrum-based baselines skipped"
        families |= dict.fromkeys(_SPECTRAL, reason)
    else:
        w = spectrum.tolist()
        r, lo, hi = A.r_lower, min(map(abs, w)), max(map(abs, w))
        if lo > 0.0:
            families["dms"] = lambda: (dms_rate(lo, hi, r, definite=w[0] > 0.0), "")
            families["frommer"] = ((lambda: (frommer_bound(w[0], w[-2], r), ""))
                                   if w[0] > 0.0 else "spectrum is not positive")
            families["chui_hasson"] = lambda: (chui_hasson_rate(lo, hi, r), "")
        else:
            families |= dict.fromkeys(_SPECTRAL, "zero eigenvalue; interval rates undefined")

    table: dict[str, tuple[DecayBound | None, str]] = {}
    for name, family in families.items():
        try:
            table[name] = (None, family) if isinstance(family, str) else family()
        except HypothesisError as exc:
            table[name] = (None, str(exc))
    return table


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Generate, invert (reference), bound, and tabulate one experiment.

    The one oracle stage turns A into a dense array once and gives that copy
    to both oracles: :func:`dense_inverse` for the exact column, and
    :func:`symmetric_spectrum` when A is symmetric. The report's families
    are then one table of A and that spectrum (see :func:`_bound_table`),
    and every row's bound cells come from it; a family that does not apply
    has ``None`` (``NA`` in the CSV) in every row.
    """
    A = generate(spec)
    n = A.n
    if spec.column > n:
        raise ValueError(f"probe column {spec.column} exceeds N = {n}")
    D = A.to_dense()
    inv = dense_inverse(D)
    rep = dominance_mu(A)
    symmetric = A.is_symmetric()
    table = _bound_table(A, symmetric_spectrum(D) if symmetric else None)
    j = spec.column
    rows = tuple(
        {
            "i": i,
            "j": j,
            "exact": abs(float(inv[i - 1, j - 1])),
            **{
                name: None if bound is None else eval_bound(bound, i, j)
                for name, (bound, _) in table.items()
            },
        }
        for i in range(1, n + 1)
    )

    _, note = _EXPERIMENTS[spec.name]
    return ExperimentReport(
        spec=spec,
        A=A,
        dominance=rep,
        symmetric=symmetric,
        families=table,
        rows=rows,
        notes=() if note is None else (note,),
    )


def _cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17e")


def emit_csv(report: ExperimentReport, path) -> str:
    """Write the report table; identical reports give byte-identical files."""
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_cell(row[c]) for c in CSV_COLUMNS))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return str(path)
