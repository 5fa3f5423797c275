"""The three benchmark workloads: seeded inputs, ops, output checks.

Every call an op makes into ``greendecay`` goes through ``tracer.call`` with
the span name ``<module>.<function>``, so the traced run can attribute time
to layers from outside the program. Untraced runs pass the NullTracer, which
calls straight through.

Random streams are derived from the workload seed with fixed spawn keys, so
the same seed always gives the same inputs:

    (0, k)  band of the k-th band_long matrix and its point queries
    (1,)    the ex3 Matrix Market input of paper_cli
    (2, n)  the order-n matrix used for the generator scaling fit
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import greendecay as gd
from greendecay import cli
from greendecay.errors import HypothesisError
from greendecay.verify import run_all

from harness import SRC, Op, require

GOLDEN = Path(__file__).resolve().parent / "golden"
CSV_HEADER = "i,j,exact,lu,qr,varah,dms,frommer,chui_hasson"
CLI_TIMEOUT_S = 120

# Both bandwidths of the band_long matrices (and of the scaling fit).
R = S = 4


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def band_values(
    rng: np.random.Generator,
    n: int,
    r: int,
    s: int,
    ratio: tuple[float, float] = (0.3, 0.5),
    margin: float = 0.0,
) -> np.ndarray:
    """Band of a random column-dominant matrix: ``V[i, t] = A(i, i + t - r)``.

    Off-diagonal entries are uniform in [-1, 1]. Each diagonal entry gets a
    random sign and magnitude ``colsum / ratio_k + margin`` with ``ratio_k``
    uniform in ``ratio``, so mu <= ratio[1]. Positions outside the matrix
    hold zero.
    """
    V = rng.uniform(-1.0, 1.0, (n, r + s + 1))
    cols = np.arange(n)[:, None] + np.arange(-r, s + 1)
    inside = (cols >= 0) & (cols < n)
    V[~inside] = 0.0
    V[:, r] = 0.0
    colsum = np.bincount(cols[inside], weights=np.abs(V[inside]), minlength=n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    V[:, r] = sign * (colsum / rng.uniform(*ratio, n) + margin)
    return V


def band_entries(V: np.ndarray, r: int):
    """0-based (rows, cols, values) of every position inside the band."""
    n, w = V.shape
    rows = np.repeat(np.arange(n), w)
    cols = rows + np.tile(np.arange(w) - r, n)
    inside = (cols >= 0) & (cols < n)
    return rows[inside], cols[inside], V.ravel()[inside]


def dense_from_band(V: np.ndarray, r: int) -> np.ndarray:
    n = V.shape[0]
    D = np.zeros((n, n))
    rows, cols, vals = band_entries(V, r)
    D[rows, cols] = vals
    return D


def lapack_band(V: np.ndarray, r: int, s: int) -> np.ndarray:
    """The band in LAPACK ``gbsv`` layout: ``ab[s + i - j, j] = A(i, j)``."""
    n, w = V.shape
    ab = np.zeros((w, n))
    for t in range(w):
        off = t - r  # column offset j - i of band column t
        lo, hi = max(0, -off), min(n, n - off)
        ab[s - off, lo + off : hi + off] = V[lo:hi, t]
    return ab


def factor_bytes(slu) -> int:
    return slu.R.nbytes + slu.gamma.nbytes + sum(f.nbytes for f in slu.f)


def try_qr(A, tracer) -> None:
    """qr_bound, counting attempts and the ones whose hypotheses hold.

    HypothesisError is the documented outcome when no feasible K exists or
    the rate is degenerate; it is counted, not failed.
    """
    tracer.count("bounds.qr_bound_attempts")
    try:
        tracer.call("bounds.qr_bound", gd.qr_bound, A)
    except HypothesisError:
        return
    tracer.count("bounds.qr_bound_applicable")


def envelope_holds(values: np.ndarray, M: float, gamma: float, dist: np.ndarray) -> bool:
    """|values| <= M * gamma**dist up to roundoff (dist = i - j >= 0)."""
    return bool(np.all(np.abs(values) <= M * np.power(gamma, dist) * (1.0 + 1e-12)))


class BandLong:
    """N = 4000, r = s = 4, mu <= 0.5: one distinct matrix per op.

    An op builds the matrix with make_banded, takes its dominance and the
    LU, Varah and QR bounds, computes the inverse generators and evaluates
    64 entries of A^-1 with i - j < 512. The band of op k is drawn from
    stream (0, k) when its batch is built, outside the op's timer.
    """

    name = "band_long"
    uses_children = False

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer):
        self.seed = seed
        self.n, self.queries, self.max_dist = (300, 8, 64) if smoke else (4000, 64, 512)
        self.first = self.draw(0)

    def draw(self, k: int):
        rng = stream(self.seed, 0, k)
        V = band_values(rng, self.n, R, S)
        j = rng.integers(1, self.n + 1, self.queries)
        i = np.minimum(j + rng.integers(0, self.max_dist, self.queries), self.n)
        return V, [(int(a), int(b)) for a, b in zip(i, j)]

    def batch(self, b: int) -> list[Op]:
        V, queries = self.first if b == 0 else self.draw(b)
        return [
            Op(
                f"matrix {b}",
                lambda tracer: self.op(V, queries, tracer),
                lambda out: self.check(V, queries, out),
            )
        ]

    def op(self, V, queries, tracer):
        call = tracer.call
        A = call("banded.construct", gd.make_banded, self.n, R, S, lambda i, j: V[i - 1, j - i + R])
        tracer.count("banded.stored_bytes", A.data.nbytes)
        call("banded.dominance_mu", gd.dominance_mu, A)
        lu = call("bounds.lu_bound", gd.lu_bound, A)
        call("bounds.varah_bound", gd.varah_bound, A)
        try_qr(A, tracer)
        if tracer.traced:
            # Calls made from outside cannot split the generator recursion
            # from the factorization it runs first; this call gives the split.
            slu = call("lu.structured_lu", gd.structured_lu, A)
            tracer.count("lu.factor_bytes", factor_bytes(slu))
            del slu
        gens = call("lu.inverse_green_generators", gd.inverse_green_generators, A)
        values = [
            call("green.green_scalar_entry", gd.green_scalar_entry, gens, i, j)
            for i, j in queries
        ]
        tracer.count("green.green_scalar_entry_calls", len(queries))
        return lu.M, lu.gamma, np.array(values)

    def check(self, V, queries, out) -> None:
        from scipy.linalg import solve_banded

        M, gamma, values = out
        i, j = np.array(queries).T
        cols, where = np.unique(j, return_inverse=True)
        E = np.zeros((self.n, cols.size))
        E[cols - 1, np.arange(cols.size)] = 1.0
        X = solve_banded((R, S), lapack_band(V, R, S), E)
        ref = X[i - 1, where]
        err = np.abs(values - ref) / np.abs(X).max(axis=0)[where]
        require(bool(np.all(err <= 1e-10)), f"green_scalar_entry vs LAPACK: worst {err.max():.3e}")
        require(envelope_holds(ref, M, gamma, i - j), "an entry exceeds M*gamma^(i-j)")


def sweep_grid(smoke: bool) -> tuple[tuple[int, int, bool], ...]:
    """Fixed (N, r, one_sided) shapes: N spread over 8..200, r over 1..8.

    The seed draws every value of the matrices but not their shapes, so all
    seeds load the same amount of work.
    """
    count, n_hi = (5, 40) if smoke else (50, 200)
    grid = []
    for one_sided in (True, False):
        for k in range(count):
            n = 8 + round(k * (n_hi - 8) / (count - 1))
            grid.append((n, min(1 + (3 * k) % 8, n - 1), one_sided))
    return tuple(grid)


class SweepSmall:
    """dominant_ensemble of 100 small matrices, half one-sided; one op each.

    An op takes one matrix through every layer: dominance, the LU, Varah
    and QR bounds, structured LU, inverse generators, reconstruction of the
    represented region and the dense reference inverse. A batch is one pass
    over the ensemble, so every run weighs all shapes alike.
    """

    name = "sweep_small"
    uses_children = False

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer):
        grid = sweep_grid(smoke)
        self.mats = tracer.call(
            "ensembles.dominant_ensemble", gd.dominant_ensemble, len(grid), seed, pinned=grid
        )
        self.ops = [
            Op(f"matrix {k} (N={A.n}, r={A.r_lower}, s={A.r_upper})",
               lambda tracer, A=A: self.op(A, tracer), self.check)
            for k, A in enumerate(self.mats)
        ]

    def batch(self, b: int) -> list[Op]:
        return self.ops

    @staticmethod
    def op(A, tracer):
        call = tracer.call
        tracer.count("banded.stored_bytes", A.data.nbytes)
        call("banded.dominance_mu", gd.dominance_mu, A)
        lu = call("bounds.lu_bound", gd.lu_bound, A)
        call("bounds.varah_bound", gd.varah_bound, A)
        try_qr(A, tracer)
        slu = call("lu.structured_lu", gd.structured_lu, A)
        tracer.count("lu.factor_bytes", factor_bytes(slu))
        gens = call("lu.inverse_green_generators", gd.inverse_green_generators, A)
        values, mask = call("green.reconstruct_lower", gd.reconstruct_lower, gens)
        tracer.count("green.reconstructed_entries", int(mask.sum()))
        inv = call("oracle.dense_inverse", gd.dense_inverse, A.data)
        return lu.M, lu.gamma, values, mask, inv

    @staticmethod
    def check(out) -> None:
        M, gamma, values, mask, inv = out
        err = np.abs(values - inv)[mask].max() / np.abs(inv).sum(axis=0).max()
        require(bool(err <= 1e-10), f"reconstruction error {err:.3e} vs dense_inverse")
        n = inv.shape[0]
        dist = np.subtract.outer(np.arange(n), np.arange(n))
        lower = dist >= 0
        require(envelope_holds(inv[lower], M, gamma, dist[lower]), "LU envelope violated")


# Experiments whose matrix depends on --seed; the others have golden CSVs.
SEEDED = ("ex4a", "ex4b")
GOLDEN_RUNS = ("ex1a", "ex1b", "ex1c", "ex1d", "ex2", "ex5")


def write_ex3_input(path: Path, seed: int) -> float:
    """Seeded nonsymmetric banded N = 512 Matrix Market file; returns its mu.

    A stand-in for gre_512, which is not in the repository. Lower bandwidth
    3, upper 5, mu <= 0.6, and every |A(k,k)| exceeds its off-diagonal column
    sum by at least 2, so ex3's +-1 diagonal shift keeps it dominant and
    invertible.
    """
    n, r, s = 512, 3, 5
    V = band_values(stream(seed, 1), n, r, s, ratio=(0.3, 0.6), margin=2.0)
    rows, cols, vals = band_entries(V, r)
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        "% seeded synthetic stand-in for gre_512",
        f"{n} {n} {vals.size}",
    ]
    lines += [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in zip(rows, cols, vals)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    off = np.bincount(cols, weights=np.abs(vals), minlength=n) - np.abs(V[:, r])
    return float((off / np.abs(V[:, r])).max())


def parse_csv(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class PaperCli:
    """Each op is one CLI command, run as `python -m greendecay.cli`.

    A batch is the eleven commands a paper reader runs: `run` for ex1a-ex1d,
    ex2, ex4a, ex4b, ex5 and for ex3 on the seeded input, then `bounds` on
    that input and `verify`. The traced run replays each command in-process
    through cli.main and then calls the public functions that command uses,
    so their cost shows as separate spans; for `verify` these are the
    ensemble, structured LU, generators, reconstruction and dense inverse of
    its validation sweep.
    """

    name = "paper_cli"
    uses_children = True

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer):
        self.seed = seed
        self.workdir = workdir
        self.mtx = workdir / "ex3_input.mtx"
        self.mtx_mu = write_ex3_input(self.mtx, seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        names = ("ex1a", "ex1b", "ex1c", "ex1d", "ex2", "ex4a", "ex4b", "ex5", "ex3")
        self.commands = [self.run_argv(name) for name in names]
        self.commands += [["bounds", str(self.mtx)], ["verify", "--seed", str(seed)]]
        self.first_output: dict[tuple, tuple] = {}
        self.references: dict[str, np.ndarray] = {}

    def run_argv(self, name: str) -> list[str]:
        argv = ["run", name, "--out", str(self.workdir / f"{name}.csv")]
        if name in SEEDED:
            argv += ["--seed", str(self.seed)]
        if name == "ex3":
            argv += ["--input", str(self.mtx)]
        return argv

    def spec(self, name: str):
        return gd.ExperimentSpec(
            name,
            seed=self.seed if name in SEEDED else 0,
            input_path=str(self.mtx) if name == "ex3" else None,
        )

    def batch(self, b: int) -> list[Op]:
        return [
            Op(" ".join(argv[:2]), lambda tracer, argv=argv: self.op(argv, tracer),
               lambda out, argv=argv: self.check(argv, out))
            for argv in self.commands
        ]

    def op(self, argv, tracer):
        if not tracer.traced:
            proc = subprocess.run(
                [sys.executable, "-m", "greendecay.cli", *argv],
                cwd=self.workdir,
                env=self.env,
                capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
            return proc.returncode, proc.stdout
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = tracer.call("cli.main", cli.main, argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        self.attribute(argv, tracer)
        return code, buf.getvalue().encode()

    def attribute(self, argv, tracer) -> None:
        """Call the public functions behind one command, each in its own span."""
        call = tracer.call
        if argv[0] == "verify":
            call("verify.run_all", run_all, seed=self.seed, verbose=False)
            # run_all's sweep, call by call: the ensemble it draws (its
            # defaults, as the CLI passes them) and each matrix's path.
            mats = call("ensembles.dominant_ensemble", gd.dominant_ensemble, 20, self.seed,
                        n_max=80, r_max=6)
            for A in mats:
                slu = call("lu.structured_lu", gd.structured_lu, A)
                tracer.count("lu.factor_bytes", factor_bytes(slu))
                gens = call("lu.inverse_green_generators", gd.inverse_green_generators, A)
                _, mask = call("green.reconstruct_lower", gd.reconstruct_lower, gens)
                tracer.count("green.reconstructed_entries", int(mask.sum()))
                call("oracle.dense_inverse", gd.dense_inverse, A.data)
            return
        if argv[0] == "bounds" or argv[1] == "ex3":
            A = call("banded.read_matrix_market", gd.read_matrix_market, self.mtx)
        if argv[0] == "run":
            spec = self.spec(argv[1])
            A = call("experiments.generate", gd.generate, spec)
            report = call("experiments.run_experiment", gd.run_experiment, spec)
            call("experiments.emit_csv", gd.emit_csv, report, self.workdir / "attributed.csv")
            call("oracle.dense_inverse", gd.dense_inverse, A.data)
            if A.is_symmetric():
                call("oracle.symmetric_spectrum", gd.symmetric_spectrum, A.data)
            try_qr(A, tracer)
        tracer.count("banded.stored_bytes", A.data.nbytes)
        if call("banded.dominance_mu", gd.dominance_mu, A).satisfied:
            call("bounds.lu_bound", gd.lu_bound, A)
            call("bounds.varah_bound", gd.varah_bound, A)

    def check(self, argv, out) -> None:
        code, stdout = out
        require(code == 0, f"exit code {code}")
        csv = Path(argv[3]).read_bytes() if argv[0] == "run" else b""
        first = self.first_output.setdefault(tuple(argv), (stdout, csv))
        require((stdout, csv) == first, "output differs from the first run of this command")
        if argv[0] == "verify":
            require(b"ALL CHECKS PASSED" in stdout, "verify did not pass")
        elif argv[0] == "bounds":
            found = re.search(rb"^mu = (\S+) ", stdout, re.MULTILINE)
            require(found is not None, "bounds printed no mu")
            mu = float(found.group(1))
            require(math.isclose(mu, self.mtx_mu, rel_tol=1e-12), f"mu {mu!r} != {self.mtx_mu!r}")
        else:
            self.check_table(argv[1], csv.decode("ascii"))

    def reference_column(self, name: str) -> np.ndarray:
        """|A^-1(:, 1)| of the experiment's matrix by a LAPACK solve."""
        if name not in self.references:
            A = gd.generate(self.spec(name)).data
            e1 = np.zeros(A.shape[0])
            e1[0] = 1.0
            self.references[name] = np.abs(np.linalg.solve(A, e1))
        return self.references[name]

    def check_table(self, name: str, text: str) -> None:
        header, rows = parse_csv(text)
        require(header == CSV_HEADER, f"CSV header {header!r}")
        ref = self.reference_column(name)
        require(len(rows) == ref.size, f"{len(rows)} rows for N = {ref.size}")
        cells = np.array(rows)
        require(bool(np.all(cells[:, 0] == np.arange(1, ref.size + 1).astype(str))), "bad i column")
        require(bool(np.all(cells[:, 1] == "1")), "bad j column")
        exact = cells[:, 2].astype(float)
        err = np.abs(exact - ref).max() / ref.max()
        require(bool(err <= 1e-10), f"exact column off by {err:.3e}")
        for col in (3, 5):  # lu, varah
            given = cells[:, col] != "NA"
            bound = cells[given, col].astype(float)
            require(bool(np.all(exact[given] <= bound * (1.0 + 1e-12))), f"{CSV_HEADER.split(',')[col]} bound violated")
        if name in GOLDEN_RUNS:
            _, gold = parse_csv((GOLDEN / f"{name}.csv").read_text(encoding="ascii"))
            require(np.array(gold).shape == cells.shape, "shape differs from golden")
            for g_row, row in zip(gold, rows):
                for g, v in zip(g_row, row):
                    if "NA" in (g, v):
                        require(g == v, f"NA pattern differs from golden in row {row[0]}")
                    else:
                        require(math.isclose(float(g), float(v), rel_tol=1e-9), f"{v} vs golden {g}")


WORKLOADS = {w.name: w for w in (BandLong, SweepSmall, PaperCli)}


def generator_extras(seed: int, smoke: bool) -> dict[str, float]:
    """Scaling exponent and tracemalloc peak of inverse_green_generators.

    Measured on band_long's matrix recipe at fixed orders, whatever the
    workload: the slope of log(time) against log(N), each time the best of
    three, and the peak traced allocation of one call at the largest N.
    """
    sizes = (100, 200, 400) if smoke else (1000, 2000, 4000)
    times = []
    for n in sizes:
        A = gd.BandedMatrix(n, R, S, dense_from_band(band_values(stream(seed, 2, n), n, R, S), R))
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            gd.inverse_green_generators(A)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gens = gd.inverse_green_generators(A)
        peak = tracemalloc.get_traced_memory()[1] - base
        del gens
    finally:
        tracemalloc.stop()
    return {
        "lu.inverse_green_generators_n_exp": slope,
        "lu.inverse_green_generators_peak_mib": peak / 2**20,
    }
