import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

import greendecay as gd
from greendecay.cli import main as cli_main
from greendecay.verify import CHECKS, invariants, run_all

GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" / "golden"

TWO_SIDED_MTX = (
    "%%MatrixMarket matrix coordinate real general\n"
    "6 6 11\n"
    "1 1 5.0\n2 2 5.0\n3 3 5.0\n4 4 5.0\n5 5 5.0\n6 6 5.0\n"
    "2 1 1.0\n3 2 1.0\n4 3 -1.0\n5 4 1.0\n1 2 0.5\n"
)

# the full stdout of `run <name> --out out.csv` (ex4a and ex4b with
# --seed 7), byte for byte: the summary line, one line per family and the notes
RUN_STDOUT = {
    "ex1a": """\
ex1a: N=50, r_lower=3, r_upper=3, mu=0.24, dominance=yes, symmetric=yes
  lu           M=0.236261, gamma=0.621447
  varah        M=0.210526, gamma=0
  qr           not applicable: rate degenerate: (mu r sqrt(r))^(1/r) = 1.05687 >= 1
  dms          M=0.178551, gamma=0.431995
  frommer      M=0.357103, gamma=0.429816
  chui_hasson  gamma=0.736957
wrote out.csv
""",
    "ex1b": """\
ex1b: N=50, r_lower=3, r_upper=3, mu=0.24, dominance=yes, symmetric=yes
  lu           M=0.236261, gamma=0.621447
  varah        M=0.210526, gamma=0
  qr           not applicable: rate degenerate: (mu r sqrt(r))^(1/r) = 1.05687 >= 1
  dms          M=0.178545, gamma=0.851446
  frommer      M=0.357089, gamma=0.430872
  chui_hasson  gamma=0.981485
wrote out.csv
""",
    "ex1c": """\
ex1c: N=50, r_lower=3, r_upper=3, mu=0.24, dominance=yes, symmetric=yes
  lu           M=0.236261, gamma=0.621447
  varah        M=0.210526, gamma=0
  qr           not applicable: rate degenerate: (mu r sqrt(r))^(1/r) = 1.05687 >= 1
  dms          M=0.177905, gamma=0.856385
  frommer      M=0.35581, gamma=0.856298
  chui_hasson  gamma=0.982738
wrote out.csv
""",
    "ex1d": """\
ex1d: N=50, r_lower=3, r_upper=3, mu=0.24, dominance=yes, symmetric=yes
  lu           M=0.236261, gamma=0.621447
  varah        M=0.210526, gamma=0
  qr           not applicable: rate degenerate: (mu r sqrt(r))^(1/r) = 1.05687 >= 1
  dms          M=0.178369, gamma=0.73616
  frommer      not applicable: spectrum is not positive
  chui_hasson  gamma=0.73616
wrote out.csv
""",
    "ex2": """\
ex2: N=50, r_lower=3, r_upper=3, mu=0.24, dominance=yes, symmetric=no
  lu           M=1.47663, gamma=0.621447
  varah        M=1.31579, gamma=0
  qr           not applicable: |A(k,k)| must exceed 1 for a feasible K; column 30 has |A(k,k)| = 1.0
  dms          not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  frommer      not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  chui_hasson  not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  note: nonsymmetric variant with a real spectrum: two eigenvalues near -100 (-101.2 and -98.9), one near 1 and the other 47 in [5.6, 7.7]
wrote out.csv
""",
    "ex5": """\
ex5: N=20, r_lower=1, r_upper=19, mu=0.0833332, dominance=yes, symmetric=no
  lu           M=0.0921805, gamma=0.0833332
  varah        M=0.0909091, gamma=0
  qr           M=1.2088, gamma=0.104399
  dms          not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  frommer      not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  chui_hasson  not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  note: generator targets eigenvalue clusters near +-12 via a 0.5 subdiagonal and an exponentially decaying upper part
wrote out.csv
""",
    "ex4a": """\
ex4a: N=100, r_lower=5, r_upper=99, mu=0.806116, dominance=yes, symmetric=no
  lu           M=22.2295, gamma=0.95781
  varah        M=4.71824, gamma=0
  qr           not applicable: rate degenerate: (mu r sqrt(r))^(1/r) = 1.62016 >= 1
  dms          not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  frommer      not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  chui_hasson  not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  note: generator targets an eigenvalue regime (ellipse with semiaxes 2 and 1); the concrete matrix entries are one realization of it
wrote out.csv
""",
    "ex4b": """\
ex4b: N=100, r_lower=5, r_upper=99, mu=0.0464467, dominance=yes, symmetric=no
  lu           M=1.01763, gamma=0.541241
  varah        M=1.01325, gamma=0
  qr           not applicable: rate degenerate: (mu r sqrt(r))^(1/r) = 1.17083 >= 1
  dms          not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  frommer      not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  chui_hasson  not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  note: generator targets log-distributed real parts in [-1e4,-1] u [1,1e4]; the concrete matrix entries are one realization
wrote out.csv
""",
}


# the full stdout of `verify` and of `verify --seed 3 --trials 40`, byte for
# byte: one line per check with its worst value and limit, then the verdict
VERIFY_STDOUT = {
    (): """\
PASS factorization residual |LR - A|_1 / |A|_1: worst 2.102e-16 (limit 1.0e-11)
PASS structured R vs dense elimination: worst 0.000e+00 (limit 1.0e-10)
PASS multiplier norms |f_k|_1 - mu: worst 0.000e+00 (limit 1.0e-12)
PASS pivot floor (1-mu^2)|A(k,k)| - |gamma_k|: worst -2.323e-02 (limit 1.0e-12)
PASS Schur complement mu inheritance: worst 0.000e+00 (limit 1.0e-12)
PASS generator suffix property: worst 0.000e+00 (limit 1.0e-10)
PASS inverse reconstruction on represented region: worst 3.426e-16 (limit 1.0e-10)
PASS trailing generator cross-check: worst 1.110e-16 (limit 1.0e-12)
PASS LU bound soundness on the lower part: worst -6.455e-81 (limit 0.0e+00)
PASS Varah bound vs reference inverse 1-norm: worst -7.937e-04 (limit 0.0e+00)
ALL CHECKS PASSED (10/10)
""",
    ("--seed", "3", "--trials", "40"): """\
PASS factorization residual |LR - A|_1 / |A|_1: worst 2.303e-16 (limit 1.0e-11)
PASS structured R vs dense elimination: worst 0.000e+00 (limit 1.0e-10)
PASS multiplier norms |f_k|_1 - mu: worst 5.551e-17 (limit 1.0e-12)
PASS pivot floor (1-mu^2)|A(k,k)| - |gamma_k|: worst -1.002e-02 (limit 1.0e-12)
PASS Schur complement mu inheritance: worst 0.000e+00 (limit 1.0e-12)
PASS generator suffix property: worst 0.000e+00 (limit 1.0e-10)
PASS inverse reconstruction on represented region: worst 2.840e-16 (limit 1.0e-10)
PASS trailing generator cross-check: worst 5.551e-17 (limit 1.0e-12)
PASS LU bound soundness on the lower part: worst -1.271e-62 (limit 0.0e+00)
PASS Varah bound vs reference inverse 1-norm: worst -2.255e-03 (limit 0.0e+00)
ALL CHECKS PASSED (10/10)
""",
}

class TestGenerate:
    def test_ex1a_recipe(self):
        A = gd.generate(gd.ExperimentSpec("ex1a"))
        assert (A.n, A.r_lower, A.r_upper) == (50, 3, 3)
        assert A.entry(7, 7) == 6.25
        assert A.entry(7, 10) == 0.25
        assert A.entry(7, 11) == 0.0
        assert A.is_symmetric()

    def test_ex1b_single_large_diagonal(self):
        A = gd.generate(gd.ExperimentSpec("ex1b"))
        assert A.entry(20, 20) == 100.0
        assert A.entry(19, 19) == 6.25

    def test_ex1c_shifted_leading_block(self):
        A = gd.generate(gd.ExperimentSpec("ex1c"))
        assert A.entry(25, 25) == 106.25
        assert A.entry(26, 26) == 6.25

    def test_ex1d_sign_flips(self):
        A = gd.generate(gd.ExperimentSpec("ex1d"))
        for k in (10, 11, 12):
            assert A.entry(k, k) == -6.25
        assert A.entry(9, 9) == 6.25
        w = gd.symmetric_spectrum(A.to_dense())
        assert w[0] < 0.0 < w[-1]  # symmetric indefinite

    def test_ex2_statement_sequence(self):
        A = gd.generate(gd.ExperimentSpec("ex2"))
        assert A.entry(20, 20) == -100.0
        assert A.entry(21, 21) == -100.0
        assert A.entry(30, 30) == 1.0
        for i in (21, 22, 23):
            assert A.entry(i, 20) == 6.25
        for i in (22, 23, 24):
            assert A.entry(i, 21) == 6.25
        assert A.entry(29, 30) == 0.0025
        assert not A.is_symmetric()
        assert gd.dominance_mu(A).satisfied
        # the spectrum the run note states: real, two eigenvalues near -100,
        # one near 1 and the other 47 in [5.6, 7.7]
        w = np.sort_complex(np.linalg.eigvals(A.to_dense()))
        assert np.abs(w.imag).max() <= 1e-9 * np.abs(w).max()
        np.testing.assert_allclose(w.real[:3], [-101.207, -98.871, 0.99937], atol=1e-3)
        assert w.real[3:].size == 47
        assert 5.61 <= w.real[3:].min() and w.real[3:].max() <= 7.69

    def test_ex3_diagonal_split_shift(self, tmp_path):
        path = tmp_path / "toy.mtx"
        path.write_text(TWO_SIDED_MTX)
        A = gd.generate(gd.ExperimentSpec("ex3", input_path=str(path)))
        assert A.entry(1, 1) == 6.0  # +1 on the first half
        assert A.entry(4, 4) == 4.0  # -1 on the second half
        assert A.entry(2, 1) == 1.0

    def test_ex3_requires_input(self):
        with pytest.raises(FileNotFoundError):
            gd.generate(gd.ExperimentSpec("ex3"))

    def test_ex4a_regime(self):
        A = gd.generate(gd.ExperimentSpec("ex4a", seed=3))
        assert (A.n, A.r_lower, A.r_upper) == (100, 5, 99)
        assert gd.dominance_mu(A).satisfied
        w = np.linalg.eigvals(A.to_dense())
        assert np.abs(w.real).max() <= 2.2  # near the ellipse semiaxis 2
        assert np.abs(w.imag).max() <= 1.2
        assert (w.real > 0).any() and (w.real < 0).any()
        assert np.abs(w.imag).max() > 0.05  # genuinely complex pairs

    def test_ex4b_regime(self):
        A = gd.generate(gd.ExperimentSpec("ex4b", seed=3))
        assert gd.dominance_mu(A).satisfied
        diag = A.to_dense().diagonal()
        assert np.abs(diag).min() >= 1.0 and np.abs(diag).max() <= 1.0e4
        assert (diag > 0).any() and (diag < 0).any()
        # at seed 7 the spectrum itself is real and its |Re| spans [1.03, 9594]
        w = np.linalg.eigvals(gd.generate(gd.ExperimentSpec("ex4b", seed=7)).to_dense())
        assert np.abs(w.imag).max() <= 1e-9 * np.abs(w).max()
        assert np.abs(w.real).min() == pytest.approx(1.035, abs=1e-3)
        assert np.abs(w.real).max() == pytest.approx(9594.03, abs=1e-2)

    def test_ex4_dominance_margin_holds_for_every_seed(self):
        # the recipes' stated margins: mu <= (sin 1 + 0.099) / (2 cos 1) < 0.871
        # for ex4a and mu <= 0.099 for ex4b, so no seed needs a dominance repair
        for seed in range(500):
            assert gd.dominance_mu(gd.generate(gd.ExperimentSpec("ex4a", seed=seed))).mu < 0.871
            assert gd.dominance_mu(gd.generate(gd.ExperimentSpec("ex4b", seed=seed))).mu <= 0.099

    def test_ex4_deterministic_under_seed(self):
        A = gd.generate(gd.ExperimentSpec("ex4a", seed=11))
        B = gd.generate(gd.ExperimentSpec("ex4a", seed=11))
        C = gd.generate(gd.ExperimentSpec("ex4a", seed=12))
        np.testing.assert_array_equal(A.to_dense(), B.to_dense())
        assert np.abs(A.to_dense() - C.to_dense()).max() > 0.0

    def test_ex5_structure(self):
        A = gd.generate(gd.ExperimentSpec("ex5"))
        assert (A.n, A.r_lower, A.r_upper) == (20, 1, 19)
        assert A.entry(5, 4) == 0.5
        assert A.entry(1, 1) == 12.0 and A.entry(20, 20) == -12.0
        assert A.entry(3, 5) == 0.5 * 2.0**-2
        assert gd.dominance_mu(A).mu < 0.1
        # eigenvalues: ten in [11.1, 12.9] and ten in [-12.9, -11.1], all real
        w = np.linalg.eigvals(A.to_dense())
        assert np.abs(w.imag).max() <= 1e-9 * np.abs(w).max()
        assert (w.real > 0).sum() == (w.real < 0).sum() == 10
        assert 11.1 <= np.abs(w.real).min() and np.abs(w.real).max() <= 12.9

    def test_names_in_the_papers_order(self):
        assert gd.EXPERIMENT_NAMES == (
            "ex1a", "ex1b", "ex1c", "ex1d", "ex2", "ex3", "ex4a", "ex4b", "ex5"
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            gd.ExperimentSpec("ex9z")

    @pytest.mark.parametrize("name", [n for n in gd.EXPERIMENT_NAMES if n != "ex3"])
    def test_input_path_is_rejected_where_no_file_is_read(self, name):
        want = f"experiment '{name}' reads no input file; only ex3 does"
        with pytest.raises(ValueError, match=f"^{want}$"):
            gd.ExperimentSpec(name, input_path="m.mtx")


class TestRunExperiment:
    def test_ex1a_families_and_ordering(self):
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
        assert rep.dominance.mu == 0.24
        assert rep.dominance.satisfied and rep.symmetric
        lu, _ = rep.families["lu"]
        assert lu.M == pytest.approx(0.23626, abs=5e-6)
        assert lu.gamma == pytest.approx(0.24 ** (1 / 3), rel=1e-12)
        assert rep.families["qr"][0] is None  # rate degenerate here
        assert rep.families["dms"][0] is not None
        assert rep.families["frommer"][0] is not None
        # interval-based decay wins for SPD Toeplitz matrices at large distance
        for row in rep.rows:
            if row["i"] - 1 >= 10:
                assert row["dms"] <= row["lu"]

    def test_ex1d_rate_ordering(self):
        rep = gd.run_experiment(gd.ExperimentSpec("ex1d"))
        assert rep.families["dms"][0] is not None
        assert rep.families["frommer"][0] is None  # indefinite spectrum
        assert rep.families["lu"][0].gamma <= rep.families["dms"][0].gamma

    def test_every_emitted_bound_dominates_exact(self):
        for name in ("ex1a", "ex1b", "ex1c", "ex1d", "ex2", "ex4a", "ex4b", "ex5"):
            rep = gd.run_experiment(gd.ExperimentSpec(name, seed=7))
            for row in rep.rows:
                for fam in ("lu", "qr", "varah", "dms", "frommer"):
                    if row[fam] is not None:
                        assert row[fam] * (1.0 + 1e-12) >= row["exact"], (name, fam, row)

    def test_ex1b_effective_condition_number_wins_at_distance(self):
        # one large outlier eigenvalue ruins the full-interval rate but not
        # the effective-condition-number one
        rep = gd.run_experiment(gd.ExperimentSpec("ex1b"))
        assert rep.families["frommer"][0].gamma < rep.families["dms"][0].gamma
        tail = [r for r in rep.rows if r["i"] - 1 >= 20]
        assert tail and all(r["frommer"] < r["dms"] for r in tail)

    def test_ex5_lu_rate_beats_qr_rate(self):
        rep = gd.run_experiment(gd.ExperimentSpec("ex5"))
        assert rep.families["lu"][0] is not None and rep.families["qr"][0] is not None
        assert rep.families["lu"][0].gamma < rep.families["qr"][0].gamma

    def test_nonsymmetric_skips_spectral_baselines(self):
        rep = gd.run_experiment(gd.ExperimentSpec("ex2"))
        for fam in ("dms", "frommer", "chui_hasson"):
            bound, note = rep.families[fam]
            assert bound is None and "nonsymmetric" in note
        # column 30's diagonal is 1.0, which the 2-norm family rejects
        bound, note = rep.families["qr"]
        assert bound is None and note.endswith("|A(k,k)| = 1.0")
        assert "np." not in note

    def test_probe_column_region(self):
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a", column=5))
        first = next(r for r in rep.rows if r["i"] == 1)
        assert first["lu"] is None  # above the diagonal
        assert first["varah"] is not None
        diag_row = next(r for r in rep.rows if r["i"] == 5)
        assert diag_row["lu"] == rep.families["lu"][0].M

    def test_probe_column_out_of_range(self):
        for column in (77, 2.5, 0, True):
            with pytest.raises(ValueError, match="probe column"):
                gd.run_experiment(gd.ExperimentSpec("ex1a", column=column))
        assert gd.ExperimentSpec("ex1a", column=np.int64(2)).column == 2

    @pytest.mark.parametrize("seed", [-1, 2.5, False])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            gd.run_experiment(gd.ExperimentSpec("ex4a", seed=seed))
        assert gd.ExperimentSpec("ex4a", seed=np.int64(7)).seed == 7

    def test_dominance_failure_marks_envelopes_inapplicable(self, monkeypatch):
        # invertible but mu = 2: dominance-based families report the
        # diagnostic instead of raising; interval rates still apply
        bad = gd.make_banded(4, 1, 1, lambda i, j: 1.0 if i == j else -1.0)
        monkeypatch.setattr("greendecay.experiments.generate", lambda spec: bad)
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
        assert not rep.dominance.satisfied
        for fam in ("lu", "varah", "qr"):
            assert rep.families[fam][0] is None
        assert "mu = 2" in rep.families["lu"][1]
        assert rep.families["dms"][0] is not None  # symmetric indefinite spectrum
        assert all(r["lu"] is None and r["varah"] is None for r in rep.rows)
        assert rep.notes == ()  # the lu and varah reasons say it; no note repeats it

    def test_one_dense_copy_serves_both_oracles(self, monkeypatch):
        copies, read = [], []
        to_dense = gd.BandedMatrix.to_dense

        def counted(A):
            copies.append(to_dense(A))
            return copies[-1]

        def spy(oracle):
            def call(a):
                read.append(a)
                return oracle(a)
            return call

        monkeypatch.setattr(gd.BandedMatrix, "to_dense", counted)
        for name in ("dense_inverse", "symmetric_spectrum"):
            monkeypatch.setattr(f"greendecay.experiments.{name}",
                                spy(getattr(gd, name)))
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
        assert rep.symmetric and len(copies) == 1 and len(read) == 2
        assert all(a is copies[0] for a in read)

    def test_zero_eigenvalue_disables_the_interval_rates(self, monkeypatch):
        # invertible, cond ~ 1e17: dense_inverse accepts it, and its eigenvalue
        # 2^-52 is within eigvalsh's error of 0, which OpenBLAS's LAPACK gives;
        # the spectrum is pinned so the test does not depend on that rounding
        M = np.array([[8.0, 0.0, -6.0], [0.0, 2.0**-52, 0.0], [-6.0, 0.0, 5.0]])
        w = np.linalg.eigvalsh(M)
        w[np.abs(w).argmin()] = 0.0
        monkeypatch.setattr("greendecay.experiments.generate", lambda spec: gd.from_dense(M))
        monkeypatch.setattr("greendecay.experiments.symmetric_spectrum", lambda a: w)
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
        assert rep.symmetric
        for fam in ("dms", "frommer", "chui_hasson"):
            assert rep.families[fam] == (None, "zero eigenvalue; interval rates undefined")

    @pytest.mark.parametrize("W, fields", [
        (np.diag([1e-320] * 3), "1e-320, mu = 0.0"),
        # t = 2^-1074: both denominators, 0.019 t and 0.1 t, round to 0
        (np.array([[5e-324, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.9, 1.0]]), "5e-324, mu = 0.9"),
        # LU's denominator 0.019 * 10t rounds to 0, and Varah's 0.1 * 10t = t
        # gives 1/t, which overflows
        (5e-324 * np.array([[10.0, 0.0], [9.0, 10.0]]), "5e-323, mu = 0.9"),
    ], ids=["subnormal-diagonal", "underflowing-denominator", "zero-and-overflow"])
    def test_overflowing_lu_constant_is_inapplicable(self, W, fields):
        # run_experiment stops before the table on these: the reference
        # inverse overflows, 1/min|A(k,k)|, and is rejected as singular
        from greendecay.experiments import _bound_table

        table = _bound_table(gd.from_dense(W), None)
        for name, kind in (("lu", "LU"), ("varah", "Varah")):
            note = f"{kind} bound constant M overflows: min|A(k,k)| = {fields}"
            assert table[name] == (None, note)

    def test_overflowing_spectral_constant_is_inapplicable(self):
        # M = 1/a for DMS and 2/lambda_1 for Frommer overflow on a subnormal
        # spectrum; Chui-Hasson has no constant and its rate ~0.5^(1/2) holds
        from greendecay.experiments import _bound_table

        A = gd.from_dense(np.diag([1e-320, 2e-320, 3e-320]))
        table = _bound_table(A, gd.symmetric_spectrum(A.to_dense()))
        for name in ("dms", "frommer"):
            bound, note = table[name]
            assert bound is None and note == "constant must be positive and finite, got inf"
        assert table["chui_hasson"][0] is not None
        # run_experiment stops before the table, at the reference inverse
        with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
            gd.dense_inverse(A.to_dense())


class TestEmitCsv:
    def test_header_and_row_count(self, tmp_path):
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
        out = tmp_path / "ex1a.csv"
        gd.emit_csv(rep, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j,exact,lu,qr,varah,dms,frommer,chui_hasson"
        assert len(lines) == 51  # header + 50 data rows

    def test_na_cells_for_inapplicable_families(self, tmp_path):
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
        out = tmp_path / "ex1a.csv"
        gd.emit_csv(rep, out)
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[4] == "NA"  # qr rate-degenerate on ex1a

    def test_values_round_trip(self, tmp_path):
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
        out = tmp_path / "ex1a.csv"
        gd.emit_csv(rep, out)
        line = out.read_text().splitlines()[1].split(",")
        assert float(line[2]) == rep.rows[0]["exact"]
        assert float(line[3]) == rep.rows[0]["lu"]

    @pytest.mark.parametrize("name", ["ex1a", "ex1b", "ex1c", "ex1d", "ex2", "ex5"])
    def test_matches_golden_csv(self, name, tmp_path):
        # the spectral columns may move by roundoff with the LAPACK build;
        # every other cell and the NA pattern are fixed to the byte
        out = tmp_path / "out.csv"
        gd.emit_csv(gd.run_experiment(gd.ExperimentSpec(name)), out)
        got, want = (
            [line.split(",") for line in path.read_text().splitlines()]
            for path in (out, GOLDEN / f"{name}.csv")
        )
        assert len(got) == len(want) and got[0] == want[0] == list(gd.CSV_COLUMNS)
        spectral = {"dms", "frommer", "chui_hasson"}
        for g_row, w_row in zip(got[1:], want[1:]):
            for col, g, w in zip(got[0], g_row, w_row):
                if col in spectral and "NA" not in (g, w):
                    assert float(g) == pytest.approx(float(w), rel=1e-11, abs=0.0)
                else:
                    assert g == w, (col, w_row)

    def test_two_row_report(self, tmp_path):
        rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
        trimmed = gd.ExperimentReport(
            spec=rep.spec,
            A=rep.A,
            dominance=rep.dominance,
            symmetric=rep.symmetric,
            families=rep.families,
            rows=rep.rows[:2],
        )
        out = tmp_path / "two.csv"
        gd.emit_csv(trimmed, out)
        assert len(out.read_text().splitlines()) == 3


class TestCli:
    def test_run_is_byte_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli_main(["run", "ex1a", "--seed", "7", "--out", str(a)]) == 0
        assert cli_main(["run", "ex1a", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("name", list(RUN_STDOUT))
    def test_run_stdout_is_pinned(self, name, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seed = ["--seed", "7"] if name.startswith("ex4") else []
        assert cli_main(["run", name, *seed, "--out", "out.csv"]) == 0
        assert capsys.readouterr().out == RUN_STDOUT[name]

    @pytest.mark.parametrize("args", list(VERIFY_STDOUT), ids=["default", "seed3_trials40"])
    def test_verify_stdout_is_pinned(self, args, capsys):
        assert cli_main(["verify", *args]) == 0
        assert capsys.readouterr().out == VERIFY_STDOUT[args]

    def test_run_summary_mentions_families(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli_main(["run", "ex1d", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "mu=0.24" in text
        assert "dms" in text and "not applicable" in text  # frommer is NA

    def test_bounds_subcommand(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        path.write_text(TWO_SIDED_MTX)
        assert cli_main(["bounds", str(path)]) == 0
        text = capsys.readouterr().out
        assert "mu =" in text and "gamma =" in text and "varah =" in text

    def test_bounds_flags_non_dominant_input(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n2 1 5.0\n2 2 1.0\n"
        )
        assert cli_main(["bounds", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == (
            "N=2, r_lower=1, r_upper=0\n"
            "mu = 5.0 (satisfied: no)\n"
            "strong dominance condition not satisfied: mu = 5.0 >= 1; "
            "decay bounds not applicable\n"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("body", [
        "3 3 3\n1 1 1e-320\n2 2 1e-320\n3 3 1e-320\n",
        # dominant, mu = 0.9, but (1 - mu)(1 - mu^2) min|A(k,k)| underflows to 0
        "3 3 4\n1 1 5e-324\n2 2 1\n3 3 1\n3 2 0.9\n",
    ], ids=["subnormal-diagonal", "zero-denominator"])
    def test_bounds_flags_an_overflowing_constant(self, body, tmp_path, capsys):
        path = tmp_path / "tiny.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{body}")
        assert cli_main(["bounds", str(path)]) == 2
        captured = capsys.readouterr()
        assert "LU bound constant M overflows" in captured.out
        assert "not applicable" in captured.out
        assert "inf" not in captured.out + captured.err
        assert captured.err == ""

    def test_bounds_flags_a_zero_diagonal_with_its_step(self, tmp_path, capsys):
        path = tmp_path / "zero.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n1 1 1.0\n3 3 1.0\n"
        )
        assert cli_main(["bounds", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == (
            "zero diagonal entry at k=2; dominance undefined; decay bounds not applicable"
        )
        assert captured.err == ""

    def test_bounds_rejects_an_integer_field(self, tmp_path, capsys):
        path = tmp_path / "int.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 2\n1 1 1.5\n2 2 2.5\n"
        )
        assert cli_main(["bounds", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unsupported field 'integer'; need real (line 1)\n"

    def test_bounds_rejects_a_non_ascii_byte_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "utf8.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n"
            + "2 2 4.0 \u00e9\n".encode("utf-8")  # UTF-8 bytes 0xc3 0xa9
        )
        assert cli_main(["bounds", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-ASCII byte 0xc3 (line 4)\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_bounds_rejects_non_finite_entries(self, bad, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text(TWO_SIDED_MTX.replace("1 1 5.0", f"1 1 {bad}"))
        assert cli_main(["bounds", str(path)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "must be finite" in captured.err
        assert "mu =" not in captured.out

    def test_ex3_marks_an_overflowing_qr_family_inapplicable(
        self, ex1a_matrix, tmp_path, capsys
    ):
        # the squares of 1e300 * ex1a's entries overflow: the run names that
        # for the qr family, warns nothing, and the LU envelope still holds
        W = 1e300 * ex1a_matrix.to_dense()
        entries = [(i + 1, j + 1, W[i, j]) for i, j in zip(*np.nonzero(W))]
        path = tmp_path / "big.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate real general\n50 50 {len(entries)}\n"
            + "".join(f"{i} {j} {float(v)!r}\n" for i, j, v in entries)
        )
        out = tmp_path / "big.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["run", "ex3", "--input", str(path), "--out", str(out)]) == 0
        assert "qr           not applicable: s_k^2" in capsys.readouterr().out
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert {row[header.index("qr")] for row in rows} == {"NA"}
        lu = [float(row[header.index("lu")]) for row in rows]
        exact = [float(row[header.index("exact")]) for row in rows]
        assert all(e <= b for e, b in zip(exact, lu))

    def test_ex3_marks_a_degenerate_spectral_rate_inapplicable(self, tmp_path, capsys):
        # the shifted diagonal (1e40 + 1, 4, 2, 2) is positive definite, but
        # its condition number 5e39 rounds the DMS and Chui-Hasson rates to 1
        path = tmp_path / "wide.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "4 4 4\n1 1 1e40\n2 2 3\n3 3 3\n4 4 3\n"
        )
        out = tmp_path / "wide.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["run", "ex3", "--input", str(path), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        rate = "not applicable: decay rate must satisfy 0 <= gamma < 1, got 1.0"
        assert f"  dms          {rate}\n" in text
        assert f"  chui_hasson  {rate}\n" in text
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        for name in ("lu", "varah", "qr", "frommer"):
            assert f"  {name:12s} not applicable" not in text
            assert {row[header.index(name)] for row in rows} != {"NA"}
        for name in ("dms", "chui_hasson"):
            assert {row[header.index(name)] for row in rows} == {"NA"}

    def test_ex3_on_an_exactly_singular_matrix_is_an_error(self, tmp_path, capsys):
        # ex3's +-1 shift makes [[5, -3, 4], [-3, 5, 0], [4, 0, 5]], whose
        # determinant is 0; LAPACK meets no exact zero pivot and returns
        # entries near 1.8e15, which are no inverse and must not reach the CSV
        path = tmp_path / "singular.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 5\n1 1 4\n2 2 6\n3 3 6\n2 1 -3\n3 1 4\n"
        )
        out = tmp_path / "singular.csv"
        assert cli_main(["run", "ex3", "--input", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: matrix is singular to working precision (")
        assert not out.exists()

    @pytest.mark.parametrize("body, note", [
        # the shifted diagonal is (2, 2, 1, 1) and column 1 holds 3
        ("4 4 5\n1 1 1\n2 2 1\n3 3 2\n4 4 2\n2 1 3\n",
         "strong dominance condition not satisfied: mu = 1.5 >= 1"),
        # the shift makes [[0, 1], [1, 0]]
        ("2 2 4\n1 1 -1\n2 2 1\n1 2 1\n2 1 1\n",
         "zero diagonal entry at k=1; dominance undefined"),
    ], ids=["mu", "zero-diagonal"])
    def test_ex3_names_the_failed_dominance_condition(self, body, note, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{body}")
        argv = ["run", "ex3", "--input", str(path), "--out", str(tmp_path / "m.csv")]
        assert cli_main(argv) in (0, 2)
        text = capsys.readouterr().out
        for name in ("lu", "varah"):
            assert f"  {name:12s} not applicable: {note}\n" in text

    # finite, well-formed files on which an overflow inside numpy once
    # escaped as a RuntimeWarning (a traceback under -W error)
    @pytest.mark.parametrize("command, symmetry, body, code", [
        ("bounds", "symmetric", "3 3 2\n3 1 1e+308\n2 1 1e+308\n", 2),
        ("bounds", "symmetric", "2 2 2\n2 1 1\n1 1 1e-320\n", 2),
        ("run", "general", "2 2 4\n1 1 5\n2 2 5\n2 1 1e308\n1 2 -1e308\n", 2),
        ("run", "general", "2 2 3\n1 1 1e300\n2 2 3\n2 1 1e-10\n", 0),
    ], ids=["column-sum", "mu-ratio", "symmetry-gap", "qr-K"])
    def test_an_overflow_is_handled_without_a_warning(
        self, command, symmetry, body, code, tmp_path, capsys
    ):
        path = tmp_path / "m.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n{body}")
        argv = ["bounds", str(path)]
        if command == "run":
            argv = ["run", "ex3", "--input", str(path), "--out", str(tmp_path / "m.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(argv) == code
        assert capsys.readouterr().err == ""

    def test_ex3_qr_is_sound_where_k_overflows(self, tmp_path, capsys):
        # the shift makes [[1e300, 0], [1e-10, 2]]: column 1 gives
        # K = (1e300 - 1) / 1e-10, past the float range, and
        # A^-1(2, 1) = -1e-10 / (2e300), about -5e-311, which an envelope
        # from delta = 2/K = 0 would bound by 0
        path = tmp_path / "k.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1e300\n2 2 3\n2 1 1e-10\n"
        )
        out = tmp_path / "k.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["run", "ex3", "--input", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        exact, qr = header.index("exact"), header.index("qr")
        assert float(rows[1][exact]) > 0.0
        for row in rows:
            assert row[qr] == "NA" or float(row[qr]) >= float(row[exact])

    def test_missing_input_is_an_error(self, capsys):
        assert cli_main(["run", "ex3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_input_for_an_experiment_reading_no_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "toy.mtx"
        path.write_text(TWO_SIDED_MTX)
        out = tmp_path / "ex1a.csv"
        assert cli_main(["run", "ex1a", "--input", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: experiment 'ex1a' reads no input file; only ex3 does\n"
        assert not out.exists()

    def test_malformed_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "junk.mtx"
        path.write_text("not a matrix\n")
        assert cli_main(["bounds", str(path)]) == 1
        capsys.readouterr()

    def test_unknown_experiment_is_an_error(self, capsys):
        assert cli_main(["run", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown experiment 'nope'; choose one of (")

    @pytest.mark.parametrize("command", [["run", "ex4a"], ["verify"]], ids=["run", "verify"])
    def test_negative_seed_is_an_error(self, command, capsys):
        assert cli_main([*command, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    def test_run_without_any_applicable_family_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        W = np.array(
            [[1.0, -0.5, 0.0], [-1.0, 1.0, -1.0], [0.0, -1.0, 1.0]]
        )  # nonsymmetric, mu = 2, diagonal too small for the 2-norm family
        bad = gd.from_dense(W, r_lower=1, r_upper=1)
        monkeypatch.setattr("greendecay.experiments.generate", lambda spec: bad)
        out = tmp_path / "none.csv"
        assert cli_main(["run", "ex1a", "--out", str(out)]) == 2
        assert out.exists()  # the table is still written, all families NA
        capsys.readouterr()

    def test_overflowing_qr_rate_is_not_applicable(self, tmp_path, capsys, monkeypatch):
        # K = 2.2e-166: delta^2 overflows, mu rounds to 1, the rate degenerates
        W = np.array([[1.0 + 2.0**-52, 0.0], [1e150, 1.0 + 2.0**-52]])
        monkeypatch.setattr("greendecay.experiments.generate", lambda spec: gd.from_dense(W))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = gd.run_experiment(gd.ExperimentSpec("ex1a"))
            assert cli_main(["run", "ex1a", "--out", str(tmp_path / "qr.csv")]) == 2
        bound, note = rep.families["qr"]
        assert bound is None and note.startswith("rate degenerate")
        assert all(row["qr"] is None for row in rep.rows)
        assert "qr           not applicable: rate degenerate" in capsys.readouterr().out

    def test_verify_passes(self, capsys):
        assert cli_main(["verify", "--trials", "6", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_rejects_empty_sweeps(self, trials, capsys):
        assert cli_main(["verify", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "ALL CHECKS PASSED" not in captured.out
        assert "error:" in captured.err

    def test_solver_failure_is_an_error(self, tmp_path, capsys, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("greendecay.experiments.symmetric_spectrum", no_convergence)
        out = tmp_path / "r.csv"
        assert cli_main(["run", "ex1a", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err


class TestInvariants:
    def test_each_matrix_is_factored_once(self, monkeypatch):
        mats = gd.dominant_ensemble(6, 5, n_max=40, r_max=4)
        factored = []
        real = gd.structured_lu

        def counted(A):
            factored.append(A)
            return real(A)

        monkeypatch.setattr("greendecay.lu.structured_lu", counted)
        monkeypatch.setattr("greendecay.verify.structured_lu", counted)
        invariants(mats)
        assert [sum(B is A for B in factored) for A in mats] == [1] * len(mats)

    def test_an_empty_sweep_passes_no_check(self):
        worst = invariants([])
        assert list(worst) == [key for key, _, _ in CHECKS]
        assert all(np.isnan(value) for value in worst.values())
        assert not any(worst[key] <= limit for key, _, limit in CHECKS)

    def test_schur_keys_without_a_step_fail(self):
        # N = r + 1 leaves no Schur step to sample; the other keys are measured
        A = gd.random_dominant_matrix(np.random.default_rng(3), n=4, r_lower=3)
        worst = invariants([A])
        unmeasured = {"schur_mu_excess", "suffix_mismatch"}
        for key, _, limit in CHECKS:
            assert np.isnan(worst[key]) == (key in unmeasured), key
            assert (worst[key] <= limit) == (key not in unmeasured), key

    def test_perturbed_generator_fails_the_sweep(self, monkeypatch):
        # the shared sweep must see a 1e-6 error in the bottom generator block
        real = gd.inverse_green_generators

        def perturbed(A):
            gens = real(A)
            return dataclasses.replace(gens, bottom=gens.bottom + 1e-6)

        monkeypatch.setattr("greendecay.verify.inverse_green_generators", perturbed)
        limits = {key: limit for key, _, limit in CHECKS}
        worst = invariants(gd.dominant_ensemble(3, 5, n_max=40, r_max=4))
        assert worst["tail_cross_check"] > limits["tail_cross_check"]
        assert worst["reconstruction_error"] > limits["reconstruction_error"]
        assert not run_all(trials=3, seed=5, verbose=False)
