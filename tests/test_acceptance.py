"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible under ``pytest -s`` or on failure).

The shared ensemble, conftest's ``acceptance_ensemble``, holds 100 random
strongly dominant banded matrices with N up to 200 and lower bandwidth up to
8, mixed signs, one- and two-sided, with the extreme sizes pinned so every
run exercises them.
"""

import math
import time

import pytest

import greendecay as gd
from conftest import a_block
from greendecay.cli import main as cli_main
from greendecay.verify import invariants



def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def worst(acceptance_ensemble):
    """Worst value of each invariant over the ensemble, as `verify` reports it."""
    return invariants(acceptance_ensemble)


def test_criterion_1_structured_vs_dense_factorization(acceptance_ensemble, worst):
    start = time.perf_counter()
    for A in acceptance_ensemble:
        gd.structured_lu(A)
        gd.dense_lu_no_pivot(A.to_dense())
    elapsed = time.perf_counter() - start
    err = worst["r_vs_dense"]
    ok = err <= 1e-10 and elapsed < 10.0
    report(
        1,
        ok,
        f"100 instances, worst entrywise |R_s - R_d|/|A|_1 = {err:.3e} "
        f"(limit 1e-10), runtime {elapsed:.2f} s (limit 10 s)",
    )


def test_criterion_2_inverse_reconstruction(worst, lower2x2):
    err = worst["reconstruction_error"]
    gens = gd.inverse_green_generators(lower2x2)
    hand_ok = (
        abs(gens.p(1)[0, 0] - 0.5) < 1e-15
        and abs(a_block(gens, 1)[0, 0] + 0.5) < 1e-15
        and abs(gens.p(2)[0, 0] - 0.5) < 1e-15
        and abs(gd.green_scalar_entry(gens, 2, 1) + 0.25) < 1e-15
    )
    ok = err <= 1e-10 and hand_ok
    report(
        2,
        ok,
        f"region reconstruction worst err/|A^-1|_1 = {err:.3e} (limit 1e-10); "
        f"2x2 hand case p(1)=0.5, a(1)=-0.5, P2=0.5, entry(2,1)=-0.25: "
        f"{'ok' if hand_ok else 'MISMATCH'}",
    )


def test_criterion_3_lemma_suite(worst):
    worst_f = worst["multiplier_excess"]
    worst_pivot = worst["pivot_floor_excess"]
    worst_schur = worst["schur_mu_excess"]
    worst_suffix = worst["suffix_mismatch"]
    ok = (
        worst_f <= 1e-12
        and worst_pivot <= 1e-12
        and worst_schur <= 1e-12
        and worst_suffix <= 1e-10
    )
    report(
        3,
        ok,
        f"|f_k|_1 - mu <= {worst_f:.2e}; (1-mu^2)|A(k,k)| - |gamma_k| <= "
        f"{worst_pivot:.2e}; Schur mu excess <= {worst_schur:.2e}; "
        f"suffix generator mismatch <= {worst_suffix:.2e} (limit 1e-10)",
    )


def test_criterion_4_bound_soundness(worst):
    worst_entry = worst["lu_bound_excess"]
    worst_varah = worst["varah_excess"]
    ok = worst_entry <= 0.0 and worst_varah <= 0.0
    report(
        4,
        ok,
        f"zero violations of M*gamma^(i-j): max excess {worst_entry:.2e}; "
        f"Varah vs |A^-1|_1: max excess {worst_varah:.2e}",
    )


def test_criterion_5_reference_constants(ex1a_matrix):
    rep = gd.dominance_mu(ex1a_matrix)
    b = gd.lu_bound(ex1a_matrix)
    mu_exact = rep.mu == 0.24
    gamma_err = abs(b.gamma - 0.24 ** (1.0 / 3.0))
    m_formula = (1.0 + 0.24**2) / ((1.0 - 0.24) * (1.0 - 0.24**2) * 6.25)
    m_err = abs(b.M - m_formula)
    v41 = gd.eval_bound(b, 4, 1)
    v41_err = abs(v41 - 0.0567035)
    ok = mu_exact and gamma_err <= 1e-12 and m_err <= 1e-6 and v41_err <= 1e-6
    report(
        5,
        ok,
        f"mu == 0.24 exactly: {mu_exact}; |gamma - 0.24^(1/3)| = {gamma_err:.1e} "
        f"(limit 1e-12); |M - formula| = {m_err:.1e} (limit 1e-6, M = {b.M:.8f}); "
        f"|bound(4,1) - 0.0567035| = {v41_err:.1e} (limit 1e-6)",
    )


def test_criterion_6_rate_comparison_grid():
    grid = [k * 0.05 for k in range(1, 20)]
    spd_ok = all((1.0 - math.sqrt(1.0 - mu**2)) / mu <= mu + 1e-15 for mu in grid)
    indef_ok = all(math.sqrt(mu) >= mu for mu in grid)
    worst_ch = 0.0
    for r in (1, 2, 3):
        for mu in grid:
            ch = gd.chui_hasson_rate(1.0 - mu, 1.0 + mu, r).gamma
            lam1 = gd.dms_rate(1.0 - mu, 1.0 + mu, r, definite=False).gamma
            worst_ch = max(worst_ch, abs(ch - lam1))
    ok = spd_ok and indef_ok and worst_ch <= 1e-12
    report(
        6,
        ok,
        f"(1-sqrt(1-mu^2))/mu <= mu on grid: {spd_ok}; sqrt(mu) >= mu: {indef_ok}; "
        f"|ChuiHasson - lambda1| <= {worst_ch:.1e} (limit 1e-12)",
    )


def test_criterion_7_figure_orderings():
    r1a = gd.run_experiment(gd.ExperimentSpec("ex1a"))
    tail_ok = all(
        row["dms"] <= row["lu"] for row in r1a.rows if row["i"] - 1 >= 10
    )

    r1d = gd.run_experiment(gd.ExperimentSpec("ex1d"))
    m_lu = r1d.families["lu"][0].M
    lam1 = r1d.families["dms"][0].gamma
    anchored_ok = all(
        row["lu"] <= m_lu * lam1 ** (row["i"] - 1) * (1.0 + 1e-12)
        for row in r1d.rows
        if row["i"] - 1 >= 10
    )

    r5 = gd.run_experiment(gd.ExperimentSpec("ex5"))
    qr_ok = (
        r5.families["lu"][0] is not None
        and r5.families["qr"][0] is not None
        and r5.families["lu"][0].gamma < r5.families["qr"][0].gamma
    )
    ok = tail_ok and anchored_ok and qr_ok
    report(
        7,
        ok,
        f"ex1a: interval-rate curve below dominance curve beyond distance 10: {tail_ok}; "
        f"ex1d: dominance curve below anchored indefinite-rate curve: {anchored_ok}; "
        f"ex5: gamma_LU={r5.families['lu'][0].gamma:.4f} < "
        f"gamma_QR={r5.families['qr'][0].gamma:.4f}: {qr_ok}",
    )


def test_criterion_8_trailing_generator_cross_check(worst):
    err = worst["tail_cross_check"]
    ok = err <= 1e-12
    report(8, ok, f"recursive vs R-block trailing generator: worst rel diff "
                  f"{err:.2e} (limit 1e-12)")


def test_criterion_9_csv_determinism(tmp_path):
    a = tmp_path / "run1.csv"
    b = tmp_path / "run2.csv"
    rc1 = cli_main(["run", "ex1a", "--seed", "7", "--out", str(a)])
    rc2 = cli_main(["run", "ex1a", "--seed", "7", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    report(
        9,
        ok,
        f"two runs of `run ex1a --seed 7`: exit codes ({rc1}, {rc2}), "
        f"byte-identical CSV: {identical}",
    )
