import math
import re
import warnings

import numpy as np
import pytest

import greendecay as gd
from conftest import one_norm


class TestLuBound:
    def test_ex1a_constants(self, ex1a_matrix):
        b = gd.lu_bound(ex1a_matrix)
        assert b.gamma == pytest.approx(0.24 ** (1.0 / 3.0), abs=1e-15)
        want_M = (1.0 + 0.24**2) / ((1.0 - 0.24) * (1.0 - 0.24**2) * 6.25)
        assert b.M == pytest.approx(want_M, rel=1e-15)
        assert b.M == pytest.approx(0.23626, abs=5e-6)

    def test_tridiagonal_constants(self):
        A = gd.make_banded(6, 1, 1, lambda i, j: 4.0 if i == j else -1.0)
        b = gd.lu_bound(A)
        assert b.gamma == 0.5
        assert b.M == pytest.approx(1.25 / (0.5 * 0.75 * 4.0), rel=1e-15)

    def test_diagonal_degenerate_case(self):
        A = gd.from_dense(2.0 * np.eye(5))
        b = gd.lu_bound(A)
        assert b.gamma == 0.0
        assert b.M == 0.5
        assert gd.eval_bound(b, 3, 3) == 0.5  # equals the exact inverse entry
        assert gd.eval_bound(b, 4, 3) == 0.0

    def test_rejects_non_dominant_and_carries_mu(self):
        A = gd.make_banded(4, 1, 1, lambda i, j: 1.0)
        with pytest.raises(gd.DominanceError) as err:
            gd.lu_bound(A)
        assert err.value.mu == 2.0

    def test_dominance_is_the_lu_and_varah_hypothesis(self):
        # one except HypothesisError makes every family not applicable
        assert issubclass(gd.DominanceError, gd.HypothesisError)

    def test_rejects_a_zero_diagonal_naming_its_step(self):
        A = gd.from_dense(np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(gd.DominanceError) as err:
            gd.lu_bound(A)
        assert str(err.value) == "zero diagonal entry at k=2; dominance undefined"
        assert err.value.zero_diagonal_index == 2

    def test_diagonal_dwarfing_its_column(self):
        # 1e16 + 1 rounds to 1e16, so subtracting the diagonal from the
        # column sum would give mu = 0 and claim A^{-1} is diagonal
        A = gd.from_dense(1e16 * np.eye(4) + np.eye(4, k=-1))
        b = gd.lu_bound(A)
        assert gd.dominance_mu(A).mu == 1e-16
        exact = abs(gd.dense_inverse(A.to_dense())[1, 0])
        assert exact == pytest.approx(1e-32, rel=1e-15)
        assert gd.eval_bound(b, 2, 1) >= exact


class TestEvalBound:
    def test_decay_bound_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^unknown bound kind 'XX'$"):
            gd.DecayBound("XX", 0.5, 1)

    @pytest.mark.parametrize("r", [0, -1, 1.5, 2.0, True])
    @pytest.mark.parametrize(
        "build",
        [
            lambda r: gd.dms_rate(1.0, 4.0, r),
            lambda r: gd.dms_rate(1.0, 4.0, r, definite=False),
            lambda r: gd.frommer_bound(1.0, 4.0, r),
            lambda r: gd.chui_hasson_rate(1.0, 4.0, r),
            lambda r: gd.DecayBound("LU", 0.5, r, M=1.0),
        ],
        ids=["dms-spd", "dms-indefinite", "frommer", "chui_hasson", "DecayBound"],
    )
    def test_bandwidth_must_be_an_integer_of_at_least_1(self, build, r):
        # a bad argument, not an unmet hypothesis, and raised before r divides
        message = f"bandwidth r must be an integer >= 1, got {r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
            build(r)
        assert not isinstance(err.value, gd.HypothesisError)

    def test_ex1a_value_at_distance_three(self, ex1a_matrix):
        b = gd.lu_bound(ex1a_matrix)
        # gamma^3 == mu, so the value is M * mu
        assert gd.eval_bound(b, 4, 1) == pytest.approx(b.M * 0.24, rel=1e-12)
        assert gd.eval_bound(b, 4, 1) == pytest.approx(0.0567035, abs=1e-6)

    def test_value_on_diagonal_is_m(self, ex1a_matrix):
        b = gd.lu_bound(ex1a_matrix)
        assert gd.eval_bound(b, 7, 7) == b.M

    def test_not_applicable_above_diagonal(self, ex1a_matrix):
        b = gd.lu_bound(ex1a_matrix)
        assert gd.eval_bound(b, 1, 2) is None

    def test_frommer_exponent_convention(self):
        b = gd.frommer_bound(1.0, 4.0, 1)
        # C q1^(|i-j|/r - 1) with C = 2, q1 = 1/3
        assert gd.eval_bound(b, 2, 1) == pytest.approx(2.0, rel=1e-15)
        assert gd.eval_bound(b, 4, 1) == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_nonincreasing_in_distance(self, ex1a_matrix):
        b = gd.lu_bound(ex1a_matrix)
        values = [gd.eval_bound(b, i, 1) for i in range(1, 51)]
        assert all(x >= y for x, y in zip(values, values[1:]))
        f = gd.frommer_bound(2.0, 9.0, 2)
        fv = [gd.eval_bound(f, i, 1) for i in range(3, 40)]
        assert all(x >= y for x, y in zip(fv, fv[1:]))


class TestVarah:
    def test_ex1a_value(self, ex1a_matrix):
        b = gd.varah_bound(ex1a_matrix)
        assert (b.kind, b.gamma, b.r) == ("Varah", 0.0, 3)
        assert b.M == pytest.approx(1.0 / (0.76 * 6.25), rel=1e-15)

    def test_diagonal_is_tight(self):
        A = gd.from_dense(2.0 * np.eye(4))
        assert gd.varah_bound(A).M == 0.5  # equals ||A^{-1}||_1 exactly

    def test_dominates_reference_inverse_norm(self):
        A = gd.make_banded(10, 1, 1, lambda i, j: 4.0 if i == j else -1.0)
        b = gd.varah_bound(A)
        assert b.M == 0.5
        assert one_norm(gd.dense_inverse(A.to_dense())) <= b.M
        assert gd.eval_bound(b, 1, 10) == gd.eval_bound(b, 10, 1) == 0.5

    def test_rejects_non_dominant(self):
        A = gd.make_banded(4, 1, 1, lambda i, j: 1.0)
        with pytest.raises(gd.DominanceError):
            gd.varah_bound(A)


SUBNORMAL_DIAGONAL = np.diag([1e-320] * 3)


# dominant (mu = 0.9), and both constants' denominators, 0.019 and 0.1 times
# 2^-1074, round to 0
UNDERFLOWING_DENOMINATOR = np.array([[5e-324, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.9, 1.0]])
# t = 2^-1074: LU's denominator 0.019 * 10t rounds to 0, Varah's 0.1 * 10t is t
ZERO_AND_OVERFLOW = 5e-324 * np.array([[10.0, 0.0], [9.0, 10.0]])


class TestOverflowingConstant:
    # 1 / 1e-320 overflows to inf, and eval_bound would then give inf * 0 = NaN;
    # a denominator that underflows to 0 is an overflow of M too
    @pytest.mark.parametrize("family, kind", [(gd.lu_bound, "LU"), (gd.varah_bound, "Varah")])
    @pytest.mark.parametrize("W, fields", [
        (SUBNORMAL_DIAGONAL, "min|A(k,k)| = 1e-320, mu = 0.0"),
        (UNDERFLOWING_DENOMINATOR, "min|A(k,k)| = 5e-324, mu = 0.9"),
        (ZERO_AND_OVERFLOW, "min|A(k,k)| = 5e-323, mu = 0.9"),
    ], ids=["subnormal-diagonal", "underflowing-denominator", "zero-and-overflow"])
    def test_subnormal_diagonal_raises(self, family, kind, W, fields):
        with pytest.raises(gd.HypothesisError) as err:
            family(gd.from_dense(W))
        assert str(err.value) == f"{kind} bound constant M overflows: {fields}"

    @pytest.mark.parametrize("family", [gd.lu_bound, gd.varah_bound])
    def test_scaled_up_matrix_keeps_a_finite_constant(self, family):
        b = family(gd.from_dense(1e300 * SUBNORMAL_DIAGONAL))
        assert math.isfinite(b.M) and b.M == pytest.approx(1e20, rel=1e-4)
        assert gd.eval_bound(b, 3, 1) == (b.M if b.kind == "Varah" else 0.0)

    @pytest.mark.parametrize("M", [math.inf, math.nan, 0.0, -1.0])
    def test_decay_bound_rejects_a_constant_that_is_not_positive_and_finite(self, M):
        with pytest.raises(ValueError, match="constant must be positive and finite"):
            gd.DecayBound("LU", 0.5, 1, M=M)


class TestQrBound:
    def test_k_order_one(self):
        A = gd.from_dense(21.0 * np.eye(4) + np.eye(4, k=-1))
        report, bound = gd.qr_bound(A)
        assert report.K == 20.0  # (21 - 1) / 1, so delta = 2/K = 0.1
        assert bound.M == pytest.approx(1.199007438041998, rel=1e-12)
        assert bound.gamma == pytest.approx(0.09950371902099893, rel=1e-12)  # r = 1: mu

    def test_large_k_limit(self):
        A = gd.from_dense((1e12 + 1.0) * np.eye(3) + np.eye(3, k=-1))
        report, bound = gd.qr_bound(A)
        assert report.K == 1e12
        assert bound.M == pytest.approx(1.0, abs=5e-12)
        assert bound.gamma == pytest.approx(0.0, abs=2e-12)  # r = 1: mu

    def test_k_order_two(self):
        W = 2.0 * np.eye(5) + 0.1 * np.eye(5, k=-2)
        A = gd.from_dense(W, r_lower=2, r_upper=0)
        report, bound = gd.qr_bound(A)
        assert report.K == pytest.approx(10.0, rel=1e-15)  # (2 - 1) / 0.1
        assert bound.M == pytest.approx(2.0 * 0.19611613513818402 + 1.0, rel=1e-12)  # 2 mu + 1
        assert bound.gamma == pytest.approx(0.7447819789879647, rel=1e-12)

    def test_diagonal_dwarfing_its_column(self):
        # 1e18 + 1 rounds to 1e18, so subtracting the diagonal's square from
        # the column's would give s_k = 0, K = inf and gamma = 0
        A = gd.from_dense(1e9 * np.eye(4) + np.eye(4, k=-1))
        report, bound = gd.qr_bound(A)
        assert report.K == 1e9 - 1.0
        exact = abs(gd.dense_inverse(A.to_dense())[1, 0])
        assert exact == pytest.approx(1e-18, rel=1e-15)
        assert gd.eval_bound(bound, 2, 1) >= exact

    def test_diagonal_matrix_keeps_an_infinite_k(self):
        report, bound = gd.qr_bound(gd.from_dense(3.0 * np.eye(3)))
        assert report.K == math.inf and bound.gamma == 0.0 and bound.M == 1.0

    @pytest.mark.parametrize("W, message", [
        # K = (1e300 - 1) / 1e-10 overflows, and delta = 2/K = 0
        ([[1e300, 0.0], [1e-10, 2.0]], r"^K, the least .* overflows$"),
        # s_1^2 = 1e-340 underflows to 0, so column 1 would read as empty
        ([[2.0, 0.0], [1e-170, 2.0]], "underflows in column 1$"),
        # as 0 it would leave K = 1e308 to column 3, and delta = 2e-308
        ([[2.0, 0.0, 0.0], [1e-170, 2.0, 1e-8], [0.0, 0.0, 1e300]],
         "underflows in column 1$"),
        # 1e-161^2 is subnormal, with only a few digits left
        ([[2.0, 0.0], [1e-161, 2.0]], "underflows in column 1$"),
    ], ids=["K-overflow", "square-underflow", "underflow-beside-a-finite-K", "subnormal-square"])
    def test_a_k_without_digits_is_rejected(self, W, message):
        # a K without digits gives an envelope that need not hold at (2, 1)
        A = gd.from_dense(np.array(W))
        assert gd.dense_inverse(A.to_dense())[1, 0] != 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gd.HypothesisError, match=message):
                gd.qr_bound(A)

    def test_auto_k_is_largest_feasible(self):
        W = np.array([[5.0, 0.0], [2.0, 5.0]])
        A = gd.from_dense(W)
        report, _ = gd.qr_bound(A)
        # |A(1,1)| = 5 >= K * 2 + 1  =>  K = 2
        assert report.K == pytest.approx(2.0, rel=1e-15)

    def test_small_diagonal_rejected(self):
        A = gd.from_dense(np.array([[1.0, 0.0], [0.5, 1.0]]))
        with pytest.raises(gd.HypothesisError, match="exceed 1"):
            gd.qr_bound(A)

    def test_degenerate_rate_rejected(self, ex1a_matrix):
        with pytest.raises(gd.HypothesisError, match="degenerate"):
            gd.qr_bound(ex1a_matrix)

    def test_overflowing_delta_squared_is_rate_degenerate(self):
        # K = 2.2e-166, so delta^2 = (2/K)^2 overflows a float: mu is 1 to
        # working precision and the rate (mu r sqrt(r))^(1/r) is 1
        A = gd.from_dense((1.0 + 2.0**-52) * np.eye(4) + 1e150 * np.eye(4, k=-1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gd.HypothesisError, match="degenerate"):
                gd.qr_bound(A)

    def test_overflowing_sum_of_squares_rejected(self, ex1a_matrix):
        # (0.25e300)^2 overflows; as inf the sums would give s_k = inf, K = 0
        A = gd.from_dense(1e300 * ex1a_matrix.to_dense(), r_lower=3, r_upper=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gd.HypothesisError, match="overflows in column 1"):
                gd.qr_bound(A)

    @pytest.mark.parametrize("n,rows", [(6, 1), (100, 100)])
    def test_overflowing_row_energy_meets_no_threshold(self, n, rows):
        # every column's s_k^2 is finite, but with one full upper row its
        # sum of squares, 5e308, overflows; with a full upper triangle each
        # row sum is finite but E(50) ~ 2.5e309 is not. Either way C0 = inf
        # and the K threshold cannot be met
        U = np.triu(np.full((n, n), 1e154 if rows == 1 else 1e153), 1)
        U[rows:] = 0.0
        W = 1e160 * np.eye(n) + np.eye(n, k=-1) + U
        A = gd.from_dense(W, r_lower=1, r_upper=n - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, bound = gd.qr_bound(A)
        assert report.C0 == math.inf
        assert not report.k_threshold_met
        assert gd.eval_bound(bound, 2, 1) >= abs(gd.dense_inverse(W)[1, 0])

    def test_rejection_skips_the_row_energy(self, ex1a_matrix, monkeypatch):
        # C0 feeds only k_threshold_met, so a rejected matrix never pays for it
        def unreachable(*args):
            raise AssertionError("C0 computed for a rejected matrix")

        monkeypatch.setattr("greendecay.bounds._qr_row_energy", unreachable)
        with pytest.raises(gd.HypothesisError, match="degenerate"):
            gd.qr_bound(ex1a_matrix)

    def test_threshold_flag(self):
        A = gd.from_dense(1e4 * np.eye(4) + np.eye(4, k=-1))
        report, _ = gd.qr_bound(A)
        c0 = report.C0
        t_energy = 4.0 * (3.0 + 2.0 * c0)
        t_band = 2.0 * math.sqrt(((math.sqrt(3.0) + 1.0) / 2.0) ** 2 - 1.0)
        assert report.k_threshold_met == (report.K >= max(t_energy, t_band))
        assert report.k_threshold_met  # K ~ 1e4 clears both terms

    def test_band_threshold_past_the_float_range_is_not_met(self):
        # ((sqrt(3)+1)/2)^(2r) overflows from r = 1138 on: the band term is
        # inf, so K ~ 3e13 misses it while the hypotheses hold
        n, r = 1139, 1138
        V = np.where(np.arange(n)[:, None] >= r - np.arange(r + 1), 1e-3, 0.0)
        V[:, r] = 1e12
        report, bound = gd.qr_bound(gd.from_band(V, r, 0))
        assert report.C0 == 0.0 and report.K > 1e13
        assert not report.k_threshold_met
        assert bound.r == r and 0.0 < bound.gamma < 1.0 and bound.M == pytest.approx(1.0)

    def test_c0_matches_direct_double_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            n = int(rng.integers(6, 30))
            W = rng.uniform(-1.0, 1.0, (n, n))
            W = np.where(np.subtract.outer(np.arange(n), np.arange(n)) <= 2, W, W * 0)
            np.fill_diagonal(W, 50.0)
            A = gd.from_dense(W, r_lower=2, r_upper=n - 1)
            report, _ = gd.qr_bound(A)
            W2 = A.to_dense()**2
            want = 0.0
            for k in range(1, n - 2 + 1):
                want = max(want, W2[: k - 1, k:].sum())
            assert report.C0 == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestDmsRate:
    def test_perfectly_conditioned(self):
        assert gd.dms_rate(2.0, 2.0, 3).gamma == 0.0

    def test_definite_rate(self):
        b = gd.dms_rate(1.0, 9.0, 1, definite=True)
        assert b.gamma == pytest.approx(0.5, rel=1e-15)
        assert b.kind == "DMS-SPD"

    def test_indefinite_rate(self):
        b = gd.dms_rate(1.0, 9.0, 1, definite=False)
        assert b.gamma == pytest.approx(math.sqrt(0.8), rel=1e-15)
        assert b.kind == "DMS-indefinite"

    def test_constant_is_reciprocal_lower_endpoint(self):
        assert gd.dms_rate(4.0, 8.0, 2).M == 0.25
        assert gd.dms_rate(4.0, 8.0, 2, definite=False).M == 0.25

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (3.0, 2.0)])
    def test_rejects_bad_interval(self, a, b):
        with pytest.raises(ValueError):
            gd.dms_rate(a, b, 1)

    @pytest.mark.parametrize("definite", [True, False])
    def test_overflowing_condition_number_rounds_the_rate_to_1(self, definite):
        # b/a = 2e308 is inf, and (inf - 1)/(inf + 1) would be NaN
        with pytest.raises(gd.HypothesisError, match=r"got 1\.0$"):
            gd.dms_rate(0.5, 1e308, 1, definite=definite)


class TestFrommer:
    def test_equal_eigenvalues_collapse(self):
        b = gd.frommer_bound(2.0, 2.0, 1)
        assert b.gamma == 0.0
        assert gd.eval_bound(b, 2, 1) == b.M  # |i-j| = r
        assert gd.eval_bound(b, 3, 1) == 0.0

    def test_reference_constants(self):
        b = gd.frommer_bound(1.0, 4.0, 1)
        assert b.M == 2.0
        assert b.gamma == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_inside_band_not_applicable(self):
        b = gd.frommer_bound(1.0, 4.0, 3)
        assert gd.eval_bound(b, 2, 1) is None
        assert gd.eval_bound(b, 4, 1) is not None

    def test_overflowing_condition_number_rounds_the_rate_to_1(self):
        with pytest.raises(gd.HypothesisError, match=r"got 1\.0$"):
            gd.frommer_bound(0.5, 1e308, 1)

    def test_rejects_nonpositive_smallest_eigenvalue(self):
        with pytest.raises(ValueError):
            gd.frommer_bound(0.0, 4.0, 1)
        with pytest.raises(ValueError):
            gd.frommer_bound(-1.0, 4.0, 1)


class TestChuiHasson:
    def test_equal_endpoints(self):
        assert gd.chui_hasson_rate(3.0, 3.0, 2).gamma == 0.0

    def test_reference_rate(self):
        b = gd.chui_hasson_rate(1.0, 3.0, 1)
        assert b.gamma == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert b.M is None
        assert gd.eval_bound(b, 3, 1) == pytest.approx(0.5, rel=1e-12)

    def test_matches_indefinite_rate_for_unit_interval(self):
        # spectrum [-(1+mu), -(1-mu)] u [1-mu, 1+mu]: both rates reduce to mu^(1/2r)
        for r in (1, 2, 3):
            for mu in (0.1, 0.5, 0.9):
                ch = gd.chui_hasson_rate(1.0 - mu, 1.0 + mu, r).gamma
                dms = gd.dms_rate(1.0 - mu, 1.0 + mu, r, definite=False).gamma
                assert ch == pytest.approx(dms, abs=1e-12)
                assert ch == pytest.approx(mu ** (1.0 / (2 * r)), rel=1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            gd.chui_hasson_rate(0.0, 1.0, 1)

    def test_overflowing_endpoint_sum(self):
        # b + a = 2.5e308 overflows, and (b - a)/inf would give the rate 0
        want = gd.chui_hasson_rate(1.0, 1.5, 1).gamma
        assert gd.chui_hasson_rate(1e308, 1.5e308, 1).gamma == pytest.approx(want, rel=1e-15)


class TestRateComparisons:
    MUS = np.arange(0.05, 0.96, 0.05)

    def test_definite_rate_beats_dominance_rate(self):
        # ((1 - sqrt(1-mu^2))/mu)^(1/r) <= mu^(1/r) on the whole grid
        for mu in self.MUS:
            lam0_pow = (1.0 - math.sqrt(1.0 - mu**2)) / mu
            assert lam0_pow <= mu + 1e-15

    def test_indefinite_rate_loses_to_dominance_rate(self):
        for mu in self.MUS:
            assert math.sqrt(mu) >= mu

    def test_rates_from_gershgorin_interval(self):
        # with spectrum bounds a = 1 - mu, b = 1 + mu the formulas reduce to
        # closed forms in mu alone
        for r in (1, 2, 3):
            for mu in self.MUS:
                lam0 = gd.dms_rate(1.0 - mu, 1.0 + mu, r, definite=True).gamma
                want = ((1.0 - math.sqrt(1.0 - mu**2)) / mu) ** (1.0 / r)
                assert lam0 == pytest.approx(want, rel=1e-12)
                assert lam0 <= mu ** (1.0 / r) + 1e-12


class TestSoundness:
    def test_lu_bound_never_violated(self):
        # mixed-sign, one- and two-sided dominant matrices
        mats = gd.dominant_ensemble(100, seed=31337, n_max=150, r_max=6)
        for A in mats:
            inv = gd.dense_inverse(A.to_dense())
            b = gd.lu_bound(A)
            d = np.subtract.outer(np.arange(A.n), np.arange(A.n))
            with np.errstate(over="ignore"):
                envelope = b.M * np.where(d == 0, 1.0, b.gamma ** np.maximum(d, 0))
            lower = d >= 0
            assert np.all(np.abs(inv)[lower] <= envelope[lower] * (1.0 + 1e-12))
            assert one_norm(inv) <= gd.varah_bound(A).M * (1.0 + 1e-12)
