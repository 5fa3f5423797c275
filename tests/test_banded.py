import errno
import mmap

import numpy as np
import pytest

import greendecay as gd

RNG = np.random.default_rng(42)


class TestBandedMatrix:
    def test_make_banded_tridiagonal(self):
        A = gd.make_banded(3, 1, 1, lambda i, j: 4.0 if i == j else -1.0)
        np.testing.assert_array_equal(
            A.data, [[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]]
        )

    def test_make_banded_ex1a_entries(self, ex1a_matrix):
        A = ex1a_matrix
        assert A.n == 50 and A.r_lower == 3 and A.r_upper == 3
        assert A.entry(1, 1) == 6.25
        assert A.entry(1, 4) == 0.25
        assert A.entry(1, 5) == 0.0
        assert A.entry(50, 47) == 0.25

    def test_make_banded_lower_only(self):
        A = gd.make_banded(2, 1, 0, lambda i, j: 2.0 if i == j else 1.0)
        assert A.r_lower == 1 and A.r_upper == 0
        np.testing.assert_array_equal(A.data, [[2.0, 0.0], [1.0, 2.0]])

    def test_make_banded_samples_in_row_major_order(self):
        calls = []
        A = gd.make_banded(5, 2, 1, lambda i, j: calls.append((i, j)) or 10.0 * i + j)
        want = [(i, j) for i in range(1, 6) for j in range(max(1, i - 2), min(5, i + 1) + 1)]
        assert calls == want
        for i, j in want:
            assert A.entry(i, j) == 10.0 * i + j
        assert np.count_nonzero(A.data) == len(want)

    @pytest.mark.parametrize("n,rl,ru", [(3, 3, 1), (3, 0, 1), (2, 1, -1), (3, 1, 3)])
    def test_make_banded_rejects_bad_dimensions(self, n, rl, ru):
        with pytest.raises(ValueError):
            gd.make_banded(n, rl, ru, lambda i, j: 1.0)

    def test_rejects_out_of_band_entries(self):
        W = np.eye(4)
        W[3, 0] = 1e-30  # tiny but nonzero outside r_lower = 1
        with pytest.raises(ValueError, match="outside the declared band"):
            gd.BandedMatrix(4, 1, 1, W)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match=r"entry \(2, 2\) is .*must be finite"):
            gd.from_dense([[4.0, 0.0], [1.0, bad]])

    def test_non_finite_message_names_the_first_entry(self):
        # an out-of-band inf fails the nonzero count; an in-band NaN fails
        # the band scan; either way the row-major first one is named
        W = np.eye(4)
        W[2, 2] = np.nan
        with pytest.raises(ValueError, match=r"entry \(3, 3\) is nan"):
            gd.BandedMatrix(4, 1, 1, W)
        W[0, 3] = np.inf
        with pytest.raises(ValueError, match=r"entry \(1, 4\) is inf"):
            gd.BandedMatrix(4, 1, 1, W)

    def test_out_of_band_reads_are_exact_zero(self, ex1a_matrix):
        W = ex1a_matrix.data
        np.testing.assert_array_equal(W, np.triu(np.tril(W, 3), -3))
        assert np.count_nonzero(W) == 50 + 2 * (49 + 48 + 47)

    def test_backing_array_is_read_only(self, lower2x2):
        with pytest.raises(ValueError):
            lower2x2.data[0, 0] = 9.0

    def test_entry_is_one_based(self, lower2x2):
        assert lower2x2.entry(2, 1) == 1.0
        with pytest.raises(IndexError):
            lower2x2.entry(0, 1)

    def test_from_dense_infers_tightest_band(self):
        W = np.zeros((5, 5))
        W[np.arange(5), np.arange(5)] = 2.0
        W[3, 1] = 1.0  # i - j = 2
        W[0, 3] = 1.0  # j - i = 3
        A = gd.from_dense(W)
        assert (A.r_lower, A.r_upper) == (2, 3)

    def test_from_dense_diagonal_floors_r_lower(self):
        A = gd.from_dense(np.diag([1.0, 2.0, 3.0]))
        assert (A.r_lower, A.r_upper) == (1, 0)

    @pytest.mark.parametrize("scale", [1e-13, 1e-20])
    def test_tiny_nonsymmetric_matrix_is_not_symmetric(self, scale):
        # the tolerance follows max|A|, not max(1, max|A|)
        W = scale * np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        assert not gd.from_dense(W).is_symmetric()

    @pytest.mark.parametrize("k", [-1000, -60, 0, 60, 1000])
    def test_symmetry_survives_power_of_two_scaling(self, k):
        W = np.array([[4.0, 1.0, 0.5], [1.0, 4.0, 1.0], [0.5, 1.0, 4.0]])
        assert gd.from_dense(2.0**k * W).is_symmetric()
        assert not gd.from_dense(2.0**k * np.triu(W)).is_symmetric()

    def test_zero_matrix_is_symmetric(self):
        assert gd.BandedMatrix(3, 1, 2, np.zeros((3, 3))).is_symmetric()

    def test_array_holders_compare_by_identity(self, tridiag3):
        # a generated == would compare arrays, whose truth value is ambiguous,
        # and a generated __hash__ would hash them; identity semantics instead
        for make in (
            lambda: gd.from_dense(tridiag3.data),
            lambda: gd.dominance_mu(tridiag3),
            lambda: gd.structured_lu(tridiag3),
            lambda: gd.inverse_green_generators(tridiag3),
        ):
            a, b = make(), make()
            assert a == a and hash(a) == hash(a)
            assert a != b
            assert len({a, b}) == 2


class NoHugePageHint(mmap.mmap):
    """A mapping whose kernel has no transparent huge pages."""

    def madvise(self, *args):
        raise OSError(errno.EINVAL, "Invalid argument")


class TestMappedArray:
    @staticmethod
    def build():
        return gd.make_banded(300, 2, 5, lambda i, j: i + 0.5 * j if i != j else 40.0)

    def assert_same_array(self, expected):
        A = self.build()
        assert A.data.tobytes() == expected.data.tobytes()
        assert not A.data.flags.writeable and A.data.flags.c_contiguous
        assert (A.r_lower, A.r_upper) == (2, 5)

    def test_rejected_huge_page_hint_is_ignored(self, monkeypatch):
        if not hasattr(mmap, "MADV_NOHUGEPAGE"):
            pytest.skip("mmap defines no MADV_NOHUGEPAGE here")
        expected = self.build()
        monkeypatch.setattr(mmap, "mmap", NoHugePageHint)
        self.assert_same_array(expected)

    def test_mapping_without_map_private(self, monkeypatch):
        expected = self.build()
        monkeypatch.delattr(mmap, "MAP_PRIVATE", raising=False)
        self.assert_same_array(expected)


class TestDominance:
    def test_ex1a_mu_is_exact(self, ex1a_matrix):
        rep = gd.dominance_mu(ex1a_matrix)
        assert rep.mu == 0.24
        assert rep.min_diag == 6.25
        assert rep.satisfied

    def test_identity_has_zero_mu(self):
        rep = gd.dominance_mu(gd.from_dense(np.eye(6)))
        assert rep.mu == 0.0 and rep.satisfied

    def test_tridiagonal_mu(self):
        A = gd.make_banded(5, 1, 1, lambda i, j: 4.0 if i == j else -1.0)
        rep = gd.dominance_mu(A)
        assert rep.mu == 0.5

    def test_zero_diagonal_reported_with_index(self):
        W = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        rep = gd.dominance_mu(gd.from_dense(W))
        assert not rep.satisfied
        assert rep.zero_diagonal_index == 2
        assert rep.mu == np.inf

    def test_mu_is_max_ratio(self, small_ensemble):
        for A in small_ensemble[:8]:
            rep = gd.dominance_mu(A)
            assert rep.mu == rep.per_column_ratios.max()
            assert rep.satisfied == (rep.mu < 1.0 and rep.min_diag > 0.0)

    def test_ratios_match_naive_double_loop(self, small_ensemble):
        for A in small_ensemble[:6]:
            rep = gd.dominance_mu(A)
            n, r = A.n, A.r_lower
            for k in range(1, n + 1):
                total = 0.0
                for i in range(1, k):
                    total += abs(A.entry(i, k))
                for i in range(k + 1, min(k + r, n) + 1):
                    total += abs(A.entry(i, k))
                want = total / abs(A.entry(k, k))
                assert rep.per_column_ratios[k - 1] == pytest.approx(want, rel=1e-13)


class TestMatrixMarket:
    def _write(self, tmp_path, text, name="m.mtx"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_reads_general_file(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "2 2 3\n"
            "1 1 2.0\n"
            "2 1 1.0\n"
            "2 2 2.0\n",
        )
        A = gd.read_matrix_market(path)
        np.testing.assert_array_equal(A.data, [[2.0, 0.0], [1.0, 2.0]])
        assert (A.r_lower, A.r_upper) == (1, 0)

    def test_reads_symmetric_file(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 4.0\n"
            "2 2 4.0\n"
            "3 3 4.0\n"
            "2 1 -1.0\n",
        )
        A = gd.read_matrix_market(path)
        assert A.entry(1, 2) == -1.0 and A.entry(2, 1) == -1.0
        assert (A.r_lower, A.r_upper) == (1, 1)

    def test_diagonal_file_floors_r_lower(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 3.0\n"
            "2 2 3.0\n",
        )
        A = gd.read_matrix_market(path)
        assert (A.r_lower, A.r_upper) == (1, 0)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 2.0\n"
            "2 oops 2.0\n",
        )
        with pytest.raises(gd.MatrixMarketError, match="line 4"):
            gd.read_matrix_market(path)

    def test_rejects_non_square(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n",
        )
        with pytest.raises(gd.MatrixMarketError, match="not square"):
            gd.read_matrix_market(path)

    def test_rejects_non_positive_order(self, tmp_path):
        path = self._write(
            tmp_path, "%%MatrixMarket matrix coordinate real general\n-2 -2 0\n"
        )
        with pytest.raises(gd.MatrixMarketError, match="order must be positive"):
            gd.read_matrix_market(path)

    def test_rejects_missing_header(self, tmp_path):
        path = self._write(tmp_path, "2 2 1\n1 1 1.0\n")
        with pytest.raises(gd.MatrixMarketError, match="header"):
            gd.read_matrix_market(path)

    def test_rejects_out_of_range_index(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        )
        with pytest.raises(gd.MatrixMarketError, match="outside"):
            gd.read_matrix_market(path)

    def test_rejects_entry_count_mismatch(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n",
        )
        with pytest.raises(gd.MatrixMarketError, match="expected 3 entries"):
            gd.read_matrix_market(path)

    def test_duplicates_accumulate(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 4\n"
            "1 1 1.0\n"
            "2 1 0.5\n"
            "1 1 2.0\n"
            "2 1 0.25\n",
        )
        A = gd.read_matrix_market(path)
        np.testing.assert_array_equal(A.data, [[3.0, 0.75], [0.75, 0.0]])

    def test_duplicate_sums_keep_file_order_bits(self, tmp_path):
        # each sum starts from 0.0 and adds in file order: 0.1 + 0.2 + 0.3 is
        # not 0.1 + (0.2 + 0.3), -0.0 reads as 0.0, and 1e308 - 1e308 + 1e308
        # stays finite where another order would overflow
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 7\n"
            "1 1 0.1\n1 1 0.2\n1 1 0.3\n2 2 -0.0\n3 3 1e308\n3 3 -1e308\n3 3 1e308\n",
        )
        A = gd.read_matrix_market(path)
        assert A.entry(1, 1) == 0.1 + 0.2 + 0.3 != 0.1 + (0.2 + 0.3)
        assert not np.signbit(A.entry(2, 2))
        assert A.entry(3, 3) == 1e308

    @pytest.mark.parametrize(
        "symmetry, entries, match",
        [
            ("general", "1 1 1e308\n2 2 1.0\n1 1 1e308\n", r"\(1, 1\) overflows to inf \(line 5\)"),
            # the sum at (1, 2) starts as the mirror of (2, 1)
            ("symmetric", "2 1 -1e308\n1 2 -1e308\n", r"\(1, 2\) overflows to -inf \(line 4\)"),
        ],
        ids=["general", "symmetric-mirror"],
    )
    def test_overflowing_duplicate_sum_is_rejected_at_its_line(
        self, tmp_path, symmetry, entries, match
    ):
        count = entries.count("\n")
        path = self._write(
            tmp_path,
            f"%%MatrixMarket matrix coordinate real {symmetry}\n2 2 {count}\n{entries}",
        )
        with pytest.raises(gd.MatrixMarketError, match=match):
            gd.read_matrix_market(path)

    # Orders of 10^9 and more: the dense array cannot be allocated at all, so
    # nothing is committed. Never test an order that could really be allocated.
    @pytest.mark.parametrize("order", [10**9, 10**10])
    def test_unallocatable_order_is_a_clear_error(self, tmp_path, order):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            f"{order} {order} 1\n"
            "1 1 1.0\n",
        )
        with pytest.raises(gd.MatrixMarketError, match=f"order {order}.*line 2"):
            gd.read_matrix_market(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_entry_is_rejected_at_its_line(self, tmp_path, value):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n"
            "1 1 1.0\n"
            f"2 2 {value}\n"
            "3 3 1.0\n",
        )
        with pytest.raises(gd.MatrixMarketError, match=r"\(2, 2\) is .*must be finite.*line 4"):
            gd.read_matrix_market(path)

    def test_non_finite_entry_is_rejected_before_allocating(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            f"{10**9} {10**9} 1\n"
            "1 1 inf\n",
        )
        with pytest.raises(gd.MatrixMarketError, match=r"\(1, 1\) is inf; .*must be finite.*line 3"):
            gd.read_matrix_market(path)

    def test_entries_are_checked_before_allocating(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            f"{10**9} {10**9} 2\n"
            "1 1 1.0\n"
            "2 oops 2.0\n",
        )
        with pytest.raises(gd.MatrixMarketError, match="malformed entry.*line 4"):
            gd.read_matrix_market(path)
