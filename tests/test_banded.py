import re

import numpy as np
import pytest

import greendecay as gd
from greendecay.verify import run_all

RNG = np.random.default_rng(42)


class TestBandedMatrix:
    def test_make_banded_tridiagonal(self):
        A = gd.make_banded(3, 1, 1, lambda i, j: 4.0 if i == j else -1.0)
        np.testing.assert_array_equal(
            A.to_dense(), [[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]]
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
        np.testing.assert_array_equal(A.to_dense(), [[2.0, 0.0], [1.0, 2.0]])

    def test_make_banded_samples_in_row_major_order(self):
        calls = []
        A = gd.make_banded(5, 2, 1, lambda i, j: calls.append((i, j)) or 10.0 * i + j)
        want = [(i, j) for i in range(1, 6) for j in range(max(1, i - 2), min(5, i + 1) + 1)]
        assert calls == want
        # Python ints, as range() gives, not numpy integers
        assert all(type(i) is type(j) is int for i, j in calls)
        for i, j in want:
            assert A.entry(i, j) == 10.0 * i + j
        assert np.count_nonzero(A.to_dense()) == len(want)

    @pytest.mark.parametrize(
        "n,rl,ru",
        [(3, 3, 1), (3, 0, 1), (2, 1, -1), (3, 1, 3),
         # sizes that are not integers: 1.0 and True compare equal to 1
         (3, 1, 1.0), (3, 1.0, 1), (3.0, 1, 1), (3, True, 1), (3, 1, False)],
    )
    def test_make_banded_rejects_bad_dimensions(self, n, rl, ru):
        with pytest.raises(ValueError, match="^need "):
            gd.make_banded(n, rl, ru, lambda i, j: 1.0)
        with pytest.raises(ValueError, match="^need "):
            gd.BandedMatrix(n, rl, ru, 4.0 * np.eye(int(n)))

    @pytest.mark.parametrize("integer", [np.int64, np.uint8])
    def test_numpy_integer_sizes_are_kept_as_python_ints(self, integer):
        n, r, s = integer(4), integer(1), integer(2)
        A = gd.make_banded(n, r, s, lambda i, j: 4.0 if i == j else 1.0)
        for B in (A, gd.from_band(A.band(), r, s), gd.BandedMatrix(n, r, s, A.to_dense())):
            assert [type(x) for x in (B.n, B.r_lower, B.r_upper)] == [int, int, int]
            np.testing.assert_array_equal(B.to_dense(), A.to_dense())

    def test_rejects_data_of_another_order(self):
        with pytest.raises(ValueError, match=r"^data shape \(4, 4\) does not match n=3$"):
            gd.BandedMatrix(3, 1, 1, np.eye(4))

    def test_from_dense_rejects_a_non_square_array(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            gd.from_dense(np.ones((2, 3)))

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
        W = ex1a_matrix.to_dense()
        np.testing.assert_array_equal(W, np.triu(np.tril(W, 3), -3))
        assert np.count_nonzero(W) == 50 + 2 * (49 + 48 + 47)

    def test_entry_is_one_based(self, lower2x2):
        assert lower2x2.entry(2, 1) == 1.0
        assert lower2x2.entry(np.int64(2), 1) == 1.0
        for i in (0, 3, True, 2.0, "2", None):
            text = re.escape(f"must be an integer in 1..2, got {i!r}")
            with pytest.raises(IndexError, match=f"^index i {text}$"):
                lower2x2.entry(i, 1)
            with pytest.raises(IndexError, match=f"^index j {text}$"):
                lower2x2.entry(1, i)

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
            lambda: gd.from_dense(tridiag3.to_dense()),
            lambda: gd.dominance_mu(tridiag3),
            lambda: gd.structured_lu(tridiag3),
            lambda: gd.inverse_green_generators(tridiag3),
        ):
            a, b = make(), make()
            assert a == a and hash(a) == hash(a)
            assert a != b
            assert len({a, b}) == 2


def band_of(n, r, s, fn):
    """Band array V[i, t] = fn(i + 1, i + t - r + 1) inside the matrix, zero outside."""
    V = np.zeros((n, r + s + 1))
    for i in range(n):
        for t in range(r + s + 1):
            if 0 <= i + t - r < n:
                V[i, t] = fn(i + 1, i + t - r + 1)
    return V


def assert_same_bytes(A, B):
    assert (A.n, A.r_lower, A.r_upper) == (B.n, B.r_lower, B.r_upper)
    assert A.band().tobytes() == B.band().tobytes()
    assert A.to_dense().tobytes() == B.to_dense().tobytes()


SHAPES = [(6, 2, 1), (5, 1, 4), (4, 3, 0), (2, 1, 1)]  # (5, 1, 4) is one-sided


class TestFromBand:
    @pytest.mark.parametrize("n, r, s", SHAPES)
    def test_matches_make_banded(self, n, r, s):
        def fn(i, j):
            return 10.0 * i + j + 0.5

        V = band_of(n, r, s, fn)
        A = gd.from_band(V, r, s)
        assert_same_bytes(A, gd.make_banded(n, r, s, fn))
        assert A.band().tobytes() == V.tobytes()

    @pytest.mark.parametrize("n, r, s", SHAPES)
    def test_matches_read_matrix_market(self, tmp_path, n, r, s):
        # every band entry is nonzero, so the reader infers the same (r, s)
        V = band_of(n, r, s, lambda i, j: 1.0 / (3 * i + j) - 0.2 * (i == j))
        entries = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if -r <= j - i <= s]
        path = tmp_path / "band.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate real general\n{n} {n} {len(entries)}\n"
            + "".join(f"{i} {j} {float(V[i - 1, j - i + r])!r}\n" for i, j in entries)
        )
        assert_same_bytes(gd.from_band(V, r, s), gd.read_matrix_market(path))

    def test_copies_the_callers_array(self):
        # the caller keeps its array writable, and writes to it after the
        # call do not reach A; A's own band stays read-only
        V = band_of(4, 1, 1, lambda i, j: 4.0 if i == j else -1.0)
        A = gd.from_band(V, 1, 1)
        V[:, 1] = 7.0
        assert V.flags.writeable
        assert A.entry(2, 2) == 4.0
        np.testing.assert_array_equal(A.band()[:, 1], 4.0)
        assert not A._V.flags.writeable and A._V is not V

    @pytest.mark.parametrize(
        "V, r, s, message",
        [
            (np.ones(5), 1, 1, r"band array of shape (5,) is not (N, r_lower + r_upper + 1) "
             r"for r_lower=1, r_upper=1"),
            (np.ones((5, 4)), 1, 1, r"band array of shape (5, 4) is not (N, r_lower + r_upper + 1) "
             r"for r_lower=1, r_upper=1"),
            (np.ones((1, 3)), 1, 1, "need N > r_lower >= 1, got N=1, r_lower=1"),
            (np.ones((4, 2)), 0, 1, "need N > r_lower >= 1, got N=4, r_lower=0"),
            (np.ones((3, 5)), 1, 3, "need 0 <= r_upper <= N-1, got r_upper=3, N=3"),
            (np.ones((3, 3)), 1.0, 1.0,
             "need integer N, r_lower and r_upper, got N=3, r_lower=1.0, r_upper=1.0"),
            (np.ones((3, 3)), True, True,
             "need integer N, r_lower and r_upper, got N=3, r_lower=True, r_upper=True"),
            (np.ones((3, 3)), "1", 1,
             "need integer N, r_lower and r_upper, got N=3, r_lower='1', r_upper=1"),
            (np.ones((3, 3)), 1, None,
             "need integer N, r_lower and r_upper, got N=3, r_lower=1, r_upper=None"),
        ],
        ids=["1-D", "width", "order-1", "r_lower-0", "r_upper-N", "float", "bool", "str", "None"],
    )
    def test_rejects_a_bad_shape_or_bandwidth(self, V, r, s, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gd.from_band(V, r, s)

    @pytest.mark.parametrize("value", [1e-300, np.nan], ids=["nonzero", "nan"])
    @pytest.mark.parametrize(
        "i, t", [(0, 0), (1, 0), (4, 3), (3, 4)], ids=["left-0-0", "left-1-0", "past-N-4-3", "past-N-3-4"]
    )
    def test_rejects_an_entry_outside_the_matrix(self, value, i, t):
        # N = 5, r = s = 2: V[i, t] is A(i+1, i+t-1), outside for t < 2 - i
        # (the left corner) and for t > 6 - i (past column N)
        V = band_of(5, 2, 2, lambda i, j: 1.0)
        V[i, t] = value
        message = f"band array entry V[{i}, {t}] = {value} lies outside the matrix and must be zero"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gd.from_band(V, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_entry_naming_it_in_a(self, bad):
        V = band_of(5, 2, 2, lambda i, j: 1.0)
        V[2, 3] = bad  # A(3, 4)
        V[4, 0] = bad  # A(5, 3), named second in row-major order
        with pytest.raises(ValueError, match=rf"^entry \(3, 4\) is {bad}; entries must be finite$"):
            gd.from_band(V, 2, 2)

    def test_is_exported(self):
        assert "from_band" in gd.__all__ and gd.from_band is gd.banded.from_band
        assert not hasattr(gd.BandedMatrix, "_from_band")


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
        np.testing.assert_array_equal(A.to_dense(), [[2.0, 0.0], [1.0, 2.0]])
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

    @pytest.mark.parametrize(
        "size, entries, message",
        [
            ("2 2 2", "1 1 2.0\n2 oops 2.0", "malformed entry '2 oops 2.0' (line 4)"),
            # Python's int and float read 2_0 as 20
            ("2_0 20 1", "1 1 1.0", "malformed size line '2_0 20 1' (line 2)"),
            ("20 20 1", "2_0 1 1.0", "malformed entry '2_0 1 1.0' (line 3)"),
            ("20 20 1", "1 1 1_0.5", "malformed entry '1 1 1_0.5' (line 3)"),
            ("3 3 x", "1 1 1.0", "malformed size line '3 3 x' (line 2)"),
            ("2 2", "1 1 1.0", "malformed size line '2 2' (line 2)"),
            ("2 2 1 1", "1 1 1.0", "malformed size line '2 2 1 1' (line 2)"),
            ("2 2 1", "1 1", "malformed entry '1 1' (line 3)"),
            ("2 2 1", "1 1 1.0 2.0", "malformed entry '1 1 1.0 2.0' (line 3)"),
            # indices are integers, whatever float would make of them
            ("2 2 1", "1.5 1 1.0", "malformed entry '1.5 1 1.0' (line 3)"),
            ("2 2 1", "1e3 1 1.0", "malformed entry '1e3 1 1.0' (line 3)"),
            ("2 2 1", "1 1 0x1p3", "malformed entry '1 1 0x1p3' (line 3)"),
            # not malformed: the finiteness message keeps the raw token
            ("2 2 1", "1 1 NaN", "entry (1, 1) is NaN; entries must be finite (line 3)"),
        ],
        ids=["word", "size-underscore", "index-underscore", "value-underscore", "size-word",
             "size-2-fields", "size-4-fields", "entry-2-fields", "entry-4-fields",
             "index-1.5", "index-1e3", "value-hex", "value-NaN"],
    )
    def test_parse_error_carries_line_number(self, tmp_path, size, entries, message):
        path = self._write(
            tmp_path, f"%%MatrixMarket matrix coordinate real general\n{size}\n{entries}\n"
        )
        with pytest.raises(gd.MatrixMarketError, match=rf"^{re.escape(message)}$"):
            gd.read_matrix_market(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("matrix array real general",
             "unsupported object/format 'matrix'/'array'; need matrix coordinate"),
            ("matrix coordinate real skew-symmetric",
             "unsupported symmetry 'skew-symmetric'; need general or symmetric"),
            # an integer-valued matrix reads as a real file; no second value path
            ("matrix coordinate integer general", "unsupported field 'integer'; need real"),
        ],
        ids=["array", "skew-symmetric", "integer"],
    )
    def test_rejects_an_unsupported_header_at_line_1(self, tmp_path, header, message):
        path = self._write(tmp_path, f"%%MatrixMarket {header}\n2 2 2\n1 1 1.5\n2 2 2.5\n")
        with pytest.raises(gd.MatrixMarketError, match=rf"^{re.escape(message)} \(line 1\)$"):
            gd.read_matrix_market(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file (line 1)"),
            ("%%MatrixMarket matrix coordinate real general\n% only a comment\n",
             "missing size line (line 2)"),
            # the line reported is the last one read
            ("%%MatrixMarket matrix coordinate real general\n% c\n\n   \n",
             "missing size line (line 4)"),
        ],
        ids=["empty", "no-size-line", "no-size-line-after-blanks"],
    )
    def test_rejects_a_file_without_a_size_line(self, tmp_path, text, message):
        path = self._write(tmp_path, text)
        with pytest.raises(gd.MatrixMarketError, match=rf"^{re.escape(message)}$"):
            gd.read_matrix_market(path)

    def test_comment_and_blank_lines_between_entries_are_skipped(self, tmp_path):
        head = "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 4.0\n2 1 -1.0\n"
        tail = "2 2 4.0\n3 3 0.5\n"
        plain = gd.read_matrix_market(self._write(tmp_path, head + tail, "plain.mtx"))
        spaced = gd.read_matrix_market(
            self._write(tmp_path, head + "% a comment\n\n   \n" + tail, "spaced.mtx")
        )
        shape = (plain.n, plain.r_lower, plain.r_upper)
        assert (spaced.n, spaced.r_lower, spaced.r_upper) == shape
        assert spaced.band().tobytes() == plain.band().tobytes()
        assert spaced.to_dense().tobytes() == plain.to_dense().tobytes()

    @pytest.mark.parametrize("line", [1, 2, 3, 4, 3003])
    def test_non_ascii_byte_is_rejected_at_its_line(self, tmp_path, line):
        # the last line lies far past the 8 KiB that a text file decodes at once
        rows = ["%%MatrixMarket matrix coordinate real general", "% comment", "3 3 3000"]
        rows += ["1 1 1.0"] * 3000
        rows[line - 1] += " \u00e9"  # UTF-8 bytes 0xc3 0xa9
        path = tmp_path / "m.mtx"
        path.write_bytes("\n".join(rows).encode("utf-8") + b"\n")
        with pytest.raises(gd.MatrixMarketError, match=rf"^non-ASCII byte 0xc3 \(line {line}\)$"):
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
        with pytest.raises(gd.MatrixMarketError, match="order must be at least 2"):
            gd.read_matrix_market(path)

    def test_rejects_order_one(self, tmp_path):
        # a BandedMatrix needs N > r_lower >= 1; the size line says why not
        path = self._write(
            tmp_path, "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"
        )
        with pytest.raises(gd.MatrixMarketError, match=r"order must be at least 2, got 1 \(line 2\)"):
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
        np.testing.assert_array_equal(A.to_dense(), [[3.0, 0.75], [0.75, 0.0]])

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


# One integer rule for every count and index the public API takes: each
# argument below, given 2.0, True, "1", None or a value just outside its
# range, raises its error with the text "<name> must be an integer in
# low..high" (or ">= low"), and takes a numpy integer. random_dominant_matrix
# draws an n or r_lower of None, so only given ones are checked; n_max and
# r_max are checked, None among them, as the bounds of those draws. The calls
# read a 6 x 6 band A with r = 2, its generators and its LU bound.
_A = gd.make_banded(6, 2, 1, lambda i, j: 4.0 if i == j else 0.5)
_GENS = gd.inverse_green_generators(_A)
_LU = gd.lu_bound(_A)


def _run_column(column):
    """run_experiment's own check of the probe column against N, past the spec's."""
    spec = gd.ExperimentSpec("ex1a")
    object.__setattr__(spec, "column", column)
    return gd.run_experiment(spec)


INTEGER_ARGUMENTS = {
    # id: (call with the value, error type, name, low, high or None)
    "ExperimentSpec-seed": (
        lambda v: gd.ExperimentSpec("ex4a", seed=v), ValueError, "seed", 0, None
    ),
    "ExperimentSpec-column": (
        lambda v: gd.ExperimentSpec("ex1a", column=v), ValueError, "probe column", 1, None
    ),
    "run_experiment-column": (_run_column, ValueError, "probe column", 1, 50),
    "run_all-trials": (lambda v: run_all(v, 5, verbose=False), ValueError, "trials", 1, None),
    "run_all-seed": (lambda v: run_all(1, v, verbose=False), ValueError, "seed", 0, None),
    "dominant_ensemble-count": (lambda v: gd.dominant_ensemble(v, 1), ValueError, "count", 0, None),
    "dominant_ensemble-seed": (lambda v: gd.dominant_ensemble(1, v), ValueError, "seed", 0, None),
    "random_dominant_matrix-n": (
        lambda v: gd.random_dominant_matrix(np.random.default_rng(1), n=v), ValueError, "n", 2, None
    ),
    "random_dominant_matrix-r_lower": (
        lambda v: gd.random_dominant_matrix(np.random.default_rng(1), n=6, r_lower=v),
        ValueError, "r_lower", 1, 5,
    ),
    "random_dominant_matrix-n_max": (
        lambda v: gd.random_dominant_matrix(np.random.default_rng(1), n_max=v),
        ValueError, "n_max", 8, None,
    ),
    "random_dominant_matrix-r_max": (
        lambda v: gd.random_dominant_matrix(np.random.default_rng(1), r_max=v),
        ValueError, "r_max", 1, None,
    ),
    "dominant_ensemble-n_max": (
        lambda v: gd.dominant_ensemble(3, 1, n_max=v), ValueError, "n_max", 8, None
    ),
    "dominant_ensemble-r_max": (
        lambda v: gd.dominant_ensemble(3, 1, r_max=v), ValueError, "r_max", 1, None
    ),
    "DecayBound-r": (
        lambda v: gd.DecayBound("LU", 0.5, v, M=1.0), ValueError, "bandwidth r", 1, None
    ),
    "dms_rate-r": (lambda v: gd.dms_rate(1.0, 4.0, v), ValueError, "bandwidth r", 1, None),
    "frommer_bound-r": (
        lambda v: gd.frommer_bound(1.0, 4.0, v), ValueError, "bandwidth r", 1, None
    ),
    "chui_hasson_rate-r": (
        lambda v: gd.chui_hasson_rate(1.0, 4.0, v), ValueError, "bandwidth r", 1, None
    ),
    "entry-i": (lambda v: _A.entry(v, 1), IndexError, "index i", 1, 6),
    "entry-j": (lambda v: _A.entry(1, v), IndexError, "index j", 1, 6),
    "green_scalar_entry-i": (
        lambda v: gd.green_scalar_entry(_GENS, v, 1), IndexError, "index i", 1, 6
    ),
    "green_scalar_entry-j": (
        lambda v: gd.green_scalar_entry(_GENS, 6, v), IndexError, "index j", 1, 6
    ),
    "GreenGenerators.p-i": (lambda v: _GENS.p(v), IndexError, "p index", 1, 5),
    "schur_complement-ell": (lambda v: gd.schur_complement(_A, v), ValueError, "ell", 1, 4),
    "band-pad": (lambda v: _A.band(v), ValueError, "pad", 0, None),
    "eval_bound-i": (lambda v: gd.eval_bound(_LU, v, 1), IndexError, "index i", 1, None),
    "eval_bound-j": (lambda v: gd.eval_bound(_LU, 6, v), IndexError, "index j", 1, None),
}


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_every_count_and_index_is_an_integer_in_its_range(argument):
    call, error, name, low, high = INTEGER_ARGUMENTS[argument]
    span = f">= {low}" if high is None else f"in {low}..{high}"
    drawn = argument in ("random_dominant_matrix-n", "random_dominant_matrix-r_lower")
    for value in [2.0, True, "1", *([] if drawn else [None]), low - 1,
                  *([] if high is None else [high + 1])]:
        message = f"{name} must be an integer {span}, got {value!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(value)
    call(np.int64(low))  # a numpy integer is accepted
