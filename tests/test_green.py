import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import greendecay as gd
from conftest import a_block, q_block
from greendecay.green import _transitions

RNG = np.random.default_rng(99)


def random_generators(n, r, rng=RNG, f_scale=1.0):
    """A syntactically valid generator family with random small blocks."""
    p_rows = rng.uniform(-1, 1, (n - r, r))
    bottom = rng.uniform(-1, 1, (r, r))
    f = f_scale * rng.uniform(-1, 1, (n - r, r))
    return gd.GreenGenerators(p_rows, bottom, f)


def transition_product(gens, i, j):
    """Definition-level reference: a(i-1) a(i-2) ... a(j+1), I when j >= i-1."""
    top = gens.n - gens.r + 1
    if not (0 <= i <= top and 0 <= j <= top):
        raise IndexError(f"block indices ({i}, {j}) outside 0..{top}")
    out = np.eye(gens.r)
    for k in range(j + 1, i):
        out = a_block(gens, k) @ out
    return out


def green_block_entry(gens, i, j):
    """Definition-level reference: p(i) a(i-1)...a(j+1) q(j), 0 <= j < i <= N-r+1."""
    top = gens.n - gens.r + 1
    if not (0 <= j < i <= top):
        raise gd.RegionError(
            f"block ({i}, {j}) is not in the strictly lower block region"
        )
    return gens.p(i) @ transition_product(gens, i, j) @ q_block(gens, j)


def block_sizes(g):
    """Row and column block sizes (blocks 0 .. N-r+1) read off the generators."""
    top = g.n - g.r + 1
    rows = [0] + [g.p(i).shape[0] for i in range(1, top + 1)]
    cols = [q_block(g, j).shape[1] for j in range(top)] + [0]
    return rows, cols


class TestBlockScheme:
    def test_order_one(self):
        assert block_sizes(random_generators(5, 1)) == ([0, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 0])

    def test_order_three(self):
        assert block_sizes(random_generators(7, 3)) == ([0, 1, 1, 1, 1, 3], [3, 1, 1, 1, 1, 0])

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_sizes_sum_to_n(self, r):
        rows, cols = block_sizes(random_generators(r + 4, r))
        assert len(rows) == 6  # blocks 0 .. n - r + 1
        assert sum(rows) == sum(cols) == r + 4

    def test_rejects_n_not_larger_than_r(self):
        with pytest.raises(ValueError):
            gd.GreenGenerators(np.zeros((0, 3)), np.eye(3), np.zeros((0, 3)))


class TestGeneratorContainer:
    def test_holds_three_stacked_arrays(self):
        assert [f.name for f in dataclasses.fields(gd.GreenGenerators)] == [
            "p_rows", "bottom", "f"
        ]

    def test_rejects_wrong_shapes(self):
        n, r = 5, 2
        good = (np.zeros((n - r, r)), np.zeros((r, r)), np.zeros((n - r, r)))
        for idx, bad in enumerate(
            (np.zeros((n - r, r + 1)), np.zeros((r, r + 1)), np.zeros((n - r, r, 1)))
        ):
            args = list(good)
            args[idx] = bad
            with pytest.raises(ValueError, match="shape"):
                gd.GreenGenerators(*args)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        n, r = 5, 2
        good = [np.zeros((n - r, r)), np.eye(r), np.zeros((n - r, r))]
        for idx in range(3):
            args = [arr.copy() for arr in good]
            args[idx].flat[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                gd.GreenGenerators(*args)

    def test_accessors_are_read_only_views_of_copies(self):
        p_rows = RNG.uniform(-1, 1, (4, 2))
        f = RNG.uniform(-1, 1, (4, 2))
        g = gd.GreenGenerators(p_rows, np.eye(2), f)
        p_rows[0, 0] = f[3, 0] = 7.0  # the container holds its own copies
        assert g.p(1)[0, 0] != 7.0 and g.f[3, 0] != 7.0
        for block, stack in ((g.p(2), g.p_rows), (g.p(5), g.bottom)):
            assert np.shares_memory(block, stack)
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g.f[0, 0] = 1.0
        assert g.p(2).shape == (1, 2)

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_companion_blocks_bit_for_bit(self, r):
        # a(k) is the upper shift J with column 0 replaced by -f_k (as
        # 0.0 - f_k, which is the same bits up to the sign of a zero)
        f = RNG.uniform(-1, 1, (6, r))
        f[0] = 0.0
        stack = _transitions(f)
        assert stack.shape == (6, r, r)
        for k in range(1, 7):
            want = np.eye(r, k=1)
            want[:, 0] = 0.0 - f[k - 1]
            got = stack[k - 1]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_index_ranges(self):
        g = random_generators(6, 2)
        with pytest.raises(IndexError):
            g.p(0)


class TestTransitionProduct:
    def test_empty_product_is_identity(self):
        g = random_generators(8, 3)
        for i in range(0, 6):
            np.testing.assert_array_equal(transition_product(g, i, i), np.eye(3))
            if i >= 1:
                np.testing.assert_array_equal(
                    transition_product(g, i, i - 1), np.eye(3)
                )

    def test_two_factor_product(self):
        g = random_generators(8, 2)
        np.testing.assert_allclose(
            transition_product(g, 3, 0), a_block(g, 2) @ a_block(g, 1), rtol=1e-15
        )

    def test_zero_multipliers_give_the_nilpotent_shift(self):
        # with f = 0 every a(k) is J, and r of them multiply to J^r = 0
        g = random_generators(7, 2, f_scale=0.0)
        np.testing.assert_array_equal(transition_product(g, 3, 1), np.eye(2, k=1))
        assert np.all(transition_product(g, 4, 1) == 0.0)

    def test_semigroup_property(self):
        # the product over (j, i) splits at any interior k once the boundary
        # convention is respected: T(i, j) == T(i, k) @ T(k+1, j)
        g = random_generators(10, 3)
        top = g.n - g.r + 1
        for j in range(0, top - 2):
            for k in range(j, top - 1):
                for i in range(k + 1, top + 1):
                    left = transition_product(g, i, k) @ transition_product(
                        g, k + 1, j
                    )
                    np.testing.assert_allclose(
                        left, transition_product(g, i, j), rtol=1e-12, atol=1e-14
                    )

    def test_norm_decay_for_dominant_generators(self, small_ensemble):
        # |a(i-1)...a(j+1)|_1 <= gamma^(i-j-r) with gamma = mu^(1/r)
        for A in small_ensemble[:6]:
            gens = gd.inverse_green_generators(A)
            mu = gd.dominance_mu(A).mu
            gamma = mu ** (1.0 / A.r_lower)
            top = gens.n - gens.r + 1
            for j in range(0, top, 3):
                for i in range(j + gens.r, top + 1, 2):
                    norm = np.abs(transition_product(gens, i, j)).sum(axis=0).max()
                    assert norm <= gamma ** (i - j - gens.r) + 1e-12


class TestBlockEntries:
    def test_first_subdiagonal_block(self):
        g = random_generators(7, 2)
        np.testing.assert_allclose(green_block_entry(g, 2, 1), g.p(2) @ q_block(g, 1))

    def test_first_column_block_uses_identity_q(self):
        g = random_generators(7, 2)
        np.testing.assert_allclose(green_block_entry(g, 2, 0), g.p(2) @ a_block(g, 1))

    def test_two_by_two_inverse_block(self, lower2x2):
        gens = gd.inverse_green_generators(lower2x2)
        np.testing.assert_allclose(green_block_entry(gens, 2, 0), [[-0.25]])

    @pytest.mark.parametrize("i,j", [(1, 1), (0, 0), (2, 3)])
    def test_rejects_outside_strict_lower_region(self, i, j):
        g = random_generators(7, 2)
        with pytest.raises((gd.RegionError, IndexError)):
            green_block_entry(g, i, j)


class TestScalarEntries:
    def test_two_by_two_values(self, lower2x2):
        gens = gd.inverse_green_generators(lower2x2)
        assert gd.green_scalar_entry(gens, 2, 1) == pytest.approx(-0.25, abs=1e-15)
        assert gd.green_scalar_entry(gens, 1, 1) == pytest.approx(0.5, abs=1e-15)
        assert gd.green_scalar_entry(gens, 2, 2) == pytest.approx(0.5, abs=1e-15)

    def test_diagonal_matrix_entry(self):
        A = gd.from_dense(2.0 * np.eye(4))
        gens = gd.inverse_green_generators(A)
        assert gd.green_scalar_entry(gens, 1, 1) == pytest.approx(0.5, abs=1e-15)

    def test_ex1a_matches_reference_inverse(self, ex1a_matrix):
        gens = gd.inverse_green_generators(ex1a_matrix)
        inv = gd.dense_inverse(ex1a_matrix.to_dense())
        assert gd.green_scalar_entry(gens, 1, 1) == pytest.approx(inv[0, 0], abs=1e-10)
        assert gd.green_scalar_entry(gens, 30, 5) == pytest.approx(inv[29, 4], abs=1e-10)
        assert gd.green_scalar_entry(gens, 10, 12) == pytest.approx(inv[9, 11], abs=1e-10)

    def test_region_boundary(self, ex1a_matrix):
        gens = gd.inverse_green_generators(ex1a_matrix)
        r = ex1a_matrix.r_lower
        gd.green_scalar_entry(gens, 10, 10 + r - 1)  # inside
        with pytest.raises(gd.RegionError):
            gd.green_scalar_entry(gens, 10, 10 + r)  # block-diagonal, not encoded
        with pytest.raises(IndexError, match=r"^indices \(0, 1\) outside 1\.\.50$"):
            gd.green_scalar_entry(gens, 0, 1)
        with pytest.raises(IndexError, match=r"^p index 0 outside 1\.\.48$"):
            gens.p(0)
        for i in (True, 2.0, None):
            with pytest.raises(IndexError, match=rf"^indices must be integers, got \({i!r}, 1\)$"):
                gd.green_scalar_entry(gens, i, 1)
            with pytest.raises(IndexError, match=rf"^indices must be integers, got \(2, {i!r}\)$"):
                gd.green_scalar_entry(gens, 2, i)
            with pytest.raises(IndexError, match=rf"^p index must be an integer, got {i!r}$"):
                gens.p(i)

    # Worst measured |gen - inv| / (M gamma^(i-j)): 4.0e-19 by scalar entries
    # and 2.7e-19 by reconstruction, both on ex5 (4.1e-22 on ex1a). Zeroing
    # the entries below 1e-12 max|A^{-1}| reads 1.7e-8 to 8.9e-4 on ex1a-ex2
    # and ex5; on ex4a/ex4b the envelope is 1e34 times the entries, so no
    # envelope-scaled limit can see them.
    FAR_TOL = 1e-16

    @pytest.mark.parametrize("name", [n for n in gd.EXPERIMENT_NAMES if n != "ex3"])
    def test_entries_far_below_the_diagonal(self, name):
        # the entries the paper bounds, i - j >= N/2, which normwise checks
        # cannot see, by both evaluators; ex3 needs an input file
        A = gd.generate(gd.ExperimentSpec(name, seed=7))
        gens = gd.inverse_green_generators(A)
        b = gd.lu_bound(A)
        inv = gd.dense_inverse(A.to_dense())
        n = A.n
        values, _ = gd.reconstruct_lower(gens)
        far = [(i, j) for i in range(1, n + 1) for j in range(1, i - (n + 1) // 2 + 1)]
        assert len(far) >= n
        for i, j in far:
            limit = self.FAR_TOL * b.M * b.gamma ** (i - j)
            assert abs(gd.green_scalar_entry(gens, i, j) - inv[i - 1, j - 1]) <= limit, (i, j)
            assert abs(values[i - 1, j - 1] - inv[i - 1, j - 1]) <= limit, (i, j)


def block_position(gens, i, j):
    """Block row and column of scalar (i, j), and its row and column inside the block."""
    top = gens.n - gens.r + 1
    bi, row = (i, 0) if i < top else (top, i - top)
    bj, col = (0, j - 1) if j <= gens.r else (j - gens.r, 0)
    return bi, bj, row, col


def sequential_walk(gens, i, j, absolute=False):
    """p a(bi-1) ... a(bj+1) q(bj) for scalar (i, j), one factor at a time.

    With ``absolute`` every factor is replaced by its absolute value, which
    gives |p||a|...|a||q|, the scale of the rounding error of any order.
    """
    mag = np.abs if absolute else (lambda x: x)
    bi, bj, row, col = block_position(gens, i, j)
    v = mag(gens.p(bi)[row])
    for k in range(bi - 1, bj, -1):
        v = v @ mag(a_block(gens, k))
    return float((v @ mag(q_block(gens, bj)))[col])


class TestPairwiseWalk:
    # chain lengths L = bi - 1 - bj around the powers of two, where the
    # pairing changes between odd and even levels
    LENGTHS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33)

    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_every_entry_against_the_block_definition(self, r):
        # N = r + 37: chains up to L = 37, with rows in the bottom block
        # (i > N - r) and columns in block column 0 (j <= r) for each length
        n = r + 37
        gens = random_generators(n, r, np.random.default_rng(r), f_scale=1.0 / r)
        seen = {"interior": set(), "bottom": set(), "first_columns": set()}
        for i in range(1, n + 1):
            for j in range(1, min(n, i + r - 1) + 1):
                bi, bj, row, col = block_position(gens, i, j)
                length = bi - 1 - bj
                if i > n - r:
                    seen["bottom"].add(length)
                if bj == 0:
                    seen["first_columns"].add(length)
                if i <= n - r and bj > 0:
                    seen["interior"].add(length)
                ref = green_block_entry(gens, bi, bj)[row, col]
                assert gd.green_scalar_entry(gens, i, j) == pytest.approx(
                    ref, rel=1e-12, abs=1e-15
                ), (i, j)
        for kind, lengths in seen.items():
            assert set(self.LENGTHS) <= lengths, kind

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(
        r=st.integers(1, 6),
        length=st.one_of(st.sampled_from(LENGTHS), st.integers(0, 80)),
        mu=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
        bottom=st.booleans(),
        first_columns=st.booleans(),
    )
    def test_rounding_within_the_componentwise_bound(
        self, r, length, mu, seed, bottom, first_columns
    ):
        # random multipliers with |f_k|_1 <= mu < 1, so |a(k)|_1 <= 1: the
        # pairwise walk and the one-at-a-time walk both round within a small
        # multiple of L u |p||a|...|a||q| of the exact entry (worst measured
        # difference: 0.17 of this limit over 4000 draws)
        assume(length or not (bottom and first_columns))  # that needs N = r
        rng = np.random.default_rng(seed)
        bj = 0 if first_columns else int(rng.integers(1, 4))
        bi = bj + 1 + length
        n = bi + r - 1 if bottom else bi + r + 1  # bi = N - r + 1 or bi < N - r
        f = rng.uniform(-1, 1, (n - r, r))
        f *= mu * rng.uniform(0, 1, (n - r, 1)) / np.abs(f).sum(axis=1, keepdims=True)
        gens = gd.GreenGenerators(rng.uniform(-1, 1, (n - r, r)), rng.uniform(-1, 1, (r, r)), f)
        i = bi + int(rng.integers(r)) if bottom else bi
        j = int(rng.integers(1, r + 1)) if bj == 0 else bj + r
        assert block_position(gens, i, j)[:2] == (bi, bj)
        u = np.finfo(float).eps / 2
        limit = 4 * length * u * sequential_walk(gens, i, j, absolute=True)
        assert abs(gd.green_scalar_entry(gens, i, j) - sequential_walk(gens, i, j)) <= limit

    def test_long_chain_holds_one_chunk(self):
        # entry (N, 1) at N = 10^5, r = 4 walks all N - r transitions, 98
        # chunks of them; each f_k is close to -e_1 (|f_k|_1 <= 1), so the
        # entry decays only to ~exp(-0.4) and the comparison sees real values
        n, r = 10**5, 4
        rng = np.random.default_rng(5)
        f = 1e-6 * rng.uniform(-1, 1, (n - r, r))
        f[:, 0] -= 1 - 4e-6
        gens = gd.GreenGenerators(rng.uniform(-1, 1, (n - r, r)), rng.uniform(-1, 1, (r, r)), f)
        tracemalloc.start()
        try:
            value = gd.green_scalar_entry(gens, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one chunk of 1024 r x r transitions is 128 KiB
        u = np.finfo(float).eps / 2
        limit = 4 * (n - r) * u * sequential_walk(gens, n, 1, absolute=True)
        assert abs(value - sequential_walk(gens, n, 1)) <= limit
        assert abs(value) > 0.1


class TestReconstruction:
    def test_two_by_two_full_agreement(self, lower2x2):
        gens = gd.inverse_green_generators(lower2x2)
        values, mask = gd.reconstruct_lower(gens)
        np.testing.assert_array_equal(mask, [[True, False], [True, True]])
        # the masked-out (1,2) entry is zero in the true inverse as well, so
        # the zero-filled reconstruction equals it entrywise
        np.testing.assert_allclose(values, np.linalg.inv(lower2x2.to_dense()), atol=1e-15)

    def test_diagonal_matrix_reciprocals(self):
        d = np.array([2.0, 4.0, 5.0, 8.0])
        gens = gd.inverse_green_generators(gd.from_dense(np.diag(d)))
        values, mask = gd.reconstruct_lower(gens)
        np.testing.assert_allclose(np.diag(values), 1.0 / d, rtol=1e-15)
        assert np.all(values[~mask] == 0.0)

    def test_mask_is_the_represented_region(self):
        gens = random_generators(9, 3)
        _, mask = gd.reconstruct_lower(gens)
        ii = np.arange(1, 10)
        np.testing.assert_array_equal(mask, np.subtract.outer(ii, ii) >= 1 - 3)

    def test_ex1a_against_reference_inverse(self, ex1a_matrix):
        gens = gd.inverse_green_generators(ex1a_matrix)
        values, mask = gd.reconstruct_lower(gens)
        inv = gd.dense_inverse(ex1a_matrix.to_dense())
        assert np.abs(values - inv)[mask].max() <= 1e-10

    @pytest.mark.parametrize("n,r", [(2, 1), (4, 3), (8, 2), (12, 1), (15, 5)])
    def test_matches_scalar_entry_evaluation(self, n, r):
        # green_block_entry multiplies the definition out block by block and
        # shares no code with the recurrence; the bottom block row included
        gens = random_generators(n, r)
        values, mask = gd.reconstruct_lower(gens)
        tol = 1e-13 * np.abs(values).max()
        top = n - r + 1
        for i in range(1, n + 1):
            bi, row = (i, 0) if i < top else (top, i - top)
            for j in range(1, n + 1):
                if not mask[i - 1, j - 1]:
                    continue
                bj, col = (0, j - 1) if j <= r else (j - r, 0)
                assert values[i - 1, j - 1] == pytest.approx(
                    gd.green_scalar_entry(gens, i, j), rel=1e-12, abs=1e-15
                )
                ref = green_block_entry(gens, bi, bj)[row, col]
                assert abs(values[i - 1, j - 1] - ref) <= tol


class TestDominantGeneratorNorms:
    def test_transition_norms_at_most_one(self, small_ensemble):
        for A in small_ensemble[:8]:
            gens = gd.inverse_green_generators(A)
            for k in range(1, gens.n - gens.r + 1):
                assert np.abs(a_block(gens, k)).sum(axis=0).max() <= 1.0 + 1e-12
