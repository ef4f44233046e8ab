import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import percentile_ci_median_reference, stationary_block_indices_reference
from regimelab.resample import (RESAMPLE_BLOCK, derive_rng, median, percentile_ci_median, quantile,
                                stationary_block_cumsum)


def walk_indices(n, mean_block, rng, length=None):
    """The indices of stationary_block_cumsum's walk of `length` (default n)
    over n: its running sum over 0, 1, ..., n - 1, differenced. Every partial
    sum is an integer below 2^53, so each is exact, and so is each index."""
    out = np.empty(n if length is None else length)
    stationary_block_cumsum(np.arange(n, dtype=float), mean_block, rng, out)
    return np.diff(out, prepend=0.0).astype(np.int64)


def run_lengths(idx, n):
    """Observed lengths of maximal consecutive (mod n) stretches."""
    breaks = np.flatnonzero(np.diff(idx) % n != 1)
    edges = np.concatenate([[-1], breaks, [idx.size - 1]])
    return np.diff(edges)


class TestStationaryBlockIndices:
    def test_mean_block_one_is_iid(self):
        rng = np.random.default_rng(1)
        n = 2000
        idx = walk_indices(n, 1, rng)
        assert idx.size == n
        assert idx.min() >= 0 and idx.max() < n
        # restarts every step: consecutive runs almost never form
        cont_frac = np.mean(np.diff(idx) % n == 1)
        assert cont_frac < 0.01
        assert abs(idx.mean() - (n - 1) / 2) < 3 * n / np.sqrt(12 * n)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_output_length_and_range(self, n, mean_block, seed):
        idx = walk_indices(n, mean_block, np.random.default_rng(seed))
        assert idx.size == n
        assert idx.min() >= 0 and idx.max() < n

    def test_mean_block_exceeding_n(self):
        idx = walk_indices(10, 50, np.random.default_rng(3))
        assert idx.size == 10

    def test_wraparound_is_circular(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            idx = walk_indices(200, 120, rng)
            jumps = np.diff(idx) % 200
            assert set(np.unique(jumps)) <= set(range(200))  # all moves stay on the ring

    def test_mean_run_length_63(self):
        # ~10,000 blocks at mean length 63
        total = []
        for i in range(10):
            rng = derive_rng(63, i)
            idx = walk_indices(63_000, 63, rng)
            total.extend(run_lengths(idx, 63_000))
        mean_len = float(np.mean(total))
        assert 60.0 <= mean_len <= 66.0

    def test_deterministic_given_seed(self):
        a = walk_indices(500, 20, np.random.default_rng(42))
        b = walk_indices(500, 20, np.random.default_rng(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 5, 70, 2519, 19169])
    @pytest.mark.parametrize("mean_block", [1, 3, 63, "n + 7"])
    def test_matches_reference(self, n, mean_block):
        # same indices, and the generator left where the reference leaves it
        mean_block = n + 7 if mean_block == "n + 7" else mean_block
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            idx = walk_indices(n, mean_block, rng)
            assert np.array_equal(idx, stationary_block_indices_reference(n, mean_block, ref_rng))
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n,length", [(1, 5), (3, 40), (70, 69), (70, 700), (398, 699), (19_169, 2_519)])
    def test_other_length(self, n, length):
        # every position is on the ring, and within a block consecutive positions step by 1 mod n
        for seed in range(5):
            idx = walk_indices(n, 20, np.random.default_rng(seed), length=length)
            assert idx.size == length
            assert idx.min() >= 0 and idx.max() < n
            rng = np.random.default_rng(seed)
            restart = np.concatenate(([True], rng.random(length - 1) < 1.0 / 20))
            starts = rng.integers(0, n, size=int(restart.sum()))
            assert np.array_equal(idx[restart], starts)
            assert np.array_equal(idx[1:][~restart[1:]], (idx[:-1][~restart[1:]] + 1) % n)


class TestPercentileCiMedian:
    def test_constant_values(self):
        lo, hi = percentile_ci_median(np.full(30, 5.5), B=200, rng=np.random.default_rng(0))
        assert (lo, hi) == (5.5, 5.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=80),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_brackets_sample_median(self, values, seed):
        values = np.array(values)
        lo, hi = percentile_ci_median(values, B=299, rng=np.random.default_rng(seed))
        med = float(np.median(values))
        assert lo <= med <= hi

    def test_deterministic_given_seed(self):
        values = np.random.default_rng(5).exponential(1.0, 40)
        a = percentile_ci_median(values, B=500, rng=np.random.default_rng(7))
        b = percentile_ci_median(values, B=500, rng=np.random.default_rng(7))
        assert a == b

    def test_coverage_for_exponential_median(self):
        true_median = np.log(2.0)
        hits = 0
        reps = 1000
        for i in range(reps):
            rng = derive_rng(202, i)
            sample = rng.exponential(1.0, 50)
            lo, hi = percentile_ci_median(sample, B=300, rng=rng)
            if lo <= true_median <= hi:
                hits += 1
        assert 0.90 <= hits / reps <= 0.98

    def test_empty_values(self):
        with pytest.raises(ValueError, match="non-empty"):
            percentile_ci_median(np.array([]), B=10, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("B", [0, -3])
    def test_rejects_B_below_one(self, B):
        with pytest.raises(ValueError, match="B must be >= 1"):
            percentile_ci_median(np.array([1.0, 2.0]), B=B, rng=np.random.default_rng(0))

    @staticmethod
    def _assert_matches_reference(n, B, ties=False):
        # the blocked draws equal one (B, n) draw, and leave the generator where that leaves it
        gen = np.random.default_rng(n)
        values = gen.integers(0, 4, n).astype(float) if ties else gen.exponential(1.0, n)
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert percentile_ci_median(values, B, rng) == percentile_ci_median_reference(values, B, ref_rng)
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n", [1, 2, 70])
    @pytest.mark.parametrize("B", [1, 10_000])
    def test_matches_one_shot_reference(self, n, B):
        self._assert_matches_reference(n, B)

    @pytest.mark.parametrize("n", [1, 2, 70, RESAMPLE_BLOCK + 1])
    @pytest.mark.parametrize("extra_rows", [-1, 0, 1, 2])
    def test_matches_one_shot_reference_at_block_edges(self, n, extra_rows):
        # B one row short of a block, one block, one row over; above RESAMPLE_BLOCK a block is one row
        rows = max(1, RESAMPLE_BLOCK // n)
        self._assert_matches_reference(n, max(1, rows + extra_rows))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 69, 70])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_one_shot_reference_at_odd_and_even_n(self, n, ties):
        # each resample's median is its sorted row's middle value, or its two middle values halved;
        # B is two blocks of rows and three rows over
        self._assert_matches_reference(n, 2 * max(1, RESAMPLE_BLOCK // n) + 3, ties)

    def test_nan_value_matches_reference(self):
        # one NaN in 70: no sorted row holds it in the middle, but each row that drew it has a NaN median
        x = np.random.default_rng(4).exponential(1.0, 70)
        x[10] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = percentile_ci_median_reference(x, 500, np.random.default_rng(0))
        got = percentile_ci_median(x, 500, np.random.default_rng(0))
        assert np.isnan(want).all() and np.isnan(got).all()

    def test_memory_does_not_grow_with_B(self):
        # one (B, n) resample matrix would take three 112 MB temporaries here
        B = 200_000
        values = np.random.default_rng(2).exponential(1.0, 70)
        tracemalloc.start()
        try:
            percentile_ci_median(values, B, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * B + 4_000_000


def bits(x):
    """The float64 bit pattern of x, so that -0.0 and 0.0 differ."""
    return np.float64(x).view(np.int64)


class TestMedianQuantileAgainstNumpy:
    """median and quantile equal np.median, np.quantile and np.percentile bit
    for bit, at every q regimelab asks for and at the ends."""

    QS = (0.0, 1.0, 0.9, 0.95, 1 - 0.1, 5 / 100, 95 / 100, 2.500000000000002 / 100)
    PS = (5.0, 95.0, 2.500000000000002, 100.0 - 2.500000000000002)  # np.percentile's callers, in percent

    @staticmethod
    def draw(kind, rng):
        n = int(rng.integers(1, 201))
        if kind == "normal":
            return rng.standard_normal(n)
        if kind == "ties":  # integer values, so most arrays repeat some
            return rng.integers(-5, 6, n).astype(float)
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 5, n)  # ten orders of magnitude

    @pytest.mark.parametrize("kind", ["normal", "ties", "magnitudes"])
    def test_equal_numpy(self, kind):
        rng = np.random.default_rng(["normal", "ties", "magnitudes"].index(kind))
        for _ in range(3_400):
            x = self.draw(kind, rng)
            assert bits(median(x)) == bits(np.median(x))
            assert [bits(quantile(x, q)) for q in self.QS] == list(bits(np.quantile(x, self.QS)))
            assert [bits(quantile(x, p / 100)) for p in self.PS] == list(bits(np.percentile(x, self.PS)))

    def test_scalar_q_and_lists(self):
        # regime.classify asks for one quantile at a float q; the helpers take lists too
        x = [3.0, 1.0, 2.0, 10.0]
        assert quantile(x, 1.0 - 0.10) == float(np.quantile(x, 1.0 - 0.10))
        assert median(x) == 2.5 and median([4.0]) == 4.0

    def test_nan_gives_nan(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            x = rng.standard_normal(int(rng.integers(1, 60)))
            x[rng.integers(0, x.size, int(rng.integers(1, x.size + 1)))] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want_median, want_q = np.median(x), np.quantile(x, self.QS)
            assert np.isnan(want_median) and np.isnan(median(x))
            assert np.isnan(want_q).all() and all(np.isnan(quantile(x, q)) for q in self.QS)


class TestDeriveRng:
    def test_independent_of_call_order(self):
        a5 = derive_rng(9, 5).standard_normal(4)
        _ = derive_rng(9, 0).standard_normal(100)
        b5 = derive_rng(9, 5).standard_normal(4)
        assert np.array_equal(a5, b5)

    def test_distinct_indices_differ(self):
        a = derive_rng(9, 1).standard_normal(4)
        b = derive_rng(9, 2).standard_normal(4)
        assert not np.array_equal(a, b)
