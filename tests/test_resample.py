import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stationary_block_indices_reference
from regimelab.resample import (
    derive_rng,
    percentile_ci_median,
    stationary_block_indices,
)


def run_lengths(idx, n):
    """Observed lengths of maximal consecutive (mod n) stretches."""
    breaks = np.flatnonzero(np.diff(idx) % n != 1)
    edges = np.concatenate([[-1], breaks, [idx.size - 1]])
    return np.diff(edges)


class TestStationaryBlockIndices:
    def test_mean_block_one_is_iid(self):
        rng = np.random.default_rng(1)
        n = 2000
        idx = stationary_block_indices(n, 1, rng)
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
        idx = stationary_block_indices(n, mean_block, np.random.default_rng(seed))
        assert idx.size == n
        assert idx.min() >= 0 and idx.max() < n

    def test_mean_block_exceeding_n(self):
        idx = stationary_block_indices(10, 50, np.random.default_rng(3))
        assert idx.size == 10

    def test_wraparound_is_circular(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            idx = stationary_block_indices(200, 120, rng)
            jumps = np.diff(idx) % 200
            assert set(np.unique(jumps)) <= set(range(200))  # all moves stay on the ring

    def test_mean_run_length_63(self):
        # ~10,000 blocks at mean length 63
        total = []
        for i in range(10):
            rng = derive_rng(63, i)
            idx = stationary_block_indices(63_000, 63, rng)
            total.extend(run_lengths(idx, 63_000))
        mean_len = float(np.mean(total))
        assert 60.0 <= mean_len <= 66.0

    def test_deterministic_given_seed(self):
        a = stationary_block_indices(500, 20, np.random.default_rng(42))
        b = stationary_block_indices(500, 20, np.random.default_rng(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 5, 70, 2519, 19169])
    @pytest.mark.parametrize("mean_block", [1, 3, 63, "n + 7"])
    def test_matches_reference(self, n, mean_block):
        # same indices, and the generator left where the reference leaves it
        mean_block = n + 7 if mean_block == "n + 7" else mean_block
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            idx = stationary_block_indices(n, mean_block, rng)
            assert np.array_equal(idx, stationary_block_indices_reference(n, mean_block, ref_rng))
            assert rng.random() == ref_rng.random()


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
