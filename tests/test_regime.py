import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regimelab.regime import classify, lag_flags


class TestClassify:
    def test_uniform_grid(self):
        cls = classify(np.arange(1.0, 101.0), q=0.10)
        assert 90.0 < cls.threshold < 91.0
        assert cls.flags.sum() == 10
        assert np.array_equal(np.flatnonzero(cls.flags), np.arange(90, 100))

    def test_all_equal_no_flags(self):
        cls = classify(np.full(50, 3.0), q=0.10)
        assert cls.flags.sum() == 0  # strict inequality at the tie

    def test_flags_match_threshold(self):
        rng = np.random.default_rng(2)
        vol = rng.lognormal(3, 0.4, 200)
        cls = classify(vol, q=0.15)
        assert np.array_equal(cls.flags, (vol > cls.threshold).astype(int))

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=10, max_size=80),
        st.floats(min_value=0.05, max_value=0.45),
        st.floats(min_value=0.05, max_value=0.45),
    )
    def test_monotone_in_q(self, vol, q1, q2):
        vol = np.array(vol)
        lo, hi = sorted((q1, q2))
        assert classify(vol, hi).flags.sum() >= classify(vol, lo).flags.sum()

    def test_bad_q(self):
        with pytest.raises(ValueError, match="q must be"):
            classify(np.arange(20.0), q=1.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 10"):
            classify(np.arange(5.0), q=0.1)


class TestLagFlags:
    def test_basic_shift(self):
        out = lag_flags(np.array([1, 0, 0]), 1)
        assert np.isnan(out[0])
        assert list(out[1:]) == [1.0, 0.0]

    def test_zero_lag_identity(self):
        flags = np.array([0, 1, 1, 0])
        assert np.array_equal(lag_flags(flags, 0), flags.astype(float))

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=50),
           st.integers(min_value=0, max_value=5))
    def test_count_preserved_on_common_support(self, flags, k):
        flags = np.array(flags)
        if k >= flags.size:
            return
        out = lag_flags(flags, k)
        if k == 0:
            assert out.sum() == flags.sum()
        else:
            assert np.nansum(out) == flags[:-k].sum()

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="smaller"):
            lag_flags(np.array([0, 1]), 2)
