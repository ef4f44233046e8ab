import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimelab.episodes import (
    bucket_stats,
    delta_sensitivity,
    detect_episodes,
)

from conftest import make_price_path
from oracles import brute_force_episodes


def random_walk_closes(rng, n):
    """Integer-step walk: produces exact price ties, flat tops, and repeats."""
    steps = rng.integers(-3, 4, n - 1)
    closes = 100.0 + np.concatenate([[0], np.cumsum(steps)])
    return np.maximum(closes, 1.0)


def episode_triples(episodes):
    return [(e.peak_idx, e.trough_idx, e.recovery_idx) for e in episodes]


class TestDetectEpisodes:
    def test_strictly_increasing_path_empty(self):
        path = make_price_path(np.linspace(100, 200, 50))
        assert detect_episodes(path, 0.05) == []

    def test_constructed_triangle(self, triangle_path):
        eps = detect_episodes(triangle_path, 0.05)
        assert len(eps) == 1
        e = eps[0]
        assert e.depth == pytest.approx(0.30)
        assert e.retention == pytest.approx(0.70)
        assert (e.t_dd, e.t_rec) == (50, 150)
        assert e.tau == pytest.approx(3.0)
        assert not e.censored

    def test_flat_top_peak_is_last_attaining_index(self):
        closes = [100, 100, 100, 90, 100]
        eps = detect_episodes(make_price_path(closes), 0.05)
        assert episode_triples(eps) == [(2, 3, 4)]
        assert eps[0].t_dd == 1

    def test_trough_tie_takes_first_minimum(self):
        closes = [100, 90, 85, 85, 85, 95, 101]
        eps = detect_episodes(make_price_path(closes), 0.05)
        assert eps[0].trough_idx == 2

    @pytest.mark.parametrize("closes,triples", [
        # the minimum ties at the first and the last interior index
        ([100, 80, 90, 80, 101], [(0, 1, 4)]),
        # adjacent deep intervals; the second's minimum (85) ties at both of its
        # ends and also occurs in the first, ahead of the first's own minimum
        ([100, 85, 80, 85, 101, 85, 90, 85, 102], [(0, 2, 4), (4, 5, 8)]),
    ])
    def test_trough_search_stays_in_its_interval(self, closes, triples):
        eps = detect_episodes(make_price_path(closes), 0.05)
        assert episode_triples(eps) == triples == brute_force_episodes(closes, 0.05)

    def test_recovery_weak_inequality(self):
        closes = [100, 90, 100, 120]  # exact regain closes the episode
        eps = detect_episodes(make_price_path(closes), 0.05)
        assert episode_triples(eps) == [(0, 1, 2)]

    def test_shallow_dip_discarded(self):
        closes = [100, 98, 101, 60, 102]
        eps = detect_episodes(make_price_path(closes), 0.05)
        assert episode_triples(eps) == [(2, 3, 4)]
        assert eps[0].depth == pytest.approx(1 - 60 / 101)

    @pytest.mark.parametrize(
        "closes, censored",
        [
            pytest.param([100, 105, 100, 80, 85], (1, 3, None), id="trough_inside_tail"),
            pytest.param([100, 105, 100, 90, 80], (1, 4, None), id="last_close_is_trough"),
            pytest.param([100, 105, 90, 80, 95, 80, 85], (1, 3, None), id="tied_tail_min"),
            pytest.param([100, 90, 80, 85], (0, 2, None), id="falls_from_start"),
            pytest.param([100, 105, 90, 80, 105], None, id="last_close_regains_high"),
            pytest.param([100, 110, 80, 111, 108, 107], None, id="tail_shallower_than_delta"),
        ],
    )
    def test_censored_tail_emitted_only_on_request(self, closes, censored):
        path = make_price_path(closes)
        closes = np.asarray(closes, float)
        completed = detect_episodes(path, 0.05)
        assert not any(e.censored for e in completed)
        assert episode_triples(completed) == brute_force_episodes(closes, 0.05)
        eps = detect_episodes(path, 0.05, allow_censored=True)
        assert episode_triples(eps) == brute_force_episodes(closes, 0.05, True)
        assert eps[: len(completed)] == completed
        tail = eps[len(completed) :]
        assert episode_triples(tail) == ([censored] if censored else [])
        for e in tail:
            p, t = e.peak_idx, e.trough_idx
            assert e.censored and e.t_rec is None and e.tau is None
            assert e.depth == 1.0 - closes[t] / closes[p]
            assert e.retention == closes[t] / closes[p]
            assert e.t_dd == t - p

    def test_nested_drawdown_not_split(self):
        # secondary slump inside an open episode never opens a new one
        closes = [100, 80, 90, 70, 95, 101]
        eps = detect_episodes(make_price_path(closes), 0.05)
        assert episode_triples(eps) == [(0, 3, 5)]

    def test_matches_brute_force_on_tied_walks(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            closes = random_walk_closes(rng, int(rng.integers(10, 200)))
            for delta in (0.01, 0.03, 0.05):
                fast = episode_triples(detect_episodes(make_price_path(closes), delta, True))
                assert fast == brute_force_episodes(closes, delta, True)

    @given(st.lists(st.floats(min_value=10.0, max_value=1000.0), min_size=3, max_size=120))
    @settings(max_examples=60)
    def test_matches_brute_force_on_arbitrary_floats(self, closes):
        closes = np.array(closes)
        fast = episode_triples(detect_episodes(make_price_path(closes), 0.05, True))
        assert fast == brute_force_episodes(closes, 0.05, True)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_invariants_on_random_walks(self, seed):
        rng = np.random.default_rng(seed)
        closes = random_walk_closes(rng, 150)
        eps = detect_episodes(make_price_path(closes), 0.04, allow_censored=True)
        prev_end = -1
        for e in eps:
            assert e.peak_idx < e.trough_idx
            assert e.peak_idx >= prev_end  # disjoint and ordered (recovery may seed next peak)
            assert closes[e.peak_idx] == closes[: e.peak_idx + 1].max()
            assert e.depth >= 0.04
            assert 0 < e.retention < 1
            lo = e.trough_idx if e.censored else e.recovery_idx
            if not e.censored:
                assert closes[e.recovery_idx] >= closes[e.peak_idx]
                interior = closes[e.peak_idx + 1 : e.recovery_idx]
                assert np.all(interior < closes[e.peak_idx])
                assert closes[e.trough_idx] == interior.min()
            prev_end = lo

    def test_delta_monotonicity_setwise(self):
        rng = np.random.default_rng(77)
        closes = random_walk_closes(rng, 400)
        path = make_price_path(closes)
        small = set(episode_triples(detect_episodes(path, 0.03)))
        large = set(episode_triples(detect_episodes(path, 0.05)))
        assert large <= small


class TestBucketStats:
    def test_single_episode_degenerate_ci(self):
        # one episode with tau = 2: every resample is that episode, CI collapses
        down = np.linspace(100, 80, 11)
        up = np.linspace(80, 100, 21)
        eps = detect_episodes(make_price_path(np.concatenate([down, up[1:]])), 0.05)
        assert len(eps) == 1 and eps[0].tau == pytest.approx(2.0)
        rows = bucket_stats(eps, bootstrap_B=500, seed=4)
        all_row = rows[-1]
        assert all_row.median_tau == pytest.approx(2.0)
        assert (all_row.ci_low, all_row.ci_high) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_bucket_assignment_edges(self):
        closes = np.concatenate([[100.0], np.linspace(100, 71, 30)[1:], np.linspace(71, 101, 40)[1:]])
        eps = detect_episodes(make_price_path(closes), 0.05)
        assert len(eps) == 1
        rows = bucket_stats(eps, bootstrap_B=200, seed=1)
        by_label = {r.bucket: r for r in rows}
        assert by_label["20-30%"].n == 1
        assert by_label["20-30%"].median_tau == pytest.approx(eps[0].tau)
        assert by_label["20-30%"].ci_low == pytest.approx(eps[0].tau)
        assert by_label["20-30%"].ci_high == pytest.approx(eps[0].tau)
        assert by_label["5-10%"].n == 0
        assert by_label["5-10%"].median_tau is None

    def test_all_row_and_ordering_invariance(self):
        rng = np.random.default_rng(8)
        closes = random_walk_closes(rng, 600)
        eps = detect_episodes(make_price_path(closes), 0.03)
        if len(eps) < 2:
            pytest.skip("walk produced too few episodes")
        a = bucket_stats(eps, bootstrap_B=300, seed=9)
        b = bucket_stats(list(reversed(eps)), bootstrap_B=300, seed=9)
        for ra, rb in zip(a, b):
            assert ra.median_tau == rb.median_tau
            assert ra.n == rb.n
        assert a[-1].bucket == "all"
        assert a[-1].n == len(eps)

    def test_censored_excluded_from_tau(self):
        closes = [100, 105, 100, 80, 85]
        eps = detect_episodes(make_price_path(closes), 0.05, allow_censored=True)
        rows = bucket_stats(eps, bootstrap_B=100, seed=2)
        by_label = {r.bucket: r for r in rows}
        assert by_label["20-30%"].n == 1
        assert by_label["20-30%"].median_tau is None

    def test_empty_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            bucket_stats([])

    @pytest.mark.parametrize("name,value", [("bootstrap_B", 0), ("bootstrap_B", -5)])
    def test_rejects_bootstrap_below_one(self, name, value):
        eps = detect_episodes(make_price_path([100, 90, 101, 80, 102]), 0.05)
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            bucket_stats(eps, **{name: value})


class TestDeltaSensitivity:
    def test_monotone_path_all_zero(self):
        path = make_price_path(np.linspace(50, 80, 40))
        rows = delta_sensitivity(path)
        assert [r["n_episodes"] for r in rows] == [0, 0, 0]

    def test_counts_monotone_in_delta(self):
        rng = np.random.default_rng(123)
        closes = random_walk_closes(rng, 800)
        rows = delta_sensitivity(make_price_path(closes))
        counts = [r["n_episodes"] for r in rows]
        assert counts == sorted(counts, reverse=True)
