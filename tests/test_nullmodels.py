import concurrent.futures.process
import itertools
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regimelab import kernels, nullmodels

from conftest import subprocess_env
from oracles import (
    asym_vol_steps_reference,
    block_walk_reference,
    episode_arrays_reference,
    gbm_steps_reference,
    heston_steps_reference,
    markov_steps_reference,
    stationary_block_indices_reference,
)
from test_resample import walk_indices
from regimelab.episodes import detect_episodes, episode_arrays
from regimelab.nullmodels import (
    DEFAULT_PARAMS,
    DT,
    MODELS,
    AsymVolParams,
    BlockBootstrapParams,
    GbmParams,
    HestonParams,
    MarkovRsParams,
    NullSpec,
    NullStudySummary,
    _asym_vol_path,
    _gbm_path,
    _heston_path,
    _markov_path,
    _run_slice,
    null_studies,
    run_null_studies,
    run_null_study,
    simulate_closes,
    simulate_path,
    usable_cpus,
)
from regimelab.resample import derive_rng, stationary_block_cumsum


class TestSpecValidation:
    def test_zero_paths_rejected(self):
        with pytest.raises(ValueError, match="n_paths"):
            NullSpec("gbm", GbmParams(), n_paths=0)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError, match="n_days"):
            NullSpec("gbm", GbmParams(), n_days=100)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            NullSpec("garch", GbmParams())

    @pytest.mark.parametrize("model,params", [("gbm", HestonParams()), ("heston", GbmParams()),
                                              ("block_bootstrap", None)])
    def test_params_of_another_model(self, model, params):
        # caught when the spec is built, not as an AttributeError inside a pool worker
        kind = DEFAULT_PARAMS[model].__name__
        with pytest.raises(ValueError, match=f"^{model} needs {kind}, got {type(params).__name__}$"):
            NullSpec(model, params)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            NullSpec("gbm", GbmParams(), seed=-1)
        assert NullSpec("gbm", GbmParams(), seed=0).seed == 0

    def test_heston_feller_ratio_recorded(self):
        p = HestonParams()
        assert 2 * p.kappa * p.vbar / p.xi**2 < 1  # the calibration sits below the Feller boundary

    def test_markov_stationary_share(self):
        p = MarkovRsParams()
        assert p.stationary_bull == pytest.approx(0.07 / 0.09)

    @pytest.mark.parametrize("kind", [GbmParams, AsymVolParams, HestonParams, MarkovRsParams])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, kind, bad):
        # a NaN gives NaN closes, which the C scan does not take, or switches Heston's rejection off
        for name in kind.__dataclass_fields__:
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
                kind(**{name: bad})

    @pytest.mark.parametrize("field", ["sigma_bull", "sigma_bear"])
    def test_negative_markov_sigma_rejected(self, field):
        with pytest.raises(ValueError, match="^sigma_bull and sigma_bear must be >= 0$"):
            MarkovRsParams(**{field: -0.01})
        assert getattr(MarkovRsParams(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("field,bad,message", [
        ("eps_v", -1e-12, "eps_v must be >= 0"),
        ("eps_v", -1.0, "eps_v must be >= 0"),
        ("max_zero_frac", -0.01, "max_zero_frac must be in [0, 1]"),
        ("max_zero_frac", 1.01, "max_zero_frac must be in [0, 1]"),
    ])
    def test_heston_rejection_cannot_be_switched_off(self, field, bad, message):
        # the variance is never below zero, so eps_v < 0 would accept every path
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HestonParams(**{field: bad})
        assert HestonParams(eps_v=0.0, max_zero_frac=0.0).eps_v == 0.0
        assert HestonParams(max_zero_frac=1.0).max_zero_frac == 1.0


class TestGbm:
    def test_zero_vol_deterministic(self):
        spec = NullSpec("gbm", GbmParams(sigma=0.0), n_days=400, n_paths=1, seed=5)
        path = simulate_path(spec, 0)
        t = np.arange(400)
        assert np.allclose(path.closes, 100.0 * np.exp(0.08 * t * DT), rtol=1e-10)

    def test_moment_check_full_size(self):
        # per-path annualized stdev of daily log returns, averaged over paths
        spec = NullSpec("gbm", GbmParams(), n_days=19_170, n_paths=1_000, seed=1)
        stds = []
        for i in range(spec.n_paths):
            closes = simulate_path(spec, i).closes
            r = np.diff(np.log(closes))
            stds.append(r.std(ddof=1) * math.sqrt(252))
        assert 0.152 <= float(np.mean(stds)) <= 0.162


class TestPathPlumbing:
    def test_path_independent_of_n_paths(self):
        a = simulate_path(NullSpec("gbm", GbmParams(), n_days=500, n_paths=10, seed=3), 4)
        b = simulate_path(NullSpec("gbm", GbmParams(), n_days=500, n_paths=50, seed=3), 4)
        assert np.array_equal(a.closes, b.closes)

    def test_deterministic_study(self):
        spec = NullSpec("gbm", GbmParams(), n_days=2_000, n_paths=25, seed=11)
        assert run_null_study(spec, 1.35) == run_null_study(spec, 1.35)

    def test_distinct_paths_differ(self):
        spec = NullSpec("gbm", GbmParams(), n_days=500, n_paths=5, seed=3)
        assert not np.array_equal(simulate_path(spec, 0).closes, simulate_path(spec, 1).closes)

    def test_prices_positive_and_dated(self):
        for model, params in [
            ("gbm", GbmParams()),
            ("asym_vol", AsymVolParams()),
            ("heston", HestonParams()),
            ("markov_rs", MarkovRsParams()),
        ]:
            path = simulate_path(NullSpec(model, params, n_days=600, n_paths=1, seed=2), 0)
            assert path.closes.min() > 0
            assert path.closes[0] == 100.0
            assert len(path) == 600


class TestAsymVol:
    def test_vol_responds_to_lagged_return(self):
        # gamma < 0: big down move must raise next-step variance
        p = AsymVolParams()
        spec = NullSpec("asym_vol", p, n_days=5_000, n_paths=1, seed=9)
        r = np.diff(np.log(simulate_path(spec, 0).closes))
        implied_vol = np.clip(p.sigma_base * np.exp(p.gamma_lev * r[:-1]), p.vol_floor, p.vol_cap)
        # reconstructed conditional vol explains the squared step sizes
        corr = np.corrcoef(implied_vol**2 * DT, (r[1:] - r[1:].mean()) ** 2)[0, 1]
        assert corr > 0.05

    def test_clamping_keeps_steps_finite(self):
        p = AsymVolParams(gamma_lev=-50.0)
        path = simulate_path(NullSpec("asym_vol", p, n_days=2_000, n_paths=1, seed=4), 0)
        assert np.all(np.isfinite(path.closes))


class TestHeston:
    def test_variance_nonnegative_every_step(self):
        p = HestonParams()
        rng = derive_rng(1, 0)
        n = 19_169
        z1 = rng.standard_normal(n)
        w = rng.standard_normal(n)
        logp, n_deg = _heston_path(z1, w, DT, p.mu, p.vbar, p.kappa, p.xi, p.rho, p.vbar, p.eps_v)
        z2 = p.rho * z1 + math.sqrt(1 - p.rho**2) * w
        ref_steps, v_used, _ = heston_steps_reference(z1, z2, DT, p.mu, p.vbar, p.kappa, p.xi, p.vbar, p.eps_v)
        _assert_log_path(logp, ref_steps)
        assert v_used.min() >= 0.0 and np.isfinite(logp).all()
        assert n_deg == int(np.sum(v_used <= p.eps_v))

    def test_rejection_plumbing(self):
        # an impossible acceptance bar turns every path into a rejection
        p = HestonParams(eps_v=1.0, max_zero_frac=0.0)
        spec = NullSpec("heston", p, n_days=300, n_paths=1, seed=1)
        assert simulate_path(spec, 0) is None
        with pytest.raises(ValueError, match="rejected"):
            run_null_study(NullSpec("heston", p, n_days=300, n_paths=5, seed=1), 1.35)

    def test_default_calibration_rejects_some_paths(self):
        spec = NullSpec("heston", HestonParams(), n_days=19_170, n_paths=60, seed=1)
        rejected = sum(1 for i in range(60) if simulate_path(spec, i) is None)
        assert 0 < rejected < 60


class TestMarkovRs:
    def test_occupancy_matches_stationary_distribution(self):
        p = MarkovRsParams()
        n = 19_169
        fracs = []
        for i in range(100):
            rng = derive_rng(77, i)
            state0 = 0 if rng.random() < p.stationary_bull else 1
            z = rng.standard_normal(n)
            u = rng.random(n)
            args = (z, u, DT, p.mu_bull, p.sigma_bull, p.stay_bull, p.mu_bear, p.sigma_bear, p.stay_bear, state0)
            ref_steps, n_bull = markov_steps_reference(*args)
            _assert_log_path(_markov_path(*args), ref_steps)
            fracs.append(n_bull / n)
        assert abs(float(np.mean(fracs)) - p.stationary_bull) < 0.02


class TestBlockBootstrap:
    def test_path_rebuilt_from_empirical_steps(self):
        rng = np.random.default_rng(6)
        emp = rng.normal(0, 0.01, 900)
        spec = NullSpec("block_bootstrap", BlockBootstrapParams(returns=emp), n_days=400,
                        n_paths=2, seed=8)
        path = simulate_path(spec, 0)
        steps = np.diff(np.log(path.closes))
        # every simulated step is one of the empirical returns (up to the exp/log round trip)
        nearest = np.min(np.abs(steps[:, None] - emp[None, :]), axis=1)
        assert nearest.max() < 1e-12

    @staticmethod
    def _steps(n_returns, n_days, seed=3):
        emp = np.random.default_rng(n_returns).normal(0, 0.01, n_returns)
        spec = NullSpec("block_bootstrap", BlockBootstrapParams(returns=emp), n_days=n_days,
                        n_paths=1, seed=seed)
        return emp, np.diff(np.log(simulate_closes(spec, 0)))

    @staticmethod
    def _source_index(emp, steps):
        # the empirical return each step was taken from (the returns are distinct)
        return np.argmin(np.abs(steps[:, None] - emp[None, :]), axis=1)

    def test_days_beyond_the_returns(self):
        # 398 returns, 699 steps: blocks wrap around the series, more than once when long
        emp, steps = self._steps(398, 700)
        assert steps.size == 699
        src = self._source_index(emp, steps)
        assert np.abs(steps - emp[src]).max() < 1e-12
        assert np.unique(src).size > 300

    def test_fewer_days_than_returns_draws_from_all(self):
        # 2,519 returns, 399 steps: blocks start anywhere in the series, not only in its first 399
        reached = max(self._source_index(*self._steps(2_519, 400, seed)).max() for seed in range(5))
        assert reached > 398

    def test_days_equal_to_returns_keep_the_circular_draw(self):
        # the block indices of the length-n stationary bootstrap, as before the length was free
        emp = np.random.default_rng(9).normal(0, 0.01, 699)
        spec = NullSpec("block_bootstrap", BlockBootstrapParams(returns=emp), n_days=700, n_paths=3, seed=8)
        for i in range(3):
            want = emp[stationary_block_indices_reference(699, 63, derive_rng(8, i))]
            closes = simulate_closes(spec, i)
            assert np.array_equal(closes[1:], 100.0 * np.exp(np.cumsum(want)))

    def test_requires_returns(self):
        with pytest.raises(ValueError, match="return series"):
            BlockBootstrapParams(returns=np.array([0.01]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_returns(self, bad):
        # a path that walked through it would have non-finite closes from there on
        returns = np.random.default_rng(4).normal(0, 0.01, 2_000)
        returns[5] = bad
        with pytest.raises(ValueError, match="returns must be finite"):
            BlockBootstrapParams(returns=returns)

    @pytest.mark.parametrize("mean_block", [0, 0.5, -3, math.nan])
    def test_rejects_mean_block_below_one_or_nan(self, mean_block):
        with pytest.raises(ValueError, match="mean_block must be >= 1"):
            BlockBootstrapParams(returns=np.full(10, 0.01), mean_block=mean_block)

    def test_strided_returns_are_stored_contiguous(self):
        returns = np.random.default_rng(4).normal(0, 0.01, 2_000)
        params = BlockBootstrapParams(returns=returns[::2])
        assert params.returns.flags.c_contiguous and np.array_equal(params.returns, returns[::2])
        spec = NullSpec("block_bootstrap", params, n_days=400, n_paths=1, seed=2)
        copied = replace(spec, params=BlockBootstrapParams(returns=returns[::2].copy()))
        assert np.array_equal(simulate_closes(spec, 0), simulate_closes(copied, 0))


def _study_spec(model):
    if model == "block_bootstrap":
        params = BlockBootstrapParams(returns=np.random.default_rng(6).normal(3e-4, 0.01, 5_000))
    else:
        params = DEFAULT_PARAMS[model]()
    return NullSpec(model, params, n_days=2_520, n_paths=30, seed=17)


class TestRunNullStudy:
    def test_summary_invariants_small_study(self):
        spec = NullSpec("gbm", GbmParams(), n_days=3_000, n_paths=40, seed=21)
        s = run_null_study(spec, 1.35)
        assert s.q05 <= s.median_tau <= s.q95
        assert 0.0 <= s.p_one_sided <= 1.0
        assert s.n_accepted == 40
        assert s.model == "gbm"

    def test_bad_comparator(self):
        spec = NullSpec("gbm", GbmParams(), n_days=300, n_paths=2, seed=1)
        for comparator in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="comparator must be positive and finite"):
                run_null_study(spec, comparator)

    def test_zero_episode_paths_counted(self):
        # modest drift and vol over 300 days: 3 of 10 paths never complete a 5% episode
        spec = NullSpec("gbm", GbmParams(mu=0.2, sigma=0.1), n_days=300, n_paths=10, seed=3)
        s = run_null_study(spec, 1.35)
        medians = []
        for i in range(spec.n_paths):
            eps = detect_episodes(simulate_path(spec, i), spec.delta)
            if eps:
                medians.append(float(np.median([e.tau for e in eps])))
        assert s.n_accepted == 10
        assert s.n_zero_episode == 10 - len(medians) > 0
        # p counts every accepted path; the median and quantiles only paths with an episode
        assert s.p_one_sided == sum(m >= 1.35 for m in medians) / s.n_accepted
        assert s.median_tau == float(np.median(medians))


    @pytest.mark.parametrize("model", MODELS)
    def test_row_matches_public_api(self, model):
        # the row from simulate_path + detect_episodes + the median of the taus
        spec = _study_spec(model)
        medians, n_rejected, n_zero = [], 0, 0
        for i in range(spec.n_paths):
            path = simulate_path(spec, i)
            if path is None:
                n_rejected += 1
                continue
            eps = detect_episodes(path, spec.delta)
            if not eps:
                n_zero += 1
                continue
            medians.append(float(np.median([e.tau for e in eps])))
        med = np.array(medians)
        q05, q95 = np.percentile(med, [5.0, 95.0])
        n_accepted = spec.n_paths - n_rejected
        want = NullStudySummary(
            model=model,
            n_accepted=n_accepted,
            n_zero_episode=n_zero,
            median_tau=float(np.median(med)),
            q05=float(q05),
            q95=float(q95),
            p_one_sided=float(np.sum(med >= 1.35) / n_accepted),
            comparator=1.35,
        ).row()
        assert run_null_study(spec, 1.35).row() == want


class TestWorkers:
    """Path i depends on (seed, i) only, whatever process or slice runs it."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The number of processes of each pool started."""
        executor, started = concurrent.futures.process.ProcessPoolExecutor, []

        def counted(max_workers, **kwargs):
            started.append(max_workers)
            return executor(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", counted)
        return started

    @pytest.fixture
    def any_size(self, monkeypatch):
        monkeypatch.setattr(nullmodels, "STEPS_PER_PROCESS", 1)  # a pool, however small the study set

    @pytest.fixture
    def cpus(self, monkeypatch):
        """cpus(n): the studies see n usable CPUs, whatever CPUs this test may use."""
        return lambda n: monkeypatch.setattr(nullmodels, "usable_cpus", lambda: n)

    @pytest.mark.parametrize("model", MODELS)
    def test_row_same_for_every_worker_count(self, model, any_size, pools, cpus):
        spec = _study_spec(model)
        cpus(1)
        want = run_null_study(spec, 1.35).row()
        cpus(2)
        assert run_null_study(spec, 1.35).row() == want
        assert pools == [2]

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("size", [1, 7, 30])
    def test_slices_join_to_one_pass(self, model, size):
        spec = _study_spec(model)
        parts = [_run_slice(spec, a, min(a + size, spec.n_paths)) for a in range(0, spec.n_paths, size)]
        joined = ([m for p in parts for m in p[0]], sum(p[1] for p in parts), sum(p[2] for p in parts))
        assert joined == _run_slice(spec, 0, spec.n_paths)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_studies_with_fewer_paths_than_slices(self, workers, any_size, pools, cpus):
        # with 1 and 3 paths, some of the SLICES_PER_WORKER slices per process are empty
        specs = [replace(_study_spec(model), n_paths=n)
                 for model, n in (("gbm", 1), ("markov_rs", 3), ("block_bootstrap", 12))]
        cpus(1)
        want = [run_null_study(spec, 1.35).row() for spec in specs]
        cpus(workers)
        assert [s.row() for s in run_null_studies(specs, 1.35)] == want
        assert pools == [2] * (workers - 1)

    def test_pool_capped_at_the_largest_study(self, any_size, pools, cpus):
        # a process beyond the largest study's path count would get only empty slices
        specs = [replace(_study_spec(model), n_paths=n) for model, n in (("gbm", 2), ("heston", 1))]
        cpus(1)
        want = [s.row() for s in run_null_studies(specs, 1.35)]
        cpus(3)
        assert [s.row() for s in run_null_studies(specs, 1.35)] == want
        assert pools == [2]

    def test_study_set_below_steps_per_process_runs_in_process(self, monkeypatch, cpus):
        specs = [_study_spec(model) for model in MODELS]
        assert sum(s.n_paths * (s.n_days - 1) for s in specs) < nullmodels.STEPS_PER_PROCESS
        cpus(1)
        want = [s.row() for s in run_null_studies(specs, 1.35)]

        def no_pool(*args):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        cpus(2)
        assert [s.row() for s in run_null_studies(specs, 1.35)] == want

    def test_overlapped_study_set_below_steps_per_process_pooled(self, pools, cpus):
        # the caller works while the pool runs, so a pool pays at any size
        specs = [_study_spec(model) for model in MODELS]
        cpus(1)
        want = [s.row() for s in run_null_studies(specs, 1.35)]
        cpus(2)
        with null_studies(specs, 1.35, overlapped=True) as collect:
            assert [s.row() for s in collect()] == want
        assert pools == [2]

    @pytest.mark.parametrize("short", [0, 1], ids=["at", "one-path-below"])
    def test_pool_from_steps_per_process(self, pools, short, cpus):
        # two 2,001-day studies share the pool, so their 2,000-step paths add up to the threshold;
        # from there, a process per usable CPU starts
        n_paths = nullmodels.STEPS_PER_PROCESS // 4_000
        assert n_paths * 4_000 == nullmodels.STEPS_PER_PROCESS
        specs = [NullSpec("gbm", GbmParams(), n_days=2_001, n_paths=n_paths, seed=17),
                 NullSpec("markov_rs", MarkovRsParams(), n_days=2_001, n_paths=n_paths - short, seed=17)]
        cpus(1)
        want = [s.row() for s in run_null_studies(specs, 1.35)]
        cpus(3)
        assert [s.row() for s in run_null_studies(specs, 1.35)] == want
        assert pools == [3] * (1 - short)

    def test_serial_without_affinity_or_fork(self, monkeypatch, any_size, cpus):
        # an OS without sched_getaffinity (macOS) or fork (Windows) still runs every study,
        # in-process even where a pool would start
        want = run_null_study(_study_spec("gbm"), 1.35).row()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", None)
        assert usable_cpus() == (os.cpu_count() or 1)
        cpus(2)
        assert run_null_study(_study_spec("gbm"), 1.35).row() == want


KERNEL_CASES = [(seed, n) for seed in range(5) for n in (19_169, 2_519)]


def _assert_log_path(logp, ref_steps):
    """A path kernel's log path is 0.0 and then np.cumsum of the oracle's steps, bit for bit."""
    assert logp.tobytes() == np.concatenate(([0.0], np.cumsum(ref_steps))).tobytes()


def _draws(seed, n):
    rng = derive_rng(seed, 0)
    return rng.standard_normal(n), rng.standard_normal(n), rng.random(n)


@st.composite
def _markov_inputs(draw):
    p11 = draw(st.floats(0.01, 0.99))
    p22 = draw(st.one_of(st.just(p11), st.floats(0.01, 0.99)))
    lo, hi = min(p11, p22), max(p11, p22)
    u_at_or_above_hi = st.floats(hi, 1.0, exclude_max=True)
    kind = draw(st.sampled_from(["any", "no_one_sided_step", "every_step_flips"]))
    if kind == "any":  # ties with p11 and p22 exercise the >= comparison
        u_elem = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([p11, p22]))
    elif kind == "no_one_sided_step":
        u_elem = st.one_of(st.floats(0.0, lo, exclude_max=True), u_at_or_above_hi)
    else:
        u_elem = u_at_or_above_hi
    u = np.array(draw(st.lists(u_elem, min_size=1, max_size=200)))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(u.size)
    return z, u, p11, p22, draw(st.sampled_from([0, 1]))


class TestKernelsAgainstReference:
    """The path kernels' log paths are np.cumsum of the scalar loops' steps in
    tests/oracles.py exactly."""

    @pytest.mark.parametrize("seed,n", KERNEL_CASES)
    @pytest.mark.parametrize("gamma", [AsymVolParams().gamma_lev, -50.0])
    def test_asym_vol(self, seed, n, gamma):
        p = AsymVolParams(gamma_lev=gamma)
        z, _, _ = _draws(seed, n)
        args = (z, DT, p.mu, p.sigma_base, p.gamma_lev, p.vol_floor, p.vol_cap)
        steps = asym_vol_steps_reference(*args)
        _assert_log_path(_asym_vol_path(*args), steps)
        if gamma == -50.0 and n == 19_169:
            raw = p.sigma_base * np.exp(p.gamma_lev * steps[:-1])
            assert raw.min() < p.vol_floor and raw.max() > p.vol_cap

    @pytest.mark.parametrize("seed,n", KERNEL_CASES)
    @pytest.mark.parametrize("v0,eps_v", [(None, None), (0.0, None), (None, 1.0)])
    def test_heston(self, seed, n, v0, eps_v, xi=None):
        p = HestonParams() if xi is None else HestonParams(xi=xi)
        v0 = p.vbar if v0 is None else v0
        eps_v = p.eps_v if eps_v is None else eps_v
        z1, w, _ = _draws(seed, n)
        z2 = p.rho * z1 + math.sqrt(1.0 - p.rho * p.rho) * w
        logp, n_degenerate = _heston_path(z1, w, DT, p.mu, p.vbar, p.kappa, p.xi, p.rho, v0, eps_v)
        ref_steps, ref_v_used, ref_n_degenerate = heston_steps_reference(z1, z2, DT, p.mu, p.vbar, p.kappa,
                                                                         p.xi, v0, eps_v)
        _assert_log_path(logp, ref_steps)
        assert n_degenerate == ref_n_degenerate
        if eps_v == 1.0:
            assert n_degenerate == n
        if xi is not None:
            # the variance step went below zero and was clipped, on at least 1% of the steps
            assert np.count_nonzero(ref_v_used == 0.0) > n // 100 and np.isfinite(logp).all()

    @pytest.mark.parametrize("seed,n", KERNEL_CASES)
    def test_heston_clipped(self, seed, n):
        # at xi = 2 (Feller ratio 0.06) the variance often lands below zero, which the default never does
        self.test_heston(seed, n, None, None, xi=2.0)

    @pytest.mark.parametrize("seed,n", KERNEL_CASES)
    def test_heston_variance_equal_to_eps_v_is_degenerate(self, seed, n):
        # at xi = 2 the variance is often clipped to 0.0, so with eps_v = 0.0 those steps sit at eps_v exactly
        self.test_heston(seed, n, None, 0.0, xi=2.0)

    @pytest.mark.parametrize("seed,n", KERNEL_CASES)
    @pytest.mark.parametrize("state0", [0, 1, 2])  # the reference takes every state but 0 as bear
    def test_markov(self, seed, n, state0):
        p = MarkovRsParams()
        z, _, u = _draws(seed, n)
        args = (z, u, DT, p.mu_bull, p.sigma_bull, p.stay_bull,
                p.mu_bear, p.sigma_bear, p.stay_bear, state0)
        _assert_log_path(_markov_path(*args), markov_steps_reference(*args)[0])

    def test_draws_of_different_sizes_rejected(self):
        a, b = np.zeros(5), np.zeros(4)
        with pytest.raises(ValueError, match="z1 and w must have the same shape"):
            _heston_path(a, b, DT, 0.08, 0.0247, 5.0, 0.5, -0.75, 0.0247, 1e-3)
        with pytest.raises(ValueError, match="z and u must have the same shape"):
            _markov_path(a, b, DT, 0.15, 0.12, 0.98, -0.1, 0.25, 0.93, 0)

    @settings(max_examples=150)
    @given(_markov_inputs())
    @example((np.ones(3), np.array([0.9, 0.9, 0.9]), 0.9, 0.9, 1))  # every step flips
    @example((np.ones(3), np.array([0.5, 0.7, 0.6]), 0.7, 0.5, 0))  # ties, p11 > p22
    @example((np.ones(3), np.array([0.5, 0.7, 0.6]), 0.5, 0.7, 1))  # ties, p11 < p22
    def test_markov_property(self, inputs):
        z, u, p11, p22, state0 = inputs
        p = MarkovRsParams()
        args = (z, u, DT, p.mu_bull, p.sigma_bull, p11, p.mu_bear, p.sigma_bear, p22, state0)
        _assert_log_path(_markov_path(*args), markov_steps_reference(*args)[0])


def _assert_same_scan(closes, delta):
    for got, want in zip(episode_arrays(closes, delta), episode_arrays_reference(closes, delta), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestEpisodeScanAgainstReference:
    """The C episode scan equals the numpy scan in tests/oracles.py, and each
    path's median duration ratio equals np.median of its taus, exactly."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n_days", [2_520, 19_170])
    @pytest.mark.parametrize("delta", [0.03, 0.05, 0.10])
    def test_null_paths(self, model, n_days, delta):
        spec = replace(_study_spec(model), n_days=n_days)
        closes_of = (simulate_closes(spec, i) for i in range(spec.n_paths))
        paths = list(itertools.islice((c for c in closes_of if c is not None), 4))
        assert len(paths) == 4
        for closes in paths:
            # with the +inf that detect_episodes appends to close a censored tail
            for series in (closes, np.append(closes, np.inf)):
                _assert_same_scan(series, delta)

    @pytest.mark.parametrize("closes", [
        pytest.param([100, 100, 100, 90, 100, 100, 80, 100], id="flat_tops"),
        pytest.param([100, 90, 85, 85, 95, 85, 101, 95, 95, 102], id="tied_troughs"),
        pytest.param([100, 101, 101, 102, 103, 103], id="adjacent_highs"),
        pytest.param([100, 99, 100.5, 99.5, 101], id="no_episode"),
        pytest.param([100, 80, 100, 120, 110, 90, 95], id="ends_in_drawdown"),
        pytest.param([100, 95, 100, 75, 100], id="depth_at_delta"),
        pytest.param([100, 90], id="length_2"),
        pytest.param([100, 90, 100], id="length_3"),
        pytest.param([100, 90, 95], id="length_3_open"),
    ])
    @pytest.mark.parametrize("delta", [0.03, 0.05, 0.10, 0.25])  # 1 - 75/100 is 0.25 exactly
    def test_edge_cases(self, closes, delta):
        closes = np.array(closes, dtype=float)
        for series in (closes, np.append(closes, np.inf)):
            _assert_same_scan(series, delta)

    def test_slice_medians_equal_np_median(self):
        # a drifting, calm gbm leaves some 300-day paths without a completed episode
        specs = [_study_spec(m) for m in MODELS] + [
            NullSpec("gbm", GbmParams(mu=0.2, sigma=0.1), n_days=300, n_paths=10, seed=3)]
        counts = []
        for spec in specs:
            medians, n_rejected, n_zero = [], 0, 0
            for i in range(spec.n_paths):
                closes = simulate_closes(spec, i)
                if closes is None:
                    n_rejected += 1
                    continue
                peaks, troughs, recs, _ = episode_arrays_reference(closes, spec.delta)
                counts.append(peaks.size)
                if not peaks.size:
                    n_zero += 1
                    continue
                medians.append(float(np.median((recs - troughs) / (troughs - peaks))))
            assert _run_slice(spec, 0, spec.n_paths) == (medians, n_rejected, n_zero)
        # paths with an odd and with an even number of episodes, and with none
        assert {k % 2 for k in counts if k} == {0, 1} and 0 in counts


class _ScriptedRng:
    """A generator whose uniforms are given, so that one can equal the restart
    probability exactly; its integers come from a seeded generator."""

    def __init__(self, u, seed):
        self.u, self.ints = np.array(u, dtype=float), np.random.default_rng(seed)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()

    def integers(self, low, high, size):
        return self.ints.integers(low, high, size=size)


def _assert_same_walk(n, mean_block, length, make_rng, x=None):
    """The C walk's indices and its running sum of x equal the numpy walk and
    np.cumsum, from generators that make_rng() makes alike, and leave a real
    generator where the numpy walk leaves it."""
    rng, ref_rng = make_rng(), make_rng()
    idx = walk_indices(n, mean_block, rng, length)
    want = block_walk_reference(n, mean_block, ref_rng, length)
    assert idx.dtype == want.dtype and np.array_equal(idx, want)
    x = np.random.default_rng(n).normal(0, 0.01, n) if x is None else x
    sums, sum_rng = np.empty(length), make_rng()
    stationary_block_cumsum(x, mean_block, sum_rng, sums)
    assert sums.tobytes() == np.cumsum(x[want]).tobytes()  # bit for bit, signed zeros too
    if isinstance(rng, np.random.Generator):
        assert rng.bit_generator.state == ref_rng.bit_generator.state == sum_rng.bit_generator.state


class TestBlockWalkAgainstReference:
    """The C stationary-bootstrap walk, its indices and its running sum,
    equals the numpy walk in tests/oracles.py and np.cumsum exactly."""

    @pytest.mark.parametrize("n,length", [
        pytest.param(2_519, 400, id="length_below_n"),
        pytest.param(699, 699, id="length_n"),
        pytest.param(398, 699, id="length_above_n"),
        pytest.param(300, 5_000, id="length_16n"),
        pytest.param(50, 3_000, id="length_60n"),
        pytest.param(1, 1, id="n1_length1"),
        pytest.param(1, 50, id="n1"),
        pytest.param(2, 1, id="n2_length1"),
        pytest.param(2, 2, id="n2_length2"),
        pytest.param(2, 301, id="n2"),
        pytest.param(10, 1, id="length1"),
    ])
    # 1 restarts at every step; "far" (100 * length) leaves one block, which wraps when length > n
    @pytest.mark.parametrize("mean_block", [1, 2.5, 63, "far"])
    def test_walk(self, n, length, mean_block):
        mean_block = 100 * length if mean_block == "far" else mean_block
        for seed in range(5):
            _assert_same_walk(n, mean_block, length, lambda: np.random.default_rng(seed))

    @pytest.mark.parametrize("mean_block", [2, 4, 8])  # restart probabilities 0.5, 0.25, 0.125 exactly
    def test_uniform_equal_to_the_restart_probability_continues_the_block(self, mean_block):
        p = 1.0 / mean_block
        u = [p, 0.0, p, np.nextafter(p, 0.0), p, np.nextafter(p, 1.0), p, p, 0.9, p]
        for seed in range(5):
            _assert_same_walk(1_000, mean_block, len(u) + 1, lambda: _ScriptedRng(u, seed))

    def test_signed_zeros(self):
        # 0.0 + -0.0 is 0.0, so a sum that began at 0.0 would lose the sign np.cumsum keeps
        for x in (np.array([-0.0]), np.array([-0.0, -0.0, -0.0, 0.01])):
            for seed in range(5):
                _assert_same_walk(x.size, 3, 40, lambda: np.random.default_rng(seed), x=x)

    def test_nan_mean_block_rejected(self):
        with pytest.raises(ValueError, match="mean_block must be >= 1"):
            stationary_block_cumsum(np.ones(10), math.nan, np.random.default_rng(0), np.empty(10))

    @pytest.mark.parametrize("n_days", [2_520, 19_170])
    @pytest.mark.parametrize("seed", [0, 1, 41, 2**31])
    def test_simulate_closes(self, n_days, seed):
        emp = np.random.default_rng(12).normal(3e-4, 0.01, 2_519)
        spec = NullSpec("block_bootstrap", BlockBootstrapParams(returns=emp), n_days=n_days,
                        n_paths=25, seed=seed)
        for i in range(spec.n_paths):
            idx = block_walk_reference(emp.size, 63, derive_rng(seed, i), n_days - 1)
            want = np.concatenate(([100.0], 100.0 * np.exp(np.cumsum(emp[idx]))))
            assert np.array_equal(simulate_closes(spec, i), want)


def _reference_closes(spec, i):
    """simulate_closes from the oracles: the same draws in the same order, then np.cumsum and np.exp."""
    rng, n, p = derive_rng(spec.seed, i), spec.n_days - 1, spec.params
    if spec.model == "gbm":
        steps = gbm_steps_reference(rng.standard_normal(n), DT, p.mu, p.sigma)
    elif spec.model == "asym_vol":
        steps = asym_vol_steps_reference(rng.standard_normal(n), DT, p.mu, p.sigma_base, p.gamma_lev,
                                         p.vol_floor, p.vol_cap)
    elif spec.model == "heston":
        z1 = rng.standard_normal(n)
        z2 = p.rho * z1 + math.sqrt(1.0 - p.rho * p.rho) * rng.standard_normal(n)
        steps, _, n_degenerate = heston_steps_reference(z1, z2, DT, p.mu, p.vbar, p.kappa, p.xi, p.vbar, p.eps_v)
        if n_degenerate / n > p.max_zero_frac:
            return None
    else:
        state0 = 0 if rng.random() < p.stationary_bull else 1
        z = rng.standard_normal(n)
        steps, _ = markov_steps_reference(z, rng.random(n), DT, p.mu_bull, p.sigma_bull, p.stay_bull,
                                          p.mu_bear, p.sigma_bear, p.stay_bear, state0)
    return np.concatenate(([100.0], 100.0 * np.exp(np.cumsum(steps))))


class TestPathsAgainstReference:
    """simulate_closes of each parametric model equals its oracle's steps,
    summed by np.cumsum, then exp and times 100, exactly."""

    @pytest.mark.parametrize("n_days", [2_520, 19_170])
    @pytest.mark.parametrize("model,params,accepted", [
        pytest.param("gbm", GbmParams(), 3, id="gbm"),
        pytest.param("asym_vol", AsymVolParams(), 3, id="asym_vol"),
        pytest.param("heston", HestonParams(), None, id="heston"),
        # xi = 2 clips the variance to zero often: every path is rejected, unless max_zero_frac is 1
        pytest.param("heston", HestonParams(xi=2.0), 0, id="heston_rejected"),
        pytest.param("heston", HestonParams(xi=2.0, max_zero_frac=1.0), 3, id="heston_clipped"),
        pytest.param("markov_rs", MarkovRsParams(), 3, id="markov_rs"),
    ])
    def test_simulate_closes(self, n_days, model, params, accepted):
        spec = NullSpec(model, params, n_days=n_days, n_paths=3, seed=5)
        closes = [simulate_closes(spec, i) for i in range(spec.n_paths)]
        want = [_reference_closes(spec, i) for i in range(spec.n_paths)]
        assert [c is None for c in closes] == [w is None for w in want]
        assert all(c is None or np.array_equal(c, w) for c, w in zip(closes, want))
        if accepted is not None:
            assert sum(c is not None for c in closes) == accepted

    @pytest.mark.parametrize("model", ["gbm", "asym_vol", "heston", "markov_rs"])
    def test_signed_zeros(self, model):
        # every step is -0.0 (zero volatility, mu = -0.0, a negative first draw); -0.0 + -0.0 is
        # -0.0 but 0.0 + -0.0 is 0.0, so a running sum that began at 0.0 would lose the sign
        z = np.array([-1.0, 0.5, -2.0])
        u = np.zeros(z.size)
        path, want = {
            "gbm": lambda: (_gbm_path(z, DT, -0.0, 0.0), gbm_steps_reference(z, DT, -0.0, 0.0)),
            "asym_vol": lambda: (_asym_vol_path(z, DT, -0.0, 0.0, -5.0, 0.0, 0.0),
                                 asym_vol_steps_reference(z, DT, -0.0, 0.0, -5.0, 0.0, 0.0)),
            "heston": lambda: (_heston_path(z, z, DT, -0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1e-3)[0],
                               heston_steps_reference(z, z, DT, -0.0, 0.0, 5.0, 0.0, 0.0, 1e-3)[0]),
            "markov_rs": lambda: (_markov_path(z, u, DT, -0.0, 0.0, 0.5, -0.0, 0.0, 0.5, 0),
                                  markov_steps_reference(z, u, DT, -0.0, 0.0, 0.5, -0.0, 0.0, 0.5, 0)[0]),
        }[model]()
        assert np.signbit(want).any()
        _assert_log_path(path, want)


class TestKernelBuild:
    """The kernels build once per cache, in the parent, and only for the
    commands that need them; without a compiler those commands fail loudly."""

    # the CLI on a given number of null-study workers, whatever the CPUs this test may use and the study's size
    ON_WORKERS = """\
import sys
from regimelab import cli, nullmodels
workers = int(sys.argv.pop(1))
nullmodels.usable_cpus = lambda: workers
nullmodels.STEPS_PER_PROCESS = 1
sys.exit(cli.main(sys.argv[1:]))
"""

    # ON_WORKERS, and then which of numpy.random and OpenSSL's _hashlib the parent process holds
    ON_WORKERS_THEN_MODULES = ON_WORKERS.replace("sys.exit(cli.main(sys.argv[1:]))", """\
code = cli.main(sys.argv[1:])
print(sorted({"numpy.random", "_hashlib"} & set(sys.modules)))
sys.exit(code)""")

    @staticmethod
    def run_cli(tmp_path, *argv, workers=1, script=ON_WORKERS, **env):
        env = subprocess_env(XDG_CACHE_HOME=str(tmp_path / "cache"), **env)
        return subprocess.run([sys.executable, "-c", script, str(workers), *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)

    @staticmethod
    def nulls(models, out="res"):
        return ["nulls", "--models", models, "--paths", "6", "--days", "700", "--data-dir", "none", "--out", out]

    @pytest.fixture
    def no_cc(self, tmp_path):
        """A PATH with no C compiler on it."""
        empty = tmp_path / "bin"
        empty.mkdir()
        return str(empty)

    @staticmethod
    def price_dir(tmp_path):
        """data/sp500_daily.csv: a 2,000-day gbm path."""
        closes = simulate_path(NullSpec("gbm", GbmParams(), n_days=2_000, n_paths=1, seed=12), 0).closes
        dates = np.datetime64("1990-01-02", "D") + np.arange(closes.size)
        (tmp_path / "data").mkdir()
        (tmp_path / "data/sp500_daily.csv").write_text(
            "date,close\n" + "".join(f"{d},{float(c)!r}\n" for d, c in zip(dates, closes)))

    NEED_CC = {
        **{model: ["nulls", "--models", model, "--paths", "6", "--days", "700"] for model in MODELS},
        "episodes": ["episodes", "--bootstrap-b", "50"],
        "r3": ["r3"],
    }

    @pytest.mark.parametrize("command", list(NEED_CC))
    def test_no_compiler_fails_in_one_line(self, tmp_path, no_cc, command):
        self.price_dir(tmp_path)
        done = self.run_cli(tmp_path, *self.NEED_CC[command], "--data-dir", "data", "--out", "res", PATH=no_cc)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: regimelab's kernels need a C compiler, and `cc --version` failed: "
            "[Errno 2] No such file or directory: 'cc'"
        ]
        assert not (tmp_path / "res").exists()

    def test_failed_compile_fails_in_one_line_and_leaves_nothing(self, tmp_path):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        cc = bin_dir / "cc"
        cc.write_text('#!/bin/sh\n[ "$1" = --version ] && { echo "fake cc 1.0"; exit 0; }\n'
                      'echo "cc1: fatal error: out of memory" >&2; echo "compilation terminated." >&2; exit 1\n')
        cc.chmod(0o755)
        done = self.run_cli(tmp_path, *self.nulls("heston"), PATH=str(bin_dir))
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: `cc` could not compile regimelab's kernels: cc1: fatal error: out of memory"
        ]
        assert not (tmp_path / "res").exists()
        assert list((tmp_path / "cache/regimelab").iterdir()) == []  # its temp file is gone

    def test_version_headline_cot_and_simulator_need_no_compiler(self, tmp_path, no_cc):
        runs = [
            ["--version"],
            ["headline", "--synthetic", "--periods", "240", "--agents", "20", "--out", "res"],
            ["cot", "--out", "res"],
            ["simulate-intermediary", "--periods", "240", "--agents", "20", "--out", "res"],
        ]
        for argv in runs:
            done = self.run_cli(tmp_path, *argv, PATH=no_cc)
            assert done.returncode == 0, done.stderr
        assert (tmp_path / "res/headline.csv").exists() and (tmp_path / "res/intermediary_panel.csv").exists()
        assert not (tmp_path / "cache").exists()  # nothing was built or looked up

    def test_built_once_in_the_parent(self, tmp_path):
        cache = tmp_path / "cache/regimelab"
        done = self.run_cli(tmp_path, *self.nulls("asym_vol,heston", "res2"), workers=2)
        assert done.returncode == 0, done.stderr
        (lib,) = cache.iterdir()  # one library, and no temp file left by the workers or the build
        assert lib.name.startswith("kernels-") and lib.suffix == ".so"
        built = lib.stat().st_mtime_ns
        done = self.run_cli(tmp_path, *self.nulls("asym_vol,heston", "res1"), workers=1)
        assert done.returncode == 0, done.stderr
        assert list(cache.iterdir()) == [lib] and lib.stat().st_mtime_ns == built  # loaded, not rebuilt
        assert (tmp_path / "res1/nulls.csv").read_bytes() == (tmp_path / "res2/nulls.csv").read_bytes()

    def test_pooled_nulls_parent_leaves_numpy_random_to_the_workers(self, tmp_path):
        done = self.run_cli(tmp_path, *self.nulls("gbm,heston", "res2"), workers=2,
                            script=self.ON_WORKERS_THEN_MODULES)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"  # the parent never draws, so it leaves numpy.random out
        done = self.run_cli(tmp_path, *self.nulls("gbm,heston", "res1"), workers=1)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "res1/nulls.csv").read_bytes() == (tmp_path / "res2/nulls.csv").read_bytes()

    def test_loading_leaves_openssl_out(self, tmp_path):
        script = ("import sys; before = set(sys.modules); from regimelab import cli, kernels; kernels.load(); "
                  "print(sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before)))")
        done = self.run_cli(tmp_path, script=script)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    @pytest.fixture
    def fresh_cache(self, tmp_path, monkeypatch):
        """An empty kernel cache, and kernels.load() that looks it up again on every call."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        kernels.load.cache_clear()
        yield tmp_path / "cache/regimelab"
        kernels.load.cache_clear()  # the next caller loads the session's library again

    @pytest.mark.parametrize("change", ["source", "flags", "compiler"])
    def test_cache_name_covers_its_key(self, fresh_cache, tmp_path, monkeypatch, change):
        kernels.load()
        (first,) = fresh_cache.iterdir()
        built = first.stat().st_mtime_ns
        if change == "source":  # one byte, in a comment
            source = kernels.KERNEL_SOURCE.replace("running sum", "running Sum", 1)
            assert sum(a != b for a, b in zip(source, kernels.KERNEL_SOURCE)) == 1
            monkeypatch.setattr(kernels, "KERNEL_SOURCE", source)
        elif change == "flags":
            monkeypatch.setattr(kernels, "CFLAGS", tuple("-O1" if f == "-O2" else f for f in kernels.CFLAGS))
        else:  # a `cc` that reports another version and otherwise runs the real compiler
            cc = tmp_path / "bin/cc"
            cc.parent.mkdir()
            cc.write_text(f'#!/bin/sh\n[ "$1" = --version ] && {{ echo "fake cc 99.0"; exit 0; }}\n'
                          f'exec {shutil.which(kernels.CC)} "$@"\n')
            cc.chmod(0o755)
            monkeypatch.setenv("PATH", f"{cc.parent}{os.pathsep}{os.environ['PATH']}")
        kernels.load.cache_clear()
        kernels.load()
        (second,) = set(fresh_cache.iterdir()) - {first}  # a second library, and the first left in place
        assert second.name.startswith("kernels-") and second.suffix == ".so"
        assert first.stat().st_mtime_ns == built

    def test_unwritable_cache_builds_privately(self, tmp_path):
        (tmp_path / "cache").write_text("a file, so no directory can be made under it")
        (tmp_path / "tmp").mkdir()
        done = self.run_cli(tmp_path, *self.nulls("asym_vol"), TMPDIR=str(tmp_path / "tmp"))
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "res/nulls.csv").exists()
        assert list((tmp_path / "tmp").iterdir()) == []  # the private build is removed once loaded
