import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import asym_vol_steps_reference, heston_steps_reference, markov_steps_reference
from regimelab.episodes import detect_episodes
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
    _asym_vol_steps,
    _heston_steps,
    _markov_steps,
    _run_slice,
    run_null_studies,
    run_null_study,
    simulate_path,
    usable_cpus,
)
from regimelab.resample import derive_rng


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
        assert p.feller_ratio == pytest.approx(2 * 5.0 * 0.0247 / 0.25)
        assert p.feller_ratio < 1.0  # the calibration sits below the Feller boundary

    def test_markov_stationary_share(self):
        p = MarkovRsParams()
        assert p.stationary_bull == pytest.approx(0.07 / 0.09)


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
        z2 = p.rho * z1 + math.sqrt(1 - p.rho**2) * rng.standard_normal(n)
        _, v_used, n_deg = _heston_steps(z1, z2, DT, p.mu, p.vbar, p.kappa, p.xi, p.vbar, p.eps_v)
        assert v_used.min() >= 0.0
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
            _, n_bull = _markov_steps(
                z, u, DT, p.mu_bull, p.sigma_bull, p.stay_bull,
                p.mu_bear, p.sigma_bear, p.stay_bear, state0,
            )
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

    def test_requires_returns(self):
        with pytest.raises(ValueError, match="return series"):
            BlockBootstrapParams(returns=np.array([0.01]))


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

    @pytest.mark.parametrize("model", MODELS)
    def test_row_same_for_every_worker_count(self, model):
        spec = _study_spec(model)
        assert run_null_study(spec, 1.35, workers=2).row() == run_null_study(spec, 1.35, workers=1).row()

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("size", [1, 7, 30])
    def test_slices_join_to_one_pass(self, model, size):
        spec = _study_spec(model)
        parts = [_run_slice(spec, a, min(a + size, spec.n_paths)) for a in range(0, spec.n_paths, size)]
        joined = ([m for p in parts for m in p[0]], sum(p[1] for p in parts), sum(p[2] for p in parts))
        assert joined == _run_slice(spec, 0, spec.n_paths)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_studies_with_fewer_paths_than_slices(self, workers):
        # with 1 and 3 paths, some of the SLICES_PER_WORKER slices per process are empty
        specs = [replace(_study_spec(model), n_paths=n)
                 for model, n in (("gbm", 1), ("markov_rs", 3), ("block_bootstrap", 12))]
        want = [run_null_study(spec, 1.35, workers=1).row() for spec in specs]
        assert [s.row() for s in run_null_studies(specs, 1.35, workers=workers)] == want

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_null_study(_study_spec("gbm"), 1.35, workers=workers)

    def test_serial_without_affinity_or_fork(self, monkeypatch):
        # an OS without sched_getaffinity (macOS) or fork (Windows) still runs every study
        want = run_null_study(_study_spec("gbm"), 1.35).row()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", None)
        assert usable_cpus() == (os.cpu_count() or 1)
        assert run_null_study(_study_spec("gbm"), 1.35, workers=usable_cpus() + 1).row() == want


KERNEL_CASES = [(seed, n) for seed in range(5) for n in (19_169, 2_519)]


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
    """The step kernels reproduce the scalar loops in tests/oracles.py exactly."""

    @pytest.mark.parametrize("seed,n", KERNEL_CASES)
    @pytest.mark.parametrize("gamma", [AsymVolParams().gamma_lev, -50.0])
    def test_asym_vol(self, seed, n, gamma):
        p = AsymVolParams(gamma_lev=gamma)
        z, _, _ = _draws(seed, n)
        args = (z, DT, p.mu, p.sigma_base, p.gamma_lev, p.vol_floor, p.vol_cap)
        steps = _asym_vol_steps(*args)
        assert np.array_equal(steps, asym_vol_steps_reference(*args))
        if gamma == -50.0 and n == 19_169:
            raw = p.sigma_base * np.exp(p.gamma_lev * steps[:-1])
            assert raw.min() < p.vol_floor and raw.max() > p.vol_cap

    @pytest.mark.parametrize("seed,n", KERNEL_CASES)
    @pytest.mark.parametrize("v0,eps_v", [(None, None), (0.0, None), (None, 1.0)])
    def test_heston(self, seed, n, v0, eps_v):
        p = HestonParams()
        v0 = p.vbar if v0 is None else v0
        eps_v = p.eps_v if eps_v is None else eps_v
        z1, w, _ = _draws(seed, n)
        z2 = p.rho * z1 + math.sqrt(1.0 - p.rho * p.rho) * w
        args = (z1, z2, DT, p.mu, p.vbar, p.kappa, p.xi, v0, eps_v)
        steps, v_used, n_degenerate = _heston_steps(*args)
        ref_steps, ref_v_used, ref_n_degenerate = heston_steps_reference(*args)
        assert np.array_equal(steps, ref_steps)
        assert np.array_equal(v_used, ref_v_used)
        assert n_degenerate == ref_n_degenerate
        if eps_v == 1.0:
            assert n_degenerate == n

    @pytest.mark.parametrize("seed,n", KERNEL_CASES)
    @pytest.mark.parametrize("state0", [0, 1])
    def test_markov(self, seed, n, state0):
        p = MarkovRsParams()
        z, _, u = _draws(seed, n)
        args = (z, u, DT, p.mu_bull, p.sigma_bull, p.stay_bull,
                p.mu_bear, p.sigma_bear, p.stay_bear, state0)
        steps, n_bull = _markov_steps(*args)
        ref_steps, ref_n_bull = markov_steps_reference(*args)
        assert np.array_equal(steps, ref_steps)
        assert n_bull == ref_n_bull

    @settings(max_examples=150)
    @given(_markov_inputs())
    @example((np.ones(3), np.array([0.9, 0.9, 0.9]), 0.9, 0.9, 1))  # every step flips
    @example((np.ones(3), np.array([0.5, 0.7, 0.6]), 0.7, 0.5, 0))  # ties, p11 > p22
    @example((np.ones(3), np.array([0.5, 0.7, 0.6]), 0.5, 0.7, 1))  # ties, p11 < p22
    def test_markov_property(self, inputs):
        z, u, p11, p22, state0 = inputs
        p = MarkovRsParams()
        args = (z, u, DT, p.mu_bull, p.sigma_bull, p11, p.mu_bear, p.sigma_bear, p22, state0)
        steps, n_bull = _markov_steps(*args)
        ref_steps, ref_n_bull = markov_steps_reference(*args)
        assert np.array_equal(steps, ref_steps)
        assert n_bull == ref_n_bull
