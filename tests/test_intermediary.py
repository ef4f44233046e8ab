import re

import numpy as np
import pytest

from regimelab.intermediary import (
    IntermediaryConfig,
    simulate,
    to_monthly_table,
)


def calm_pair_cov(sim):
    """Sample covariance of (dA_t, A_t) over consecutive calm pairs."""
    A, s = sim.aggregate, sim.regime
    pair = (s[:-1] == 0) & (s[1:] == 0)
    dA = np.diff(A)[pair]
    lvl = A[:-1][pair]
    return float(np.mean((dA - dA.mean()) * (lvl - lvl.mean())))


class TestSimulate:
    def test_calm_only_additive_increment_exact(self):
        # no noise, no stress: the aggregate steps by sum(rho_i / (k_i sigma_bar)) every period
        cfg = IntermediaryConfig(eps=0.0, capital_noise_sd=0.0, stress_entry=1e-12, seed=1)
        sim = simulate(cfg)
        assert sim.regime.sum() == 0
        expected = cfg.n_agents * cfg.calm_drift / (cfg.var_k * cfg.sigma_bar)
        dA = np.diff(sim.aggregate)
        assert np.allclose(dA, expected, rtol=1e-10)
        # and the increment is level-independent: identical at low and high levels
        assert abs(dA[0] - dA[-1]) < 1e-9 * expected

    def test_contraction_identity_on_stress_pairs(self):
        for seed in (0, 7, 23):
            sim = simulate(IntermediaryConfig(seed=seed))
            x = sim.agent_exposure()
            s = sim.regime
            pairs = np.flatnonzero((s[:-1] == 1) & (s[1:] == 1))
            assert pairs.size > 0
            for t in pairs:
                ratio = x[t + 1] / x[t]
                implied = (sim.capital[t + 1] / sim.capital[t]) * (sim.vol[t] / sim.vol[t + 1])
                assert np.allclose(ratio, implied, rtol=1e-12)

    def test_aggregate_contraction_identity(self):
        sim = simulate(IntermediaryConfig(seed=7))
        k = np.full(sim.config.n_agents, sim.config.var_k)
        s = sim.regime
        pairs = np.flatnonzero((s[:-1] == 1) & (s[1:] == 1))
        for t in pairs:
            lhs = sim.aggregate[t + 1] / sim.aggregate[t]
            rhs = (
                (sim.capital[t + 1] / k).sum() / (sim.capital[t] / k).sum()
                * sim.vol[t] / sim.vol[t + 1]
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_replenishment_cov_zero_without_noise(self):
        sim = simulate(IntermediaryConfig(eps=0.0, capital_noise_sd=0.0, seed=7))
        assert abs(calm_pair_cov(sim)) < 1e-10

    def test_replenishment_cov_shrinks_with_eps(self):
        # constant fitted at first build: |cov| stays within C * eps and decreases
        C = 15_000.0
        covs = []
        for eps in (0.01, 0.005, 0.001):
            sim = simulate(IntermediaryConfig(eps=eps, capital_noise_sd=0.0, seed=7))
            cov = abs(calm_pair_cov(sim))
            assert cov < C * eps
            covs.append(cov)
        assert covs[0] > covs[1] > covs[2]

    def test_frontier_holds_every_period(self):
        sim = simulate(IntermediaryConfig(seed=3))
        x = sim.agent_exposure()
        k = np.full(sim.config.n_agents, sim.config.var_k)
        manual = sim.capital / (k[None, :] * sim.vol[:, None])
        assert np.array_equal(x, manual)
        assert np.allclose(x.sum(axis=1), sim.aggregate, rtol=1e-12)

    def test_stress_occupancy_near_target(self):
        occ = []
        for seed in range(30):
            sim = simulate(IntermediaryConfig(seed=seed))
            occ.append(sim.regime.mean())
        target = 0.10 / (0.10 + 0.35)
        assert abs(float(np.mean(occ)) - target) < 0.03

    def test_deterministic(self):
        a = simulate(IntermediaryConfig(seed=9))
        b = simulate(IntermediaryConfig(seed=9))
        assert np.array_equal(a.aggregate, b.aggregate)
        assert np.array_equal(a.price, b.price)

    @pytest.mark.parametrize("kw", [{}, {"impact": 0.3}, {"T": 780}], ids=["default", "impact-0.3", "T-780"])
    def test_price_path_equals_the_step_loop(self, kw):
        # the price path is one ordered product; the loop it replaced is the reference, bit for bit
        for seed in range(20):
            sim = simulate(IntermediaryConfig(seed=seed, **kw))
            a, impact = sim.aggregate, sim.config.impact
            price = np.empty(a.size)
            price[0] = 100.0
            for t in range(1, a.size):
                price[t] = price[t - 1] * (1.0 + impact * (a[t] - a[t - 1]) / a[t - 1])
            assert sim.price.tobytes() == price.tobytes()

    def test_rows_schema(self):
        sim = simulate(IntermediaryConfig(T=10, seed=1))
        columns = sim.columns()
        assert list(columns) == ["t", "vol", "regime", "aggregate_exposure", "price"]
        assert [len(c) for c in columns.values()] == [10] * 5

    def test_to_monthly_table_consecutive(self):
        sim = simulate(IntermediaryConfig(T=25, seed=1))
        table = to_monthly_table(sim, start_month="1999-11")
        assert table.months[0] == "1999-11"
        assert table.months[1] == "1999-12"
        assert table.months[2] == "2000-01"
        assert len(table.months) == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            IntermediaryConfig(stress_vol_mult=0.9)
        with pytest.raises(ValueError):
            IntermediaryConfig(stress_loss=1.5)
        with pytest.raises(ValueError):
            IntermediaryConfig(stress_entry=0.0)
        # rejected when built, not first inside simulate
        for kw in (dict(var_k=0), dict(calm_drift=-0.001), dict(initial_capital=0), dict(var_k=float("nan"))):
            with pytest.raises(ValueError, match="must be positive"):
                IntermediaryConfig(**kw)

    @pytest.mark.parametrize("kw,message", [
        (dict(impact=2.5), "simulated price is -23.5959 at t=3;"),
        (dict(calm_drift=1e-4, capital_noise_sd=0.05, T=2000),
         "simulated aggregate exposure is -0.375947 at t=549;"),
    ])
    def test_rejects_non_positive_price_or_aggregate(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(IntermediaryConfig(seed=0, **kw))

    def test_non_positive_agent_capital_accepted(self):
        # one agent's capital crosses zero; price and aggregate stay positive
        sim = simulate(IntermediaryConfig(seed=379))
        assert sim.capital.min() <= 0
        assert sim.aggregate.min() > 0 and sim.price.min() > 0
