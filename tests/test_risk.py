import math

import numpy as np
import pytest

from chainsure import market, risk
from chainsure.harness import ExperimentConfig, run_sweep
from chainsure.oracles import adaptive_simpson, expected_loss, reputation_penalty
from chainsure.risk import (
    GRID_INTERVALS,
    RiskModel,
    _NODES,
    _WIDTH,
    _model_survival,
    attack_probability,
    distorted_log_moments,
    premium,
    premium_curve,
    survival_grid,
)
from conftest import ADAPTIVE, ADAPTIVE_FAST, beta_quadrature, nested_adaptive_premium

DEFAULTS = RiskModel(blocks_per_period=10.0, tx_per_block=100,
                     compensation_rate=10.0, mining_reward=10.0)


def default_p(theta: float) -> float:
    return attack_probability(DEFAULTS, theta)


class TestRiskModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            RiskModel(0.0, 100, 10.0, 10.0)
        with pytest.raises(ValueError):
            RiskModel(10.0, 0, 10.0, 10.0)
        with pytest.raises(ValueError):
            RiskModel(10.0, 100, -1.0, 10.0)
        with pytest.raises(ValueError):
            RiskModel(float("inf"), 100, 10.0, 10.0)

    def test_scales(self):
        assert DEFAULTS.claim_scale == 10.0 * 100 * 10.0
        assert DEFAULTS.reward_scale == 10.0 * 100 * 10.0


class TestAttackProbability:
    def test_below_half_certain(self):
        assert attack_probability(DEFAULTS, 0.3) == 1.0
        assert attack_probability(DEFAULTS, 0.0) == 1.0

    def test_continuous_at_half(self):
        # w = 4 * 0.5 * 0.5 = 1 forces the Beta branch to 1 as well
        assert attack_probability(DEFAULTS, 0.5) == 1.0

    def test_safe_at_full_investment(self):
        assert attack_probability(DEFAULTS, 1.0) == 0.0

    def test_against_quadrature_oracle(self):
        # h = 0.75 with 10 blocks/period: I_{0.75}(7.5, 1/2)
        value = attack_probability(DEFAULTS, 0.75)
        assert math.isclose(value, beta_quadrature(0.75, 7.5, 0.5), abs_tol=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            attack_probability(DEFAULTS, -0.1)
        with pytest.raises(ValueError):
            attack_probability(DEFAULTS, 1.0001)

    @pytest.mark.parametrize("ratio", [5.0, 10.0, 20.0])
    def test_nonincreasing(self, ratio):
        model = RiskModel(ratio, 100, 10.0, 10.0)
        grid = np.linspace(0.0, 1.0, 200)
        values = [attack_probability(model, float(h)) for h in grid]
        assert np.all(np.diff(values) <= 1e-12)


class TestExpectedLoss:
    def test_zero_risk_above_half(self):
        # p identically zero on (1/2, 1]: the survival weight stays 1, so the
        # loss integral is the bare half-interval
        survival = survival_grid(np.full(GRID_INTERVALS, 0.0))
        value = DEFAULTS.claim_scale * float(np.sum(survival) * _WIDTH)
        assert math.isclose(value, DEFAULTS.claim_scale * 0.5, rel_tol=1e-12)

    def test_certain_attack_above_half(self):
        # p identically one: inner integral is (t - 1/2), outer integral 3/8
        survival = survival_grid(np.full(GRID_INTERVALS, 1.0))
        value = DEFAULTS.claim_scale * float(np.sum(survival) * _WIDTH)
        assert math.isclose(value, DEFAULTS.claim_scale * 0.375, rel_tol=1e-12)

    def test_defaults_against_adaptive_oracle(self):
        oracle = nested_adaptive_premium(default_p, DEFAULTS.claim_scale, 1.0)
        value = expected_loss(DEFAULTS)
        assert math.isclose(value, oracle, rel_tol=1e-3)
        # frozen from the oracle on 2026-08-11; guards against regressions
        assert math.isclose(value, 4542.684321, rel_tol=1e-3)
        assert value > 0.0


class TestPremium:
    def test_gamma_one_is_expected_loss(self):
        assert premium(DEFAULTS, 1.0) == expected_loss(DEFAULTS)

    def test_large_gamma_limit(self):
        # x^(1/gamma) -> 1, so the premium tends to claim_scale / 2
        assert math.isclose(premium(DEFAULTS, 1e12), DEFAULTS.claim_scale * 0.5, rel_tol=1e-9)

    def test_gamma_two_against_adaptive_oracle(self):
        oracle = nested_adaptive_premium(default_p, DEFAULTS.claim_scale, 2.0)
        value = premium(DEFAULTS, 2.0)
        assert math.isclose(value, oracle, rel_tol=1e-3)
        assert math.isclose(value, 4765.318980, rel_tol=1e-3)  # frozen from the oracle

    def test_nondecreasing_in_gamma(self):
        grid = np.linspace(1.0, 2.0, 50)
        values = [premium(DEFAULTS, float(g)) for g in grid]
        assert np.all(np.diff(values) >= -1e-9)

    def test_bounds(self):
        loss = expected_loss(DEFAULTS)
        cap = DEFAULTS.claim_scale * 0.5
        for gamma in np.linspace(1.0, 2.0, 50):
            lam = premium(DEFAULTS, float(gamma))
            assert loss - 1e-9 <= lam <= cap + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            premium(DEFAULTS, 0.99)
        with pytest.raises(ValueError):
            premium_curve(DEFAULTS)(0.99)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    @pytest.mark.parametrize("gamma_function", [
        lambda g: premium(DEFAULTS, g),
        lambda g: premium_curve(DEFAULTS)(g),
        lambda g: distorted_log_moments(DEFAULTS, g),
        lambda g: reputation_penalty(0.75, g, 10.0),
    ], ids=["premium", "premium_curve", "distorted_log_moments", "reputation_penalty"])
    def test_non_finite_gamma_rejected(self, gamma_function, gamma):
        # NaN fails no `gamma < 1` test, and inf priced at claim_scale / 2
        with pytest.raises(ValueError, match="finite"):
            gamma_function(gamma)

    def test_curve_matches_table_formula(self):
        curve = premium_curve(DEFAULTS)
        survival = _model_survival(DEFAULTS)
        for gamma in np.linspace(1.0, 2.0, 50).tolist():
            expected = DEFAULTS.claim_scale * float(np.sum(survival ** (1.0 / gamma)) * _WIDTH)
            assert curve(gamma) == expected
            assert premium(DEFAULTS, gamma) == expected


class TestSurvivalGrid:
    def test_returns_a_read_only_float_table(self):
        survival = survival_grid([0.5] * GRID_INTERVALS)
        assert survival.shape == (GRID_INTERVALS,)
        assert survival.dtype == np.float64 and not survival.flags.writeable

    @pytest.mark.parametrize("shape", [(GRID_INTERVALS - 1,), (GRID_INTERVALS + 1,), (),
                                       (1, GRID_INTERVALS), (GRID_INTERVALS, 1)])
    def test_rejects_any_other_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            survival_grid(np.full(shape, 0.5))


class TestSurvivalTableOnFloats:
    """The table is built from Python-float nodes; numpy-scalar nodes, which
    run the same arithmetic more slowly, must give the same bits."""

    def test_block_count_evaluates_python_floats(self, monkeypatch):
        seen = []
        attack_curve = risk._attack_curve

        def recording(blocks_per_period, hbar):
            seen.append((type(blocks_per_period), type(hbar)))
            return attack_curve(blocks_per_period, hbar)
        monkeypatch.setattr(risk, "_attack_curve", recording)
        risk._block_count.cache_clear()
        try:
            values = risk._block_count(10.0)[0]
        finally:
            risk._block_count.cache_clear()
        assert seen == [(float, float)] * GRID_INTERVALS
        assert values.shape == (GRID_INTERVALS,) and not values.flags.writeable

    @pytest.mark.parametrize("blocks", [0.1, 1.0, 10.0, 37.3, 100.0, 1e3, 1e5])
    def test_model_table_equals_numpy_scalar_nodes(self, blocks):
        model = RiskModel(blocks, 100, 10.0, 10.0)
        survival = _model_survival(model)
        values = []
        for t in np.array(_NODES):
            assert type(t) is np.float64
            values.append(attack_probability(model, t))
        values = np.array(values)
        prefix = np.concatenate(([0.0], np.cumsum(values) * _WIDTH))
        assert np.array_equal(survival, 1.0 - (prefix[:-1] + 0.5 * _WIDTH * values))


class TestAttackNodeCache:
    """The incomplete Beta runs once per grid node and block count; each
    RiskModel still gets its own survival_grid call over those values."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"reg_inc_beta": 0, "survival_grid": 0}

        def counted(name):
            fn = getattr(risk, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(risk, name, wrapper)

        counted("reg_inc_beta")
        counted("survival_grid")
        risk._block_count.cache_clear()
        _model_survival.cache_clear()
        yield calls
        risk._block_count.cache_clear()
        _model_survival.cache_clear()

    def test_models_sharing_a_block_count_share_the_incomplete_beta(self, counts):
        models = [RiskModel(10.0, 100, 10.0, 10.0), RiskModel(10.0, 250, 10.0, 10.0),
                  RiskModel(10.0, 100, 3.5, 0.25)]
        tables = [_model_survival(model) for model in models]
        assert counts == {"reg_inc_beta": GRID_INTERVALS, "survival_grid": 3}
        assert all(np.array_equal(tables[0], table) for table in tables[1:])
        _model_survival(RiskModel(37.3, 100, 10.0, 10.0))
        assert counts == {"reg_inc_beta": 2 * GRID_INTERVALS, "survival_grid": 4}
        assert risk._block_count.cache_info().currsize == 2


class TestDistortedMassMemo:
    """premium_curve reads the distorted survival mass back from its block
    count's table, keyed by gamma, bit for bit, within a fixed bound per
    block count."""

    @pytest.fixture(autouse=True)
    def empty_tables(self):
        risk._block_count.cache_clear()
        yield
        risk._block_count.cache_clear()

    def test_models_sharing_a_block_count_read_the_same_masses(self):
        models = [RiskModel(10.0, 100, 10.0, 10.0), RiskModel(10.0, 250, 3.5, 10.0)]
        gammas = np.linspace(1.0, 2.0, 200).tolist()
        masses = risk._block_count(10.0)[1]
        for model in models + models:  # the second model and the second round read the memo
            self.assert_uncached(model, gammas)
            assert list(masses) == gammas
        # another block count has a table, and masses, of its own
        self.assert_uncached(RiskModel(37.3, 100, 10.0, 10.0), gammas)
        assert list(risk._block_count(37.3)[1]) == gammas
        assert list(masses) == gammas

    @staticmethod
    def assert_uncached(model, gammas):
        curve = premium_curve(model)
        survival = _model_survival(model)
        for gamma in gammas:
            mass = float((survival ** (1.0 / gamma)).sum() * _WIDTH)
            assert curve(gamma) == model.claim_scale * mass

    def test_empties_exactly_when_full(self):
        model = RiskModel(10.0, 100, 10.0, 10.0)
        curve = premium_curve(model)
        masses = risk._block_count(model.blocks_per_period)[1]
        gammas = np.linspace(1.0, 2.0, risk.DISTORTED_MASSES_KEPT + 3).tolist()
        full = gammas[:risk.DISTORTED_MASSES_KEPT]
        self.assert_uncached(model, full)
        assert list(masses) == full
        # a read-back keeps the full memo as it is
        self.assert_uncached(model, full[::-1])
        assert list(masses) == full
        # the next new gamma empties it first; each mass read back or
        # computed again equals its recomputation (assert_uncached)
        self.assert_uncached(model, gammas[-3:] + gammas[-3:])
        assert list(masses) == gammas[-3:]
        # another block count's masses empty none of these
        self.assert_uncached(RiskModel(37.3, 100, 10.0, 10.0), gammas)
        assert list(masses) == gammas[-3:]
        assert list(risk._block_count(37.3)[1]) == gammas[-3:]

    def test_bound_holds_over_a_long_sweep(self, monkeypatch):
        priced = set()
        premium_curve_of = market.premium_curve

        def recording(model):
            curve = premium_curve_of(model)

            def recorded(gamma):
                priced.add(gamma)
                return curve(gamma)
            return recorded
        monkeypatch.setattr(market, "premium_curve", recording)
        cfg = ExperimentConfig.from_dict({
            "n_users": [1], "attacker_resource": np.linspace(20.0, 200.0, 20).tolist(),
            "tx_per_block": list(range(50, 150)), "seed": 3})
        rows = run_sweep(cfg)
        assert len(rows) == 2000 and all(row.converged for row in rows)
        # the 2000 points share one block count, so one table holds their
        # masses, and they priced more gammas than it keeps
        assert risk._block_count.cache_info().currsize == 1
        assert len(priced) > risk.DISTORTED_MASSES_KEPT
        assert len(risk._block_count(cfg.blocks_per_period)[1]) <= risk.DISTORTED_MASSES_KEPT


class TestQuadratureAgreement:
    """The 100-cell midpoint grid must track the adaptive oracle on every
    integrand the model actually uses."""

    def test_attack_probability_integrand(self):
        # the table's inner integral of p at every node, to 1e-3 of the whole
        survival = _model_survival(DEFAULTS)
        oracle = np.array([adaptive_simpson(default_p, 0.5, t, ADAPTIVE) for t in _NODES])
        np.testing.assert_allclose(1.0 - survival, oracle, rtol=0.0, atol=1e-3 * oracle[-1])

    @pytest.mark.parametrize("gamma", [1.0, 1.3, 2.0])
    def test_distorted_survival_integrand(self, gamma):
        mid = premium(DEFAULTS, gamma)
        ora = nested_adaptive_premium(default_p, DEFAULTS.claim_scale, gamma)
        assert math.isclose(mid, ora, rel_tol=1e-3)

    def test_log_weighted_integrands(self):
        gamma = 1.5
        i0, i1, i2 = distorted_log_moments(DEFAULTS, gamma)

        def survival(t):
            return 1.0 - adaptive_simpson(default_p, 0.5, t, ADAPTIVE_FAST)

        o0 = adaptive_simpson(lambda t: survival(t) ** (1 / gamma), 0.5, 1.0, ADAPTIVE_FAST)
        o1 = adaptive_simpson(
            lambda t: survival(t) ** (1 / gamma) * math.log(survival(t)), 0.5, 1.0, ADAPTIVE_FAST
        )
        o2 = adaptive_simpson(
            lambda t: survival(t) ** (1 / gamma) * math.log(survival(t)) ** 2,
            0.5, 1.0, ADAPTIVE_FAST,
        )
        assert math.isclose(i0, o0, rel_tol=1e-3)
        assert math.isclose(i1, o1, rel_tol=1e-3)
        assert math.isclose(i2, o2, rel_tol=1e-3)
        assert i1 < 0.0  # ln of a sub-unit survival weight


class TestReputationPenalty:
    def test_zero_at_half_investment(self):
        assert reputation_penalty(0.5, 1.7, 10.0) == 0.0

    def test_zero_at_break_even_premium(self):
        assert reputation_penalty(0.8, 1.0, 10.0) == 0.0

    def test_hand_value(self):
        # 0.25^3 * 1 * 2^10 = 16
        assert reputation_penalty(0.75, 2.0, 10.0) == pytest.approx(16.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            reputation_penalty(0.75, 2.0, 1.0)
        with pytest.raises(ValueError):
            reputation_penalty(0.3, 2.0, 10.0)
        with pytest.raises(ValueError):
            reputation_penalty(0.75, 0.5, 10.0)
