import math

import numpy as np
import pytest

from chainsure import risk
from chainsure.harness import ExperimentConfig, run_sweep
from chainsure.risk import (
    GRID_INTERVALS,
    RiskModel,
    _model_survival,
    attack_probability,
    distorted_log_moments,
    expected_loss,
    premium,
    premium_curve,
    reputation_penalty,
    survival_grid,
)
from chainsure.specfun import adaptive_simpson
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
        _, survival, width = survival_grid(lambda t: 0.0)
        value = DEFAULTS.claim_scale * float(np.sum(survival) * width)
        assert math.isclose(value, DEFAULTS.claim_scale * 0.5, rel_tol=1e-12)

    def test_certain_attack_above_half(self):
        # p identically one: inner integral is (t - 1/2), outer integral 3/8
        _, survival, width = survival_grid(lambda t: 1.0)
        value = DEFAULTS.claim_scale * float(np.sum(survival) * width)
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
        _, survival, width = _model_survival(DEFAULTS)
        for gamma in np.linspace(1.0, 2.0, 50).tolist():
            expected = DEFAULTS.claim_scale * float(np.sum(survival ** (1.0 / gamma)) * width)
            assert curve(gamma) == expected
            assert premium(DEFAULTS, gamma) == expected


class TestSurvivalTableOnFloats:
    """The table is built from Python-float nodes; numpy-scalar nodes, which
    run the same arithmetic more slowly, must give the same bits."""

    def test_p_fn_receives_python_floats(self):
        seen = []
        nodes, _, _ = survival_grid(lambda t: seen.append(type(t)) or 0.5)
        assert seen == [float] * GRID_INTERVALS
        assert nodes.dtype == np.float64

    @pytest.mark.parametrize("blocks", [0.1, 1.0, 10.0, 37.3, 100.0, 1e3, 1e5])
    def test_model_table_equals_numpy_scalar_nodes(self, blocks):
        model = RiskModel(blocks, 100, 10.0, 10.0)
        nodes, survival, width = _model_survival(model)
        values = []
        for t in nodes:
            assert type(t) is np.float64
            values.append(attack_probability(model, t))
        values = np.array(values)
        prefix = np.concatenate(([0.0], np.cumsum(values) * width))
        assert np.array_equal(survival, 1.0 - (prefix[:-1] + 0.5 * width * values))


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
        risk._attack_at_nodes.cache_clear()
        _model_survival.cache_clear()
        yield calls
        risk._attack_at_nodes.cache_clear()
        _model_survival.cache_clear()

    def test_models_sharing_a_block_count_share_the_incomplete_beta(self, counts):
        models = [RiskModel(10.0, 100, 10.0, 10.0), RiskModel(10.0, 250, 10.0, 10.0),
                  RiskModel(10.0, 100, 3.5, 0.25)]
        tables = [_model_survival(model)[1] for model in models]
        assert counts == {"reg_inc_beta": GRID_INTERVALS, "survival_grid": 3}
        assert all(np.array_equal(tables[0], table) for table in tables[1:])
        _model_survival(RiskModel(37.3, 100, 10.0, 10.0))
        assert counts == {"reg_inc_beta": 2 * GRID_INTERVALS, "survival_grid": 4}


class TestDistortedMassMemo:
    """premium_curve reads the distorted survival mass back per
    (blocks_per_period, gamma), bit for bit, within a fixed bound."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        risk._distorted_masses.clear()
        yield
        risk._distorted_masses.clear()

    def test_models_sharing_a_block_count_read_the_same_masses(self):
        models = [RiskModel(10.0, 100, 10.0, 10.0), RiskModel(10.0, 250, 3.5, 10.0)]
        gammas = np.linspace(1.0, 2.0, 200).tolist()
        for model in models + models:  # the second model and the second round read the memo
            self.assert_uncached(model, gammas)
            assert len(risk._distorted_masses) == len(gammas)
        # another block count has a table, and masses, of its own
        self.assert_uncached(RiskModel(37.3, 100, 10.0, 10.0), gammas)
        assert len(risk._distorted_masses) == 2 * len(gammas)

    @staticmethod
    def assert_uncached(model, gammas):
        curve = premium_curve(model)
        _, survival, width = _model_survival(model)
        for gamma in gammas:
            mass = float((survival ** (1.0 / gamma)).sum() * width)
            assert curve(gamma) == model.claim_scale * mass

    def test_keeps_the_newest_and_drops_the_oldest_first(self):
        model = RiskModel(10.0, 100, 10.0, 10.0)
        curve = premium_curve(model)
        gammas = np.linspace(1.0, 2.0, risk.DISTORTED_MASSES_KEPT + 3).tolist()
        for gamma in gammas:
            curve(gamma)
        kept = [(model.blocks_per_period, gamma) for gamma in gammas[3:]]
        assert list(risk._distorted_masses) == kept
        # a read does not renew an entry: the oldest still goes first
        curve(gammas[3])
        curve(2.5)
        assert list(risk._distorted_masses) == kept[1:] + [(model.blocks_per_period, 2.5)]

    def test_bound_holds_over_a_long_sweep(self):
        cfg = ExperimentConfig.from_dict({
            "n_users": [1], "attacker_resource": np.linspace(20.0, 200.0, 20).tolist(),
            "tx_per_block": list(range(50, 150)), "seed": 3})
        rows = run_sweep(cfg)
        assert len(rows) == 2000 and all(row.converged for row in rows)
        assert len(risk._distorted_masses) == risk.DISTORTED_MASSES_KEPT


class TestQuadratureAgreement:
    """The 100-cell midpoint grid must track the adaptive oracle on every
    integrand the model actually uses."""

    def test_attack_probability_integrand(self):
        # the table's inner integral of p at every node, to 1e-3 of the whole
        nodes, survival, _ = _model_survival(DEFAULTS)
        oracle = np.array([adaptive_simpson(default_p, 0.5, t, ADAPTIVE) for t in nodes.tolist()])
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
