import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsure.demand import ExternalityGraph
from chainsure.market import (
    InsurerStrategy,
    MarketParams,
    ProviderStrategy,
    check_existence,
    check_uniqueness,
    infrastructure_cost,
    insurer_curvature,
    insurer_gradient,
    insurer_profit,
    leader_jacobian,
    provider_gradient,
    provider_hessian,
    provider_profit,
    validate_strategies,
)
from chainsure.risk import RiskModel, attack_probability, expected_loss, premium
from conftest import (
    edge_arrays,
    fd_provider_gradient,
    nested_adaptive_premium,
    outcome,
    random_externality,
    richardson_difference,
)

RISK = RiskModel(10.0, 100, 10.0, 10.0)
PARAMS = MarketParams(risk=RISK, attacker_resource=100.0, beta=10.0,
                      price_cap=1.0, gamma_cap=2.0)


def default_p(theta):
    return attack_probability(RISK, theta)


def interior_point(rng, n):
    s_p = ProviderStrategy(rng.uniform(0.1, 1.0, n), float(rng.uniform(0.55, 0.95)))
    s_i = InsurerStrategy(float(rng.uniform(1.05, 1.95)))
    return s_p, s_i


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            MarketParams(RISK, 0.0, 10.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            MarketParams(RISK, 100.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            MarketParams(RISK, 100.0, 10.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            MarketParams(RISK, 100.0, 10.0, 1.0, 1.0)

    def test_provider_validation(self):
        with pytest.raises(ValueError):
            ProviderStrategy(np.array([0.0, 0.5]), 0.7)
        with pytest.raises(ValueError):
            ProviderStrategy(np.array([0.5]), 0.4)
        with pytest.raises(ValueError):
            ProviderStrategy(np.array([0.5]), 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ProviderStrategy(np.array([0.5, bad]), 0.7)

    def test_insurer_validation(self):
        for bad in (0.9, math.nan, math.inf):
            with pytest.raises(ValueError):
                InsurerStrategy(bad)
        assert InsurerStrategy(1.0).gamma == 1.0  # break-even policy is expressible


def frozen_provider_strategy(prices, investment_ratio):
    """ProviderStrategy's checks and stored prices in their np.all form."""
    p = np.atleast_1d(np.asarray(prices, dtype=float)).copy()
    if not np.all((p > 0) & (p < math.inf)):
        raise ValueError("prices must be strictly positive and finite")
    if not 0.5 <= investment_ratio < 1.0:
        raise ValueError(f"investment ratio must lie in [1/2, 1), got {investment_ratio}")
    return p


def frozen_validate_strategies(params, graph, s_p, s_i):
    """validate_strategies in its np.any form."""
    if s_p.prices.shape != (graph.n_users,):
        raise ValueError(f"price vector has shape {s_p.prices.shape}, expected ({graph.n_users},)")
    if np.any(s_p.prices > params.price_cap + 1e-12):
        raise ValueError("a price exceeds the regulated cap")
    if s_i.gamma > params.gamma_cap + 1e-12:
        raise ValueError("gamma exceeds the regulated cap")


class TestChecksEqualFrozenForms:
    """The strategy checks, written as ufunc reductions, accept and reject
    what their np.all / np.any forms did, with the same error."""

    @given(edge_arrays(bounds=(0.0,)), st.sampled_from([0.75, 0.5, 0.4, 1.0, math.nan]))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_provider_strategy(self, prices, investment_ratio):
        kind, value = outcome(ProviderStrategy, prices, investment_ratio)
        frozen_kind, frozen_value = outcome(frozen_provider_strategy, prices, investment_ratio)
        assert kind == frozen_kind
        if kind != "ok":
            assert value == frozen_value
            return
        assert value.prices.tobytes() == frozen_value.tobytes()
        with warnings.catch_warnings():  # the mean of no prices is NaN, with a warning
            warnings.simplefilter("ignore", RuntimeWarning)
            mean, frozen_mean = value.mean_price, float(np.mean(frozen_value))
        assert np.float64(mean).tobytes() == np.float64(frozen_mean).tobytes()

    @given(edge_arrays(bounds=(PARAMS.price_cap + 1e-12,)),
           st.sampled_from([1.5, PARAMS.gamma_cap + 1e-12, 2.5, math.nan]))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_validate_strategies(self, prices, gamma):
        # a stand-in strategy, so that prices ProviderStrategy rejects reach the check
        n = prices.shape[0] if prices.ndim == 1 and prices.size else 3
        graph = ExternalityGraph(np.zeros((n, n)), 0.0)
        s_p, s_i = types.SimpleNamespace(prices=prices), types.SimpleNamespace(gamma=gamma)
        assert (outcome(validate_strategies, PARAMS, graph, s_p, s_i)
                == outcome(frozen_validate_strategies, PARAMS, graph, s_p, s_i))


class TestProfits:
    def test_infrastructure_cost_half(self):
        assert infrastructure_cost(PARAMS, 0.5) == PARAMS.attacker_resource

    def test_infrastructure_cost_pole(self):
        assert infrastructure_cost(PARAMS, 1.0 - 1e-6) > 1e5 * PARAMS.attacker_resource

    def test_provider_profit_boundary(self):
        # vanishing prices at hbar = 1/2: revenue ~ 0, cost = a, mining = 5000
        graph = ExternalityGraph(np.zeros((3, 3)), 0.0)
        s_p = ProviderStrategy(np.full(3, 1e-12), 0.5)
        s_i = InsurerStrategy(1.4)
        value = provider_profit(PARAMS, graph, s_p, s_i)
        expected = -100.0 + 5000.0 - premium(RISK, 1.4)
        assert math.isclose(value, expected, abs_tol=1e-6)

    @pytest.mark.parametrize("prices, gamma, message", [
        (np.full(2, 0.5), 1.5, "price vector has shape"),
        (np.array([0.5, 1.1, 0.5]), 1.5, "a price exceeds the regulated cap"),
        (np.full(3, 0.5), 2.5, "gamma exceeds the regulated cap"),
    ], ids=["shape", "price_cap", "gamma_cap"])
    def test_provider_profit_validates_strategies(self, prices, gamma, message):
        graph = ExternalityGraph(np.zeros((3, 3)), 0.0)
        with pytest.raises(ValueError, match=message):
            provider_profit(PARAMS, graph, ProviderStrategy(prices, 0.75), InsurerStrategy(gamma))

    def test_provider_profit_termwise_oracle(self):
        rng = np.random.default_rng(12)
        n = 8
        w = rng.uniform(0.0, 10.0, (n, n))
        np.fill_diagonal(w, 0.0)
        graph = ExternalityGraph(w, 0.01)
        s_p = ProviderStrategy(np.full(n, 0.5), 0.9)
        s_i = InsurerStrategy(1.5)
        # independent route: explicit inverse for the demand, nested adaptive
        # quadrature for the premium
        m = np.linalg.inv(np.eye(n) - 0.01 * w)
        x = m @ ((1.0 + 0.9) * np.ones(n) - s_p.prices)
        oracle = (
            float(s_p.prices @ x)
            - 100.0 * 0.9 / 0.1
            + 0.9 * RISK.reward_scale
            - nested_adaptive_premium(default_p, RISK.claim_scale, 1.5)
        )
        value = provider_profit(PARAMS, graph, s_p, s_i)
        assert math.isclose(value, oracle, rel_tol=1e-3)

    def test_insurer_profit_break_even(self):
        # hbar = 1/2, gamma = 1: certain attack, half the claim scale at risk
        s_p = ProviderStrategy(np.array([0.5]), 0.5)
        s_i = InsurerStrategy(1.0)
        value = insurer_profit(PARAMS, s_p, s_i)
        assert math.isclose(value, expected_loss(RISK) - 5000.0, abs_tol=1e-9)

    def test_insurer_profit_claim_vanishes_near_full_investment(self):
        s_p = ProviderStrategy(np.array([0.5]), 1.0 - 1e-9)
        s_i = InsurerStrategy(1.5)
        claim = attack_probability(RISK, s_p.investment_ratio) * s_p.investment_ratio * RISK.claim_scale
        assert claim < 1e-12

    def test_insurer_profit_termwise_oracle(self):
        s_p = ProviderStrategy(np.array([0.5]), 0.9)
        s_i = InsurerStrategy(1.5)
        oracle = (
            nested_adaptive_premium(default_p, RISK.claim_scale, 1.5)
            - attack_probability(RISK, 0.9) * 0.9 * RISK.claim_scale
            - (0.9 - 0.5) ** 3 * 0.5 * 1.5**10
        )
        assert math.isclose(insurer_profit(PARAMS, s_p, s_i), oracle, rel_tol=1e-3)


class TestGradients:
    def test_price_gradient_decoupled(self):
        graph = ExternalityGraph(np.zeros((4, 4)), 0.0)
        s_p = ProviderStrategy(np.array([0.3, 0.5, 0.7, 0.9]), 0.8)
        grad = provider_gradient(PARAMS, graph, s_p, InsurerStrategy(1.5))
        np.testing.assert_allclose(grad[:4], 1.0 + 0.8 - 2.0 * s_p.prices, atol=1e-12)

    def test_stationary_price_decoupled(self):
        graph = ExternalityGraph(np.zeros((2, 2)), 0.0)
        hbar = 0.8
        s_p = ProviderStrategy(np.full(2, (1.0 + hbar) / 2.0), hbar)
        grad = provider_gradient(PARAMS, graph, s_p, InsurerStrategy(1.5))
        np.testing.assert_allclose(grad[:2], 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 10])
    def test_provider_gradient_matches_finite_differences(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            graph = random_externality(rng, n, target_alpha_rho=rng.uniform(0.1, 0.8))
            s_p, s_i = interior_point(rng, n)
            grad = provider_gradient(PARAMS, graph, s_p, s_i)
            fd = fd_provider_gradient(
                lambda p, h: provider_profit(PARAMS, graph, ProviderStrategy(p, h), s_i),
                s_p.prices, s_p.investment_ratio,
            )
            assert np.all(np.abs(grad - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))

    def test_insurer_gradient_positive_at_half(self):
        # no penalty at hbar = 1/2 and ln B < 0 makes the premium slope positive
        s_p = ProviderStrategy(np.array([0.5]), 0.5)
        for gamma in (1.1, 1.5, 2.0):
            assert insurer_gradient(PARAMS, s_p, InsurerStrategy(gamma)) > 0.0

    def test_insurer_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            s_p, s_i = interior_point(rng, 1)
            grad = insurer_gradient(PARAMS, s_p, s_i)
            fd = richardson_difference(
                lambda g: insurer_profit(PARAMS, s_p, InsurerStrategy(g)), s_i.gamma
            )
            assert abs(grad - fd) <= 1e-6 * max(1.0, abs(fd))


class TestHessian:
    def test_decoupled_price_block(self):
        graph = ExternalityGraph(np.zeros((3, 3)), 0.0)
        hess = provider_hessian(PARAMS, graph, ProviderStrategy(np.full(3, 0.5), 0.7))
        np.testing.assert_allclose(hess[:3, :3], -2.0 * np.eye(3), atol=1e-12)

    def test_corner_at_half(self):
        graph = ExternalityGraph(np.zeros((2, 2)), 0.0)
        hess = provider_hessian(PARAMS, graph, ProviderStrategy(np.full(2, 0.5), 0.5))
        assert hess[2, 2] == pytest.approx(-16.0 * PARAMS.attacker_resource)

    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(4)
        n = 5
        for _ in range(5):
            graph = random_externality(rng, n, target_alpha_rho=rng.uniform(0.1, 0.8))
            s_p, s_i = interior_point(rng, n)
            hess = provider_hessian(PARAMS, graph, s_p)
            step = 1e-5
            base = np.concatenate([s_p.prices, [s_p.investment_ratio]])
            for k in range(n + 1):
                up, dn = base.copy(), base.copy()
                up[k] += step
                dn[k] -= step
                fd_col = (
                    provider_gradient(PARAMS, graph, ProviderStrategy(up[:n], up[n]), s_i)
                    - provider_gradient(PARAMS, graph, ProviderStrategy(dn[:n], dn[n]), s_i)
                ) / (2 * step)
                assert np.all(np.abs(hess[:, k] - fd_col) <= 1e-4 * np.maximum(1.0, np.abs(fd_col)))

    def test_negative_definite_under_existence(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            graph = random_externality(rng, n, target_alpha_rho=rng.uniform(0.1, 0.7))
            assert check_existence(PARAMS, graph).holds
            s_p, _ = interior_point(rng, n)
            hess = provider_hessian(PARAMS, graph, s_p)
            np.linalg.cholesky(-hess)  # raises if not positive definite

    def test_insurer_concave_on_domain(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            s_p, _ = interior_point(rng, 1)
            for gamma in np.linspace(1.0 + 1e-6, 2.0, 25):
                curv = insurer_curvature(PARAMS, s_p, InsurerStrategy(float(gamma)))
                assert curv <= 1e-9


class TestConditionChecks:
    def test_existence_decoupled(self):
        graph = ExternalityGraph(np.zeros((100, 100)), 0.0)
        chk = check_existence(PARAMS, graph)
        assert chk.rhs == pytest.approx(12.5)
        assert chk.holds
        low_a = MarketParams(RISK, 10.0, 10.0, 1.0, 2.0)
        assert not check_existence(low_a, graph).holds

    def test_existence_against_linear_solve_oracle(self):
        rng = np.random.default_rng(21)
        w = rng.uniform(0.0, 10.0, (50, 50))
        np.fill_diagonal(w, 0.0)
        graph = ExternalityGraph(w, 7e-4)
        oracle = float(np.ones(50) @ np.linalg.solve(np.eye(50) - 7e-4 * w, np.ones(50)))
        chk = check_existence(PARAMS, graph)
        assert chk.rhs == pytest.approx(oracle / 8.0, rel=1e-10)

    def test_uniqueness_threshold_arithmetic(self):
        chk = check_uniqueness(PARAMS)
        # 9 * 121 * 2^11 / 1280
        assert chk.rhs == pytest.approx(1742.4)
        assert not chk.holds  # a = 100 at the default coefficients
        strong = MarketParams(RISK, 2000.0, 10.0, 1.0, 2.0)
        assert check_uniqueness(strong).holds


class TestLeaderJacobian:
    def test_cross_terms_vanish_at_half(self):
        graph = ExternalityGraph(np.zeros((2, 2)), 0.0)
        jac = leader_jacobian(PARAMS, graph, ProviderStrategy(np.full(2, 0.5), 0.5),
                              InsurerStrategy(1.5))
        assert jac[2, 3] == 0.0 and jac[3, 2] == 0.0

    def test_price_gamma_block_zero(self):
        rng = np.random.default_rng(2)
        n = 4
        graph = random_externality(rng, n)
        s_p, s_i = interior_point(rng, n)
        jac = leader_jacobian(PARAMS, graph, s_p, s_i)
        np.testing.assert_array_equal(jac[:n, n + 1], 0.0)
        np.testing.assert_array_equal(jac[n + 1, :n], 0.0)

    def test_diagonal_blocks_match_components(self):
        rng = np.random.default_rng(6)
        n = 3
        graph = random_externality(rng, n)
        s_p, s_i = interior_point(rng, n)
        jac = leader_jacobian(PARAMS, graph, s_p, s_i)
        np.testing.assert_allclose(
            jac[: n + 1, : n + 1], 2.0 * provider_hessian(PARAMS, graph, s_p), atol=1e-12
        )
        assert jac[n + 1, n + 1] == pytest.approx(2.0 * insurer_curvature(PARAMS, s_p, s_i))

    def test_gamma_curvature_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            s_p, s_i = interior_point(rng, 1)
            curv = insurer_curvature(PARAMS, s_p, s_i)
            step = 1e-5
            fd = (
                insurer_gradient(PARAMS, s_p, InsurerStrategy(s_i.gamma + step))
                - insurer_gradient(PARAMS, s_p, InsurerStrategy(s_i.gamma - step))
            ) / (2 * step)
            assert abs(curv - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_negative_definite_under_uniqueness(self):
        strong = MarketParams(RISK, 2000.0, 10.0, 1.0, 2.0)
        assert check_uniqueness(strong).holds
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            graph = random_externality(rng, n, target_alpha_rho=rng.uniform(0.1, 0.7))
            s_p, s_i = interior_point(rng, n)
            jac = leader_jacobian(strong, graph, s_p, s_i)
            assert float(np.max(np.linalg.eigvalsh(jac))) < 0.0
