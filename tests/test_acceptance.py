"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Numeric tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np
import pytest

from chainsure.demand import (
    ExternalityGraph,
    Segment,
    closed_form_demand,
    lcp_demand,
)
from chainsure.equilibrium import SolveOptions, solve_stackelberg
from chainsure.harness import ExperimentConfig, generate_instance
from chainsure.market import (
    InsurerStrategy,
    MarketParams,
    ProviderStrategy,
    check_existence,
    check_uniqueness,
    insurer_curvature,
    insurer_gradient,
    insurer_profit,
    provider_gradient,
    provider_profit,
)
from chainsure.oracles import brute_force_lcp, expected_loss, leader_jacobian, provider_hessian
from chainsure.risk import RiskModel, attack_probability, premium
from chainsure.specfun import reg_inc_beta
from conftest import (
    beta_closed_form,
    fd_provider_gradient,
    nested_adaptive_premium,
    random_externality,
    random_weights,
    richardson_difference,
)

RISK = RiskModel(10.0, 100, 10.0, 10.0)
PARAMS = MarketParams(risk=RISK, attacker_resource=100.0, beta=10.0,
                      price_cap=1.0, gamma_cap=2.0)


def report(number: int, label: str, started: float, limit: float):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s budget"
    print(f"\n[PASS] criterion {number}: {label} ({elapsed:.1f}s)")


def test_criterion_1_special_function_correctness():
    started = time.time()
    rng = np.random.default_rng(101)
    cases = [(u, v) for u in range(1, 6) for v in range(1, 5)]
    assert len(cases) == 20
    for u, v in cases:
        w = float(rng.uniform(0.05, 0.95))
        assert abs(reg_inc_beta(w, float(u), float(v)) - beta_closed_form(w, u, v)) <= 1e-10
    for _ in range(100):
        w = float(rng.uniform(1e-6, 1.0 - 1e-6))
        u = float(rng.uniform(0.3, 30.0))
        v = float(rng.uniform(0.3, 30.0))
        assert abs(reg_inc_beta(w, u, v) + reg_inc_beta(1.0 - w, v, u) - 1.0) <= 1e-10
    report(1, "incomplete Beta matches the polynomial oracle and symmetry identity",
           started, 1.0)


def test_criterion_2_attack_probability_boundary_and_shape():
    started = time.time()
    assert attack_probability(RISK, 0.3) == 1.0
    assert attack_probability(RISK, 0.5) == 1.0
    assert attack_probability(RISK, 1.0) == 0.0
    for ratio in (5.0, 10.0, 20.0):
        model = RiskModel(ratio, 100, 10.0, 10.0)
        grid = np.linspace(0.0, 1.0, 200)
        values = [attack_probability(model, float(h)) for h in grid]
        assert np.all(np.diff(values) <= 1e-12)
    report(2, "attack probability hits its boundary values and is nonincreasing",
           started, 5.0)


def test_criterion_3_premium_consistency():
    started = time.time()
    loss = expected_loss(RISK)
    assert abs(premium(RISK, 1.0) - loss) <= 1e-12 * max(1.0, abs(loss))
    cap = RISK.claim_scale * 0.5
    for gamma in np.linspace(1.0, 2.0, 50):
        lam = premium(RISK, float(gamma))
        assert loss - 1e-9 <= lam <= cap + 1e-9
    def p_fn(theta):
        return attack_probability(RISK, theta)
    for gamma in (1.0, 1.5, 2.0):
        oracle = nested_adaptive_premium(p_fn, RISK.claim_scale, gamma)
        assert math.isclose(premium(RISK, gamma), oracle, rel_tol=1e-3)
    report(3, "premium equals expected loss at gamma=1, respects its bounds, "
              "and tracks the adaptive oracle", started, 10.0)


def test_criterion_4_follower_subgame_correctness():
    started = time.time()
    rng = np.random.default_rng(404)
    interior_checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        graph = random_externality(rng, n, target_alpha_rho=float(rng.uniform(0.0, 0.9)))
        hbar = float(rng.uniform(0.5, 0.999))
        p = rng.uniform(0.05, 2.2, n)
        reference = brute_force_lcp(graph, hbar, p)  # raises unless exactly one partition
        solved = lcp_demand(graph, hbar, p)
        assert float(np.max(np.abs(solved.x - reference.x))) <= 1e-9
        closed = closed_form_demand(graph, hbar, p)
        if not closed.out_of_box(1e-12) and np.all(
            reference.partition == Segment.INTERIOR
        ):
            assert float(np.max(np.abs(closed.x - solved.x))) <= 1e-10
            interior_checked += 1
    assert interior_checked > 10  # the interior branch was actually exercised
    report(4, f"200 demand instances: unique partition, solvers agree "
              f"({interior_checked} fully interior)", started, 60.0)


def test_criterion_5_derivative_fidelity():
    started = time.time()
    for n in (3, 10):
        rng = np.random.default_rng(500 + n)
        for _ in range(25):
            graph = random_externality(rng, n, target_alpha_rho=float(rng.uniform(0.1, 0.8)))
            s_p = ProviderStrategy(rng.uniform(0.1, 1.0, n), float(rng.uniform(0.55, 0.95)))
            s_i = InsurerStrategy(float(rng.uniform(1.05, 1.95)))
            grad = provider_gradient(PARAMS, graph, s_p, s_i)
            fd = fd_provider_gradient(
                lambda p, h: provider_profit(PARAMS, graph, ProviderStrategy(p, h), s_i),
                s_p.prices, s_p.investment_ratio,
            )
            assert np.all(np.abs(grad - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))
            gi = insurer_gradient(PARAMS, s_p, s_i)
            fdi = richardson_difference(
                lambda g: insurer_profit(PARAMS, s_p, InsurerStrategy(g)), s_i.gamma
            )
            assert abs(gi - fdi) <= 1e-6 * max(1.0, abs(fdi))
            # second derivatives: differentiate the analytic gradients
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
            curv = insurer_curvature(PARAMS, s_p, s_i)
            fd_curv = (
                insurer_gradient(PARAMS, s_p, InsurerStrategy(s_i.gamma + step))
                - insurer_gradient(PARAMS, s_p, InsurerStrategy(s_i.gamma - step))
            ) / (2 * step)
            assert abs(curv - fd_curv) <= 1e-4 * max(1.0, abs(fd_curv))
    report(5, "analytic first and second derivatives match finite differences "
              "at 50 random interior points", started, 30.0)


def test_criterion_6_definiteness_conditions():
    started = time.time()
    rng = np.random.default_rng(606)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        graph = random_externality(rng, n, target_alpha_rho=float(rng.uniform(0.1, 0.7)))
        assert check_existence(PARAMS, graph).holds
        s_p = ProviderStrategy(rng.uniform(0.1, 1.0, n), float(rng.uniform(0.55, 0.95)))
        np.linalg.cholesky(-provider_hessian(PARAMS, graph, s_p))
    strong = MarketParams(risk=RISK, attacker_resource=2000.0, beta=10.0,
                          price_cap=1.0, gamma_cap=2.0)
    assert check_uniqueness(strong).holds
    for _ in range(50):
        n = int(rng.integers(2, 11))
        graph = random_externality(rng, n, target_alpha_rho=float(rng.uniform(0.1, 0.7)))
        s_p = ProviderStrategy(rng.uniform(0.1, 1.0, n), float(rng.uniform(0.55, 0.95)))
        s_i = InsurerStrategy(float(rng.uniform(1.05, 1.95)))
        jac = leader_jacobian(strong, graph, s_p, s_i)
        assert float(np.max(np.linalg.eigvalsh(jac))) < 0.0
    report(6, "negated Hessian factors and the joint curvature matrix is "
              "negative definite under the stated conditions", started, 30.0)


def test_criterion_7_convergence_and_uniqueness():
    started = time.time()
    strong = MarketParams(risk=RISK, attacker_resource=2000.0, beta=10.0,
                          price_cap=1.0, gamma_cap=2.0)
    assert check_uniqueness(strong).holds
    rng = np.random.default_rng(707)
    weights, alpha = random_weights(rng, 10, target_alpha_rho=0.4)
    opts = SolveOptions()
    finals = []
    # each relabelling of the users sweeps their prices in another order,
    # so the ascent takes another path to the equilibrium
    for perm in [np.arange(10)] + [rng.permutation(10) for _ in range(4)]:
        graph = ExternalityGraph(weights[np.ix_(perm, perm)], alpha)
        rep = solve_stackelberg(strong, graph, opts)
        assert rep.converged
        prices = np.empty(10)
        prices[perm] = rep.provider.prices
        finals.append(np.concatenate([prices, [rep.provider.investment_ratio, rep.insurer.gamma]]))
    stacked = np.stack(finals)
    spread = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
    assert spread < 1e-4
    report(7, f"5 relabellings of the users reach the same equilibrium (spread {spread:.2e})",
           started, 120.0)


def _sweep_equilibria(config: ExperimentConfig, coords):
    """Solve each (n, alpha, a, n_t) with a shared seeded graph per n."""
    out = {}
    for n, alpha, a, n_t in coords:
        graph = generate_instance(config, n, alpha)
        params = config.market_params(a, n_t)
        rep = solve_stackelberg(params, graph, config.solve)
        assert rep.converged, f"sweep point {(n, alpha, a, n_t)} did not converge"
        out[(n, alpha, a, n_t)] = rep
    return out


def test_criterion_8_qualitative_trend_reproduction():
    started = time.time()
    config = ExperimentConfig(seed=0)
    users = list(range(50, 121, 10))
    alphas = [6.5e-4, 7.0e-4, 7.5e-4]

    # (a) user-count and externality sweeps
    grid = _sweep_equilibria(config, [(n, al, 100.0, 100) for n, al in
                                      itertools.product(users, alphas)])
    for alpha in alphas:
        profits = [grid[(n, alpha, 100.0, 100)].profits[0] for n in users]
        assert np.all(np.diff(profits) >= -1e-6), f"profit not nondecreasing in n at {alpha}"
    for n in users:
        profits = [grid[(n, alpha, 100.0, 100)].profits[0] for alpha in alphas]
        assert np.all(np.diff(profits) > 0.0), f"profit not increasing in alpha at n={n}"

    # (b) stronger externality: more demand, cheaper premium coefficient
    for n in users:
        demands = [grid[(n, alpha, 100.0, 100)].demand.total for alpha in alphas]
        assert np.all(np.diff(demands) >= -1e-9), f"demand decreasing in alpha at n={n}"
        gammas = [grid[(n, alpha, 100.0, 100)].insurer.gamma for alpha in alphas]
        assert np.all(np.diff(gammas) <= 1e-7), f"gamma not nonincreasing in alpha at n={n}"

    # (c) attacker-resource sweep at n=100
    resources = [50.0, 100.0, 150.0]
    rows = _sweep_equilibria(config, [(100, 7e-4, a, 100) for a in resources])
    profits = [rows[(100, 7e-4, a, 100)].profits[0] for a in resources]
    assert np.all(np.diff(profits) <= 1e-6), "provider profit not nonincreasing in a"
    investments = [
        a * rows[(100, 7e-4, a, 100)].provider.investment_ratio
        / (1.0 - rows[(100, 7e-4, a, 100)].provider.investment_ratio)
        for a in resources
    ]
    assert np.all(np.diff(investments) >= -1e-6), "infrastructure spend not nondecreasing in a"
    report(8, "all sweep trends match: profit vs users/externality, demand and "
              "premium coefficient vs externality, profit and investment vs attacker",
           started, 1800.0)


def test_criterion_9_investment_ratio_anchor():
    started = time.time()
    config = ExperimentConfig(seed=0)
    # no exact reference values exist for these sweeps (they depend on the
    # externality draw), so the check pins an ordering and a band: at the
    # largest block size the investment ratio must fall as the attacker
    # grows, with both ratios high but bounded away from 1
    rows = _sweep_equilibria(config, [(100, 7e-4, a, 300) for a in (50.0, 100.0)])
    weak = rows[(100, 7e-4, 50.0, 300)].provider.investment_ratio
    strong = rows[(100, 7e-4, 100.0, 300)].provider.investment_ratio
    assert weak > strong, "investment ratio must drop as the attacker grows"
    assert 0.9 < weak < 0.97
    assert 0.9 < strong < 0.97
    report(9, f"investment-ratio anchor holds: {weak:.4f} (a=50) > {strong:.4f} "
              f"(a=100), both in (0.9, 0.97)", started, 120.0)
