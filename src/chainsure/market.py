"""Leader-side model: strategies, profits, and their exact derivatives.

The provider picks per-user prices and an investment ratio; the insurer
picks the premium coefficient. Profits are evaluated on the interior
(closed-form) demand. The gradients and the insurer's curvature are the
exact derivatives of those profit expressions and are finite-difference
verified in the test suite; the provider Hessian and the joint
pseudo-Jacobian live in chainsure.oracles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .demand import ExternalityGraph, closed_form_demand
from .risk import (
    RiskModel,
    attack_probability,
    distorted_log_moments,
    premium,
    premium_curve,
)

# Numerical interiors for the open strategy bounds: the infrastructure cost
# has a pole at hbar = 1 and the price/premium lower bounds are open.
PRICE_FLOOR = 1e-9
HBAR_CEILING = 1.0 - 1e-6
GAMMA_FLOOR = 1.0 + 1e-9
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class MarketParams:
    """Constants of the leader game."""

    risk: RiskModel
    attacker_resource: float
    beta: float
    price_cap: float
    gamma_cap: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.attacker_resource < math.inf:
            raise ValueError(f"attacker_resource must be positive and finite, got {self.attacker_resource}")
        if not 1 < self.beta < math.inf:
            raise ValueError(f"beta must exceed 1 and be finite, got {self.beta}")
        if not PRICE_FLOOR < self.price_cap < math.inf:
            raise ValueError(
                f"price_cap must exceed {PRICE_FLOOR!r} (the price floor) and be finite, "
                f"got {self.price_cap}"
            )
        if not GAMMA_FLOOR < self.gamma_cap < math.inf:
            raise ValueError(
                f"gamma_cap must exceed {GAMMA_FLOOR!r} (the premium floor) and be finite, "
                f"got {self.gamma_cap}"
            )
        # check_uniqueness forms 9 (beta + 1)^2 gamma_cap^(beta + 1); bound its log
        log_threshold = (math.log(9.0) + 2.0 * math.log(self.beta + 1.0)
                         + (self.beta + 1.0) * math.log(self.gamma_cap))
        if not log_threshold < _LOG_FLOAT_MAX:
            raise ValueError(
                f"beta = {self.beta} overflows the uniqueness threshold at gamma_cap = {self.gamma_cap}"
            )


@dataclass(frozen=True, eq=False)
class ProviderStrategy:
    """Prices per user plus the honest share of computing power."""

    prices: np.ndarray
    investment_ratio: float

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.prices, dtype=float)).copy()
        # written so that NaN fails
        if not np.all((p > 0) & (p < math.inf)):
            raise ValueError("prices must be strictly positive and finite")
        if not 0.5 <= self.investment_ratio < 1.0:
            raise ValueError(
                f"investment ratio must lie in [1/2, 1), got {self.investment_ratio}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "prices", p)

    @classmethod
    def _from_solver(cls, prices: np.ndarray, investment_ratio: float) -> "ProviderStrategy":
        """A strategy on the finite float prices, inside the price box, and
        the investment ratio in [1/2, 1) that a solver has just made and
        holds no other reference to: the prices are set read-only in place,
        not copied or checked again."""
        prices.setflags(write=False)
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "prices", prices)
        object.__setattr__(strategy, "investment_ratio", investment_ratio)
        return strategy

    @property
    def mean_price(self) -> float:
        # np.mean's sum and division, without its wrapper
        return float(np.add.reduce(self.prices, axis=None) / self.prices.size)


@dataclass(frozen=True)
class InsurerStrategy:
    """Premium coefficient; gamma = 1 is the break-even (expected-loss) policy."""

    gamma: float

    def __post_init__(self):
        # written so that NaN fails
        if not 1.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 1 and finite, got {self.gamma}")


@dataclass(frozen=True)
class ThresholdCheck:
    """A leader condition: it holds when lhs, the attacker resource, exceeds rhs."""

    holds: bool
    lhs: float
    rhs: float


def infrastructure_cost(params: MarketParams, hbar: float) -> float:
    """Spend needed to hold the share hbar against the attacker's resource:
    a * hbar / (1 - hbar); diverges as hbar -> 1."""
    return params.attacker_resource * hbar / (1.0 - hbar)


def provider_profit_at(params: MarketParams, s_p: ProviderStrategy, x: np.ndarray,
                       premium_paid: float) -> float:
    """provider_profit's formula, given the interior demand x at s_p's prices
    and the premium paid, so that a caller holding both solves nothing."""
    hbar = s_p.investment_ratio
    revenue = float(s_p.prices @ x)
    mining = hbar * params.risk.reward_scale
    return revenue - infrastructure_cost(params, hbar) + mining - premium_paid


def insurer_profit_curve(params: MarketParams,
                         s_p: ProviderStrategy) -> Callable[[float], float]:
    """The insurer's profit as a function of gamma against the provider's s_p.

    Premium income minus the expected claim minus the overpricing penalty.
    The expected claim and the penalty's hbar factor depend on hbar only,
    and the premium curve on the risk model only, so they are set up once
    here rather than at every gamma a search tries. The returned function
    also carries what went into it, for a caller that reports them:
    .premium, the premium as a function of gamma, and .attack_probability,
    the attack probability at s_p's investment ratio.
    """
    hbar = s_p.investment_ratio
    attack = attack_probability(params.risk, hbar)
    expected_claim = attack * hbar * params.risk.claim_scale
    premium_of = premium_curve(params.risk)
    # the penalty's (hbar - 1/2)^3, evaluated in oracles.reputation_penalty's
    # order; MarketParams and ProviderStrategy hold its checks on beta and
    # hbar, and premium_of the one on gamma
    cube = (hbar - 0.5) ** 3
    beta = params.beta

    def profit(gamma: float) -> float:
        return premium_of(gamma) - expected_claim - cube * (gamma - 1.0) * gamma**beta

    profit.premium = premium_of
    profit.attack_probability = attack
    return profit


def check_existence(params: MarketParams, graph: ExternalityGraph) -> ThresholdCheck:
    """Leader equilibrium existence: attacker resource must dominate one
    eighth of the total demand amplification, 1^T (I - alpha G)^{-1} 1."""
    rhs = float(np.sum(graph.ones_image)) / 8.0
    return ThresholdCheck(holds=params.attacker_resource > rhs,
                          lhs=params.attacker_resource, rhs=rhs)


def check_uniqueness(params: MarketParams) -> ThresholdCheck:
    """Leader equilibrium uniqueness: a > 9 (beta+1)^2 gamma_cap^(beta+1) / (128 beta)."""
    beta = params.beta
    rhs = 9.0 * (beta + 1.0) ** 2 * params.gamma_cap ** (beta + 1.0) / (128.0 * beta)
    return ThresholdCheck(holds=params.attacker_resource > rhs,
                          lhs=params.attacker_resource, rhs=rhs)


# No solve calls provider_profit, insurer_profit or provider_gradient, nor
# validate_strategies, which checks their arguments: the tests and
# `chainsure oracle` check the solver's numbers against them. They stay
# here, not in chainsure.oracles, while perfbench/tracer.py wraps them by
# module path (perfbench/checks.py calls provider_gradient too).
def validate_strategies(params: MarketParams, graph: ExternalityGraph,
                        s_p: ProviderStrategy, s_i: InsurerStrategy) -> None:
    if s_p.prices.shape != (graph.n_users,):
        raise ValueError(
            f"price vector has shape {s_p.prices.shape}, expected ({graph.n_users},)"
        )
    if np.any(s_p.prices > params.price_cap + 1e-12):
        raise ValueError("a price exceeds the regulated cap")
    if s_i.gamma > params.gamma_cap + 1e-12:
        raise ValueError("gamma exceeds the regulated cap")


def provider_profit(params: MarketParams, graph: ExternalityGraph,
                    s_p: ProviderStrategy, s_i: InsurerStrategy) -> float:
    """Revenue on interior demand, minus infrastructure cost, plus mining
    income, minus the insurance premium."""
    validate_strategies(params, graph, s_p, s_i)
    x = closed_form_demand(graph, s_p.investment_ratio, s_p.prices).x
    return provider_profit_at(params, s_p, x, premium(params.risk, s_i.gamma))


def insurer_profit(params: MarketParams, s_p: ProviderStrategy,
                   s_i: InsurerStrategy) -> float:
    """Premium income minus the expected claim minus the overpricing penalty."""
    return insurer_profit_curve(params, s_p)(s_i.gamma)


def provider_gradient(params: MarketParams, graph: ExternalityGraph,
                      s_p: ProviderStrategy, s_i: InsurerStrategy) -> np.ndarray:
    """Exact gradient of provider_profit in (prices, hbar), length n + 1.

    With M = (I - alpha G)^{-1}: the price block is M (1 + hbar) 1 - (M + M^T) p
    and the hbar component is p^T M 1 - a / (1 - hbar)^2 + reward_scale.
    The premium does not depend on the provider's own variables.
    """
    validate_strategies(params, graph, s_p, s_i)
    hbar = s_p.investment_ratio
    p = s_p.prices
    grad = np.empty(graph.n_users + 1)
    grad[:-1] = (1.0 + hbar) * graph.ones_image - graph.solve(p) - graph.solve(p, transpose=True)
    grad[-1] = (
        float(p @ graph.ones_image)
        - params.attacker_resource / (1.0 - hbar) ** 2
        + params.risk.reward_scale
    )
    return grad


# Nor does any solve call insurer_gradient or insurer_curvature (the
# insurer's search compares profits), or their penalty slope
# _penalty_gamma_factor, which oracles.leader_jacobian shares: they stay
# here while perfbench/checks.py reads them by module path.
def _penalty_gamma_factor(gamma: float, beta: float) -> float:
    # d/dgamma of (gamma - 1) gamma^beta, the penalty's gamma factor
    return (beta + 1.0) * gamma**beta - beta * gamma ** (beta - 1.0)


def insurer_gradient(params: MarketParams, s_p: ProviderStrategy,
                     s_i: InsurerStrategy) -> float:
    """Exact d(insurer_profit)/d(gamma)."""
    gamma = s_i.gamma
    _, log_moment, _ = distorted_log_moments(params.risk, gamma)
    premium_slope = -params.risk.claim_scale * log_moment / gamma**2
    penalty_slope = (s_p.investment_ratio - 0.5) ** 3 * _penalty_gamma_factor(gamma, params.beta)
    return premium_slope - penalty_slope


def insurer_curvature(params: MarketParams, s_p: ProviderStrategy,
                      s_i: InsurerStrategy) -> float:
    """Exact d^2(insurer_profit)/d(gamma)^2; nonpositive for gamma >= ln 2."""
    gamma = s_i.gamma
    beta = params.beta
    hbar = s_p.investment_ratio
    _, log_moment, log2_moment = distorted_log_moments(params.risk, gamma)
    scale = params.risk.claim_scale
    premium_curv = 2.0 * scale * log_moment / gamma**3 + scale * log2_moment / gamma**4
    penalty_curv = (hbar - 0.5) ** 3 * beta * (
        (beta + 1.0) * gamma ** (beta - 1.0) - (beta - 1.0) * gamma ** (beta - 2.0)
    )
    return premium_curv - penalty_curv
