"""Leader best responses and the Stackelberg solve.

Each leader's best response is an exact maximization of its own profit
over its box (the provider via block-coordinate ascent on its price QP
and investment root, the insurer via golden-section search). The premium
does not depend on the provider's variables, so the provider's best
response does not depend on gamma. The leader game is therefore solved
in order: the provider's optimum first, then the insurer's reply to it,
then the users' demand at those prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmv, dtrsv

from .demand import (
    ContractionCheck,
    DemandProfile,
    ExternalityGraph,
    check_contraction,
    closed_form_demand,
    lcp_demand,
)
from .errors import ContractionViolation, ConvergenceError, is_integer
from .market import (
    GAMMA_FLOOR,
    HBAR_CEILING,
    PRICE_FLOOR,
    ExistenceCheck,
    InsurerStrategy,
    MarketParams,
    ProviderStrategy,
    UniquenessCheck,
    check_existence,
    check_uniqueness,
    insurer_profit,
    insurer_profit_curve,
    provider_gradient,
    provider_profit,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SolveOptions:
    """Tolerance and iteration cap for the leaders' best responses."""

    br_tolerance: float = 1e-8
    max_inner_iters: int = 200

    def __post_init__(self):
        if not 0 < self.br_tolerance < math.inf:
            raise ValueError(f"br_tolerance must be positive and finite, got {self.br_tolerance}")
        if not is_integer(self.max_inner_iters) or self.max_inner_iters < 1:
            raise ValueError(
                f"max_inner_iters must be an integer of at least 1, got {self.max_inner_iters!r}"
            )


@dataclass(frozen=True)
class ConditionReport:
    contraction: ContractionCheck
    existence: ExistenceCheck
    uniqueness: UniquenessCheck


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """A solved market. rounds counts the provider passes (always 2); a solve
    that fails raises, so a returned report has converged=True."""

    provider: ProviderStrategy
    insurer: InsurerStrategy
    demand: DemandProfile
    profits: tuple[float, float]
    rounds: int
    conditions: ConditionReport
    converged: bool


def _projected_gradient(x: np.ndarray, grad: np.ndarray,
                        lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gradient with components pointing out of the box zeroed."""
    pg = grad.copy()
    pg[(x <= lo) & (grad < 0)] = 0.0
    pg[(x >= hi) & (grad > 0)] = 0.0
    return pg


def _element_sweep(quad: np.ndarray, quad_diag: np.ndarray, target: np.ndarray,
                   prices: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """One projected Gauss-Seidel sweep of the price block, user by user, in place."""
    for i in range(prices.size):
        step = (target[i] - quad[i] @ prices) / quad_diag[i]
        prices[i] = min(hi, max(lo, prices[i] + step))
    return prices


def _price_sweep(quad: np.ndarray, quad_diag: np.ndarray, target: np.ndarray,
                 prices: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """One projected Gauss-Seidel sweep of the price block, as BLAS triangular kernels.

    Split Q = D + L + U. A sweep in which no price changes its clamp state
    is the forward substitution (D + L) p' = t - U p over the free prices,
    with the clamped ones held at their bound. The clamped set is guessed
    from p, and the result is kept only when every free price lands in the
    box and every clamped row's unclamped update still lies past its bound:
    then it is the per-user sweep's result up to round-off. Otherwise this
    one sweep runs user by user.
    """
    a = quad.T  # Q is symmetric and C-ordered: a Fortran-ordered view of Q
    rhs = target - dtrmv(a, prices) + quad_diag * prices  # t - U p
    if lo < prices.min() and prices.max() < hi:
        new = dtrsv(a, rhs, lower=1)
        if lo <= new.min() and new.max() <= hi:
            return new
        return _element_sweep(quad, quad_diag, target, prices, lo, hi)

    at_lo, at_hi = prices <= lo, prices >= hi
    free = ~(at_lo | at_hi)
    held = np.where(free, 0.0, prices)
    new = held.copy()
    if free.any():
        free_rhs = rhs - (dtrmv(a, held, lower=1) - quad_diag * held)  # minus L p_clamped
        block = quad[np.ix_(free, free)]  # symmetric, so block.T is Fortran-ordered
        new[free] = dtrsv(block.T, free_rhs[free], lower=1)
    unclamped = (rhs - (dtrmv(a, new, lower=1) - quad_diag * new)) / quad_diag
    if (np.all((new[free] >= lo) & (new[free] <= hi))
            and np.all(unclamped[at_hi] >= hi) and np.all(unclamped[at_lo] <= lo)):
        return new
    return _element_sweep(quad, quad_diag, target, prices, lo, hi)


def best_response_provider(params: MarketParams, graph: ExternalityGraph,
                           s_i: InsurerStrategy, start: ProviderStrategy,
                           opts: SolveOptions = SolveOptions()) -> ProviderStrategy:
    """Maximize the provider's profit over its price/investment box.

    Block-coordinate exact ascent. The profit is an exact quadratic in the
    prices, so the price block is a box-QP with curvature Q = M + M^T
    (graph.symmetric_influence, built once per graph), solved by projected
    Gauss-Seidel on its stationarity system. Each sweep runs as a BLAS
    forward substitution over the prices that stay off their bounds, and
    falls back to a per-user sweep when a price enters or leaves a bound
    (_price_sweep); the iterates are those of the per-user sweep. The
    investment ratio then has a closed-form interior root (the cost pole
    makes its slope strictly decreasing), clamped to the box. The two
    blocks couple only through scalars, so the alternation contracts fast;
    termination is on the true projected gradient's infinity norm.

    Plain projected gradient ascent was rejected here: the hbar curvature
    dwarfs the price curvature and capped prices make coupled Newton steps
    stall against the box. The closed-form price block (prices
    (1 + hbar) A^T (A + A^T)^{-1} 1 with A = I - alpha G) is not used
    either: it lands on the exact optimum, about 3e-9 from the point where
    Gauss-Seidel stops, which moves the 12-digit sweep CSVs in the 9th to
    10th digit.
    """
    n = graph.n_users
    price_lo, price_hi = PRICE_FLOOR, params.price_cap
    m_ones = graph.ones_image
    quad = graph.symmetric_influence
    quad_diag = np.diagonal(quad)

    prices = np.clip(start.prices.astype(float), price_lo, price_hi)
    hbar = float(np.clip(start.investment_ratio, 0.5, HBAR_CEILING))
    reward = params.risk.reward_scale
    attacker = params.attacker_resource

    def price_residual(p: np.ndarray, target: np.ndarray) -> float:
        grad = target - quad @ p
        grad[(p <= price_lo) & (grad < 0)] = 0.0
        grad[(p >= price_hi) & (grad > 0)] = 0.0
        return float(np.max(np.abs(grad)))

    sweep_cap = 60 + 10 * n
    for _ in range(opts.max_inner_iters):
        # price block: maximize (1 + hbar) p.M1 - p.Mp over the price box
        target = (1.0 + hbar) * m_ones
        for _ in range(sweep_cap):
            prices = _price_sweep(quad, quad_diag, target, prices, price_lo, price_hi)
            if price_residual(prices, target) < 0.25 * opts.br_tolerance:
                break
        # investment block: slope p.M1 - a/(1-h)^2 + reward is strictly
        # decreasing, so the box maximizer is the clamped root
        slope_at_cost = float(prices @ m_ones) + reward
        root = 1.0 - math.sqrt(attacker / slope_at_cost) if slope_at_cost > 0 else 0.5
        hbar = float(np.clip(root, 0.5, HBAR_CEILING))

        candidate = ProviderStrategy(prices=prices.copy(), investment_ratio=hbar)
        grad = provider_gradient(params, graph, candidate, s_i)
        joint = np.concatenate([prices, [hbar]])
        lo = np.concatenate([np.full(n, price_lo), [0.5]])
        hi = np.concatenate([np.full(n, price_hi), [HBAR_CEILING]])
        pg = _projected_gradient(joint, grad, lo, hi)
        if float(np.max(np.abs(pg))) < opts.br_tolerance:
            return candidate
    raise ConvergenceError(
        "provider best response hit its iteration cap",
        last_iterate=candidate,
        residual=float(np.max(np.abs(pg))),
    )


def best_response_insurer(params: MarketParams, s_p: ProviderStrategy,
                          opts: SolveOptions = SolveOptions()) -> InsurerStrategy:
    """Maximize the insurer's profit over gamma by golden-section search.

    The profit is concave in gamma on the domain, so golden section with an
    argument tolerance of br_tolerance finds the maximizer (possibly the cap).
    """
    lo, hi = GAMMA_FLOOR, params.gamma_cap
    profit = insurer_profit_curve(params, s_p)

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = profit(c), profit(d)
    while b - a > opts.br_tolerance:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = profit(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = profit(d)
    gamma = 0.5 * (a + b)
    # the maximum may sit exactly on the cap; prefer the boundary when tied
    if profit(hi) >= profit(gamma):
        gamma = hi
    return InsurerStrategy(float(np.clip(gamma, lo, hi)))


def _refresh_demand(graph: ExternalityGraph, s_p: ProviderStrategy,
                    box_tol: float = 1e-9) -> DemandProfile:
    profile = closed_form_demand(graph, s_p.investment_ratio, s_p.prices)
    if profile.out_of_box(box_tol):
        profile = lcp_demand(graph, s_p.investment_ratio, s_p.prices)
    return profile


def solve_stackelberg(params: MarketParams, graph: ExternalityGraph,
                      start_p: ProviderStrategy, start_i: InsurerStrategy,
                      opts: SolveOptions = SolveOptions()) -> EquilibriumReport:
    """The provider's optimum, then the insurer's reply, then the demand.

    The provider's best response ignores gamma, so it is computed once
    against start_i and the insurer replies to it; no outer iteration is
    needed. The provider pass runs twice: the second restarts from the
    first pass's optimum and moves the prices only in about the tenth
    significant digit, which shows in the 12-digit sweep CSVs.
    The demand comes from the closed form, falling back to the clamped
    solver when a component leaves [0, 1].

    Raises ContractionViolation when alpha * rho(G) >= 1 and
    ConvergenceError when a best response hits its iteration cap.
    """
    contraction = check_contraction(graph)
    if not contraction.holds:
        raise ContractionViolation(contraction.alpha_rho)
    conditions = ConditionReport(
        contraction=contraction,
        existence=check_existence(params, graph),
        uniqueness=check_uniqueness(params),
    )

    s_p = best_response_provider(params, graph, start_i, start_p, opts)
    s_p = best_response_provider(params, graph, start_i, s_p, opts)
    s_i = best_response_insurer(params, s_p, opts)
    return EquilibriumReport(
        provider=s_p,
        insurer=s_i,
        demand=_refresh_demand(graph, s_p),
        profits=(
            provider_profit(params, graph, s_p, s_i),
            insurer_profit(params, s_p, s_i),
        ),
        rounds=2,
        conditions=conditions,
        converged=True,
    )
