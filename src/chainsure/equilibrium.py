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
from typing import Callable

import numpy as np

from .demand import (
    DemandProfile,
    ExternalityGraph,
    FreeBlock,
    closed_form_demand,
    gauss_seidel_state,
    gauss_seidel_sweep,
    lcp_demand,
)
from .errors import ConvergenceError, is_real
from .market import (
    GAMMA_FLOOR,
    HBAR_CEILING,
    PRICE_FLOOR,
    InsurerStrategy,
    MarketParams,
    ProviderStrategy,
    insurer_profit_curve,
    provider_profit_at,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PROVIDER_ITER_CAP = 200


@dataclass(frozen=True)
class SolveOptions:
    """Tolerance for the leaders' best responses."""

    br_tolerance: float = 1e-8

    def __post_init__(self):
        if not is_real(self.br_tolerance) or not 0 < self.br_tolerance < math.inf:
            raise ValueError(f"br_tolerance must be a positive finite number, got {self.br_tolerance!r}")


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """A solved market: both leaders' strategies and what they give.

    demand is the users' response at the provider's prices. profits holds
    (provider, insurer), each evaluated as market.provider_profit and
    market.insurer_profit would, premium is the premium at the insurer's
    gamma and attack_probability the attack probability at the provider's
    investment ratio; each is computed once, at the returned strategies.
    rounds counts the provider passes (always 2); a solve that fails
    raises, so a returned report has converged=True.
    """

    provider: ProviderStrategy
    insurer: InsurerStrategy
    demand: DemandProfile
    profits: tuple[float, float]
    premium: float
    attack_probability: float
    rounds: int
    converged: bool


def _projected_norm(x: np.ndarray, grad: np.ndarray, lo: float, hi: float) -> float:
    """Infinity norm of the gradient with components pointing out of the box zeroed.

    The box has lo < hi. A component at a bound it points past is clipped
    to 0 there, whose absolute value is the zero it is replaced by.
    """
    if lo < np.minimum.reduce(x) and np.maximum.reduce(x) < hi:
        return float(np.maximum.reduce(np.abs(grad)))
    pg = np.where(x <= lo, np.maximum(grad, 0.0), np.where(x >= hi, np.minimum(grad, 0.0), grad))
    return float(np.maximum.reduce(np.abs(pg)))


def best_response_provider(params: MarketParams, graph: ExternalityGraph,
                           start: ProviderStrategy,
                           opts: SolveOptions = SolveOptions()) -> ProviderStrategy:
    """Maximize the provider's profit over its price/investment box.

    The premium does not depend on the provider's variables, so neither
    does this best response: it takes no insurer strategy.

    Block-coordinate exact ascent. The profit is an exact quadratic in the
    prices, so the price block is a box-QP with curvature Q = M + M^T
    (graph.symmetric_influence, built once per graph), solved by projected
    Gauss-Seidel on its stationarity system Q p = (1 + hbar) M1. Each sweep
    is demand.gauss_seidel_sweep: BLAS triangular kernels that read Q once,
    predict the clamped prices from the Jacobi update, and fall back to a
    per-user sweep when that prediction fails; the iterates are those of
    the per-user sweep. The sweep returns the residual (1 + hbar) M1 - Q p,
    which is the price block of the exact gradient. The investment ratio
    then has a closed-form interior root (the cost pole makes its slope
    strictly decreasing), clamped to the box. The two blocks couple only
    through scalars, so the alternation contracts fast. Each pass ends on
    hbar's exact root, so the stopping test reads only the projected price
    gradient, floored at its round-off in (1 + hbar) M1. Moving hbar by dh
    shifts that gradient by dh * M1, so the test needs no linear solve.
    The first price block depends only on the graph, the start, the price
    box and the tolerance. graph.memo keeps it for the first start the
    graph is solved from, which in a sweep is the start every point
    shares, and a later call from that start resumes from its exact
    (prices, U p, residual). A call from any other start runs cold and
    keeps nothing.

    Plain projected gradient ascent was rejected here: the hbar curvature
    dwarfs the price curvature and capped prices make coupled Newton steps
    stall against the box. The closed-form price block (prices
    (1 + hbar) A^T (A + A^T)^{-1} 1 with A = I - alpha G) is not used
    either: it lands on the exact optimum, up to 7.9e-10 from where
    Gauss-Seidel stops on the shipped grids, which moves the 12-digit sweep
    CSVs in the 9th to 10th digit.
    """
    n = graph.n_users
    price_lo, price_hi = PRICE_FLOOR, params.price_cap
    m_ones = graph.ones_image
    quad = graph.symmetric_influence
    quad_diag = np.diagonal(quad)
    free_block = FreeBlock()
    sweep_cap = 60 + 10 * n

    prices = np.minimum(np.maximum(start.prices, price_lo), price_hi)
    hbar = float(min(max(start.investment_ratio, 0.5), HBAR_CEILING))
    tolerance = max(opts.br_tolerance, 16.0 * math.ulp(2.0 * float(m_ones.max())))

    def price_block(target, prices, upper, grad):
        # maximize (1 + hbar) p.M1 - p.Mp over the price box; grad is the
        # price gradient (1 + hbar) M1 - Q p at the current point
        for _ in range(sweep_cap):
            prices, upper, grad = gauss_seidel_sweep(
                quad, quad_diag, target, prices, upper, grad, price_lo, price_hi, free_block)
            if _projected_norm(prices, grad, price_lo, price_hi) < 0.25 * tolerance:
                break
        return prices, upper, grad

    # The first price block sees no point-specific input, so every point
    # on this graph with the same start, box and tolerance shares it. The
    # carried state is kept as it was returned: a residual recomputed at
    # those prices could differ in round-off.
    target = (1.0 + hbar) * m_ones
    key = (prices.tobytes(), hbar, price_lo, price_hi, tolerance)
    # the graph's first start claims the entry; any other start runs cold
    kept_key, state = graph.memo.setdefault("provider first price block", (key, None))
    if kept_key != key or state is None:
        state = price_block(target, prices, *gauss_seidel_state(quad, target, prices))
        if kept_key == key:
            for array in state:
                array.setflags(write=False)
            graph.memo["provider first price block"] = (key, state)
    prices, upper, grad = state

    for passes in range(PROVIDER_ITER_CAP):
        if passes:
            prices, upper, grad = price_block(target, prices, upper, grad)
        # investment block: slope p.M1 - a/(1-h)^2 + reward is strictly
        # decreasing, so the box maximizer is the clamped root (p, M1 > 0)
        slope_at_cost = float(prices.dot(m_ones)) + params.risk.reward_scale
        root = 1.0 - math.sqrt(params.attacker_resource / slope_at_cost)
        new_hbar = float(min(max(root, 0.5), HBAR_CEILING))
        grad = grad + (new_hbar - hbar) * m_ones
        hbar = new_hbar
        target = (1.0 + hbar) * m_ones

        residual = _projected_norm(prices, grad, price_lo, price_hi)
        if residual < tolerance:
            return ProviderStrategy(prices=prices, investment_ratio=hbar)
    raise ConvergenceError(
        "provider best response hit its iteration cap",
        last_iterate=ProviderStrategy(prices=prices, investment_ratio=hbar),
        residual=residual,
    )


def best_response_insurer(params: MarketParams, s_p: ProviderStrategy,
                          opts: SolveOptions = SolveOptions(), *,
                          curve: Callable[[float], float] | None = None) -> InsurerStrategy:
    """Maximize the insurer's profit over gamma by golden-section search.

    The profit is concave in gamma on the domain, so golden section narrows
    a bracket around the maximizer (possibly the cap) until it is narrower
    than br_tolerance. That bracket does not bound the error in gamma: near
    the flat maximum the compared profits differ only in round-off, so
    gamma is resolved only to about sqrt(machine epsilon), whatever
    br_tolerance is below about 1e-8 (relabelling the users of one n = 100
    instance moved gamma by 6e-8 at the default 1e-8). The bracket cannot
    narrow below a few float spacings of the cap, so a smaller br_tolerance
    stops there instead of looping forever.

    curve is insurer_profit_curve(params, s_p), for a caller that reads
    that curve too and has built it already; it is built here otherwise.
    """
    lo, hi = GAMMA_FLOOR, params.gamma_cap
    profit = curve or insurer_profit_curve(params, s_p)
    tolerance = max(opts.br_tolerance, 4.0 * math.ulp(hi))

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = profit(c), profit(d)
    while b - a > tolerance:
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
    return InsurerStrategy(float(gamma))


def solve_stackelberg(params: MarketParams, graph: ExternalityGraph,
                      start_p: ProviderStrategy,
                      opts: SolveOptions = SolveOptions()) -> EquilibriumReport:
    """The provider's optimum, then the insurer's reply, then the demand.

    The provider's best response ignores gamma, so it is computed first,
    with no insurer start, and the insurer replies to it; no outer
    iteration is needed. The provider pass runs twice: the second restarts
    from the first pass's optimum and moves the prices only in about the
    tenth significant digit, which shows in the 12-digit sweep CSVs.
    The demand comes from the closed form, falling back to the clamped
    solver when a component leaves [0, 1].

    The report's numbers are evaluated once each: the provider's profit
    reads the closed form's interior demand (the profit is defined on it
    even when the clamped solver replaces it), and the insurer's profit,
    the premium and the attack probability come from the insurer profit
    curve that its search ran on.

    Raises ConvergenceError when a best response hits its iteration cap.
    """
    s_p = best_response_provider(params, graph, start_p, opts)
    s_p = best_response_provider(params, graph, s_p, opts)
    insurer_curve = insurer_profit_curve(params, s_p)
    s_i = best_response_insurer(params, s_p, opts, curve=insurer_curve)
    hbar, prices = s_p.investment_ratio, s_p.prices
    interior = closed_form_demand(graph, hbar, prices)
    demand = lcp_demand(graph, hbar, prices) if interior.out_of_box() else interior
    premium = insurer_curve.premium(s_i.gamma)
    return EquilibriumReport(
        provider=s_p,
        insurer=s_i,
        demand=demand,
        profits=(
            provider_profit_at(params, s_p, interior.x, premium),
            insurer_curve(s_i.gamma),
        ),
        premium=premium,
        attack_probability=insurer_curve.attack_probability,
        rounds=2,
        converged=True,
    )
