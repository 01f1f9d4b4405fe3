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
from typing import Callable, ClassVar

import numpy as np

from .demand import (
    DemandProfile,
    ExternalityGraph,
    GaussSeidel,
    closed_form_demand,
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
    rounds (the provider's ascent runs, both in one call) and converged are
    constants of the class, not fields: a solve that fails raises.
    """

    provider: ProviderStrategy
    insurer: InsurerStrategy
    demand: DemandProfile
    profits: tuple[float, float]
    premium: float
    attack_probability: float
    rounds: ClassVar[int] = 2
    converged: ClassVar[bool] = True


def best_response_provider(params: MarketParams, graph: ExternalityGraph,
                           opts: SolveOptions = SolveOptions()) -> ProviderStrategy:
    """Maximize the provider's profit over its price/investment box.

    The premium does not depend on the provider's variables, so neither
    does this best response: it takes no insurer strategy.

    Block-coordinate exact ascent. The profit is an exact quadratic in the
    prices, so the price block is a box-QP with curvature Q = M + M^T
    (graph.symmetric_influence, built once per graph), solved by projected
    Gauss-Seidel on its stationarity system Q p = (1 + hbar) M1, by one
    demand.GaussSeidel on Q and the price box per call, whose settle runs
    each price block to a quarter of the tolerance. Each sweep is BLAS
    triangular kernels that read Q once: the forward substitution, kept in
    the box, else predicting the clamped prices and corrected from the
    first price it gets wrong; the iterates are those of the per-user
    sweep. A sweep reads only its target and U p, all that one price block
    carries into the next, and returns the residual (1 + hbar) M1 - Q p,
    the price block of the exact gradient. The investment ratio then has a
    closed-form interior root (the cost pole makes its slope strictly
    decreasing), clamped to the box. The two blocks couple only through
    scalars, so the alternation contracts fast. Each pass ends on hbar's
    exact root, so the stopping test reads only the projected price
    gradient, floored at its round-off in (1 + hbar) M1. Moving hbar by dh
    shifts that gradient by dh * M1, so the test needs no linear solve.
    Both tests are GaussSeidel.projected_norm; the hbar step leaves the
    prices the last sweep returned, so its fast path serves both.

    The ascent runs twice, each under its own PROVIDER_ITER_CAP passes.
    The second resumes from the first's optimum and carried U p, bit for
    bit a restart from that optimum, and moves the prices only in about
    the tenth significant digit, which shows in the 12-digit sweep CSVs.
    At either cap, or at once on a NaN or inf norm, it raises
    ConvergenceError naming the Collatz-Wielandt bracket 1 - 1/min(M1)
    <= alpha * rho(G) <= 1 - 1/max(M1), near 1 where the sweeps stall.

    The ascent starts from prices max(0.75 * price_cap, PRICE_FLOOR) and
    hbar = 0.75, so its first price block depends only on the graph, the
    price cap and the tolerance. graph.memo keeps the last such block, and
    a later call with the same cap and tolerance, as every other point of
    a sweep on the graph makes, resumes from its exact (prices, U p,
    residual).

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
    m_ones, reward_scale = graph.ones_image, params.risk.reward_scale
    solver = GaussSeidel(graph.symmetric_influence, price_lo, price_hi)
    sweep_cap = 60 + 10 * n

    hbar = 0.75
    tolerance = max(opts.br_tolerance, 16.0 * math.ulp(2.0 * float(m_ones.max())))

    # A price block maximizes (1 + hbar) p.M1 - p.Mp over the price box;
    # its residual is the price gradient (1 + hbar) M1 - Q p. The first
    # price block sees no point-specific input, so every point on this
    # graph with the same cap and tolerance shares it. The carried state is
    # kept as it was returned: a residual recomputed at those prices could
    # differ in round-off.
    target = (1.0 + hbar) * m_ones
    key = (price_hi, tolerance)
    kept = graph.memo.get("provider first price block")
    if kept is None or kept[0] != key:
        prices = np.full(n, max(0.75 * price_hi, price_lo))
        state = solver.settle(target, solver.state(prices), 0.25 * tolerance, sweep_cap)[:3]
        for array in state:
            array.setflags(write=False)
        kept = graph.memo["provider first price block"] = (key, state)
    prices, upper, grad = kept[1]

    for resumed in (False, True):
        for passes in range(PROVIDER_ITER_CAP):
            if passes or resumed:
                prices, upper, grad, _ = solver.settle(target, upper, 0.25 * tolerance, sweep_cap)
            # investment block: slope p.M1 - a/(1-h)^2 + reward is strictly
            # decreasing, so the box maximizer is the clamped root (p, M1 > 0)
            slope_at_cost = float(prices.dot(m_ones)) + reward_scale
            root = 1.0 - math.sqrt(params.attacker_resource / slope_at_cost)
            new_hbar = float(min(max(root, 0.5), HBAR_CEILING))
            grad = grad + (new_hbar - hbar) * m_ones
            hbar = new_hbar
            target = (1.0 + hbar) * m_ones

            # the fast path, unless the prices came from graph.memo unswept
            residual = solver.projected_norm(prices, grad)
            if not tolerance <= residual < math.inf:  # below tolerance, NaN or inf
                break
        if not residual < tolerance:
            failure = "hit its iteration cap" if residual < math.inf else "went non-finite in a price sweep"
            low, high = 1.0 - 1.0 / float(m_ones.min()), 1.0 - 1.0 / float(m_ones.max())
            raise ConvergenceError(f"provider best response {failure}, with alpha * "
                                   f"rho(G) in [{low:.6g}, {high:.6g}]", residual=residual,
                                   last_iterate=prices)
    # a resumed pass's sweep made these prices, finite, in the box, and
    # held only by the solver, which goes with this call
    return ProviderStrategy._from_solver(prices, hbar)


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
                      opts: SolveOptions = SolveOptions()) -> EquilibriumReport:
    """The provider's optimum, then the insurer's reply, then the demand.

    The provider's best response ignores gamma, so it is computed first,
    by one best_response_provider call, and the insurer replies to it; no
    outer iteration is needed. That call runs the provider's ascent twice
    (see best_response_provider). The demand comes from the closed form,
    falling back to the clamped solver when a component leaves [0, 1].

    The report's numbers are evaluated once each: the provider's profit
    reads the closed form's interior demand (the profit is defined on it
    even when the clamped solver replaces it), and the insurer's profit,
    the premium and the attack probability come from the insurer profit
    curve that its search ran on.

    Raises ConvergenceError when a best response hits its iteration cap.
    """
    s_p = best_response_provider(params, graph, opts)
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
    )
