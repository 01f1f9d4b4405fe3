import dataclasses
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from chainsure import demand, equilibrium, harness, market
from chainsure.demand import (
    ExternalityGraph,
    GaussSeidel,
    Segment,
)
from chainsure.equilibrium import (
    EquilibriumReport,
    SolveOptions,
    best_response_insurer,
    best_response_provider,
    solve_stackelberg,
)
from chainsure.errors import ConvergenceError
from chainsure.market import (
    HBAR_CEILING,
    PRICE_FLOOR,
    InsurerStrategy,
    MarketParams,
    ProviderStrategy,
    insurer_profit,
    insurer_profit_curve,
    provider_gradient,
    provider_profit,
)
from chainsure.demand import closed_form_demand, lcp_demand
from chainsure.risk import RiskModel, attack_probability, premium
from conftest import drawn_weights, numpy_scalar_element_sweep, random_externality, random_weights

RISK = RiskModel(10.0, 100, 10.0, 10.0)
PARAMS = MarketParams(risk=RISK, attacker_resource=100.0, beta=10.0,
                      price_cap=1.0, gamma_cap=2.0)
OPTS = SolveOptions()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def zero_graph(n):
    return ExternalityGraph(np.zeros((n, n)), 0.0)


def clamped_root(params, graph, prices):
    """The investment ratio that maximizes the provider's profit at these prices."""
    slope = float(prices @ graph.ones_image) + params.risk.reward_scale
    return float(np.clip(1.0 - math.sqrt(params.attacker_resource / slope), 0.5, HBAR_CEILING))


def hbar_root(params, slope_per_unit):
    """The investment ratio with no capped price: the root, by bisection, of
    (1 + hbar) slope_per_unit + reward_scale = a / (1 - hbar)^2 on [1/2, HBAR_CEILING]."""
    def slope(h):
        return ((1.0 + h) * slope_per_unit + params.risk.reward_scale
                - params.attacker_resource / (1.0 - h) ** 2)

    lo, hi = 0.5, HBAR_CEILING
    assert slope(lo) > 0 > slope(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    return lo


def projected_price_gradient(params, graph, s_p, s_i):
    grad = provider_gradient(params, graph, s_p, s_i)[:-1]
    grad[(s_p.prices <= PRICE_FLOOR) & (grad < 0)] = 0.0
    grad[(s_p.prices >= params.price_cap) & (grad > 0)] = 0.0
    return grad


def price_round_off(graph):
    """The floor below which best_response_provider's price residual is round-off."""
    return 16.0 * math.ulp(2.0 * float(graph.ones_image.max()))


class TestSolveOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(br_tolerance=0.0)


class TestProviderBestResponse:
    def test_decoupled_prices_track_investment(self):
        # at alpha = 0 the stationary price is (1 + hbar)/2 per user
        graph = zero_graph(3)
        br = best_response_provider(PARAMS, graph, OPTS)
        expected = (1.0 + br.investment_ratio) / 2.0
        np.testing.assert_allclose(br.prices, expected, atol=1e-7)

    def test_price_cap_binds(self):
        capped = MarketParams(risk=RISK, attacker_resource=100.0, beta=10.0,
                              price_cap=0.6, gamma_cap=2.0)
        graph = zero_graph(2)
        br = best_response_provider(capped, graph, OPTS)
        np.testing.assert_allclose(br.prices, 0.6, atol=1e-12)

    def test_investment_stays_below_one(self):
        graph = zero_graph(2)
        for attacker in (1e-8, 100.0, 1e5):
            params = MarketParams(risk=RISK, attacker_resource=attacker, beta=10.0,
                                  price_cap=1.0, gamma_cap=2.0)
            assert best_response_provider(params, graph, OPTS).investment_ratio < 1.0

    def test_projected_gradient_small_at_solution(self):
        rng = np.random.default_rng(1)
        graph = random_externality(rng, 6, target_alpha_rho=0.5)
        br = best_response_provider(PARAMS, graph, OPTS)
        grad = provider_gradient(PARAMS, graph, br, InsurerStrategy(1.5))
        interior = (br.prices > 1e-8) & (br.prices < PARAMS.price_cap - 1e-8)
        assert np.all(np.abs(grad[:6][interior]) < OPTS.br_tolerance)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(7)
        n = 3
        w = rng.uniform(0.0, 10.0, (n, n))
        np.fill_diagonal(w, 0.0)
        graph = ExternalityGraph(w, 0.02)
        s_i = InsurerStrategy(1.5)
        br = best_response_provider(PARAMS, graph, OPTS)
        # dense grid over (p1, p2, p3, hbar), 50 points per axis
        m = np.linalg.inv(graph.system_matrix)
        m_ones = m @ np.ones(n)
        p_axis = np.linspace(1e-6, PARAMS.price_cap, 50)
        h_axis = np.linspace(0.5, 1.0 - 1e-6, 50)
        grid = np.stack(np.meshgrid(p_axis, p_axis, p_axis, indexing="ij"), axis=-1)
        flat = grid.reshape(-1, n)
        lin = flat @ m_ones                      # p^T M 1
        quad = np.einsum("ij,ij->i", flat @ m, flat)  # p^T M p
        best_value, best_point = -np.inf, None
        for h in h_axis:
            profit = (1.0 + h) * lin - quad - 100.0 * h / (1.0 - h) + h * RISK.reward_scale
            k = int(np.argmax(profit))
            if profit[k] > best_value:
                best_value, best_point = float(profit[k]), (flat[k], float(h))
        p_step = p_axis[1] - p_axis[0]
        h_step = h_axis[1] - h_axis[0]
        assert np.all(np.abs(br.prices - best_point[0]) <= p_step)
        assert abs(br.investment_ratio - best_point[1]) <= h_step
        # and the solver's point is at least as good as the best grid point
        solver_value = provider_profit(PARAMS, graph, br, s_i)
        grid_value = best_value - 2000.0 * 0.0  # same objective modulo the premium constant
        from chainsure.risk import premium

        assert solver_value >= grid_value - premium(RISK, 1.5) - 1e-9

    @pytest.mark.parametrize("tolerance", [1e-12, 1e-16, 1e-300])
    def test_tolerance_below_round_off_stops_at_it(self, tolerance):
        graph = random_externality(np.random.default_rng(2), 20, target_alpha_rho=0.35)
        tight = best_response_provider(PARAMS, graph, SolveOptions(br_tolerance=tolerance))
        loose = best_response_provider(PARAMS, graph, OPTS)
        grad = projected_price_gradient(PARAMS, graph, tight, InsurerStrategy(1.5))
        assert np.max(np.abs(grad)) < max(tolerance, price_round_off(graph))
        np.testing.assert_allclose(tight.prices, loose.prices, rtol=0, atol=1e-8)
        assert tight.investment_ratio == pytest.approx(loose.investment_ratio, abs=1e-10)

    @pytest.mark.parametrize("attacker", [1e-8, 100.0, 1e5])
    def test_investment_is_the_clamped_root_of_its_prices(self, attacker):
        # the root lands at the ceiling, inside the box, and at 1/2
        params = MarketParams(risk=RISK, attacker_resource=attacker, beta=10.0,
                              price_cap=1.0, gamma_cap=2.0)
        graph = random_externality(np.random.default_rng(4), 6, target_alpha_rho=0.35)
        br = best_response_provider(params, graph, OPTS)
        assert br.investment_ratio == clamped_root(params, graph, br.prices)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "PROVIDER_ITER_CAP", 1)
        graph = zero_graph(2)
        tight = SolveOptions(br_tolerance=1e-12)
        with pytest.raises(ConvergenceError) as info:
            best_response_provider(PARAMS, graph, tight)
        assert info.value.last_iterate is not None

    @pytest.mark.parametrize("alpha_rho", [0.0, 0.3, 0.9])
    def test_iteration_cap_brackets_alpha_rho(self, monkeypatch, alpha_rho):
        # 1 - 1/min(M1) <= alpha * rho(G) <= 1 - 1/max(M1), from the
        # Collatz-Wielandt bounds on M1 = (I - alpha G)^{-1} 1
        monkeypatch.setattr(equilibrium, "PROVIDER_ITER_CAP", 1)
        graph = random_externality(np.random.default_rng(13), 6, target_alpha_rho=alpha_rho)
        with pytest.raises(ConvergenceError, match="iteration cap") as info:
            best_response_provider(PARAMS, graph, SolveOptions(br_tolerance=1e-12))
        bracket = re.search(r"alpha \* rho\(G\) in \[([^,]+), ([^\]]+)\]", str(info.value))
        low, high = map(float, bracket.groups())
        # each bound is printed to 6 significant digits
        assert low - 1e-6 <= graph.alpha_rho <= high + 1e-6


def loop_best_response_provider(params, graph, opts=OPTS):
    """The provider's best response with the price block swept user by user.

    Oracle for best_response_provider's triangular sweeps: the same
    block-coordinate ascent from the same start, with every price update
    taken in its own Python step and the exact gradient from
    provider_gradient, run twice, the second time from the first run's
    optimum. Returns the best response and the number of price sweeps
    both runs took.
    """
    sweeps = 0
    n = graph.n_users
    lo, hi = PRICE_FLOOR, params.price_cap
    quad = graph.symmetric_influence
    diag = np.diagonal(quad)
    prices = np.full(n, max(0.75 * hi, lo))
    hbar = 0.75
    box_lo = np.append(np.full(n, lo), 0.5)
    box_hi = np.append(np.full(n, hi), HBAR_CEILING)
    for _ in range(2):
        for _ in range(equilibrium.PROVIDER_ITER_CAP):
            target = (1.0 + hbar) * graph.ones_image
            for _ in range(60 + 10 * n):
                sweeps += 1
                for i in range(n):
                    step = (target[i] - quad[i] @ prices) / diag[i]
                    prices[i] = min(hi, max(lo, prices[i] + step))
                grad = target - quad @ prices
                grad[(prices <= lo) & (grad < 0)] = 0.0
                grad[(prices >= hi) & (grad > 0)] = 0.0
                if np.max(np.abs(grad)) < 0.25 * opts.br_tolerance:
                    break
            slope = float(prices @ graph.ones_image) + params.risk.reward_scale
            root = 1.0 - math.sqrt(params.attacker_resource / slope) if slope > 0 else 0.5
            hbar = float(np.clip(root, 0.5, HBAR_CEILING))
            candidate = ProviderStrategy(prices.copy(), hbar)
            joint = np.append(prices, hbar)
            # the provider's gradient does not depend on gamma
            grad = provider_gradient(params, graph, candidate, InsurerStrategy(1.5))
            grad[(joint <= box_lo) & (grad < 0)] = 0.0
            grad[(joint >= box_hi) & (grad > 0)] = 0.0
            if np.max(np.abs(grad)) < opts.br_tolerance:
                break
        else:
            raise AssertionError("oracle did not converge")
    return candidate, sweeps


def with_price_cap(cap):
    return MarketParams(risk=RISK, attacker_resource=100.0, beta=10.0,
                        price_cap=cap, gamma_cap=2.0)


class TestTriangularPriceSweep:
    """best_response_provider's BLAS sweeps reproduce the per-user sweeps."""

    @pytest.fixture(autouse=True)
    def sweep_counts(self, monkeypatch):
        # sweeps best_response_provider runs, and those of them that ran a
        # correction pass because the kernel's first prediction failed
        self.calls = calls = {"sweeps": 0, "corrected": 0}
        sweep = GaussSeidel.sweep

        def counted_sweep(solver, *args):
            calls["sweeps"] += 1
            corrections = solver.corrections
            out = sweep(solver, *args)
            calls["corrected"] += solver.corrections > corrections
            return out

        monkeypatch.setattr(GaussSeidel, "sweep", counted_sweep)

    def assert_matches_loop(self, params, graph):
        self.calls.update(sweeps=0, corrected=0)
        fast = best_response_provider(params, graph, OPTS)
        slow, sweeps = loop_best_response_provider(params, graph)
        np.testing.assert_allclose(fast.prices, slow.prices, rtol=0.0, atol=1e-12)
        assert abs(fast.investment_ratio - slow.investment_ratio) <= 1e-12
        assert self.calls["sweeps"] == sweeps
        return fast

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_and_caps(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        graph = random_externality(rng, n, target_alpha_rho=float(rng.uniform(0.0, 0.9)))
        self.assert_matches_loop(with_price_cap(float(rng.uniform(0.6, 1.5))), graph)

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_cap_binds_at_optimum(self, n):
        # a cap at the median of the uncapped optimum clamps about half of
        # the prices there; the sweeps hold them at the cap in BLAS. x'
        # predicts a held price exactly unless held prices before it
        # overshoot the cap: Q's off-diagonal entries are positive, so the
        # overshoot lowers its x' below the cap, and a correction pass
        # holds it. One held price of two has none before it that
        # overshoots, and no sweep corrects; with more, sweeps do
        rng = np.random.default_rng(300 + n)
        graph = random_externality(rng, n, target_alpha_rho=0.8)
        uncapped = best_response_provider(with_price_cap(10.0), graph, OPTS)
        params = with_price_cap(float(np.median(uncapped.prices)))
        fast = self.assert_matches_loop(params, graph)
        at_cap = fast.prices == params.price_cap
        assert at_cap.any() and not at_cap.all()
        assert (self.calls["corrected"] == 0) == (at_cap.sum() == 1)

    def test_sweep_holding_capped_prices_stays_in_blas(self):
        rng = np.random.default_rng(330)
        graph = random_externality(rng, 30, target_alpha_rho=0.8)
        params = with_price_cap(0.9)
        optimum = best_response_provider(params, graph, OPTS)
        held = optimum.prices == params.price_cap
        assert 0 < held.sum() < 30
        prices = optimum.prices.copy()
        prices[~held] -= rng.uniform(0.0, 1e-6, int((~held).sum()))
        quad = graph.symmetric_influence
        target = (1.0 + optimum.investment_ratio) * graph.ones_image
        bounds = (PRICE_FLOOR, params.price_cap)
        solver = GaussSeidel(quad, *bounds)
        swept, _, _ = solver.sweep(target, solver.state(prices))
        # x' holds 18 of the 26 capped prices; the others sit after held
        # prices that overshoot the cap, which lowers them below it. The
        # first pass's updates, with those 18 held, predict every one,
        # so a single correction pass settles the sweep
        assert solver.corrections == 1
        expected = numpy_scalar_element_sweep(quad, np.diagonal(quad), target, prices, *bounds)
        np.testing.assert_allclose(swept, expected, rtol=0.0, atol=1e-14)
        assert np.array_equal(swept == params.price_cap, held)

    @pytest.mark.parametrize("cap", [0.3, 1.2e-9])
    def test_whole_box_at_cap(self, cap):
        # below PRICE_FLOOR / 0.75 the start, 0.75 * cap, would lie under
        # the floor, so the prices start at the floor
        graph = random_externality(np.random.default_rng(5), 5, target_alpha_rho=0.5)
        fast = self.assert_matches_loop(with_price_cap(cap), graph)
        assert np.all(fast.prices == cap)

    def test_no_linear_solve(self, monkeypatch):
        # the convergence check reads the sweep's residual, not provider_gradient
        rng = np.random.default_rng(6)
        graph = random_externality(rng, 12, target_alpha_rho=0.5)
        graph.ones_image, graph.symmetric_influence  # built once per graph, outside the loop
        solves = []
        solve = ExternalityGraph.solve

        def counted(self, *args, **kwargs):
            solves.append(args)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(ExternalityGraph, "solve", counted)
        self.assert_matches_loop(PARAMS, graph)
        assert solves  # the oracle's provider_gradient solves
        solves.clear()
        best_response_provider(PARAMS, graph, OPTS)
        assert solves == []


class TestSharedFirstBlock:
    """The first price block depends only on the graph, the price cap and
    the tolerance. graph.memo holds one such block, keyed on (price cap,
    tolerance); a later call with that key resumes from the exact state
    it returned, and a call with another key replaces it."""

    @pytest.fixture(autouse=True)
    def counts(self, monkeypatch):
        self.calls = calls = {"sweeps": 0, "states": 0}

        def counted(name):
            fn = getattr(GaussSeidel, name)

            def wrapper(*args):
                calls[name + "s"] += 1
                return fn(*args)
            monkeypatch.setattr(GaussSeidel, name, wrapper)

        counted("sweep")
        counted("state")

    def solve(self, params, graph, opts=OPTS):
        self.calls.update(sweeps=0, states=0)
        return best_response_provider(params, graph, opts)

    def test_second_call_resumes_from_the_kept_state(self):
        graph = random_externality(np.random.default_rng(7), 30, target_alpha_rho=0.8)
        params = with_price_cap(0.95)
        cold = self.solve(params, graph)
        cold_sweeps = self.calls["sweeps"]
        assert self.calls["states"] == 1
        key, state = graph.memo["provider first price block"]
        assert key == (0.95, OPTS.br_tolerance)
        assert not any(array.flags.writeable for array in state)
        warm = self.solve(params, graph)
        assert self.calls["states"] == 0  # no state is recomputed
        assert 0 < self.calls["sweeps"] < cold_sweeps
        assert np.array_equal(warm.prices, cold.prices)
        assert warm.investment_ratio == cold.investment_ratio

    @pytest.mark.parametrize("change", ["price_cap", "tolerance"])
    def test_each_input_is_part_of_the_key(self, change):
        graph = random_externality(np.random.default_rng(8), 12, target_alpha_rho=0.5)
        params, opts = with_price_cap(0.95), OPTS
        first = self.solve(params, graph, opts)
        if change == "price_cap":
            other_params, other_opts = with_price_cap(0.9), opts
        else:
            other_params, other_opts = params, SolveOptions(br_tolerance=1e-9)
        self.solve(other_params, graph, other_opts)
        assert self.calls["states"] == 1
        # the new key replaced the entry, so the first key's block runs again
        assert list(graph.memo) == ["provider first price block"]
        assert graph.memo["provider first price block"][0] == (other_params.price_cap,
                                                                other_opts.br_tolerance)
        again = self.solve(params, graph, opts)
        assert self.calls["states"] == 1
        assert np.array_equal(again.prices, first.prices)
        assert again.investment_ratio == first.investment_ratio

    def test_a_sweep_keeps_one_entry(self):
        graph = random_externality(np.random.default_rng(9), 12, target_alpha_rho=0.5)
        for attacker in np.linspace(20.0, 200.0, 10):
            params = MarketParams(risk=RISK, attacker_resource=float(attacker), beta=10.0,
                                  price_cap=1.0, gamma_cap=2.0)
            self.solve(params, graph)
            assert self.calls["states"] == (1 if attacker == 20.0 else 0)
            solve_stackelberg(params, graph, OPTS)
            assert list(graph.memo) == ["provider first price block"]
            assert graph.memo["provider first price block"][0] == (1.0, OPTS.br_tolerance)


class TestStoppingTestReadsInterior:
    """Both of the provider's stopping tests are GaussSeidel.projected_norm,
    which skips its box test for the prices its last sweep kept strictly
    inside the box, and each value they compare with the tolerance is the
    full projected norm's bit for bit."""

    def test_every_stopping_value_is_the_full_norm(self, monkeypatch):
        reads = []
        norm = GaussSeidel.projected_norm

        def checked(self, x, grad):
            value = norm(self, x, grad)
            full = norm(GaussSeidel(self.matrix, self.lo, self.hi), x, grad)
            assert np.float64(value).tobytes() == np.float64(full).tobytes()
            reads.append(x is self.inside)
            return value

        monkeypatch.setattr(GaussSeidel, "projected_norm", checked)
        rng = np.random.default_rng(11)
        for n, cap in ((1, 1.0), (12, 1.0), (30, 0.95), (30, 0.6), (150, 0.9)):
            graph = random_externality(rng, n, target_alpha_rho=0.8)
            params = with_price_cap(cap)
            best_response_provider(params, graph, OPTS)
            resumed = len(reads)
            # resumed from graph.memo: no sweep has run when the first pass
            # ends, so that pass's test cannot take the sweep's word
            best_response_provider(params, graph, OPTS)
            assert reads[resumed] is False
        assert True in reads and False in reads


class TestInsurerBestResponse:
    def test_expected_claim_computed_once(self, monkeypatch):
        calls = []
        attack_probability = market.attack_probability

        def counted(*args):
            calls.append(args)
            return attack_probability(*args)

        monkeypatch.setattr(market, "attack_probability", counted)
        s_p = ProviderStrategy(np.full(3, 0.5), 0.8)
        s_i = best_response_insurer(PARAMS, s_p, OPTS)
        assert len(calls) == 1
        assert insurer_profit_curve(PARAMS, s_p)(s_i.gamma) == insurer_profit(PARAMS, s_p, s_i)

    def test_tolerance_below_float_spacing_terminates(self):
        # golden section cannot narrow the bracket below the float spacing
        s_p = ProviderStrategy(np.array([0.5]), 0.9)
        tight = best_response_insurer(PARAMS, s_p, SolveOptions(br_tolerance=1e-300))
        assert tight.gamma == pytest.approx(best_response_insurer(PARAMS, s_p, OPTS).gamma, abs=1e-7)

    def test_cap_when_no_penalty(self):
        # at hbar = 1/2 the penalty vanishes and the premium rises in gamma
        s_p = ProviderStrategy(np.array([0.5]), 0.5)
        br = best_response_insurer(PARAMS, s_p, OPTS)
        assert br.gamma == PARAMS.gamma_cap

    @pytest.mark.parametrize("hbar", [0.9, 0.95])
    def test_matches_dense_grid(self, hbar):
        s_p = ProviderStrategy(np.array([0.5]), hbar)
        br = best_response_insurer(PARAMS, s_p, OPTS)
        grid = np.linspace(1.0 + 1e-9, PARAMS.gamma_cap, 10_000)
        values = [insurer_profit(PARAMS, s_p, InsurerStrategy(float(g))) for g in grid]
        best = float(grid[int(np.argmax(values))])
        assert abs(br.gamma - best) <= 1e-4
        assert 1.0 < br.gamma <= PARAMS.gamma_cap

    def test_interior_optimum_balances_margins(self):
        from chainsure.market import insurer_gradient

        s_p = ProviderStrategy(np.array([0.5]), 0.95)
        br = best_response_insurer(PARAMS, s_p, OPTS)
        if br.gamma < PARAMS.gamma_cap - 1e-6:
            assert abs(insurer_gradient(PARAMS, s_p, br)) < 1e-3


class TestSolverBuiltStrategies:
    """The solvers hand back their own arrays without copies: read-only,
    of the right dtype and shape, and aliased by nothing writable that the
    caller or graph.memo holds."""

    @pytest.mark.parametrize("grid", [
        {"n_users": [30], "alpha": [0.005 / 145], "price_cap": 1.2, "seed": 4},  # interior
        {"n_users": [50], "alpha": [6.5e-4], "seed": 0},  # saturated
        {"n_users": [100], "alpha": [1.05e-4], "seed": 0},  # partly clamped
        {"n_users": [300], "alpha": [0.07 / 300], "price_cap": 0.9, "seed": 0},  # three blocks
    ], ids=["interior", "saturated", "partly_clamped", "n300_cap0.9"])
    def test_read_only_and_unaliased(self, grid):
        config = harness.ExperimentConfig.from_dict(grid)
        n = config.n_users[0]
        graph = harness.generate_instance(config, n, config.alpha[0])
        held = []
        for _ in range(2):  # the second point resumes from graph.memo
            report = solve_stackelberg(config.market_params(100.0, 100), graph, OPTS)
            arrays = (report.provider.prices, report.demand.x, report.demand.partition)
            for array, dtype in zip(arrays, (np.float64, np.float64, np.int8)):
                assert array.dtype == dtype and array.shape == (n,)
                assert not array.flags.writeable and array.flags.owndata
            held += [a for _, state in graph.memo.values() for a in state]
            for array in arrays:
                assert not any(np.shares_memory(array, other) for other in held)
            held += list(arrays)

    def test_non_finite_sweep_raises(self, monkeypatch):
        # a triangular solve that returns NaN makes every later iterate NaN:
        # the best response raises at the first NaN norm, not at its caps,
        # naming the alpha * rho(G) bracket and carrying the NaN prices,
        # rather than returning a strategy, and the point fails
        dtrsv = demand.dtrsv
        monkeypatch.setattr(demand, "dtrsv", lambda *args: np.full_like(dtrsv(*args), np.nan))
        graph = random_externality(np.random.default_rng(13), 6, target_alpha_rho=0.3)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="went non-finite in a price sweep, "
                                                   r"with alpha \* rho\(G\) in \[") as info:
            best_response_provider(PARAMS, graph, OPTS)
        assert info.value.last_iterate.shape == (6,) and np.isnan(info.value.last_iterate).all()
        monkeypatch.setattr(harness, "_last_graph", None)  # restored when the test ends
        config = harness.ExperimentConfig.from_dict({"n_users": [6], "seed": 2})
        assert not harness.solve_point(config, 6, 7e-4, 100.0, 100).converged
        assert time.perf_counter() - start < 0.5

    def test_public_constructors_copy_and_check(self):
        prices, x = np.array([0.5, 0.7]), np.array([0.2, 1.0])
        partition = np.array([1, 2], dtype=np.int8)
        s_p, profile = ProviderStrategy(prices, 0.8), demand.DemandProfile(x, partition)
        for given_array, kept in ((prices, s_p.prices), (x, profile.x), (partition, profile.partition)):
            assert given_array.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(given_array, kept)
        for bad in ([0.5, math.nan], [0.5, -1.0], [0.5, math.inf]):
            with pytest.raises(ValueError):
                ProviderStrategy(np.array(bad), 0.8)


class TestSolveStackelberg:
    def test_decoupled_single_user(self):
        # no externality, no compensation: the provider's problem separates
        risk = RiskModel(10.0, 100, 0.0, 10.0)
        params = MarketParams(risk=risk, attacker_resource=100.0, beta=10.0,
                              price_cap=1.0, gamma_cap=2.0)
        graph = zero_graph(1)
        report = solve_stackelberg(params, graph, OPTS)
        assert report.converged
        assert report.rounds <= 3
        expected_price = min((1.0 + report.provider.investment_ratio) / 2.0, 1.0)
        assert report.provider.prices[0] == pytest.approx(expected_price, abs=1e-6)

    @pytest.mark.parametrize("n", [50, 500])
    def test_decoupled_closed_form(self, n):
        # at alpha = 0 each price is (1 + hbar)/2, under the cap, and hbar is
        # the root of n (1 + hbar)/2 + reward_scale = a / (1 - hbar)^2
        weights = np.random.default_rng(n).uniform(0.0, 10.0, (n, n))
        np.fill_diagonal(weights, 0.0)
        report = solve_stackelberg(PARAMS, ExternalityGraph(weights, 0.0), OPTS)

        hbar = hbar_root(PARAMS, n / 2.0)
        assert report.provider.investment_ratio == pytest.approx(hbar, abs=1e-14)
        np.testing.assert_allclose(report.provider.prices, (1.0 + hbar) / 2.0, rtol=0, atol=1e-12)
        assert report.insurer == best_response_insurer(PARAMS, report.provider, OPTS)

    @pytest.mark.parametrize("n, alpha", [(50, 6.5e-4), (60, 7.5e-4), (80, 7e-4), (100, 6.5e-4)])
    def test_interior_closed_form(self, n, alpha):
        # with no price capped, the provider's optimum is p = (1 + hbar) A^T w with
        # (A + A^T) w = 1, and hbar the root of (1 + hbar) 1^T w + reward_scale
        # = a / (1 - hbar)^2; shipped user_scaling points at seed 0
        config = harness.ExperimentConfig.from_json(CONFIGS / "user_scaling.json")
        params = config.market_params(config.attacker_resource[0], config.tx_per_block[0])
        graph = harness.generate_instance(config, n, alpha)
        a_mat = graph.system_matrix
        w = np.linalg.solve(a_mat + a_mat.T, np.ones(n))
        hbar = hbar_root(params, float(w.sum()))
        prices = (1.0 + hbar) * (a_mat.T @ w)
        assert prices.max() < params.price_cap
        report = solve_stackelberg(params, graph, config.solve)
        np.testing.assert_allclose(report.provider.prices, prices, rtol=0, atol=1e-8)
        assert report.provider.investment_ratio == pytest.approx(hbar, abs=1e-10)

    def test_permutation_equivariance(self):
        # relabelling the users permutes the prices and moves nothing else;
        # some prices sit at the cap, so the clamped sweeps run too
        rng = np.random.default_rng(3)
        n = 100
        weights, alpha = random_weights(rng, n, target_alpha_rho=0.35)
        graph = ExternalityGraph(weights, alpha)
        perm = rng.permutation(n)
        relabelled = ExternalityGraph(weights[np.ix_(perm, perm)], alpha)
        params = with_price_cap(0.95)
        first = solve_stackelberg(params, graph, OPTS)
        second = solve_stackelberg(params, relabelled, OPTS)
        assert 0 < np.sum(first.provider.prices == 0.95) < n
        np.testing.assert_allclose(second.provider.prices, first.provider.prices[perm],
                                   rtol=0, atol=1e-9)
        assert second.provider.investment_ratio == pytest.approx(
            first.provider.investment_ratio, abs=1e-14)
        # golden section resolves the insurer's flat maximum only to about
        # sqrt(machine epsilon), so a round-off move in hbar can shift gamma that far
        assert second.insurer.gamma == pytest.approx(first.insurer.gamma, abs=1e-6)

    def test_defaults_converge(self):
        rng = np.random.default_rng(0)
        graph = random_externality(rng, 30, target_alpha_rho=0.3)
        report = solve_stackelberg(PARAMS, graph, OPTS)
        assert report.converged
        assert report.rounds <= 500
        # strategies inside their boxes
        assert np.all(report.provider.prices > 0)
        assert np.all(report.provider.prices <= PARAMS.price_cap + 1e-12)
        assert 0.5 <= report.provider.investment_ratio < 1.0
        assert 1.0 < report.insurer.gamma <= PARAMS.gamma_cap

    def test_no_regret_at_equilibrium(self):
        # the provider's strategy is stationary on its box (prices to the
        # tolerance, hbar exactly), and the insurer's is its reply to it
        rng = np.random.default_rng(3)
        graph = random_externality(rng, 8, target_alpha_rho=0.4)
        report = solve_stackelberg(PARAMS, graph, OPTS)
        assert report.converged
        grad = projected_price_gradient(PARAMS, graph, report.provider, report.insurer)
        assert np.max(np.abs(grad)) < OPTS.br_tolerance
        s_p = report.provider
        assert s_p.investment_ratio == clamped_root(PARAMS, graph, s_p.prices)
        assert best_response_insurer(PARAMS, s_p, OPTS) == report.insurer

    def test_no_profitable_perturbation(self):
        rng = np.random.default_rng(5)
        graph = random_externality(rng, 5, target_alpha_rho=0.4)
        report = solve_stackelberg(PARAMS, graph, OPTS)
        base_p = provider_profit(PARAMS, graph, report.provider, report.insurer)
        base_i = insurer_profit(PARAMS, report.provider, report.insurer)
        worst_p, worst_i = 0.0, 0.0
        for _ in range(10_000):
            trial = ProviderStrategy(
                rng.uniform(1e-6, PARAMS.price_cap, 5), float(rng.uniform(0.5, 1.0 - 1e-6))
            )
            worst_p = max(worst_p, provider_profit(PARAMS, graph, trial, report.insurer) - base_p)
            gamma = float(rng.uniform(1.0 + 1e-9, PARAMS.gamma_cap))
            worst_i = max(worst_i, insurer_profit(PARAMS, report.provider, InsurerStrategy(gamma)) - base_i)
        assert worst_p <= OPTS.br_tolerance
        assert worst_i <= OPTS.br_tolerance

    def test_determinism(self):
        rng_a = np.random.default_rng(21)
        graph = random_externality(rng_a, 12, target_alpha_rho=0.5)
        first = solve_stackelberg(PARAMS, graph, OPTS)
        second = solve_stackelberg(PARAMS, graph, OPTS)
        assert np.array_equal(first.provider.prices, second.provider.prices)
        assert first.provider.investment_ratio == second.provider.investment_ratio
        assert first.insurer.gamma == second.insurer.gamma
        assert first.profits == second.profits

    def test_one_provider_call_runs_both_passes(self, monkeypatch):
        # best_response_provider runs the second pass itself, so a solve
        # calls it once; the report still counts two passes
        calls = []

        def counted(*args):
            calls.append(args)
            return best_response_provider(*args)

        monkeypatch.setattr(equilibrium, "best_response_provider", counted)
        rng = np.random.default_rng(12)
        for n, cap in ((1, 1.0), (12, 1.0), (30, 0.95), (150, 0.9)):
            graph = random_externality(rng, n, target_alpha_rho=0.6)
            params = with_price_cap(cap)
            calls.clear()
            report = solve_stackelberg(params, graph, OPTS)
            assert len(calls) == 1 and report.rounds == 2 and report.converged is True
        # constants of the class: a solve that fails raises, so no report sets them
        assert not {f.name for f in dataclasses.fields(EquilibriumReport)} & {"rounds", "converged"}

    def test_demand_refresh_uses_clamped_solver_when_saturated(self):
        # strong externality at moderate prices saturates every user; the
        # reported demand must come from the clamped solver, inside the box
        rng = np.random.default_rng(31)
        graph = random_externality(rng, 20, target_alpha_rho=0.6)
        report = solve_stackelberg(PARAMS, graph, OPTS)
        assert not report.demand.out_of_box()
        assert np.all(report.demand.x <= 1.0 + 1e-12)
        if np.all(report.demand.partition == Segment.SATURATED):
            assert report.demand.total == pytest.approx(20.0)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def recorded_solve_row(config, graph, a, n_t):
    """harness.solve_row at (a, n_t) on graph, with the report it read its row from."""
    reports = []

    def recorded(*args):
        reports.append(solve_stackelberg(*args))
        return reports[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "solve_stackelberg", recorded)
        row = harness.solve_row(config, graph, a, n_t)
    return row, reports[0]


class TestReportedNumbers:
    """The report and the row hold, bit for bit, what the public functions
    give at the returned strategies, and each is computed once."""

    @given(
        n=st.integers(1, 8),
        alpha_rho=st.sampled_from([0.0, 1e-3, 0.03, 0.2, 0.6, 0.9]),
        price_cap=st.floats(0.2, 2.0),
        attacker_resource=st.floats(5.0, 500.0),
        tx_per_block=st.integers(10, 400),
        blocks_per_period=st.sampled_from([2.0, 10.0, 37.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_report_equals_the_public_functions(self, n, alpha_rho, price_cap, attacker_resource,
                                                 tx_per_block, blocks_per_period, seed):
        # alpha runs from 0 to 0.9 / rho(G), well past where the first user
        # saturates (alpha * rho near 0.045 at the defaults)
        weights = drawn_weights(
            harness.ExperimentConfig.from_dict({"n_users": [n], "seed": seed}), n)
        rho = float(np.max(np.abs(np.linalg.eigvals(weights))))
        alpha = alpha_rho / rho if rho > 0.0 else alpha_rho
        config = harness.ExperimentConfig.from_dict({
            "n_users": [n], "alpha": [alpha], "price_cap": price_cap,
            "attacker_resource": [attacker_resource], "tx_per_block": [tx_per_block],
            "blocks_per_period": blocks_per_period, "seed": seed})
        graph = ExternalityGraph(weights, alpha)
        row, report = recorded_solve_row(config, graph, attacker_resource, tx_per_block)
        assert (row.n_users, row.alpha) == (n, alpha)
        params = config.market_params(attacker_resource, tx_per_block)
        s_p, s_i = report.provider, report.insurer
        hbar, prices = s_p.investment_ratio, s_p.prices

        interior = closed_form_demand(graph, hbar, prices)
        clamped = interior.out_of_box()
        demand = lcp_demand(graph, hbar, prices) if clamped else interior
        event("clamped demand" if clamped else "interior demand")
        assert report.demand.x.tobytes() == demand.x.tobytes()
        assert report.demand.partition.tobytes() == demand.partition.tobytes()
        assert same_bits(row.total_demand, np.sum(demand.x))
        assert same_bits(row.mean_price, np.mean(prices))

        profit_p = provider_profit(params, graph, s_p, s_i)
        profit_i = insurer_profit(params, s_p, s_i)
        assert same_bits(report.profits[0], profit_p) and same_bits(row.profit_provider, profit_p)
        assert same_bits(report.profits[1], profit_i) and same_bits(row.profit_insurer, profit_i)
        assert same_bits(row.premium, premium(params.risk, s_i.gamma))
        assert same_bits(row.attack_prob, attack_probability(params.risk, hbar))

    def test_each_number_is_computed_once(self, monkeypatch):
        # after the two provider passes: one interior demand solve, the attack
        # probability once for the insurer curve that both the search and the
        # report read, and no profit rebuilt through the public functions
        config = harness.ExperimentConfig.from_dict({
            "n_users": [30], "alpha": [0.005 / (5.0 * 29)], "price_cap": 1.2,
            "attacker_resource": [80.0], "tx_per_block": [150], "seed": 4})
        graph = harness.generate_instance(config, 30, config.alpha[0])
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        def provider_pass(*args, **kwargs):
            s_p = best_response_provider(*args, **kwargs)
            counts.clear()
            return s_p

        monkeypatch.setattr(equilibrium, "best_response_provider", provider_pass)
        # the interior demand solves in place through lu_solve, not graph.solve
        monkeypatch.setattr(demand, "lu_solve", counted("lu_solve", demand.lu_solve))
        monkeypatch.setattr(ExternalityGraph, "solve", counted("solve", ExternalityGraph.solve))
        for module in (market, equilibrium, harness):
            for name in ("attack_probability", "provider_profit", "insurer_profit"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        row = harness.solve_row(config, graph, 80.0, 150)
        assert row.converged
        assert counts == {"lu_solve": 1, "attack_probability": 1}


class TestInRangeConfigs:
    """Every in-range config solves, at any br_tolerance: the provider's best
    response stops on round-off instead of running into its iteration cap."""

    @given(
        n=st.integers(1, 6),
        alpha=st.sampled_from([0.0, 1e-3, 1e-2]),
        log_attacker=st.floats(-8.0, 4.0),
        log_reward=st.floats(-3.0, 5.0),
        log_tolerance=st.floats(-300.0, -4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_solves_to_the_floored_tolerance(self, n, alpha, log_attacker, log_reward,
                                              log_tolerance, seed):
        config = harness.ExperimentConfig.from_dict({
            "n_users": [n], "alpha": [alpha], "attacker_resource": [10.0**log_attacker],
            "mining_reward": 10.0**log_reward, "seed": seed,
            "solve": {"br_tolerance": 10.0**log_tolerance},
        })
        point = harness.sweep_points(config)[0]
        graph = harness.generate_instance(config, n, alpha)
        reports = []

        def recorded(*args):
            reports.append(solve_stackelberg(*args))
            return reports[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "solve_stackelberg", recorded)
            row = harness.solve_row(config, graph, *point[2:])
        params = config.market_params(*point[2:])
        s_p, s_i = reports[0].provider, reports[0].insurer
        assert row.hbar_star == s_p.investment_ratio == clamped_root(params, graph, s_p.prices)
        grad = projected_price_gradient(params, graph, s_p, s_i)
        assert np.max(np.abs(grad)) < max(config.solve.br_tolerance, price_round_off(graph))
