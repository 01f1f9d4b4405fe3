import dataclasses
import json
import math
import os

import numpy as np
import pytest

from chainsure import harness, risk
from chainsure.errors import ConfigurationError
from chainsure.harness import (
    ExperimentConfig,
    SweepRow,
    emit_csv,
    generate_instance,
    run_sweep,
    solve_point,
    sweep_points,
)
from conftest import drawn_weights, read_csv

# small, fast sweep used throughout; alpha scaled so contraction holds at n<=6
FAST = dict(n_users=[4], alpha=[1e-3], solve={"br_tolerance": 1e-8})


def fast_config(**overrides):
    raw = {**FAST, **overrides}
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_scalars_become_lists(self):
        cfg = ExperimentConfig.from_dict({"n_users": 50, "alpha": 7e-4})
        assert cfg.n_users == [50]
        assert cfg.alpha == [7e-4]

    def test_defaults_match_evaluation_setup(self):
        cfg = ExperimentConfig()
        assert cfg.blocks_per_period == 10.0
        assert cfg.beta == 10.0 and cfg.price_cap == 1.0 and cfg.gamma_cap == 2.0
        assert cfg.compensation_rate == 10.0 and cfg.mining_reward == 10.0
        assert cfg.g_low == 0.0 and cfg.g_high == 10.0

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_users": [4, 6], "alpha": [1e-3], "seed": 9}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.n_users == [4, 6]
        assert cfg.seed == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"g_low": 5.0, "g_high": 1.0})
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"seed": -1})
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"nonsense_key": 1})
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"n_users": []})
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_json("/nonexistent/path.json")


class TestGenerateInstance:
    def test_structure_and_determinism(self):
        cfg = fast_config(seed=42)
        weights = drawn_weights(cfg, 5, 1e-3)
        assert weights.shape == (5, 5)
        assert np.all(np.diagonal(weights) == 0.0)
        assert np.all(weights >= 0.0)
        np.testing.assert_array_equal(weights, drawn_weights(cfg, 5, 1e-3))
        # the graph holds A = I - alpha G, with the bytes of the draw's
        graph = generate_instance(cfg, 5, 1e-3)
        assert graph.system_matrix.tobytes() == (np.eye(5) - 1e-3 * weights).tobytes()

    def test_seed_changes_draw(self):
        a = drawn_weights(fast_config(seed=1), 5, 1e-3)
        b = drawn_weights(fast_config(seed=2), 5, 1e-3)
        assert not np.array_equal(a, b)

    def test_draw_shared_across_alpha(self):
        cfg = fast_config(seed=3)
        np.testing.assert_array_equal(drawn_weights(cfg, 5, 5e-4), drawn_weights(cfg, 5, 1e-3))

    def test_contraction_holds_at_paper_scale(self):
        cfg = ExperimentConfig(seed=0)
        graph = generate_instance(cfg, 100, 7e-4)
        # I - A is exactly fl(alpha G)
        exact = float(np.max(np.abs(np.linalg.eigvals(np.eye(100) - graph.system_matrix))))
        assert exact < 1.0

    def test_rejects_excess_externality(self):
        cfg = ExperimentConfig(seed=0)
        with pytest.raises(ConfigurationError) as info:
            generate_instance(cfg, 100, 3e-3)
        assert "rho" in str(info.value)


class TestSweep:
    def test_point_order_is_cartesian(self):
        cfg = fast_config(n_users=[2, 3], alpha=[1e-3, 2e-3], attacker_resource=[50.0])
        points = sweep_points(cfg)
        assert points == [
            (2, 1e-3, 50.0, 100), (2, 2e-3, 50.0, 100),
            (3, 1e-3, 50.0, 100), (3, 2e-3, 50.0, 100),
        ]

    def test_single_point_equals_direct_solve(self):
        cfg = fast_config(seed=7)
        rows = run_sweep(cfg)
        assert len(rows) == 1
        direct = solve_point(cfg, 4, 1e-3, 100.0, 100)
        assert rows[0] == direct

    def test_row_contents(self):
        cfg = fast_config(seed=7)
        row = run_sweep(cfg)[0]
        assert row.converged
        assert row.rounds >= 1
        # investment identity: hbar = h / (a + h)
        recovered = row.investment / (row.attacker_resource + row.investment)
        assert math.isclose(recovered, row.hbar_star, abs_tol=1e-12)
        for name in ("mean_price", "total_demand", "gamma_star", "attack_prob",
                     "premium", "profit_provider", "profit_insurer"):
            assert math.isfinite(getattr(row, name))
        assert 0.5 <= row.hbar_star < 1.0
        assert 1.0 < row.gamma_star <= cfg.gamma_cap

    def test_failures_recorded_not_raised(self):
        # second point violates the contraction condition
        cfg = fast_config(n_users=[4], alpha=[1e-3, 0.9])
        rows = run_sweep(cfg)
        assert len(rows) == 2
        assert rows[0].converged
        assert not rows[1].converged
        assert math.isnan(rows[1].mean_price)

    @pytest.mark.parametrize("error", [ValueError, OverflowError, ZeroDivisionError,
                                       FloatingPointError])
    def test_point_error_fails_only_its_row(self, monkeypatch, error):
        cfg = fast_config(seed=7, attacker_resource=[50.0, 100.0, 200.0])
        clean = run_sweep(cfg)
        solve = harness.solve_stackelberg

        def failing(params, *args, **kwargs):
            if params.attacker_resource == 100.0:
                raise error("injected")
            return solve(params, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_stackelberg", failing)
        rows = run_sweep(cfg)
        failed = dataclasses.astuple(rows[1])
        assert failed[:4] == (4, 1e-3, 100.0, 100) and failed[-2:] == (False, 0)
        assert all(math.isnan(v) for v in failed[4:-2])
        assert [rows[0], rows[2]] == [clean[0], clean[2]]


class TestGraphReuse:
    """solve_point reuses the previous point's graph when its key matches."""

    GRID = dict(n_users=[3, 4], alpha=[1e-3, 2e-3], attacker_resource=[50.0, 100.0],
                tx_per_block=[100, 200])

    @pytest.fixture
    def builds(self, monkeypatch):
        monkeypatch.setattr(harness, "_last_graph", None)
        calls = []
        generate = harness.generate_instance

        def counted(config, n, alpha):
            calls.append((n, alpha))
            return generate(config, n, alpha)

        monkeypatch.setattr(harness, "generate_instance", counted)
        return calls

    def cold_rows(self, cfg, monkeypatch):
        rows = []
        for point in sweep_points(cfg):
            monkeypatch.setattr(harness, "_last_graph", None)
            rows.append(solve_point(cfg, *point))
        return rows

    def test_rows_equal_cold_solves(self, builds, monkeypatch):
        cfg = fast_config(seed=17, **self.GRID)
        assert run_sweep(cfg) == self.cold_rows(cfg, monkeypatch)

    def test_one_build_per_graph(self, builds):
        cfg = fast_config(seed=17, **self.GRID)
        run_sweep(cfg)
        assert builds == [(3, 1e-3), (3, 2e-3), (4, 1e-3), (4, 2e-3)]

    def test_sweep_drops_its_graphs(self, builds):
        run_sweep(fast_config(seed=17, **self.GRID))
        assert harness._last_graph is None

    def test_key_includes_draw_settings(self, builds):
        for cfg in (fast_config(seed=1), fast_config(seed=2), fast_config(seed=2, g_high=5.0)):
            solve_point(cfg, 4, 1e-3, 100.0, 100)
        assert len(builds) == 3


class TestSharedWork:
    """Points that share a graph and a block count share the provider's
    first price block and the block count's table of node values and
    distorted masses; no row moves."""

    # two graphs; at this cap a point holds 3 to all 30 of its prices there
    GRID = dict(n_users=[30], alpha=[2e-3, 4e-3], price_cap=0.95,
                attacker_resource=[20.0, 50.0, 80.0, 110.0, 140.0, 170.0],
                tx_per_block=[50, 100, 150, 200], seed=5)

    @staticmethod
    def clear_caches(monkeypatch):
        monkeypatch.setattr(harness, "_last_graph", None)
        harness._start.cache_clear()
        risk._block_count.cache_clear()
        risk._model_survival.cache_clear()

    def test_rows_equal_cold_solves(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(self.GRID)
        capped = []
        solve = harness.solve_stackelberg

        def counted(params, *args, **kwargs):
            report = solve(params, *args, **kwargs)
            capped.append(int(np.sum(report.provider.prices == params.price_cap)))
            return report

        monkeypatch.setattr(harness, "solve_stackelberg", counted)
        self.clear_caches(monkeypatch)
        shared = run_sweep(cfg)
        assert any(0 < k < 30 for k in capped)
        cold = []
        for point in sweep_points(cfg):
            self.clear_caches(monkeypatch)  # a fresh graph, with an empty memo
            # and a fresh config, whose MarketParams no other point has used
            cold.append(solve_point(ExperimentConfig.from_dict(self.GRID), *point))
        assert all(row.converged for row in cold)
        assert shared == cold

    def test_points_reuse_the_configs_params_and_one_start(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(self.GRID)
        solved = []
        solve = harness.solve_stackelberg

        def kept(params, graph, start, opts):
            solved.append((params, start))
            return solve(params, graph, start, opts)

        def unused(*args):
            raise AssertionError("a sweep point built its own MarketParams")

        monkeypatch.setattr(harness, "solve_stackelberg", kept)
        monkeypatch.setattr(ExperimentConfig, "market_params", unused)
        self.clear_caches(monkeypatch)
        run_sweep(cfg)
        points = sweep_points(cfg)
        assert len(solved) == len(points) == 48
        for (params, _), (_, _, a, n_t) in zip(solved, points):
            assert params is cfg._market[a, n_t]
        assert len({id(start) for _, start in solved}) == 1

    def test_second_sweep_in_one_process_equals_the_first(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(self.GRID)
        self.clear_caches(monkeypatch)
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_each_graph_keeps_one_first_block_for_the_shared_start(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(self.GRID)
        graphs = []
        generate = harness.generate_instance

        def kept(*args):
            graphs.append(generate(*args))
            return graphs[-1]

        monkeypatch.setattr(harness, "generate_instance", kept)
        self.clear_caches(monkeypatch)
        run_sweep(cfg)
        assert len(graphs) == 2
        start = np.full(30, 0.75 * cfg.price_cap)
        for graph in graphs:
            assert list(graph.memo) == ["provider first price block"]
            key, _ = graph.memo["provider first price block"]
            assert key[:2] == (start.tobytes(), 0.75)

    def test_block_counts_interleaved_in_one_process(self, monkeypatch):
        # a second block count's table is live while the first grid re-runs
        first, other = (ExperimentConfig.from_dict({**self.GRID, "blocks_per_period": blocks})
                        for blocks in (10.0, 7.5))
        self.clear_caches(monkeypatch)
        rows = run_sweep(first)
        assert run_sweep(other) != rows
        assert run_sweep(first) == rows
        assert risk._block_count.cache_info().currsize == 2


class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == [f.name for f in dataclasses.fields(SweepRow)]

    def test_one_row_two_lines(self, tmp_path):
        cfg = fast_config(seed=7)
        rows = run_sweep(cfg)
        path = tmp_path / "one.csv"
        emit_csv(rows, path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_round_trip_12_significant_digits(self, tmp_path):
        cfg = fast_config(n_users=[3, 5], seed=13)
        rows = run_sweep(cfg)
        path = tmp_path / "round.csv"
        emit_csv(rows, path)
        parsed = read_csv(path)
        assert len(parsed) == len(rows)
        for original, back in zip(rows, parsed):
            for field in dataclasses.fields(SweepRow):
                a, b = getattr(original, field.name), getattr(back, field.name)
                if isinstance(a, float):
                    assert math.isclose(a, b, rel_tol=1e-11)
                else:
                    assert a == b

    def test_byte_identical_reruns(self, tmp_path):
        cfg = fast_config(n_users=[3, 4], seed=29)
        one, two = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), one)
        emit_csv(run_sweep(cfg), two)
        assert one.read_bytes() == two.read_bytes()

    def test_incremental_flush_matches_emit(self, tmp_path):
        cfg = fast_config(n_users=[3, 4], seed=31)
        streamed = tmp_path / "stream.csv"
        rows = run_sweep(cfg, csv_path=streamed)
        bulk = tmp_path / "bulk.csv"
        emit_csv(rows, bulk)
        assert streamed.read_bytes() == bulk.read_bytes()

    def test_rows_stream_as_points_finish(self, tmp_path, monkeypatch):
        cfg = fast_config(n_users=[3, 4], alpha=[1e-3, 2e-3], seed=31)
        path = tmp_path / "stream.csv"
        solve = harness.solve_point
        seen = []

        def checked(config, n, alpha, a, n_t):
            seen.append(len(path.read_text(encoding="utf-8").splitlines()))
            return solve(config, n, alpha, a, n_t)

        monkeypatch.setattr(harness, "solve_point", checked)
        run_sweep(cfg, csv_path=path)
        # when point k starts, the file holds the header and k rows
        assert seen == [1, 2, 3, 4]
        assert len(path.read_text(encoding="utf-8").splitlines()) == 5

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot write CSV /dev/full"):
            emit_csv([], "/dev/full")
        with pytest.raises(ConfigurationError, match="cannot write CSV /dev/full"):
            run_sweep(fast_config(seed=7), csv_path="/dev/full")
        assert harness._last_graph is None
