import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from chainsure import demand, equilibrium, harness, specfun
from chainsure.cli import main
from chainsure.errors import ConfigurationError
from conftest import child_env, read_csv

NAN = float("nan")
# the pinned grids: each config beside the CSV it reproduces
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def fast_config_path(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({"n_users": [4], "alpha": [1e-3], "seed": 7}))
    return str(path)


@pytest.fixture
def defaults_config_path(tmp_path):
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps({"n_users": [20], "alpha": [7e-4], "seed": 0}))
    return str(path)


class TestCheck:
    def test_reports_uniqueness_failure_at_default_coefficients(self, defaults_config_path, capsys):
        code = main(["check", "--config", defaults_config_path])
        out = capsys.readouterr().out
        assert code == 0  # diagnostics, not an error
        assert "uniqueness" in out and "FAIL" in out
        assert "1742.4" in out
        assert "existence" in out and "spectral" in out

    def test_all_pass_with_strong_attacker(self, tmp_path, capsys):
        path = tmp_path / "strong.json"
        path.write_text(json.dumps({"n_users": [4], "alpha": [1e-3],
                                    "attacker_resource": [2000.0], "seed": 0}))
        assert main(["check", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_contraction_failure_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "strong_externality.json"
        path.write_text(json.dumps({"n_users": [100], "alpha": [3e-3], "seed": 0}))
        assert main(["check", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("externality spectral condition : FAIL")
        assert "alpha * rho(G) = 1.47607" in lines[0]
        assert lines[1].startswith("equilibrium uniqueness         : FAIL")


class TestSolve:
    def test_summary_and_exit_zero(self, fast_config_path, capsys):
        code = main(["solve", "--config", fast_config_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged: True" in out
        assert "investment ratio" in out and "premium coeff" in out

    def test_prints_the_sweeps_first_row(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"n_users": [4, 6], "alpha": [1e-3],
                                    "attacker_resource": [150.0, 100.0], "seed": 3}))
        assert main(["solve", "--config", str(path)]) == 0
        printed = dict(line.split(" : ") for line in capsys.readouterr().out.splitlines()[2:])
        row = harness.run_sweep(harness.ExperimentConfig.from_json(path))[0]
        assert (row.n_users, row.attacker_resource) == (4, 150.0)
        assert {label.strip(): value for label, value in printed.items()} == {
            "mean price": f"{row.mean_price:.6f}",
            "investment ratio": f"{row.hbar_star:.6f}",
            "premium coeff": f"{row.gamma_star:.6f}",
            "total demand": f"{row.total_demand:.6f}",
            "attack prob": f"{row.attack_prob:.6e}",
            "premium": f"{row.premium:.6f}",
            "provider profit": f"{row.profit_provider:.6f}",
            "insurer profit": f"{row.profit_insurer:.6f}",
        }

    def test_contraction_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_users": [100], "alpha": [3e-3], "seed": 0}))
        assert main(["solve", "--config", str(path)]) == 2

    @pytest.mark.parametrize("extra", [
        {"attacker_resource": [1e-5]},
        {"mining_reward": 10000.0},
        {"solve": {"br_tolerance": 1e-12}},
        {"solve": {"br_tolerance": 1e-16}},
        {"solve": {"br_tolerance": 1e-300}},
    ], ids=["weak_attacker", "large_reward", "tolerance_1e-12", "tolerance_1e-16",
            "tolerance_1e-300"])
    def test_in_range_default_variants_exit_0(self, tmp_path, capsys, extra):
        # in range: neither round-off in the investment ratio's slope nor a
        # tolerance under the float spacing may hold the provider at its cap
        path = tmp_path / "variant.json"
        path.write_text(json.dumps({"n_users": [100], "alpha": [7e-4], "seed": 0, **extra}))
        start = time.perf_counter()
        assert main(["solve", "--config", str(path)]) == 0
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("blocks", [1e160, 1e200, 1e300])
    def test_block_count_past_the_continued_fraction_exits_0(self, tmp_path, capsys, blocks):
        # the attack probability's prefactor underflows, and its endpoint
        # stands in for a continued fraction that would not converge
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps({"n_users": [3], "blocks_per_period": blocks}))
        assert main(["solve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out and "attack prob      : 0.000000e+00" in out
        values = [line.split(" : ")[1] for line in out.splitlines()[2:]]
        assert len(values) == 8 and all(math.isfinite(float(v)) for v in values)

    def test_missing_config_exits_2(self, capsys):
        assert main(["solve", "--config", "/does/not/exist.json"]) == 2

    def test_seed_override_changes_instance(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_users": [5], "alpha": [1e-3], "seed": 1}))
        main(["solve", "--config", str(path)])
        first = capsys.readouterr().out
        main(["solve", "--config", str(path), "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestSweep:
    def test_writes_rows(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_users": [3, 4], "alpha": [1e-3, 2e-3], "seed": 3}))
        out_csv = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(path), "--out", str(out_csv)])
        assert code == 0
        rows = read_csv(out_csv)
        assert len(rows) == 4
        assert all(r.converged for r in rows)

    def test_requires_output_path(self, fast_config_path, capsys):
        assert main(["sweep", "--config", fast_config_path]) == 2

    @pytest.mark.parametrize("grid", ["user_scaling", "attacker_resource"])
    def test_shipped_grid_reproduces_results(self, tmp_path, capsys, grid):
        # the packaged grids: users 50..120 at three externality levels, and
        # five attacker resources at three block sizes
        out_csv = tmp_path / "grid.csv"
        code = main(["sweep", "--config", f"configs/{grid}.json",
                     "--out", str(out_csv)])
        assert code == 0
        for row in read_csv(out_csv):
            assert row.converged
            assert -1e-9 <= row.total_demand <= row.n_users + 1e-9
        assert out_csv.read_bytes() == Path(f"results/{grid}.csv").read_bytes()

    def test_partly_clamped_grid_reproduces_its_pinned_bytes(self, tmp_path, capsys):
        # users left below saturation (total demand 99.68 to 99.998), so the
        # demand runs its sweeps to LCP_TOL, 16 of them, each holding the
        # saturated users at 1 in the clamped branch; no shipped row does
        out_csv = tmp_path / "clamped.csv"
        assert main(["sweep", "--config", str(DATA / "partly_clamped.json"),
                     "--out", str(out_csv)]) == 0
        assert all(row.total_demand < row.n_users for row in read_csv(out_csv))
        assert out_csv.read_bytes() == (DATA / "partly_clamped.csv").read_bytes()

    def test_interior_grid_reproduces_its_pinned_bytes(self, tmp_path, capsys, monkeypatch):
        # risk_grid's shape: the tiny externality keeps every user interior,
        # so the closed-form demand and the insurer's golden section set the
        # rows (gamma* from 1.73 to 1.98) and the clamped demand never runs
        clamped = []
        monkeypatch.setattr(equilibrium, "lcp_demand", lambda *args: clamped.append(args))
        out_csv = tmp_path / "interior.csv"
        assert main(["sweep", "--config", str(DATA / "interior.json"), "--out", str(out_csv)]) == 0
        assert clamped == [] and len(read_csv(out_csv)) == 30
        assert out_csv.read_bytes() == (DATA / "interior.csv").read_bytes()

    def test_partly_capped_grid_reproduces_its_pinned_bytes(self, tmp_path, capsys, monkeypatch):
        # the price cap at the median uncapped price: the provider's sweeps
        # hold some prices at the cap and correct their clamp predictions
        blocks, block = [], demand.GaussSeidel._clamped_block

        def counted(solver, *args):
            blocks.append(args)
            return block(solver, *args)

        monkeypatch.setattr(demand.GaussSeidel, "_clamped_block", counted)
        out_csv = tmp_path / "capped.csv"
        assert main(["sweep", "--config", str(DATA / "partly_capped.json"),
                     "--out", str(out_csv)]) == 0
        assert all(row.mean_price < 0.9515 for row in read_csv(out_csv))
        assert blocks  # 68 clamped price blocks, with 67 corrections among them
        assert out_csv.read_bytes() == (DATA / "partly_capped.csv").read_bytes()

    def test_nonconvergence_exits_1(self, tmp_path, capsys, monkeypatch):
        # one provider pass cannot absorb its own investment step; the
        # failure must land in the row, not abort
        monkeypatch.setattr(equilibrium, "PROVIDER_ITER_CAP", 1)
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({
            "n_users": [3], "alpha": [1e-3], "seed": 1,
            "solve": {"br_tolerance": 1e-14},
        }))
        out_csv = tmp_path / "strict.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out_csv)]) == 1
        rows = read_csv(out_csv)
        assert len(rows) == 1 and not rows[0].converged


# id -> config entries that make every command exit 2
BAD_CONFIGS = {
    "beta": {"beta": 0.5},
    "beta_nan": {"beta": NAN},
    "price_cap": {"price_cap": -1},
    "gamma_cap": {"gamma_cap": 0.5},
    "attacker_nan": {"attacker_resource": [NAN]},
    "solve_key": {"solve": {"bogus": 1}},
    "br_tolerance": {"solve": {"br_tolerance": 0}},
    "seed_nan": {"seed": NAN},
    "max_inner_iters": {"solve": {"max_inner_iters": 2.5}},
    "g_low": {"g_low": -1},
    "g_high_nan": {"g_high": NAN},
    "alpha": {"alpha": [-1]},
    "replicates": {"replicates": 1.5},
    "alpha_nan": {"alpha": [NAN]},
    "n_users": {"n_users": [0]},
    "br_tolerance_inf": {"solve": {"br_tolerance": float("inf")}},
    "gamma_cap_floor": {"gamma_cap": 1.0000000000000002},
    "beta_overflow": {"beta": 1e300},
    "price_cap_floor": {"price_cap": 1e-300},
    "tx_per_block_inf": {"tx_per_block": [float("inf")]},
    "claim_scale_inf": {"compensation_rate": 1e300, "tx_per_block": [10**10]},
    "n_users_fraction": {"n_users": [2.5]},
    "tx_per_block_fraction": {"tx_per_block": [99.9]},
    "n_users_float": {"n_users": [4.0]},
    "output_path_int": {"output_path": 1},
    "output_path_bool": {"output_path": True},
    "output_path_list": {"output_path": ["a"]},
    "alpha_string": {"alpha": ["7e-4"]},
    "attacker_string": {"attacker_resource": "100"},
    "attacker_bool": {"attacker_resource": [True]},
    "blocks_bool": {"blocks_per_period": True},
    "price_cap_string": {"price_cap": "1"},
    "br_tolerance_bool": {"solve": {"br_tolerance": True}},
    "solve_null": {"solve": None},
    "solve_number": {"solve": 1e-8},
}
# an unknown top-level key is the constructor's TypeError, which only from_dict catches
CONFIG_KEYS = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
BAD_FIELDS = {key: bad for key, bad in BAD_CONFIGS.items() if set(bad) <= CONFIG_KEYS}


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("bad", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
    def test_exit_2(self, tmp_path, capsys, command, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_users": [4], "alpha": [1e-3], **bad}))
        argv = [command, "--config", str(path)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "rows.csv")]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", list(BAD_FIELDS.values()), ids=list(BAD_FIELDS))
    def test_direct_construction(self, bad):
        with pytest.raises(ConfigurationError):
            harness.ExperimentConfig(**{"n_users": [4], "alpha": [1e-3], **bad})

    def test_json_array_exits_2(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert main(["solve", "--config", str(path)]) == 2
        assert "must contain a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep", "check"])
    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"n_users": [4]}',
        b'{"n_users": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"seed": ' + b"9" * 5000 + b"}",
    ], ids=["not_utf8", "nested_100000_deep", "integer_of_5000_digits"])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, command, content):
        # a UnicodeDecodeError, a RecursionError in the parser and int()'s
        # digit limit: each is the config file's fault, not the solver's
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        argv = [command, "--config", str(path)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "rows.csv")]
        assert main(argv) == 2
        assert "configuration error: cannot read config" in capsys.readouterr().err


class TestSingularBoundary:
    """alpha * rho(G) = 1 exactly, where A = I - alpha G has a zero pivot,
    fails as alpha * rho(G) = 1.5 does: a contraction violation."""

    @staticmethod
    def config(tmp_path, alpha):
        # two users at weight 5 each way: rho(G) = 5
        path = tmp_path / f"two_users_{alpha}.json"
        path.write_text(json.dumps({"n_users": [2], "alpha": [alpha], "g_low": 5.0, "g_high": 5.0}))
        return str(path)

    def run(self, tmp_path, capsys, command, alpha):
        out_csv = tmp_path / "rows.csv"
        extra = ["--out", str(out_csv)] if command == "sweep" else []
        code = main([command, "--config", self.config(tmp_path, alpha)] + extra)
        out, err = capsys.readouterr()
        rows = [dataclasses.astuple(row)[2:] for row in read_csv(out_csv)] if extra else None
        return code, out.replace("= 1.5,", "= 1,"), err.replace("= 1.5 >=", "= 1 >="), rows

    @pytest.mark.parametrize("command, code", [("solve", 2), ("check", 0), ("sweep", 1)])
    def test_behaves_like_alpha_rho_above_one(self, tmp_path, capsys, command, code):
        above = self.run(tmp_path, capsys, command, 0.3)
        boundary = self.run(tmp_path, capsys, command, 0.2)
        assert boundary[0] == code
        # NaN != NaN: compare the failed rows' text
        assert repr(boundary) == repr(above)
        if command == "solve":
            assert boundary[2].startswith("configuration error: externality spectral condition")
        if command == "sweep":
            assert len(boundary[3]) == 1 and boundary[3][0][-2:] == (False, 0)


class TestSolverErrors:
    # a block count no other test solves, so no cached attack curve hides
    # the failure: with one continued-fraction step the incomplete Beta
    # cannot converge
    BLOCKS = {"n_users": [4], "alpha": [1e-3], "blocks_per_period": 11.125}

    @pytest.fixture
    def one_fraction_step(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", 1)

    def test_solve_reports_error(self, tmp_path, capsys, one_fraction_step):
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(self.BLOCKS))
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: incomplete Beta continued fraction")

    def test_sweep_writes_failed_row(self, tmp_path, capsys, one_fraction_step):
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(self.BLOCKS))
        out_csv = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out_csv)]) == 1
        rows = read_csv(out_csv)
        assert len(rows) == 1 and not rows[0].converged

    @pytest.mark.parametrize("alpha, code", [(0.09999, 1), (0.0999, 0)])
    def test_provider_cap_names_the_contraction_margin(self, tmp_path, capsys, alpha, code):
        # G = 10 [[0, 1], [1, 0]], so alpha * rho(G) = 10 alpha: the price
        # sweeps stall as it nears 1, and at 0.9999 the provider's best
        # response runs into its iteration cap
        path = tmp_path / "stall.json"
        path.write_text(json.dumps({"n_users": [2], "alpha": [alpha], "g_low": 10.0,
                                    "g_high": 10.0}))
        assert main(["solve", "--config", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            bracket = re.search(r"alpha \* rho\(G\) in \[([^,]+), ([^\]]+)\]", err)
            low, high = map(float, bracket.groups())
            assert err.startswith("error: provider best response hit its iteration cap")
            assert low <= 0.9999 <= high
        else:
            assert err == ""

    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError, OverflowError])
    def test_singular_factor_reports_error(self, fast_config_path, monkeypatch, capsys,
                                           error, command):
        def singular(a):
            raise error("diagonal number 1 of the LU factor is exactly zero")

        monkeypatch.setattr(demand, "lu_factor", singular)
        assert main([command, "--config", fast_config_path]) == 1
        err = capsys.readouterr().err
        assert err == "error: diagonal number 1 of the LU factor is exactly zero\n"

    def test_sweep_point_value_error_fails_its_row(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"n_users": [4], "alpha": [1e-3], "seed": 7,
                                    "attacker_resource": [50.0, 100.0, 200.0]}))
        solve = harness.solve_stackelberg

        def failing(params, *args, **kwargs):
            if params.attacker_resource == 100.0:
                raise ValueError("injected")
            return solve(params, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_stackelberg", failing)
        out_csv = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out_csv)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "1 non-converged" in captured.out
        rows = read_csv(out_csv)
        assert [r.converged for r in rows] == [True, False, True]
        assert math.isnan(rows[1].mean_price)

    def test_externality_past_float_range_fails_contraction(self, tmp_path, capsys):
        # squares of these weights overflow; the spectral radius must not
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps({"n_users": [3], "g_high": 1e300}))
        assert main(["solve", "--config", str(path)]) == 2
        assert "alpha * rho(G)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_scaled_externality_past_float_range_exits_2(self, tmp_path, capsys, command):
        # alpha * G overflows, so there is no A to certify, and check must
        # not report an alpha * rho(G) of inf at exit 0
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"n_users": [2], "alpha": [1.7976931348623157e308]}))
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: alpha * G exceeds the float range")

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_unallocatable_user_count(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n_users": [10**300]}))
        assert main([command, "--config", str(path)]) == 2
        assert "externality matrix" in capsys.readouterr().err


def large_config(tmp_path, n: int) -> Path:
    """A config of n users at alpha * rho(G) near 0.35, the benchmark's."""
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"n_users": [n], "alpha": [0.07 / n], "seed": 0}))
    return path


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and /proc/self/status are Linux's")
class TestOutOfMemory:
    """A size the process cannot hold exits 2 with numpy's message, no traceback.

    Each command runs in a child whose address space RLIMIT_AS caps, set
    by preexec_fn so that it acts on that child only. The cap is the
    child's own peak after import plus 2.5 n x n arrays: the draw fits,
    and A = I - alpha G with the LU's copy of it does not. The graph's
    pre-flight (demand._check_address_space) refuses it before A is made,
    with a message that starts as numpy's. At 4.0 and 4.3 arrays, A and
    the LU fit but OpenBLAS's work buffer does not; getrf waited for it
    forever before the pre-flight, so those children are killed after
    10 s, and a regression fails the test instead of hanging it.
    """

    N = 2000
    CHILD = ("import sys\n"
             "from chainsure.cli import main\n"
             "if sys.argv[1] == 'peak':\n"
             "    print([line.split()[1] for line in open('/proc/self/status')\n"
             "           if line.startswith('VmPeak:')][0])\n"
             "else:\n"
             "    sys.exit(main(sys.argv[1:]))\n")

    @pytest.fixture(scope="class")
    def run_child(self):
        import resource

        def run(args, limit=None, timeout=120):
            def cap():
                resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

            return subprocess.run([sys.executable, "-c", self.CHILD, *args], env=child_env(),
                                  capture_output=True, text=True, timeout=timeout,
                                  preexec_fn=cap if limit else None)

        peak_kb = int(run(["peak"]).stdout)
        return lambda args, arrays=2.5, timeout=120: run(
            args, peak_kb * 1024 + int(arrays * 8 * self.N**2), timeout)

    @pytest.mark.parametrize("command", ["solve", "check", "sweep"])
    def test_exits_2_without_traceback(self, tmp_path, run_child, command):
        path = large_config(tmp_path, self.N)
        extra = ["--out", str(tmp_path / "rows.csv")] if command == "sweep" else []
        done = run_child([command, "--config", str(path), *extra])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("out of memory: Unable to allocate")
        assert f"shape ({self.N}, {self.N})" in done.stderr

    @pytest.mark.parametrize("arrays", [4.0, 4.3])
    @pytest.mark.parametrize("command", ["solve", "check", "sweep"])
    def test_refused_where_blas_would_wait_for_its_buffer(self, tmp_path, run_child, command,
                                                          arrays):
        path = large_config(tmp_path, self.N)
        extra = ["--out", str(tmp_path / "rows.csv")] if command == "sweep" else []
        done = run_child([command, "--config", str(path), *extra], arrays, timeout=10)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("out of memory: Unable to allocate")
        # the message names n and both sizes
        assert re.search(rf"allocate [0-9.]+ MiB to factor an array with shape \({self.N}, "
                         rf"{self.N}\) for {self.N} users: the address-space limit leaves "
                         r"[0-9.]+ MiB$", done.stderr.strip())


@pytest.mark.skipif(sys.platform != "linux", reason="/proc/self/status is Linux's")
class TestPeakMemory:
    """A cold solve holds at most three n x n arrays at once: the draw, A
    and its LU while the graph is built, then A, the LU and Q. Its peak
    resident size, above the child's own after import, stays below 3.5
    arrays; BLAS's work buffers take part of the half array to spare.
    A graph that kept a copy of G peaked at about four.

    check adds alpha_rho's copy of A with its diagonal zeroed and LAPACK
    gebal's balanced copy of that, which spectral_radius scales in place:
    about 4.4 arrays at peak, below 4.75. A third copy for the scaled core
    peaked at about 5.5.

    A sweep that moves to a new graph drops the old one before the draw,
    so it too holds at most three arrays; one that kept the old graph while
    the new one was drawn and factored peaked at about 6.3.

    The child reads VmHWM, its own address space's peak, and not
    ru_maxrss, which execve carries over from the forking process: under
    a test runner larger than the child, ru_maxrss would read the
    runner's peak throughout.
    """

    N = 2000
    CHILD = ("import sys\n"
             "from chainsure.cli import main\n"
             "def peak_kb():\n"
             "    return int([line.split()[1] for line in open('/proc/self/status')\n"
             "                if line.startswith('VmHWM:')][0])\n"
             "base = peak_kb()\n"
             "code = main(sys.argv[1:])\n"
             "print(code, peak_kb() - base)\n")

    def grown_arrays(self, path: Path, command: str, *extra: str) -> float:
        """The child's peak growth after import, in n x n float arrays."""
        done = subprocess.run([sys.executable, "-c", self.CHILD, command, "--config", str(path),
                               *extra],
                              env=child_env(), capture_output=True, text=True, timeout=120,
                              check=True)
        code, grown_kb = map(int, done.stdout.splitlines()[-1].split())
        assert code == 0
        return grown_kb * 1024 / (8 * self.N**2)

    def test_solve_peaks_below_three_and_a_half_arrays(self, tmp_path):
        assert self.grown_arrays(large_config(tmp_path, self.N), "solve") < 3.5

    def test_check_peaks_below_four_and_three_quarter_arrays(self, tmp_path):
        assert self.grown_arrays(large_config(tmp_path, self.N), "check") < 4.75

    def test_sweep_over_two_graphs_peaks_below_three_and_a_half_arrays(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"n_users": [self.N], "alpha": [0.07 / self.N, 0.08 / self.N],
                                    "seed": 0}))
        assert self.grown_arrays(path, "sweep", "--out", str(tmp_path / "rows.csv")) < 3.5


class TestOracle:
    def test_passes(self, capsys):
        code = main(["oracle", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 3
        assert "[FAIL]" not in out

    def test_verbose_prints_each_worst_deviation(self, capsys):
        assert main(["oracle", "--seed", "0", "--verbose"]) == 0
        out = capsys.readouterr().out
        thresholds = {"demand-solver": 1e-9, "gradient": 1e-6, "quadrature": 1e-3}
        for name, threshold in thresholds.items():
            line, = [ln for ln in out.splitlines()
                     if ln.startswith(f"  worst {name} deviation: ")]
            assert float(line.rsplit(" ", 1)[1]) < threshold

    def test_negative_seed_exits_2(self, capsys):
        assert main(["oracle", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: seed must be an unsigned 64-bit integer")


class TestClosedStdout:
    """A command whose stdout has no reader exits 2, as an unwritable --out
    does, with no traceback. The child writes into a pipe whose read end is
    closed before it starts. Buffered, as by default, its stdout fails at
    the flush after the command; unbuffered, at the command's first print."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", [
        ["solve", "--config", "configs/defaults.json"],
        ["check", "--config", "configs/defaults.json"],
        ["sweep", "--config", "configs/attacker_resource.json"],
        ["oracle", "--verbose"],
        # argparse prints the help and exits while it parses
        ["--help"],
        ["sweep", "--help"],
    ], ids=["solve", "check", "sweep", "oracle", "help", "sweep-help"])
    def test_exits_2_without_traceback(self, tmp_path, args, unbuffered):
        out_csv = tmp_path / "grid.csv"
        extra = ["--out", str(out_csv)] if args[0] == "sweep" and "--help" not in args else []
        env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "chainsure.cli", *args, *extra],
                                  env=env, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        if extra:
            assert out_csv.read_bytes() == Path("results/attacker_resource.csv").read_bytes()


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["solve", "--config", "x.json", "--bogus"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
