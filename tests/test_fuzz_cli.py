"""Fuzz `cli.main` over JSON configs and flags: every input keeps the
exit-code contract.

Exit 0 (ok), 1 (solver failure) or 2 (config or usage error), never a
traceback, and exit 0 only with finite printed numbers and CSV rows. The
scalars mix ordinary values with the edges that broke it before: NaN,
infinities, 1e+-300, the smallest and largest floats and the floats next
to 1.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsure.cli import main
from chainsure.harness import read_csv

EDGES = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 5e-324,
         1.7976931348623157e308, 0.0, -1.0, 1.0, 1.0000000000000002,
         0.9999999999999999, 2.0]


def mostly(ordinary):
    """The ordinary strategy three times in four, else an edge value, so
    that many configs get past the config checks into the solver."""
    edge = st.sampled_from(EDGES)
    return st.integers(0, 3).flatmap(lambda k: edge if k == 0 else ordinary)


def scalar(lo: float, hi: float):
    return mostly(st.floats(lo, hi))


def integer(lo: int, hi: int):
    return mostly(st.integers(lo, hi))


def sweep_list(element):
    return st.one_of(element, st.lists(element, min_size=1, max_size=2))


CONFIG_FIELDS = {
    "n_users": sweep_list(integer(1, 6)),
    "alpha": sweep_list(scalar(0.0, 0.01)),
    "attacker_resource": sweep_list(scalar(1.0, 500.0)),
    "tx_per_block": sweep_list(integer(1, 400)),
    "blocks_per_period": scalar(0.5, 50.0),
    "compensation_rate": scalar(0.0, 20.0),
    "mining_reward": scalar(0.0, 20.0),
    "beta": scalar(1.0, 20.0),
    "price_cap": scalar(0.0, 3.0),
    "gamma_cap": scalar(1.0, 3.0),
    "g_low": scalar(0.0, 1.0),
    "g_high": scalar(0.0, 20.0),
    "seed": integer(0, 2**32),
    "solve": st.fixed_dictionaries({}, optional={
        "br_tolerance": scalar(1e-10, 1e-4),
    }),
}

configs = st.fixed_dictionaries({"n_users": CONFIG_FIELDS["n_users"]},
                                optional={k: v for k, v in CONFIG_FIELDS.items()
                                          if k != "n_users"})

NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def run_main(argv: list[str]) -> tuple[int, str]:
    """Run `chainsure <argv>`; assert the exit-code contract and return
    the exit code with the printed output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        assert not NON_FINITE.search(stdout.getvalue()), stdout.getvalue()
    return code, stdout.getvalue()


def run_and_check(command: str, config: dict, flags: tuple[str, ...] = (),
                  out: str = "rows.csv") -> int:
    """Run one `chainsure <command>` on config with extra flags; assert the
    exit-code contract. out is the sweep's CSV path inside a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out_csv = Path(tmp) / out
        argv = [command, "--config", str(path), *flags]
        if command == "sweep":
            argv += ["--out", str(out_csv)]
        code, _ = run_main(argv)
        if code == 0 and command == "sweep":
            for row in read_csv(out_csv):
                assert row.converged
                assert all(math.isfinite(value) for value in vars(row).values()
                           if isinstance(value, float)), row
    return code


@given(command=st.sampled_from(["solve", "sweep"]), config=configs)
@settings(max_examples=120, derandomize=True, deadline=None)
def test_exit_code_contract(command, config):
    run_and_check(command, config)


@given(config=configs)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_check_exit_code_contract(config):
    run_and_check("check", config)


# seeds past either end of the unsigned 64-bit range, and its two ends
SEEDS = [-1, -(2**64), 2**64, 2**64 + 1, 0, 2**64 - 1]
# a writable file, the scratch directory itself, a file in a missing directory,
# and a device on which every write fails (an absolute path replaces the directory)
OUT_PATHS = ["rows.csv", ".", "missing/rows.csv", "/dev/full"]


@given(
    command=st.sampled_from(["solve", "sweep", "check"]),
    seed=st.one_of(st.none(), st.sampled_from(SEEDS)),
    threads=st.one_of(st.none(), st.sampled_from([0, 1, 2])),
    out=st.sampled_from(OUT_PATHS),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_flag_exit_code_contract(command, seed, threads, out):
    flags = () if seed is None else ("--seed", str(seed))
    if command == "sweep" and threads is not None:
        flags += ("--threads", str(threads))
    code = run_and_check(command, {"n_users": [3], "alpha": [1e-3]}, flags, out)
    bad_seed = seed is not None and not 0 <= seed < 2**64
    bad_sweep = command == "sweep" and (out != "rows.csv" or threads in (0, 2))
    assert code == (2 if bad_seed or bad_sweep else 0)


def test_removed_replicates_flag_exits_2():
    assert run_and_check("sweep", {"n_users": [3], "alpha": [1e-3]}, ("--replicates", "2")) == 2


@pytest.mark.parametrize("seed", SEEDS[:4] + [2**64 - 1])
def test_oracle_seed_exit_code_contract(seed):
    # each seed in range runs the whole oracle suite (about a second), so
    # only the top of the range does
    code, _ = run_main(["oracle", "--seed", str(seed)])
    assert code == (0 if 0 <= seed < 2**64 else 2)
