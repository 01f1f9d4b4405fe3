import subprocess
import sys
from pathlib import Path

import pytest

import chainsure
from chainsure import cli, demand, harness, market, oracles, risk, specfun
from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# each name moved into chainsure.oracles, or, for read_csv and its parsers,
# into the tests' conftest
MOVED = ["BRUTE_FORCE_MAX_USERS", "_PARSERS", "_SIMPSON_MAX_DEPTH", "_oracle_gradients",
         "_oracle_lcp", "_oracle_quadrature", "_simpson", "adaptive_simpson",
         "brute_force_lcp", "expected_loss", "leader_jacobian", "provider_hessian",
         "read_csv", "reputation_penalty"]


def test_all_names_resolve_sorted_and_unique():
    names = chainsure.__all__
    assert [name for name in names if not hasattr(chainsure, name)] == []
    assert names == sorted(set(names))


def test_oracles_names_resolve_sorted_and_unique():
    names = oracles.__all__
    assert [name for name in names if not hasattr(oracles, name)] == []
    assert names == sorted(set(names))


@pytest.mark.parametrize("module", [chainsure, cli, demand, harness, market, risk, specfun],
                         ids=lambda module: module.__name__)
def test_moved_names_are_gone(module):
    assert [name for name in MOVED if hasattr(module, name)] == []


def test_solve_sweep_and_check_load_no_oracle(tmp_path):
    """chainsure, its cli and its harness, imported and run as the console
    script runs them, never load chainsure.oracles."""
    child = ("import sys\n"
             "import chainsure, chainsure.cli, chainsure.harness\n"
             "config, out = sys.argv[1:]\n"
             "for args in (['sweep', '--config', config, '--out', out],\n"
             "             ['solve', '--config', config], ['check', '--config', config]):\n"
             "    assert chainsure.cli.main(args) == 0, args\n"
             "print('chainsure.oracles' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", child,
                           str(ROOT / "configs" / "attacker_resource.json"), str(tmp_path / "ar.csv")],
                          env=child_env(), capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def library_block() -> str:
    """The first python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_use_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    alpha_rho, solved, violation = capsys.readouterr().out.splitlines()
    assert 0.0 < float(alpha_rho) < 1.0
    assert len(solved.split()) == 4  # hbar, gamma and the two profits
    assert violation == "no graph: alpha * rho(G) = 1.484 >= 1"
