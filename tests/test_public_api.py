from pathlib import Path

import chainsure

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_sorted_and_unique():
    names = chainsure.__all__
    assert [name for name in names if not hasattr(chainsure, name)] == []
    assert names == sorted(set(names))


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
