"""The README's examples and its public-name count stay true."""

import json
import re
from pathlib import Path

import pytest

import paulicrit
from paulicrit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

PUBLIC = {
    "CapExceeded",
    "OperatorSet",
    "OracleConfig",
    "ParseError",
    "Partition",
    "QuantumState",
    "anticommutes",
    "anticommuting_unit_combination",
    "assemble_product",
    "bound_for_partition",
    "build_graph",
    "classify",
    "common_eigenstate",
    "criteria_report",
    "cut_anticommute",
    "enumerate_bipartitions",
    "evaluate_q",
    "expectation",
    "independence_number",
    "max_clique",
    "maximize_q_global",
    "mix",
    "named_state",
    "orbit_representatives",
    "parse_partition",
    "parse_pauli",
    "random_product_state",
    "restrict",
    "symmetry_group",
    "to_matrix",
    "verify_bound",
    "weight",
}


def _code_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def test_public_names_are_pinned():
    assert len(paulicrit.__all__) == len(set(paulicrit.__all__))
    assert set(paulicrit.__all__) == PUBLIC
    assert all(hasattr(paulicrit, name) for name in PUBLIC)
    assert f"`paulicrit.__all__` ({len(PUBLIC)} names)" in README
    assert PUBLIC <= set(dir(paulicrit))
    with pytest.raises(AttributeError, match="module 'paulicrit' has no attribute 'nope'"):
        paulicrit.nope


def test_public_names_resolve_in_a_new_interpreter(fresh_python):
    """The names resolve on first access, so ``import *`` in a new
    interpreter binds all of them, and bench/run.py's submodule import
    works beside them."""
    script = (
        "import json\n"
        "names = {}\n"
        "exec('from paulicrit import *', names)\n"
        "from paulicrit import bounds, cli, cuts, oracle, pauli, states\n"
        "print(json.dumps(sorted(k for k, v in names.items()"
        " if k != '__builtins__' and v is not None)))\n"
        "print(cli.__name__, states.__name__)\n"
    )
    run = fresh_python(script)
    assert run.returncode == 0, run.stderr
    star, modules = run.stdout.splitlines()
    assert set(json.loads(star)) == PUBLIC
    assert modules == "paulicrit.cli paulicrit.states"


def test_readme_bounds_example_is_verbatim(tmp_path, capsys):
    (block,) = [b for b in _code_blocks("sh") if "$ paulicrit bounds ex8.txt\n" in b]
    setup, expected = block.split("$ paulicrit bounds ex8.txt\n")
    (written,) = re.findall(r"^\$ printf '(.*)' > ex8\.txt$", setup, flags=re.M)
    path = tmp_path / "ex8.txt"
    path.write_text(written.replace("\\n", "\n"))
    assert main(["bounds", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_example_runs(capsys):
    (block,) = _code_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    claims, best = capsys.readouterr().out.splitlines()
    assert "genuinely multipartite entangled" in claims
    assert abs(float(best) - 4.0) < 1e-3
