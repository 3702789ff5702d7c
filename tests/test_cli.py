"""Command line behavior: outputs, exit codes, and file handling."""

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from paulicrit.cli import main
from paulicrit.states import load_state

EIGHT = "xxx\nyxx\nxyx\nyyx\nxxy\nyxy\nxyy\nyyy\n"


@pytest.fixture()
def sigma3_file(tmp_path):
    path = tmp_path / "sigma3.txt"
    path.write_text(EIGHT)
    return str(path)


@pytest.fixture()
def sigma15_file(tmp_path):
    path = tmp_path / "sigma15.txt"
    assert main(["generate", "--cp", "1xxxz,1zxxz,1zxzz", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("zz\nxx\n")
    return str(path)


def test_generate_cp_writes_expansion(sigma15_file):
    lines = Path(sigma15_file).read_text().splitlines()
    assert len(lines) == 15
    assert lines[0] == "1xxxz"
    assert "z1zxx" in lines


def test_generate_cp_to_stdout(capsys):
    assert main(["generate", "--cp", "xy"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sorted(out) == ["xy", "yx"]


def test_generate_cp_dedups(capsys):
    assert main(["generate", "--cp", "xx,xx"]) == 0
    assert capsys.readouterr().out == "xx\n"


def test_generate_cp_bad_pattern(capsys):
    assert main(["generate", "--cp", "qq"]) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_cp_identity_pattern(capsys):
    assert main(["generate", "--cp", "11"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_table(sigma3_file, capsys):
    assert main(["bounds", sigma3_file]) == 0
    out = capsys.readouterr().out
    assert "full_separability: 1" in out
    assert "any_bipartition: 2" in out
    assert "quantum_lower: 4" in out
    assert "quantum_upper: not computed" in out
    assert "A|BC" in out
    assert "note: symmetry group order 6" in out


def test_bounds_quantum_upper_flag(sigma3_file, capsys):
    assert main(["bounds", sigma3_file, "--quantum-upper"]) == 0
    assert "quantum_upper: 4" in capsys.readouterr().out


def test_bounds_json(sigma3_file, capsys):
    assert main(["bounds", sigma3_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["class_bounds"] == {"full_separability": 1, "any_bipartition": 2}
    assert obj["quantum"]["lower"] == 4
    assert obj["quantum"]["upper"] is None
    assert len(obj["partitions"]) == 4
    assert "verification" not in obj


def test_bounds_json_is_stable(sigma15_file, capsys):
    assert main(["bounds", sigma15_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["bounds", sigma15_file, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_bounds_verify_json(pair_file, capsys):
    assert (
        main(["bounds", pair_file, "--verify", "--json", "--restarts", "4"]) == 0
    )
    obj = json.loads(capsys.readouterr().out)
    rows = obj["verification"]
    # width 2 has a single distinct partition to check
    assert [row["partition"] for row in rows] == ["A|B"]
    assert rows[0]["graph_bound"] == 1
    assert rows[0]["saturated"] is True
    assert rows[0]["violation"] is False


def test_bounds_missing_file(capsys):
    assert main(["bounds", "/no/such/sigma.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_unparseable_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("xx\nqq\n")
    assert main(["bounds", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_bounds_cap_exit_code(sigma3_file, capsys, monkeypatch):
    import paulicrit.graphs as graphs_module

    # caps and the sweep budget are fixed: no flag raises or lowers them
    for argv in (
        ["bounds", sigma3_file, "--clique-cap", "3"],
        ["bounds", sigma3_file, "--color-cap", "3"],
        ["eval", sigma3_file, "--state", "ghz", "--clique-cap", "3"],
        ["verify", sigma3_file, "--max-iterations", "5"],
        ["bounds", sigma3_file, "--verify", "--max-iterations", "5"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    capsys.readouterr()
    # the owning module reads its cap at call time
    monkeypatch.setattr(graphs_module, "CLIQUE_VERTEX_CAP", 7)
    assert main(["bounds", sigma3_file]) == 3
    assert "clique search on 8 vertices exceeds cap 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["bounds"], ["eval", "--state", "ghz"], ["verify"]]
)
def test_oversized_set_fails_before_any_search(command, tmp_path, capsys, monkeypatch):
    import paulicrit.bounds as bounds_module
    import paulicrit.cuts as cuts_module

    def forbidden(*args, **kwargs):
        raise AssertionError("symmetry search ran on an oversized set")

    monkeypatch.setattr(bounds_module, "symmetry_group", forbidden)
    # every symmetry and orbit search grows its orbits here, whichever
    # module holds the name it was called through
    monkeypatch.setattr(cuts_module, "_schreier_tree", forbidden)
    letters = "1xyz"
    texts = [
        "".join(letters[(k >> (2 * i)) & 3] for i in range(4)) for k in range(1, 130)
    ]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(texts) + "\n")
    assert main([command[0], str(path), *command[1:]]) == 3
    assert "clique search on 129 vertices exceeds cap 128" in capsys.readouterr().err


def test_graph_dot_output(sigma3_file, capsys):
    assert main(["graph", sigma3_file, "--relation", "anticommute"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph sigma {")
    assert out.count('[label="') == 8
    assert out.count("--") == 16


def test_graph_json_matches_library(sigma15_file, capsys):
    assert (
        main(["graph", sigma15_file, "--cut", "A|BCDE", "--relation", "commute",
              "--json"])
        == 0
    )
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["labels"]) == 15
    from paulicrit import OperatorSet, build_graph, parse_partition

    sigma = OperatorSet.from_file(sigma15_file)
    expected = build_graph(sigma, parse_partition("A|BCDE", 5), "commute")
    assert obj["edges"] == [[i, j] for i, j in expected.edges()]


def test_graph_cut_on_wide_set(tmp_path, capsys):
    # width 70 is past one 64-bit word and past the 26 block letters
    rng = np.random.default_rng(23)
    path = tmp_path / "wide.txt"
    path.write_text(
        "".join("".join(rng.choice(list("xyz"), size=70)) + "\n" for _ in range(12))
    )
    cut = ",".join(str(i) for i in range(0, 70, 2)) + "|" + ",".join(
        str(i) for i in range(1, 70, 2)
    )
    assert main(["graph", str(path), "--cut", cut, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    from paulicrit import OperatorSet, parse_partition
    from paulicrit.cuts import cut_commute

    sigma = OperatorSet.from_file(str(path))
    part = parse_partition(cut, 70)
    assert obj["labels"] == list(sigma.texts())
    assert obj["edges"] == [
        [i, j]
        for i in range(12)
        for j in range(i + 1, 12)
        if cut_commute(sigma[i], sigma[j], part)
    ]


def test_graph_export_vertex_cap(tmp_path, capsys, monkeypatch):
    import paulicrit.cli as cli_module

    def forbidden(*args, **kwargs):
        raise AssertionError("graph built for an oversized export")

    monkeypatch.setattr(cli_module, "build_graph", forbidden)
    letters = "1xyz"
    texts = [
        "".join(letters[(k >> (2 * i)) & 3] for i in range(6)) for k in range(1, 2050)
    ]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(texts) + "\n")
    assert main(["graph", str(path), "--json"]) == 3
    err = capsys.readouterr().err
    assert "graph export on 2049 vertices exceeds cap 2048" in err


def test_graph_export_reads_the_vertex_cap_at_call_time(
    sigma3_file, capsys, monkeypatch
):
    import paulicrit.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "GRAPH_VERTEX_CAP", 3)
    assert main(["graph", sigma3_file]) == 3
    assert "graph export on 8 vertices exceeds cap 3" in capsys.readouterr().err


def test_graph_output_file(sigma3_file, tmp_path):
    out_path = tmp_path / "graph.dot"
    assert main(["graph", sigma3_file, "-o", str(out_path)]) == 0
    assert out_path.read_text().startswith("graph sigma {")


def test_graph_bad_cut(sigma3_file, capsys):
    assert main(["graph", sigma3_file, "--cut", "A|B"]) == 2
    assert "error:" in capsys.readouterr().err


def test_graph_bad_relation_is_usage_error(sigma3_file):
    with pytest.raises(SystemExit) as info:
        main(["graph", sigma3_file, "--relation", "adjacent"])
    assert info.value.code == 2


def test_eval_ghz_table(sigma3_file, capsys):
    assert main(["eval", sigma3_file, "--state", "ghz"]) == 0
    out = capsys.readouterr().out
    assert "Q = 4.0000000000" in out
    assert "claim: genuinely multipartite entangled (bound 2)" in out
    assert "claim: entangled (not fully separable) (bound 1)" in out


def test_eval_basis_state_no_claims(sigma15_file, capsys):
    # every member carries an x somewhere, so |00000> scores zero
    assert main(["eval", sigma15_file, "--state", "basis:00000"]) == 0
    out = capsys.readouterr().out
    assert "Q = 0.0000000000" in out
    assert "claim: none (no bound exceeded)" in out


def test_eval_json(sigma3_file, capsys):
    assert main(["eval", sigma3_file, "--state", "w", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"q", "verdict"}
    assert obj["q"]["value"] == pytest.approx(obj["verdict"]["q_value"])
    assert len(obj["q"]["contributions"]) == 8


def test_eval_state_file(sigma3_file, tmp_path, capsys):
    state_path = tmp_path / "state.json"
    from paulicrit import named_state
    from paulicrit.states import save_state

    save_state(named_state("ghz", 3), state_path)
    assert main(["eval", sigma3_file, "--state", str(state_path), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q"]["value"] == pytest.approx(4.0)


def test_eval_state_width_mismatch(sigma15_file, tmp_path, capsys):
    state_path = tmp_path / "narrow.json"
    from paulicrit import named_state
    from paulicrit.states import save_state

    save_state(named_state("ghz", 3), state_path)
    assert main(["eval", sigma15_file, "--state", str(state_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_refuses_a_matrix_that_is_not_a_state(tmp_path, capsys):
    # Hermitian with unit trace but eigenvalue -0.5: Q would read 4 and
    # claim entanglement
    sigma = tmp_path / "z.txt"
    sigma.write_text("z\n")
    state = tmp_path / "negative.json"
    state.write_text(
        '{"width":1,"kind":"mixed","matrix":[[1.5,0],[0,0],[0,0],[-0.5,0]]}'
    )
    assert main(["eval", str(sigma), "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "negative eigenvalue -0.5" in captured.err


def test_eval_missing_state_file(sigma3_file, capsys):
    assert main(["eval", sigma3_file, "--state", "/no/such/state.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_smolin_weight_filtered_set(tmp_path, capsys):
    sigma_path = tmp_path / "weight2.txt"
    sigma_path.write_text("zz11\nz1z1\nz11z\n1zz1\n1z1z\n11zz\n")
    assert main(["eval", str(sigma_path), "--state", "smolin", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q"]["value"] == pytest.approx(0.0, abs=1e-12)
    assert obj["verdict"]["claims"] == []


def test_verify_table(pair_file, capsys):
    assert main(["verify", pair_file, "--restarts", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == [
        "partition",
        "graph_bound",
        "oracle_value",
        "gap",
        "saturated",
        "converged",
    ]
    assert len(out) == 2
    assert out[1].startswith("A|B")
    assert "yes" in out[1]


def test_verify_json_three_qubit(sigma3_file, capsys):
    assert main(["verify", sigma3_file, "--json", "--restarts", "8"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["partition"] for row in rows] == ["A|B|C", "A|BC"]
    assert all(row["saturated"] for row in rows)
    assert all(not row["violation"] for row in rows)


def test_verify_eq15_bipartition_sweeps(sigma15_file, capsys):
    # at default settings the power step alone ran 21 927 sweeps on these
    # rows; the squared extrapolation of the wide blocks cuts that
    assert main(["verify", sigma15_file, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    bipartitions = [row for row in rows if row["partition"].count("|") == 1]
    assert len(bipartitions) == 3
    assert all(row["converged"] for row in bipartitions)
    assert sum(row["sweeps"] for row in bipartitions) < 10_000


def _oracle_reaching(value, monkeypatch):
    """Make every oracle search report ``value`` as its best."""
    import dataclasses

    import paulicrit.oracle as oracle_module

    search = oracle_module.maximize_q_product

    def reaching(*args, **kwargs):
        return dataclasses.replace(search(*args, **kwargs), best_value=value)

    monkeypatch.setattr(oracle_module, "maximize_q_product", reaching)


def test_verify_reports_violation(pair_file, capsys, monkeypatch):
    # A|B has bound 1; 1 + 2e-6 is over it by twice the soundness tolerance
    _oracle_reaching(1 + 2e-6, monkeypatch)
    for argv in (["verify", pair_file], ["bounds", pair_file, "--verify"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        row = captured.out.splitlines()[-1].split()
        assert row[:5] == ["A|B", "1", "1.000002000", "-0.000002000", "VIOLATION"]
        assert "error:" in captured.err


@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_exact_oracle_value_prints_no_negative_zero_gap(
    command, pair_file, capsys, monkeypatch
):
    # one ulp above the bound 1: a gap of -4.4e-16, inside the soundness
    # tolerance
    _oracle_reaching(1.0000000000000004, monkeypatch)
    argv = [command, pair_file] + (["--verify"] if command == "bounds" else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "-0.000000000" not in out
    # the verification table comes last, after any bounds table
    row = [line for line in out.splitlines() if line.startswith("A|B ")][-1]
    assert row.split()[3] == "0.000000000"


WIDTH8 = (
    "11zz1zzx 1x1zz1yy 1xxzzxzx 1yxyzz1z 1zxyz1z1 1zxzy1y1 1zyyxz11 1zzxyyy1 "
    "x1xzzzxz xx1yzy1z xz1xz11x z1xyx1yy zx11y1z1 zxyzy1xz zyxx1yxy zyxxxyzy"
)


@pytest.fixture()
def width8_file(tmp_path):
    # random_set(8, 16, 2) of bench/reference.py: no symmetry, so every
    # bipartition is its own orbit, and A|BCDEFGH has a 7-qubit block
    path = tmp_path / "width8.txt"
    path.write_text("\n".join(WIDTH8.split()) + "\n")
    return str(path)


def test_verify_width_eight(width8_file, capsys):
    assert main(["verify", width8_file, "--restarts", "4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 128
    assert rows[0]["partition"] == "A|B|C|D|E|F|G|H"
    assert "A|BCDEFGH" in {row["partition"] for row in rows}
    assert not any(row["violation"] for row in rows)


@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_over_budget_verify_fails_before_any_search(
    command, width8_file, capsys, monkeypatch
):
    import paulicrit.oracle as oracle_module

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle search ran over the work budget")

    monkeypatch.setattr(oracle_module, "maximize_q_product", forbidden)
    # 128 restarts charge 128 * 16 * 6320 on the width-8 set's 128 partitions
    argv = [command, width8_file, "--restarts", "128"]
    if command == "bounds":
        argv.append("--verify")
    assert main(argv) == 3
    assert "work budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["bounds", "--verify"]])
def test_too_wide_verify_fails_before_the_report(
    command, tmp_path, capsys, monkeypatch
):
    import paulicrit.bounds as bounds_module

    def forbidden(*args, **kwargs):
        raise AssertionError("report built for a set the oracle cannot search")

    monkeypatch.setattr(bounds_module, "symmetry_group", forbidden)
    path = tmp_path / "width13.txt"
    path.write_text("z" * 13 + "\n" + "x" * 13 + "\n")
    assert main([command[0], str(path), *command[1:]]) == 3
    assert "product search on width 13 exceeds cap 12" in capsys.readouterr().err


def test_bounds_verify_runs_one_symmetry_search(sigma15_file, capsys, monkeypatch):
    import paulicrit.bounds as bounds_module

    calls = []
    search = bounds_module.symmetry_group

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(bounds_module, "symmetry_group", counted)
    flags = ["--json", "--restarts", "4", "--seed", "3"]
    assert main(["bounds", sigma15_file, "--verify", *flags]) == 0
    assert len(calls) == 1
    rows = json.loads(capsys.readouterr().out)["verification"]
    assert main(["verify", sigma15_file, *flags]) == 0
    assert len(calls) == 2
    assert rows == json.loads(capsys.readouterr().out)
    assert [row["partition"] for row in rows] == [
        "A|B|C|D|E", "A|BCDE", "AB|CDE", "ABD|CE"
    ]


def test_generate_clique_state_chain(sigma15_file, tmp_path, capsys):
    state_path = tmp_path / "clique_state.json"
    assert (
        main(["generate", "--clique-state", sigma15_file, "-o", str(state_path)])
        == 0
    )
    state = load_state(state_path)
    assert state.width == 5
    assert state.is_pure
    assert main(["eval", sigma15_file, "--state", str(state_path), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q"]["value"] == pytest.approx(5.0, abs=1e-8)
    claims = [c["claim"] for c in obj["verdict"]["claims"]]
    assert "genuinely multipartite entangled" in claims


def test_generate_clique_state_checks_width_before_clique_search(
    tmp_path, capsys, monkeypatch
):
    import paulicrit.cli as cli_module

    def forbidden(*args, **kwargs):
        raise AssertionError("clique search ran past the eigenstate width cap")

    monkeypatch.setattr(cli_module, "max_clique", forbidden)
    path = tmp_path / "wide.txt"
    path.write_text("z" * 11 + "\n" + "x" * 11 + "\n")
    out = tmp_path / "state.json"
    assert main(["generate", "--clique-state", str(path), "-o", str(out)]) == 3
    assert "eigenstate search on width 11 exceeds cap 10" in capsys.readouterr().err
    assert not out.exists()


def test_generate_requires_a_source():
    with pytest.raises(SystemExit) as info:
        main(["generate"])
    assert info.value.code == 2


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


DATA = Path(__file__).parent / "data"
GOLDEN_SETS = ("ex8", "eq15", "pad4", "random_10_40_seed0", "symmetric_6_seed0")


@pytest.mark.parametrize("name", GOLDEN_SETS)
def test_bounds_json_matches_golden_file(name, capsys):
    """``bounds --json`` on the fixture sets, byte for byte: the random set
    is bench/reference.py's random_set(10, 40, 0), the symmetric one its
    symmetric_set(6) in seed-0 line order."""
    assert main(["bounds", str(DATA / f"{name}.txt"), "--json"]) == 0
    golden = (DATA / f"{name}.bounds.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", ["ex8", "eq15", "pad4"])
def test_verify_json_matches_golden_file(name, capsys):
    """``verify --json --restarts 8`` on the fixture sets: pad4 exits 1 on
    ABC|D.  The floats may differ by 1e-9 across numpy versions; every
    other key must match exactly."""
    code = main(["verify", str(DATA / f"{name}.txt"), "--json", "--restarts", "8"])
    assert code == (1 if name == "pad4" else 0)
    _assert_verify_golden(json.loads(capsys.readouterr().out), name)


def _assert_verify_golden(rows, name):
    golden = json.loads((DATA / f"{name}.verify.json").read_text(encoding="utf-8"))
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        assert row.keys() == want.keys()
        for key in ("oracle_value", "gap"):
            assert row.pop(key) == pytest.approx(want.pop(key), rel=0, abs=1e-9)
        assert row == want


# a new interpreter in which ``import numpy`` fails, running the CLI
NO_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from paulicrit.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("name", GOLDEN_SETS)
def test_bounds_json_runs_without_numpy(name, fresh_python):
    run = fresh_python(NO_NUMPY, "bounds", str(DATA / f"{name}.txt"), "--json")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (DATA / f"{name}.bounds.json").read_text(encoding="utf-8")


def test_graph_and_generate_run_without_numpy(fresh_python, capsys):
    eq15 = str(DATA / "eq15.txt")
    assert main(["graph", eq15, "--json"]) == 0
    graph = fresh_python(NO_NUMPY, "graph", eq15, "--json")
    assert (graph.returncode, graph.stderr) == (0, "")
    assert graph.stdout == capsys.readouterr().out
    cp = fresh_python(NO_NUMPY, "generate", "--cp", "1xxxz,1zxxz,1zxzz")
    assert (cp.returncode, cp.stderr) == (0, "")
    assert cp.stdout == (DATA / "eq15.txt").read_text(encoding="utf-8")


def test_cli_import_leaves_numpy_to_the_oracle(fresh_python):
    """``import paulicrit.cli`` loads no numpy; ``verify`` loads it on
    first use and still matches its golden rows.  Under ``NO_NUMPY``,
    ``verify`` fails, which shows that its block takes effect."""
    ex8 = str(DATA / "ex8.txt")
    script = (
        "import sys\n"
        "import paulicrit.cli\n"
        "assert 'numpy' not in sys.modules, 'import paulicrit.cli loaded numpy'\n"
        "sys.exit(paulicrit.cli.main(sys.argv[1:]))\n"
    )
    run = fresh_python(script, "verify", ex8, "--json", "--restarts", "8")
    assert run.returncode == 0, run.stderr
    _assert_verify_golden(json.loads(run.stdout), "ex8")
    blocked = fresh_python(NO_NUMPY, "verify", ex8, "--json", "--restarts", "8")
    assert blocked.returncode != 0
    assert "import of numpy halted" in blocked.stderr


def test_main_builds_the_parser_once(sigma3_file, capsys, monkeypatch):
    import paulicrit.cli as cli_module

    built = []
    build = cli_module.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli_module, "build_parser", counting)
    cli_module._parser.cache_clear()
    try:
        assert main(["bounds", sigma3_file]) == 0
        assert main(["bounds", sigma3_file, "--json"]) == 0
    finally:
        cli_module._parser.cache_clear()
    assert len(built) == 1


def test_parser_survives_a_usage_error(sigma3_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["bounds", sigma3_file, "--no-such-flag"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(["bounds", sigma3_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["class_bounds"]["full_separability"] == 1


def test_main_leaves_no_argparse_objects_in_cycles(capsys):
    ex8 = str(DATA / "ex8.txt")
    assert main(["bounds", ex8]) == 0  # warm-up: builds the parser
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["bounds", ex8]) == 0
        gc.collect()
        leaked = [obj for obj in gc.garbage if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []
