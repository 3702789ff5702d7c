"""Command line behavior: outputs, exit codes, and file handling."""

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from paulicrit import (
    CapExceeded,
    Partition,
    QuantumState,
    expectation,
    named_state,
    parse_pauli,
    random_product_state,
    to_matrix,
)
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


def test_generate_cp_refuses_an_empty_pattern_list(capsys):
    assert main(["generate", "--cp", ","]) == 2
    assert capsys.readouterr() == ("", "error: no patterns given to --cp\n")


def test_generate_cp_refuses_patterns_of_two_widths(capsys):
    assert main(["generate", "--cp", "xx,xxx"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: width mismatch in operator set: 3 vs 2\n",
    )


def test_generate_cp_skips_an_empty_pattern(capsys):
    assert main(["generate", "--cp", "xy,,zz"]) == 0
    assert capsys.readouterr() == ("xy\nyx\nzz\n", "")


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
        # only verify runs the oracle
        ["bounds", sigma3_file, "--verify"],
        ["bounds", sigma3_file, "--seed", "1"],
        ["bounds", sigma3_file, "--restarts", "4"],
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


# 2**19999 - 1 has more decimal digits than Python's int-to-str limit
@pytest.mark.parametrize(
    "width, count", [(20, "524287"), (20000, "2**19999 - 1")], ids=["20", "20000"]
)
def test_wide_bounds_fails_on_the_bipartition_cap(
    width, count, tmp_path, capsys, monkeypatch
):
    import paulicrit.bounds as bounds_module

    def forbidden(*args, **kwargs):
        raise AssertionError("symmetry search ran past the bipartition cap")

    monkeypatch.setattr(bounds_module, "symmetry_group", forbidden)
    path = tmp_path / f"width{width}.txt"
    path.write_text("x" * width + "\n")
    assert main(["bounds", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{count} bipartitions of width {width} exceed cap 32767" in err


@pytest.mark.parametrize(
    "command, width, message",
    [
        ("bounds", 17, "65535 bipartitions of width 17 exceed cap 32767"),
        ("verify", 13, "product search on width 13 exceeds cap 12"),
    ],
)
def test_width_caps_are_read_before_any_partition_is_built(
    command, width, message, tmp_path, capsys, monkeypatch
):
    """Building ``Partition.finest`` costs time quadratic in the width, so
    each command's width cap refuses first."""
    from paulicrit.cuts import Partition

    def forbidden(cls, width):
        raise AssertionError(f"Partition.finest({width}) built before the width cap")

    monkeypatch.setattr(Partition, "finest", classmethod(forbidden))
    path = tmp_path / f"width{width}.txt"
    path.write_text("x" * width + "\n")
    assert main([command, str(path)]) == 3
    assert message in capsys.readouterr().err


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


def test_graph_cut_refuses_a_bad_letter(sigma3_file, capsys):
    assert main(["graph", sigma3_file, "--cut", "A|B$C"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: bad letter '$' in partition 'A|B$C'\n",
    )


def test_graph_cut_skips_a_space(sigma3_file, capsys):
    assert main(["graph", sigma3_file, "--cut", "A B|C"]) == 0
    spaced = capsys.readouterr()
    assert main(["graph", sigma3_file, "--cut", "AB|C"]) == 0
    assert spaced == capsys.readouterr()
    # the cut was read: the plain graph differs
    assert main(["graph", sigma3_file]) == 0
    assert spaced.out != capsys.readouterr().out


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


@pytest.mark.parametrize("name", ["ghz", "w", "smolin"])
def test_eval_refuses_a_detail_on_a_named_state_that_takes_none(name, tmp_path, capsys):
    sigma = tmp_path / "width4.txt"
    sigma.write_text("xxxx\nzzzz\n")
    # an empty detail is a detail: "ghz:" is not read as "ghz"
    for detail in ("junk", ""):
        assert main(["eval", str(sigma), "--state", f"{name}:{detail}"]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {name} state takes no detail, got {detail!r}\n",
        )


def test_eval_reads_an_empty_basis_detail_as_its_bitstring(tmp_path, capsys):
    sigma = tmp_path / "width4.txt"
    sigma.write_text("xxxx\nzzzz\n")
    assert main(["eval", str(sigma), "--state", "basis:"]) == 2
    assert capsys.readouterr() == ("", "error: bitstring '' does not match width 4\n")
    assert main(["eval", str(sigma), "--state", "basis"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: basis state needs a bitstring, e.g. basis:0101\n",
    )


def test_eval_refuses_a_named_state_over_the_cap_before_allocating(tmp_path, capsys):
    # 2**40 amplitudes would take 16 TiB
    sigma = tmp_path / "width40.txt"
    sigma.write_text("x" * 40 + "\n")
    assert main(["eval", str(sigma), "--state", "ghz"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["error: ghz state on width 40 exceeds cap 12"]


@pytest.mark.parametrize("width", [True, 1.7, "1"])
def test_eval_refuses_a_state_width_that_is_not_an_integer(width, tmp_path, capsys):
    sigma = tmp_path / "x.txt"
    sigma.write_text("x\n")
    state = tmp_path / "coerced.json"
    state.write_text(
        json.dumps({"width": width, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]})
    )
    assert main(["eval", str(sigma), "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad state width {width!r}\n"


def test_eval_refuses_a_state_width_over_the_cap_before_any_shift(
    tmp_path, fresh_python
):
    # 1 << 10**11 would fill 12.5 GB; the address space is capped at 2 GB so
    # that a regression fails with MemoryError instead of taking it
    sigma = tmp_path / "x.txt"
    sigma.write_text("x\n")
    state = tmp_path / "huge.json"
    state.write_text('{"width": 100000000000, "kind": "pure", "amplitudes": []}')
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.RLIM_INFINITY))\n"
        "from paulicrit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    run = fresh_python(script, "eval", str(sigma), "--state", str(state))
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == "error: pure state of width 100000000000 exceeds cap 12\n"


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


@pytest.mark.parametrize("kind, key, size", [("pure", "amplitudes", 4),
                                             ("mixed", "matrix", 16)])
@pytest.mark.parametrize(
    "entry", [0, "ab", [None, 0], [True, 0], [float("nan"), 0], [0, float("inf")]]
)
def test_eval_refuses_a_state_entry_that_is_not_a_pair(
    kind, key, size, entry, pair_file, tmp_path, capsys
):
    state = tmp_path / "malformed.json"
    entries = [[0, 0]] * (size - 1) + [entry]
    state.write_text(json.dumps({"width": 2, "kind": kind, key: entries}))
    assert main(["eval", pair_file, "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"{size - 1} is {entry!r}, not a pair of real numbers" in lines[0]


def test_eval_refuses_a_state_object_without_a_width(sigma3_file, tmp_path, capsys):
    state = tmp_path / "empty.json"
    state.write_text("{}")
    assert main(["eval", sigma3_file, "--state", str(state)]) == 2
    assert capsys.readouterr() == ("", "error: malformed state object: 'width'\n")


def test_eval_refuses_a_mixed_state_with_too_few_entries(tmp_path, capsys):
    sigma = tmp_path / "z.txt"
    sigma.write_text("z\n")
    state = tmp_path / "short.json"
    state.write_text('{"width":1,"kind":"mixed","matrix":[[1,0]]}')
    assert main(["eval", str(sigma), "--state", str(state)]) == 2
    assert capsys.readouterr() == ("", "error: mixed state needs 4 matrix entries\n")


def test_eval_prints_the_verdict_warning(sigma3_file, capsys, monkeypatch):
    # the verdict is patched in: pad4, the one known set whose states draw
    # this warning, draws it although the state exists, so no test pins it
    import paulicrit.cli as cli_module
    from paulicrit.bounds import Verdict

    monkeypatch.setattr(
        cli_module,
        "classify",
        lambda value, report: Verdict(value, (), ("value 9 exceeds; check",)),
    )
    assert main(["eval", sigma3_file, "--state", "ghz"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "claim: none (no bound exceeded)",
        "warning: value 9 exceeds; check",
    ]


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
    assert main(["verify", pair_file]) == 1
    captured = capsys.readouterr()
    row = captured.out.splitlines()[-1].split()
    assert row[:5] == ["A|B", "1", "1.000002000", "-0.000002000", "VIOLATION"]
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["verify"])
def test_exact_oracle_value_prints_no_negative_zero_gap(
    command, pair_file, capsys, monkeypatch
):
    # one ulp above the bound 1: a gap of -4.4e-16, inside the soundness
    # tolerance
    _oracle_reaching(1.0000000000000004, monkeypatch)
    assert main([command, pair_file]) == 0
    out = capsys.readouterr().out
    assert "-0.000000000" not in out
    assert out.splitlines()[-1].split()[3] == "0.000000000"


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


@pytest.mark.parametrize("command", ["verify"])
def test_over_budget_verify_fails_before_any_search(
    command, width8_file, capsys, monkeypatch
):
    import paulicrit.oracle as oracle_module

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle search ran over the work budget")

    monkeypatch.setattr(oracle_module, "maximize_q_product", forbidden)
    # 128 restarts charge 128 * 16 * 6320 on the width-8 set's 128 partitions
    assert main([command, width8_file, "--restarts", "128"]) == 3
    assert "work budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"]])
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


def test_verify_runs_one_symmetry_search(sigma15_file, capsys, monkeypatch):
    import paulicrit.bounds as bounds_module

    calls = []
    search = bounds_module.symmetry_group

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(bounds_module, "symmetry_group", counted)
    argv = ["verify", sigma15_file, "--json", "--restarts", "4", "--seed", "3"]
    assert main(argv) == 0
    assert len(calls) == 1
    rows = json.loads(capsys.readouterr().out)
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

    monkeypatch.setattr(cli_module, "bound_for_partition", forbidden)
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
GOLDEN_SETS = (
    "ex8",
    "eq15",
    "pad4",
    "random_10_40_seed0",
    "symmetric_6_seed0",
    "code5",
    "ring6",
)


@pytest.mark.parametrize("name", GOLDEN_SETS)
def test_bounds_json_matches_golden_file(name, capsys):
    """``bounds --json`` on the fixture sets, byte for byte: the random set
    is bench/reference.py's random_set(10, 40, 0), the symmetric one its
    symmetric_set(6) in seed-0 line order.  code5 (``generate --cp
    1xzzx,1yxxy,1zyyz``, group order 10) and ring6 (the 53 phase-free
    stabilizers of weight at most 5 of the 6-qubit ring graph state, group
    order 12) have dihedral symmetry groups."""
    assert main(["bounds", str(DATA / f"{name}.txt"), "--json"]) == 0
    golden = (DATA / f"{name}.bounds.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_bounds_json_is_the_same_through_the_per_row_fallback(capsys, monkeypatch):
    """The random set's 512 orbit rows outnumber its 40 members, so one
    clique walk serves them; with its budget spent at once, each row gets
    its own cut graph and search, and the output is the same bytes."""
    import paulicrit.bounds as bounds_module
    import paulicrit.graphs as graphs_module

    real = bounds_module.max_clique
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(bounds_module, "max_clique", counted)
    path = str(DATA / "random_10_40_seed0.txt")
    assert main(["bounds", path, "--json"]) == 0
    walked = capsys.readouterr().out
    assert len(calls) == 1  # the no-cut graph only
    monkeypatch.setattr(graphs_module, "CLIQUE_WALK_BUDGET", 0)
    assert main(["bounds", path, "--json"]) == 0
    assert len(calls) == 1 + 512 + 1
    assert capsys.readouterr().out == walked
    assert walked == (DATA / "random_10_40_seed0.bounds.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["ex8", "eq15", "pad4", "code5"])
def test_verify_json_matches_golden_file(name, capsys):
    """``verify --json --restarts 8`` on the fixture sets: pad4 exits 1 on
    ABC|D; code5 is a stabilizer set.  The floats may differ by 1e-9
    across numpy versions; every other key must match exactly."""
    code = main(["verify", str(DATA / f"{name}.txt"), "--json", "--restarts", "8"])
    assert code == (1 if name == "pad4" else 0)
    _assert_verify_golden(json.loads(capsys.readouterr().out), name)


@pytest.mark.parametrize("name", ["eq15", "code5", "pad4"])
def test_generate_clique_state_matches_golden_file(name, capsys):
    """``generate --clique-state`` on the fixture sets, byte for byte.
    pad4's clique holds members with one y letter, whose action is not
    symmetric under a sign flip of the phases."""
    assert main(["generate", "--clique-state", str(DATA / f"{name}.txt")]) == 0
    golden = (DATA / f"{name}.clique-state.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def _assert_verify_golden(rows, name):
    golden = json.loads((DATA / f"{name}.verify.json").read_text(encoding="utf-8"))
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        assert row.keys() == want.keys()
        for key in ("oracle_value", "gap"):
            assert row.pop(key) == pytest.approx(want.pop(key), rel=0, abs=1e-9)
        assert row == want


def _blocking(*modules: str) -> str:
    """A snippet for a new interpreter in which importing any of
    ``modules`` fails, running the CLI."""
    blocks = "".join(f"sys.modules[{name!r}] = None\n" for name in modules)
    return (
        f"import sys\n{blocks}"
        "from paulicrit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )


# the bit-level commands run without numpy, and without dataclasses, whose
# import loads inspect and ast
NO_NUMPY = _blocking("numpy", "dataclasses")


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
    """``import paulicrit.cli`` loads no numpy, ``dataclasses`` or
    ``inspect``; ``verify`` loads numpy on first use and still matches its
    golden rows.  With numpy blocked, ``verify`` fails, and with
    ``dataclasses`` blocked too, so both blocks take effect."""
    ex8 = str(DATA / "ex8.txt")
    script = (
        "import sys\n"
        "import paulicrit.cli\n"
        "for name in ('numpy', 'dataclasses', 'inspect'):\n"
        "    assert name not in sys.modules, f'import paulicrit.cli loaded {name}'\n"
        "sys.exit(paulicrit.cli.main(sys.argv[1:]))\n"
    )
    run = fresh_python(script, "verify", ex8, "--json", "--restarts", "8")
    assert run.returncode == 0, run.stderr
    _assert_verify_golden(json.loads(run.stdout), "ex8")
    for snippet, halted in (
        (_blocking("numpy"), "numpy"),
        (NO_NUMPY, "dataclasses"),  # the oracle's modules import it first
    ):
        blocked = fresh_python(snippet, "verify", ex8, "--json", "--restarts", "8")
        assert blocked.returncode != 0
        assert f"import of {halted} halted" in blocked.stderr


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


# every refusal that goes through errors.check_cap, with its exact message:
# (module, cap name, patched cap, command line or call, message).  A cap is
# patched low where the real one is costly to reach.  In a command line,
# SET is ex8, SET65 65 distinct strings of width 6, and the .json names are
# width-3 state files
_CAP_REFUSALS = {
    "clique": ("graphs", "CLIQUE_VERTEX_CAP", 7, ["bounds", "SET"],
               "clique search on 8 vertices exceeds cap 7"),
    "colouring": (None, None, None, ["bounds", "SET65", "--quantum-upper"],
                  "colouring search on 65 vertices exceeds cap 64"),
    "graph-export": ("graphs", "GRAPH_VERTEX_CAP", 3, ["graph", "SET"],
                     "graph export on 8 vertices exceeds cap 3"),
    "product-search": ("states", "PURE_QUBIT_CAP", 2, ["verify", "SET"],
                       "product search on width 3 exceeds cap 2"),
    "eigenstate": ("states", "EIGENSTATE_QUBIT_CAP", 2,
                   ["generate", "--clique-state", "SET"],
                   "eigenstate search on width 3 exceeds cap 2"),
    "named-state": ("states", "PURE_QUBIT_CAP", 2, ["eval", "SET", "--state", "w"],
                    "w state on width 3 exceeds cap 2"),
    "pure-file": ("states", "PURE_QUBIT_CAP", 2,
                  ["eval", "SET", "--state", "pure3.json"],
                  "pure state of width 3 exceeds cap 2"),
    "mixed-file": ("states", "MIXED_QUBIT_CAP", 2,
                   ["eval", "SET", "--state", "mixed3.json"],
                   "mixed state of width 3 exceeds cap 2"),
    "expectation": ("states", "MIXED_QUBIT_CAP", 2,
                    lambda: expectation(QuantumState.mixed(np.eye(8) / 8.0),
                                        parse_pauli("zzz")),
                    "expectation on width 3 exceeds cap 2"),
    "dense-matrix": (None, None, None, lambda: to_matrix(parse_pauli("x" * 7)),
                     "dense matrix for width 7 exceeds cap 6"),
    "product-state": (None, None, None,
                      lambda: random_product_state(Partition.finest(13), 0),
                      "product state on width 13 exceeds cap 12"),
}


@pytest.mark.parametrize(
    "module, cap_name, cap, call, message",
    list(_CAP_REFUSALS.values()),
    ids=list(_CAP_REFUSALS),
)
def test_every_cap_refusal_names_its_size_and_cap(
    module, cap_name, cap, call, message, tmp_path, capsys, monkeypatch
):
    import importlib

    from paulicrit.states import save_state

    files = {name: str(tmp_path / name) for name in ("SET65", "pure3.json", "mixed3.json")}
    files["SET"] = str(DATA / "ex8.txt")
    letters = "1xyz"
    Path(files["SET65"]).write_text(
        "".join(
            "".join(letters[k >> 2 * i & 3] for i in range(6)) + "\n"
            for k in range(1, 66)
        )
    )
    save_state(named_state("ghz", 3), files["pure3.json"])
    save_state(QuantumState.mixed(np.eye(8) / 8.0), files["mixed3.json"])
    if module is not None:
        monkeypatch.setattr(importlib.import_module(f"paulicrit.{module}"), cap_name, cap)
    if callable(call):
        with pytest.raises(CapExceeded) as info:
            call()
        assert str(info.value) == message
    else:
        assert main([files.get(arg, arg) for arg in call]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
