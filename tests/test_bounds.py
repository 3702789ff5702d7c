"""Partition bounds, class bounds, reports, and classification."""

import gc
import types

import numpy as np
import pytest

import paulicrit.cuts as cuts_module

from paulicrit import (
    OperatorSet,
    Partition,
    assemble_product,
    bound_for_partition,
    classify,
    common_eigenstate,
    criteria_report,
    evaluate_q,
    named_state,
    parse_partition,
    parse_pauli,
    restrict,
)
from paulicrit.cuts import cut_commute
from paulicrit.graphs import Graph, chromatic_number
from paulicrit.pauli import format_pauli


def test_bound_for_partition_three_qubit(sigma3):
    assert bound_for_partition(sigma3, Partition.finest(3))[0] == 1
    for text in ("A|BC", "AB|C", "AC|B"):
        bound, witness = bound_for_partition(sigma3, parse_partition(text, 3))
        assert bound == 2
        assert len(witness) == 2


def test_bound_for_partition_five_qubit(sigma15):
    assert bound_for_partition(sigma15, Partition.finest(5))[0] == 1
    assert bound_for_partition(sigma15, Partition.single_block(5))[0] == 5
    for text in ("A|BCDE", "AB|CDE", "ABD|CE", "AC|BDE", "ABC|DE"):
        assert bound_for_partition(sigma15, parse_partition(text, 5))[0] == 3


def test_bound_witness_respects_cut(sigma15):
    part = parse_partition("AB|CDE", 5)
    bound, witness = bound_for_partition(sigma15, part)
    assert len(witness) == bound
    for i, a in enumerate(witness):
        for b in witness[i + 1 :]:
            assert cut_commute(a, b, part)


def test_two_three_cut_bound_is_attained(sigma15):
    # A product state across AB|CDE reaching the cut clique bound of 3:
    # the witness members have definite signs on |00> x (CDE eigenstate).
    part = parse_partition("AB|CDE", 5)
    triple = [parse_pauli(t) for t in ("1zxzz", "z1xxx", "z1zxz")]
    for i, a in enumerate(triple):
        for b in triple[i + 1 :]:
            assert cut_commute(a, b, part)
    tail = common_eigenstate([restrict(p, (2, 3, 4)) for p in triple])
    zero_zero = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    state = assemble_product(part, [zero_zero, tail.data])
    q = evaluate_q(state, sigma15)
    assert q.value == pytest.approx(3.0, abs=1e-8)
    assert bound_for_partition(sigma15, part)[0] == 3


def test_single_block_bound_equals_quantum_lower(sigma3, sigma15):
    for sigma in (sigma3, sigma15):
        direct = bound_for_partition(sigma, Partition.single_block(sigma.width))[0]
        assert direct == criteria_report(sigma).quantum_lower


def test_criteria_report_three_qubit(sigma3):
    report = criteria_report(sigma3, quantum_upper=True)
    assert report.width == 3
    assert report.sigma == sigma3.texts()
    assert report.class_bounds == {"full_separability": 1, "any_bipartition": 2}
    assert report.quantum_lower == 4
    assert report.quantum_upper == 4
    assert report.quantum_witness == ("xxx", "yyx", "yxy", "xyy")
    assert len(report.per_partition) == 4
    for part, row in report.per_partition.items():
        assert row.bound == (1 if part == Partition.finest(3) else 2)
    assert any("symmetry group order 6" in note for note in report.notes)
    assert any("4 partitions in 2 orbits" in note for note in report.notes)


def test_criteria_report_five_qubit(sigma15):
    report = criteria_report(sigma15)
    assert report.class_bounds == {"full_separability": 1, "any_bipartition": 3}
    assert report.quantum_lower == 5
    assert report.quantum_upper is None
    assert criteria_report(sigma15, quantum_upper=True).quantum_upper == 5
    assert set(report.quantum_witness) == {
        "1zxxz",
        "xxz1z",
        "xz1zx",
        "z1zxx",
        "zxxz1",
    }
    assert len(report.per_partition) == 16
    for part, row in report.per_partition.items():
        expect = 1 if part == Partition.finest(5) else 3
        assert row.bound == expect
    orbits = {str(row.orbit) for row in report.per_partition.values()}
    assert orbits == {"A|B|C|D|E", "A|BCDE", "AB|CDE", "ABD|CE"}
    assert any("symmetry group order 5" in note for note in report.notes)
    assert any("16 partitions in 4 orbits" in note for note in report.notes)


def test_criteria_report_witnesses_verified(sigma15):
    report = criteria_report(sigma15)
    for part, row in report.per_partition.items():
        members = [parse_pauli(t) for t in row.witness]
        assert len(members) == row.bound
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert cut_commute(a, b, part)


def test_criteria_report_two_qubit_pair():
    pair = OperatorSet.from_strings(["zz", "xx"])
    report = criteria_report(pair, quantum_upper=True)
    assert report.class_bounds == {"full_separability": 1, "any_bipartition": 1}
    assert report.quantum_lower == 2
    assert report.quantum_upper == 2
    # at width 2 the finest partition is the one bipartition
    assert len(report.per_partition) == 1


def test_criteria_report_one_string():
    report = criteria_report(OperatorSet.from_strings(["zz"]), quantum_upper=True)
    assert (report.quantum_lower, report.quantum_upper) == (1, 1)
    assert report.class_bounds == {"full_separability": 1, "any_bipartition": 1}


def test_criteria_report_single_qubit():
    single = OperatorSet.from_strings(["z", "x"])
    report = criteria_report(single)
    assert report.class_bounds == {"full_separability": 1}
    assert len(report.per_partition) == 1


def test_report_json_is_deterministic():
    texts = ("1xxxz", "z1xxx", "xz1xx", "xxz1x", "xxxz1")
    first = criteria_report(OperatorSet.from_strings(texts)).to_json()
    second = criteria_report(OperatorSet.from_strings(texts)).to_json()
    assert first == second


def test_report_json_shape(sigma3):
    obj = criteria_report(sigma3, quantum_upper=True).to_json_obj()
    assert set(obj) == {
        "sigma",
        "width",
        "partitions",
        "class_bounds",
        "quantum",
        "notes",
    }
    assert len(obj["partitions"]) == 4
    row = obj["partitions"][0]
    assert set(row) == {"partition", "orbit", "bound", "witness"}
    assert obj["quantum"] == {
        "lower": 4,
        "witness": ["xxx", "yyx", "yxy", "xyy"],
        "upper": 4,
    }


def test_refining_never_raises_the_bound():
    rng = np.random.default_rng(61)
    for _ in range(30):
        width = int(rng.integers(3, 6))
        texts = set()
        while len(texts) < 6:
            t = "".join(rng.choice(list("1xyz"), size=width))
            if t != "1" * width:
                texts.add(t)
        sigma = OperatorSet.from_strings(sorted(texts))
        sites = list(range(width))
        rng.shuffle(sites)
        split = int(rng.integers(1, width))
        coarse = Partition(width, (tuple(sites),))
        fine = Partition(width, (tuple(sites[:split]), tuple(sites[split:])))
        assert (
            bound_for_partition(sigma, fine)[0]
            <= bound_for_partition(sigma, coarse)[0]
        )
        assert (
            bound_for_partition(sigma, Partition.finest(width))[0]
            <= bound_for_partition(sigma, fine)[0]
        )


def test_classify_three_qubit(sigma3):
    report = criteria_report(sigma3)
    ghz_q = evaluate_q(named_state("ghz", 3), sigma3).value
    verdict = classify(ghz_q, report)
    texts = [c.claim for c in verdict.claims]
    assert "entangled (not fully separable)" in texts
    assert "genuinely multipartite entangled" in texts
    assert len(verdict.claims) == 5
    assert verdict.warnings == ()


def test_classify_equal_value_claims_nothing(sigma3):
    # bounds are exclusion thresholds, equality certifies nothing
    report = criteria_report(sigma3)
    verdict = classify(2.0, report)
    assert [c.claim for c in verdict.claims] == ["entangled (not fully separable)"]
    assert classify(1.0, report).claims == ()
    assert classify(0.0, report).claims == ()


def test_classify_thresholds(sigma15):
    report = criteria_report(sigma15)
    verdict = classify(4.2, report)
    by_text = {c.claim: c.threshold for c in verdict.claims}
    assert by_text["entangled (not fully separable)"] == 1.0
    assert by_text["genuinely multipartite entangled"] == 3.0
    assert by_text["not separable w.r.t. AB|CDE"] == 3.0
    # finest partition never appears as a cut claim, so 1 + 15 + 1 rows
    assert len(verdict.claims) == 17


def test_classify_warns_above_quantum_maximum(sigma3):
    report = criteria_report(sigma3)
    verdict = classify(4.5, report)
    assert len(verdict.warnings) == 1
    assert "no-cut maximum" in verdict.warnings[0]
    assert classify(4.0, report).warnings == ()


def test_classify_rejects_negative(sigma3):
    with pytest.raises(ValueError):
        classify(-0.1, criteria_report(sigma3))


def test_verdict_json(sigma3):
    verdict = classify(2.5, criteria_report(sigma3))
    obj = verdict.to_json_obj()
    assert obj["q_value"] == 2.5
    assert all(set(c) == {"claim", "threshold"} for c in obj["claims"])
    assert obj["warnings"] == []


def test_criteria_report_notes_the_cap_that_tripped(sigma15, monkeypatch):
    monkeypatch.setattr(cuts_module, "SYMMETRY_WORK_BUDGET", 10)
    report = criteria_report(sigma15)
    assert any(
        "identity group used" in note and "work budget 10" in note
        for note in report.notes
    )
    assert any("16 partitions in 16 orbits" in note for note in report.notes)


def test_searches_leave_no_reference_cycles(sigma15, monkeypatch):
    """Recursive searches must be freed by reference counting alone."""
    five_cycle = Graph.from_edges("abcde", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        criteria_report(sigma15)
        assert chromatic_number(five_cycle)[0] == 3  # probes k = 2 and fails
        # the symmetry search stopped by its work budget: the exception path
        monkeypatch.setattr(cuts_module, "SYMMETRY_WORK_BUDGET", 10)
        criteria_report(sigma15)
        gc.collect()
        leaked = sorted(
            obj.__qualname__
            for obj in gc.garbage
            if isinstance(obj, types.FunctionType)
            and obj.__module__.startswith("paulicrit")
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []
