"""Fast self-check of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py

Covers self-time arithmetic on nested spans, the reference clique search
and cut test, failure counting on deliberately wrong outputs, the flagging
of count drift, the pad4 probe against a fixed program's output, and a
tiny-size pass of each workload's job list.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = run.import_program()


def test_self_time_of_nested_spans():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("a.child", 2.0, 3.0, parent=1),
        spans.Span("b", 5.0, 9.0, parent=0, counts={"edges": 3}),
        spans.Span("b", 9.0, 9.5, parent=0, counts={"edges": 4}),
    ]
    summary = spans.summarize(tree)
    assert summary["root"]["self_s"] == pytest.approx(10 - 3 - 4 - 0.5)
    assert summary["a"]["self_s"] == pytest.approx(2.0)
    assert summary["a.child"]["self_s"] == pytest.approx(1.0)
    assert summary["b"]["calls"] == 2
    assert summary["b"]["total_s"] == pytest.approx(4.5)
    assert summary["b"]["counts"]["edges"] == 7


def test_tracer_nests_spans_and_restores_names():
    cli = MODULES["cli"]
    before = {key: getattr(MODULES[key[0]], key[1]) for key in spans.TARGETS}
    sigma = MODULES["pauli"].OperatorSet.from_strings(workloads.EX8)
    with spans.Tracer(MODULES) as tracer:
        tracer.span("cli.bounds", cli.criteria_report, sigma)
    assert {key: getattr(MODULES[key[0]], key[1]) for key in spans.TARGETS} == before
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["cli.bounds", "bounds.criteria_report", "cuts.symmetry_group"]
    by_name = {s.name: s for s in tracer.spans}
    assert tracer.spans[by_name["graphs.build_graph"].parent].name in (
        "bounds.bound_for_partition", "bounds.criteria_report")
    assert by_name["cuts.symmetry_group"].counts == {"group_order": 6}


def _brute_clique(adj: list[int]) -> int:
    n = len(adj)
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if all((adj[a] >> b) & 1 for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


def test_reference_clique_number_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 10)
        adj = [0] * n
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        assert ref.clique_number(adj) == _brute_clique(adj)


def test_reference_cut_relation_matches_program():
    texts = ref.random_set(5, 12, 3)
    sigma = MODULES["pauli"].OperatorSet.from_strings(texts)
    cuts = MODULES["cuts"]
    for masks in ref.all_partitions(5):
        part = cuts.parse_partition(ref.partition_text(masks, 5), 5)
        for p, q in itertools.combinations(sigma.members, 2):
            ours = ref.cut_commute(ref.parse(MODULES["pauli"].format_pauli(p)),
                                   ref.parse(MODULES["pauli"].format_pauli(q)), masks)
            assert ours == cuts.cut_commute(p, q, part)


def _ex8_output(tmp_path: Path, *argv: str) -> tuple[int, str]:
    path = tmp_path / "ex8.txt"
    path.write_text("\n".join(workloads.EX8) + "\n")
    code, out, _ = run.invoke(MODULES["cli"].main, [argv[0], str(path), *argv[1:]])
    return code, out


def test_checks_fail_on_wrong_outputs(tmp_path):
    sref = workloads.SetReference(workloads.EX8)
    check = workloads.bounds_check(sref, workloads.class_reference("ex8"))
    code, out = _ex8_output(tmp_path, "bounds", "--json")
    assert check(code, out) == []
    assert check(1, out) == ["exit code 1"]
    wrong = json.loads(out)
    wrong["partitions"][1]["bound"] += 1
    assert any("omega is" in p for p in check(0, json.dumps(wrong)))
    wrong = json.loads(out)
    wrong["partitions"][1]["witness"] = ["xxx", "yxx"]  # anticommute on A|BC
    assert any("cut-anticommutes" in p for p in check(0, json.dumps(wrong)))

    verify = workloads.verify_check(sref, 2, lambda part: False)
    code, out = _ex8_output(tmp_path, "verify", "--json", "--restarts", "1")
    assert verify(code, out) == []
    rows = json.loads(out)
    rows[0].update(oracle_value=2.5, violation=True, saturated=False)
    problems = verify(1, json.dumps(rows))
    assert "exit code 1" in problems
    assert any("VIOLATION" in p for p in problems)
    assert any("not saturated" in p for p in problems)
    # Short at few restarts but saturated at the defaults: not a failure.
    rows = json.loads(out)
    rows[1].update(saturated=False)
    rechecked = []
    lenient = workloads.verify_check(sref, 2, lambda part: rechecked.append(part) or True)
    assert lenient(0, json.dumps(rows)) == []
    assert rechecked == [rows[1]["partition"]]


def _fake_pass(problems: list[str], known: str | None) -> dict:
    job = workloads.Job("fake", "eval", [], lambda code, out: problems, known)
    ok = workloads.Job("ok", "bounds", [], lambda code, out: [])
    return {
        "traced": False,
        "wall_s": 1.0,
        "scaled_s": 1.0,
        "kernel_samples": 1,
        "jobs": [{"job": ok, "seconds": 0.5, "problems": []},
                 {"job": job, "seconds": 0.5, "problems": problems}],
    }


@pytest.mark.parametrize(
    "problems, known, correct",
    [
        ([], None, True),
        (["Q 1.0, reference 4.0"], None, False),
        (["false claim 'x'"], "documented defect", True),
        (["false claim 'x'", "exit code 2"], "documented defect", False),
    ],
)
def test_failure_counting(problems, known, correct):
    fake = _fake_pass(problems, known)
    workload = workloads.Workload("fake", [j["job"] for j in fake["jobs"]], [])
    result, info = run.summarize_run(workload, [fake], ([0.2], [0.1]), 0.0, 0, False, "fake")
    assert result["attempted"] == 2
    assert result["failed"] == (1 if problems else 0)
    assert result["correct"] is correct
    assert set(result["metrics"]) == set(metrics.END_TO_END)


def test_probe_passes_once_the_false_claims_are_gone(tmp_path):
    workload = workloads.build("oracle", 0, tmp_path, MODULES, "tiny")
    probe = workload.jobs[-1]
    code, out, _ = run.invoke(MODULES["cli"].main, probe.argv)
    problems = probe.check(code, out)
    assert problems and all(p.startswith("false ") for p in problems)

    # A fixed program drops the refuted claims and the warning; a sound
    # upper bound above omega may drop further claims.
    fixed = json.loads(out)
    verdict = fixed["verdict"]
    refuted = {f"not separable w.r.t. {workloads.PAD4_PROBE_CUT}",
               "genuinely multipartite entangled"}
    verdict["claims"] = [c for c in verdict["claims"] if c["claim"] not in refuted]
    verdict["warnings"] = []
    fixed_out = json.dumps(fixed)
    assert probe.check(code, fixed_out) == []
    verdict["claims"] = verdict["claims"][:1]
    assert probe.check(code, json.dumps(fixed)) == []
    verdict["claims"].append({"claim": "not separable w.r.t. AB|C", "threshold": 2.0})
    assert any("disagree with omega" in p for p in probe.check(code, json.dumps(fixed)))

    fixed_pass = {
        "traced": False, "wall_s": 1.0, "scaled_s": 1.0, "kernel_samples": 1,
        "jobs": [{"job": job, "seconds": 0.1,
                  "problems": probe.check(code, fixed_out) if job is probe else []}
                 for job in workload.jobs],
    }
    result, info = run.summarize_run(workload, [fixed_pass], ([0.2], [0.1]), 0.0, 0,
                                     False, "fixed")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert info["failures"] == {}


def test_count_drift_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    counts = {name: 1 for name in metrics.DETERMINISTIC}
    passes = [{"layers": dict(counts)}, {"layers": dict(counts)}]
    assert run.check_counts("w", passes, "src-a") == []
    assert run.check_counts("w", passes, "src-a") == []
    passes[1]["layers"]["oracle.sweeps"] = 2
    assert run.check_counts("w", passes, "src-a") == ["oracle.sweeps: 1 then 2 within the run"]
    changed = [{"layers": {**counts, "graphs.edges": 5}}]
    assert run.check_counts("w", changed, "src-a") == ["graphs.edges: recorded 1, now 5"]
    assert run.check_counts("w", changed, "src-b") == []  # another source may differ


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_of_each_workload(name):
    for trace in (False, True):
        result, info = run.run(name, 0, 0.0, trace, size="tiny")
        assert result["correct"], info["failures"]
        expected = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert set(result["metrics"]) == set(expected)
        if name == "oracle":
            assert list(info["failures"]) == ["eval pad4 product ABC|D"]
            assert result["failed"] * 5 == result["attempted"]
        else:
            assert result["failed"] == 0
        if trace:
            assert info["drift"] == []
            assert set(info["moves"]) == set(result["metrics"])
            assert result["metrics"]["trace.overhead_s"]["unit"] == "s"
