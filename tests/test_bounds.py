"""Partition bounds, class bounds, reports, and classification."""

import gc
import json
import random
import types
from pathlib import Path

import numpy as np
import pytest

import paulicrit.bounds as bounds_module
import paulicrit.cuts as cuts_module
import paulicrit.graphs as graphs_module

from paulicrit import (
    OperatorSet,
    Partition,
    assemble_product,
    bound_for_partition,
    classify,
    common_eigenstate,
    criteria_report,
    enumerate_bipartitions,
    evaluate_q,
    named_state,
    parse_partition,
    parse_pauli,
    restrict,
)
from paulicrit.bounds import SOUNDNESS_TOL, BoundReport, PartitionBound
from paulicrit.cuts import cut_anticommute, cut_commute, is_cut_clique
from paulicrit.graphs import Graph, build_graph, chromatic_number
from paulicrit.pauli import PauliString, cp_expand, format_pauli

DATA = Path(__file__).parent / "data"


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


def _random_texts(rng, width, count):
    texts = set()
    while len(texts) < count:
        t = "".join(rng.choice(list("1xyz"), size=width))
        if t != "1" * width:
            texts.add(t)
    return sorted(texts)


def test_criteria_report_agrees_with_single_partition_route(sigma15):
    # one kernel pass over the orbit representatives against one graph per
    # partition; eq15's rotations carry most witnesses by a permutation
    rng = np.random.default_rng(83)
    sets = [sigma15] + [
        OperatorSet.from_strings(_random_texts(rng, width, 2 * width + 2))
        for width in (2, 3, 4, 5, 6, 6)
    ]
    for sigma in sets:
        report = criteria_report(sigma)
        for part, row in report.per_partition.items():
            assert row.bound == bound_for_partition(sigma, part)[0]
            assert set(row.witness) <= set(sigma.texts())
            members = [parse_pauli(t) for t in row.witness]
            assert len(members) == row.bound
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert cut_commute(a, b, part)


def test_criteria_report_refuses_a_witness_outside_sigma(sigma3, monkeypatch):
    # generators that do not map the set onto itself (ex8's, which generate
    # every relabeling) carry witnesses out of sigma; relabeling keeps the
    # cut relation, so only the lookup sees it
    every = cuts_module.symmetry_group(sigma3)
    assert len(every) == 6
    monkeypatch.setattr(bounds_module, "symmetry_group", lambda sigma: every)
    sigma = OperatorSet.from_strings(["zz1", "xx1", "z1x"])
    with pytest.raises(RuntimeError, match="not a member of sigma"):
        criteria_report(sigma)


def test_witness_check_refuses_a_cut_anticommuting_pair(sigma3, monkeypatch):
    # xxx and yxx anticommute on qubit 0 alone, so they cut-anticommute
    # across every partition, whatever relabeling carries them there
    assert sigma3.texts()[:2] == ("xxx", "yxx")
    monkeypatch.setattr(bounds_module, "max_clique", lambda g: (0, 1))
    with pytest.raises(RuntimeError, match="failed the cut relation check"):
        criteria_report(sigma3)
    with pytest.raises(RuntimeError, match="failed the cut relation check"):
        bound_for_partition(sigma3, parse_partition("AB|C", 3))


def test_witness_check_refuses_a_non_clique_no_cut_witness(sigma3, monkeypatch):
    # xxx and yxx anticommute, so (0, 1) is no clique of the plain graph;
    # every cut graph differs from it, so only the no-cut witness is bad
    plain = build_graph(sigma3, Partition.single_block(3), "commute")
    assert not plain.adjacency[0] >> 1 & 1
    real = bounds_module.max_clique
    calls = []

    def fake(g):
        calls.append(g == plain)
        return (0, 1) if g == plain else real(g)

    monkeypatch.setattr(bounds_module, "max_clique", fake)
    with pytest.raises(RuntimeError, match="failed the cut relation check"):
        criteria_report(sigma3)
    assert calls.count(True) == 1 and calls[-1]


def test_report_refuses_a_row_its_carrier_does_not_reach(sigma3, monkeypatch):
    # ex8's bipartitions filed under the finest partition, carried by the
    # identity: the finest witness, one member, passes every cut check, so
    # only the carrier proof stops bound 1 on A|BC, whose value is 2
    finest = Partition.finest(3)
    monkeypatch.setattr(
        bounds_module,
        "partition_orbits",
        lambda parts, gens: {part: (finest, (0, 1, 2)) for part in parts},
    )
    with pytest.raises(RuntimeError, match=r"does not send A\|B\|C onto A\|BC"):
        criteria_report(sigma3)
    assert bound_for_partition(sigma3, parse_partition("A|BC", 3))[0] == 2


def test_report_refuses_a_moved_row_its_carrier_does_not_reach(sigma3, monkeypatch):
    # AC|B handed AB|C's carrier: a symmetry of ex8, so the moved witness
    # stays in sigma, but it sends the representative A|BC onto AB|C
    real = cuts_module.partition_orbits
    ab_c, ac_b = parse_partition("AB|C", 3), parse_partition("AC|B", 3)

    def swapped(parts, gens):
        orbits = real(parts, gens)
        assert orbits[ab_c][1] != (0, 1, 2)
        orbits[ac_b] = orbits[ab_c]
        return orbits

    monkeypatch.setattr(bounds_module, "partition_orbits", swapped)
    with pytest.raises(RuntimeError, match=r"does not send A\|BC onto AC\|B"):
        criteria_report(sigma3)


def test_report_refuses_a_carrier_that_is_no_symmetry(monkeypatch):
    # swapping sites 0 and 3 sends ABC|D onto A|BCD and ABC|D's witness into
    # sigma, but moves 1x1y out of it; filed under that carrier, A|BCD would
    # get bound 2, while its own clique number is 3
    sigma = OperatorSet.from_strings("1x1y x1xz xz1x xzyx yy1z".split())
    abc_d, a_bcd = parse_partition("ABC|D", 4), parse_partition("A|BCD", 4)
    assert bound_for_partition(sigma, abc_d)[0] == 2
    assert bound_for_partition(sigma, a_bcd)[0] == 3
    real = cuts_module.partition_orbits

    def misfiled(parts, gens):
        orbits = real(parts, gens)
        orbits[a_bcd] = (abc_d, (3, 1, 2, 0))
        return orbits

    monkeypatch.setattr(bounds_module, "partition_orbits", misfiled)
    moved_out = r"\(3, 1, 2, 0\) moves 1x1y .* not a member of sigma"
    with pytest.raises(RuntimeError, match=moved_out):
        criteria_report(sigma)


@pytest.mark.parametrize("name, checks", [("symmetric_6_seed0", 5), ("pad4", 9)])
def test_each_orbit_witness_is_certified_once(name, checks, monkeypatch):
    # one cut-clique check per orbit representative and one for the no-cut
    # witness; every other row is proved by its carrier
    real = bounds_module.is_cut_clique
    parts = []

    def counted(members, part):
        parts.append(part)
        return real(members, part)

    monkeypatch.setattr(bounds_module, "is_cut_clique", counted)
    report = criteria_report(OperatorSet.from_file(DATA / f"{name}.txt"))
    assert len(parts) == checks
    assert set(parts[:-1]) == {row.orbit for row in report.per_partition.values()}
    assert parts[-1] == Partition.single_block(report.width)


def _set_partition(rng, width):
    labels = [rng.randrange(rng.randrange(1, width + 1)) for _ in range(width)]
    blocks = {}
    for site, label in enumerate(labels):
        blocks.setdefault(label, []).append(site)
    return Partition(width, tuple(map(tuple, blocks.values())))


def _cut_clique(rng, part, size):
    """``size`` members, repeats allowed, drawn from a product over the
    blocks of random isotropic spans, so they pairwise cut-commute."""
    spans = []
    for mask in part.masks:
        sites = [site for site in range(part.width) if mask >> site & 1]
        gens = []
        for _ in range(2 * len(sites)):
            x = sum(1 << s for s in sites if rng.random() < 0.5)
            z = sum(1 << s for s in sites if rng.random() < 0.5)
            if all(((x & gz) ^ (z & gx)).bit_count() % 2 == 0 for gx, gz in gens):
                gens.append((x, z))
        spans.append(gens)
    members = []
    for _ in range(size):
        x = z = 0
        for gens in spans:
            for gx, gz in gens:
                if rng.random() < 0.5:
                    x ^= gx
                    z ^= gz
        members.append(PauliString(part.width, x, z))
    return members


def test_cut_clique_certificate_matches_the_cut_relation():
    # the witness check fails exactly when some pair cut-anticommutes
    rng = random.Random(22)
    clashes = set()
    for width in range(1, 9):
        parts = {Partition.finest(width), Partition.single_block(width)}
        if width >= 2:
            parts.update(enumerate_bipartitions(width))
        parts.update(_set_partition(rng, width) for _ in range(8))
        for part in sorted(parts):
            # a witness of a few members and a larger one
            few = 2 + 2 * width // len(part.masks)
            for size in (rng.randrange(2, few), few + rng.randrange(width + 4)):
                members = _cut_clique(rng, part, size)
                k = rng.randrange(size)
                m = members[k]
                flipped = PauliString(width, m.x_bits ^ 1 << rng.randrange(width), m.z_bits)
                stranger = PauliString(
                    width, rng.randrange(1 << width), rng.randrange(1 << width)
                )
                for case in (
                    members,
                    members[:k] + [flipped] + members[k + 1 :],
                    members[:-1] + [stranger],
                ):
                    clash = any(
                        cut_anticommute(a, b, part)
                        for i, a in enumerate(case)
                        for b in case[i + 1 :]
                    )
                    clashes.add(clash)
                    assert is_cut_clique(case, part) == (not clash)
    assert clashes == {False, True}


def test_wide_ring_products_are_pruned_by_orbit(monkeypatch):
    # the 39 products of 1-3 consecutive ring generators at width 13: the
    # symmetry search runs past width 12, so 4096 rows fall into 190 orbits,
    # whose witnesses the group's 26 elements move with one site map each
    real = bounds_module.site_map
    carriers = []

    def counted(perm, width):
        carriers.append(tuple(perm))
        return real(perm, width)

    monkeypatch.setattr(bounds_module, "site_map", counted)
    patterns = ["xz1111111111z", "yyz111111111z", "yxyz11111111z"]
    sigma = OperatorSet(m for text in patterns for m in cp_expand(parse_pauli(text)))
    assert len(sigma) == 39
    report = criteria_report(sigma)
    assert "symmetry group order 26; 4096 partitions in 190 orbits" in report.notes
    assert 0 < len(carriers) <= 26
    assert len(set(carriers)) == len(carriers)
    assert report.class_bounds == {"full_separability": 6, "any_bipartition": 33}
    rows = list(report.per_partition.items())
    for part, row in rows[::97] + rows[-3:]:
        assert row.bound == bound_for_partition(sigma, part)[0]


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


@pytest.mark.parametrize("width", range(1, 9))
def test_report_json_is_json_dumps_of_its_object(width):
    # seeded random sets; width 1 has one row and no any_bipartition
    count = min(3 * width + 2, 4**width - 1)
    sigma = OperatorSet.from_strings(
        _random_texts(np.random.default_rng(width), width, count)
    )
    for quantum_upper in (False, True):
        report = criteria_report(sigma, quantum_upper=quantum_upper)
        assert report.to_json() == json.dumps(report.to_json_obj(), indent=2)


def test_report_json_reuses_orbit_texts_and_carries_a_refused_search(monkeypatch):
    # the symmetric width-6 set: 32 rows in 4 orbits, so orbit texts repeat
    texts = (DATA / "symmetric_6_seed0.txt").read_text().split()
    sigma = OperatorSet.from_strings(texts)
    report = criteria_report(sigma)
    assert len({row.orbit for row in report.per_partition.values()}) == 4
    assert report.to_json() == json.dumps(report.to_json_obj(), indent=2)
    # a refused symmetry search puts the identity-group note in the tail
    monkeypatch.setattr(cuts_module, "SYMMETRY_WORK_BUDGET", 0)
    refused = criteria_report(sigma)
    assert any("identity group used" in note for note in refused.notes)
    assert refused.to_json() == json.dumps(refused.to_json_obj(), indent=2)


def test_report_json_escapes_like_json_dumps():
    # texts the escaper must quote, an empty witness, and no rows at all
    odd = ('q"1', "back\\slash", "tab\tnew\nline", "caf\u00e9 \u2264 \U0001d400")
    finest, single = Partition.finest(2), Partition.single_block(2)
    rows = {
        finest: PartitionBound(4, odd, finest),
        single: PartitionBound(0, (), finest),
    }
    for per_partition in (rows, {}):
        report = BoundReport(
            sigma=odd,
            width=2,
            per_partition=per_partition,
            class_bounds={"full_separability": 4},
            quantum_lower=1,
            quantum_witness=odd[3:],
            quantum_upper=None,
            notes=('say "hi"',),
        )
        assert report.to_json() == json.dumps(report.to_json_obj(), indent=2)


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


def test_classify_needs_more_than_rounding_above_a_threshold(sigma15):
    # a product state built from a row's witness can read a few 1e-15 above
    # the row's bound; that is no evidence against the cut
    report = criteria_report(sigma15)
    bound = report.per_partition[parse_partition("AB|CDE", 5)].bound
    assert bound == report.class_bounds["any_bipartition"] == 3
    claims = {c.claim for c in classify(bound + 1e-12, report).claims}
    assert claims == {"entangled (not fully separable)"}
    claims = {c.claim for c in classify(bound + 2 * SOUNDNESS_TOL, report).claims}
    assert "not separable w.r.t. AB|CDE" in claims
    assert "genuinely multipartite entangled" in claims


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_classify_rejects_a_non_finite_value(value, sigma3):
    with pytest.raises(ValueError, match="must be finite"):
        classify(value, criteria_report(sigma3))


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


def test_trivial_group_builds_no_partition_images(monkeypatch):
    # pad4 has no symmetry but the identity, so no orbit search acts on
    # block masks or builds a partition from masks
    def forbidden(*args):
        raise AssertionError("orbit search ran for a trivial group")

    for name in ("_block_action", "_from_masks"):
        monkeypatch.setattr(cuts_module, name, forbidden)
    pad4 = OperatorSet.from_strings(
        ["xy11", "1x11", "xzy1", "1yx1", "yyz1", "xzz1", "xx11", "zxx1"]
    )
    report = criteria_report(pad4)
    assert "symmetry group order 1; 8 partitions in 8 orbits" in report.notes


def test_searches_leave_no_reference_cycles(sigma15, monkeypatch):
    """Recursive searches must be freed by reference counting alone."""
    # vertex i is adjacent to i - 1 and i + 1 (mod 5)
    five_cycle = Graph(tuple("abcde"), (0b10010, 0b00101, 0b01010, 0b10100, 0b01001))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        criteria_report(sigma15)
        assert chromatic_number(five_cycle)[0] == 3  # probes k = 2 and fails
        # the symmetry search stopped by its work budget: the exception path
        monkeypatch.setattr(cuts_module, "SYMMETRY_WORK_BUDGET", 10)
        criteria_report(sigma15)
        # 16 rows over 15 members take the one clique walk; one child test
        # per row stops it inside its recursion, and the rows fall back
        monkeypatch.setattr(graphs_module, "CLIQUE_WALK_BUDGET", 1)
        parts = [Partition.finest(5), *enumerate_bipartitions(5)]
        assert graphs_module.cut_cliques(sigma15, parts) is None
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
