"""Partitions, cut commutation, and the qubit-relabeling symmetry group."""

import itertools
from functools import partial

import numpy as np
import pytest

from paulicrit import (
    CapExceeded,
    OperatorSet,
    ParseError,
    Partition,
    anticommutes,
    cut_anticommute,
    enumerate_bipartitions,
    orbit_representatives,
    parse_pauli,
    parse_partition,
    restrict,
    symmetry_group,
)
from paulicrit.cuts import _generators, cut_commute, partition_orbits, permute_partition
from paulicrit.pauli import permute


def test_partition_canonical_form():
    p = Partition(3, ((2, 1), (0,)))
    assert p.blocks == ((0,), (1, 2))
    assert str(p) == "A|BC"
    assert p == parse_partition("CB|A", 3)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, ((0, 1),))
    with pytest.raises(ValueError):
        Partition(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Partition(3, ((0,), (), (1, 2)))
    with pytest.raises(ValueError):
        Partition(2, ((0, 1, 2),))
    with pytest.raises(ValueError):
        Partition(0, ())


def test_partition_constructors():
    assert Partition.finest(3).blocks == ((0,), (1,), (2,))
    assert Partition.single_block(3).blocks == ((0, 1, 2),)
    assert Partition.single_block(3).is_trivial
    assert not Partition.finest(3).is_trivial
    assert Partition.finest(4).block_count == 4


def test_parse_partition_letters():
    p = parse_partition("AC|BDE", 5)
    assert p.blocks == ((0, 2), (1, 3, 4))
    assert str(p) == "AC|BDE"
    assert parse_partition("a|b|c", 3) == Partition.finest(3)


def test_parse_partition_indices():
    assert parse_partition("0,2|1,3,4", 5) == parse_partition("AC|BDE", 5)
    assert parse_partition("0|1|2", 3) == Partition.finest(3)


def test_parse_partition_errors():
    with pytest.raises(ParseError):
        parse_partition("", 3)
    with pytest.raises(ParseError):
        parse_partition("AB|B", 2)
    with pytest.raises(ParseError):
        parse_partition("A|B", 3)
    with pytest.raises(ParseError):
        parse_partition("A|B|C", 2)
    with pytest.raises(ParseError):
        parse_partition("0,2|", 3)
    with pytest.raises(ParseError):
        parse_partition("0x|1", 2)


def test_enumerate_bipartitions_small():
    assert [str(p) for p in enumerate_bipartitions(2)] == ["A|B"]
    assert [str(p) for p in enumerate_bipartitions(3)] == ["A|BC", "AB|C", "AC|B"]


def test_enumerate_bipartitions_count():
    for width in (2, 3, 4, 5):
        parts = enumerate_bipartitions(width)
        assert len(parts) == 2 ** (width - 1) - 1
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert p.block_count == 2
            assert 0 in p.blocks[0]
    with pytest.raises(ValueError):
        enumerate_bipartitions(1)


def test_cut_relations_examples():
    a_b = parse_partition("A|B", 2)
    xx, yy = parse_pauli("xx"), parse_pauli("yy")
    # xx and yy commute outright but anticommute on each side of the cut
    assert cut_commute(xx, yy, Partition.single_block(2))
    assert cut_anticommute(xx, yy, a_b)
    assert not cut_commute(xx, yy, a_b)


def test_cut_relations_match_restrictions():
    # widths past 64 put the block masks and overlaps on several words
    rng = np.random.default_rng(11)
    for _ in range(300):
        width = int(rng.integers(2, 71))
        p = parse_pauli("".join(rng.choice(list("1xyz"), size=width)))
        q = parse_pauli("".join(rng.choice(list("1xyz"), size=width)))
        labels = rng.integers(0, int(rng.integers(1, 5)), size=width)
        labels[rng.integers(width)] = 0
        blocks = [
            tuple(int(i) for i in np.flatnonzero(labels == k))
            for k in range(4)
            if np.any(labels == k)
        ]
        part = Partition(width, tuple(blocks))
        expect = any(
            anticommutes(restrict(p, b), restrict(q, b)) for b in part.blocks
        )
        assert cut_anticommute(p, q, part) == expect
        assert cut_commute(p, q, part) == (not expect)


def test_cut_relations_self_and_mismatch():
    p = parse_pauli("xyz")
    assert cut_commute(p, p, Partition.finest(3))
    with pytest.raises(ValueError):
        cut_commute(p, parse_pauli("xyz1"), Partition.finest(3))
    with pytest.raises(ValueError):
        cut_commute(p, p, Partition.finest(4))


def test_refining_a_cut_preserves_anticommutation():
    # splitting a block can only reveal more anticommuting pairs
    rng = np.random.default_rng(5)
    for _ in range(200):
        width = int(rng.integers(3, 7))
        p = parse_pauli("".join(rng.choice(list("1xyz"), size=width)))
        q = parse_pauli("".join(rng.choice(list("1xyz"), size=width)))
        coarse = Partition(width, (tuple(range(width)),))
        sites = list(range(width))
        rng.shuffle(sites)
        split = int(rng.integers(1, width))
        fine = Partition(width, (tuple(sites[:split]), tuple(sites[split:])))
        if cut_anticommute(p, q, coarse):
            assert cut_anticommute(p, q, fine)
        if cut_commute(p, q, fine):
            assert cut_commute(p, q, coarse)


def test_symmetry_group_swap_pair():
    group = symmetry_group(OperatorSet.from_strings(["xx", "yy"]))
    assert group == [(0, 1), (1, 0)]


def test_symmetry_group_identity_only():
    group = symmetry_group(OperatorSet.from_strings(["xz"]))
    assert group == [(0, 1)]


def test_symmetry_group_full_permutation(sigma3):
    group = symmetry_group(sigma3)
    assert len(group) == 6
    assert sorted(group) == sorted(itertools.permutations(range(3)))


def test_symmetry_group_cyclic(sigma15):
    group = symmetry_group(sigma15)
    shifts = sorted(
        tuple((i + k) % 5 for i in range(5)) for k in range(5)
    )
    assert group == shifts


def test_symmetry_group_elements_fix_the_set(sigma15):
    members = set(sigma15.members)
    for g in symmetry_group(sigma15):
        assert {permute(m, g) for m in members} == members


def test_symmetry_group_closure_property(sigma3):
    group = set(symmetry_group(sigma3))
    for g in group:
        for h in group:
            assert tuple(g[h[i]] for i in range(3)) in group


def test_symmetry_group_cap():
    wide = OperatorSet.from_strings(["x" * 13])
    with pytest.raises(CapExceeded):
        symmetry_group(wide)


def _fully_symmetric(width):
    texts = []
    for letter in "xyz":
        for i, j in itertools.combinations(range(width), 2):
            sites = ["1"] * width
            sites[i] = sites[j] = letter
            texts.append("".join(sites))
    return OperatorSet.from_strings(texts)


def test_symmetry_group_node_cap():
    # both are under the width cap, but width 9 charges ~107M column tests,
    # and width 12 (198 members) trips after the same work
    for width in (9, 12):
        with pytest.raises(CapExceeded, match="exceeds work budget"):
            symmetry_group(_fully_symmetric(width))


def test_symmetry_group_fully_symmetric_width_seven():
    group = symmetry_group(_fully_symmetric(7))
    assert len(group) == 5040
    assert group == sorted(itertools.permutations(range(7)))


@pytest.mark.parametrize(
    "elements",
    [
        # S3 without the transposition (1, 0, 2)
        [g for g in itertools.permutations(range(3)) if g != (1, 0, 2)],
        # two transpositions whose product, a 3-cycle, is missing
        [(0, 1, 2), (1, 0, 2), (0, 2, 1)],
    ],
)
def test_generators_reject_unclosed_sets(elements):
    # partition_orbits is where every program path proves the group
    for prove in (_generators, partial(partition_orbits, enumerate_bipartitions(3))):
        with pytest.raises(RuntimeError, match="not closed under composition"):
            prove(sorted(elements))


def test_generators_generate_the_group():
    group = sorted(itertools.permutations(range(4)))
    gens = _generators(group)
    assert len(gens) <= 4  # log2(24) < 5
    reached = {tuple(range(4))}
    frontier = list(reached)
    while frontier:
        e = frontier.pop()
        for s in gens:
            product = tuple(s[i] for i in e)
            if product not in reached:
                reached.add(product)
                frontier.append(product)
    assert sorted(reached) == group


def test_permute_partition():
    part = parse_partition("A|BC", 3)
    assert permute_partition(part, (2, 0, 1)) == parse_partition("AB|C", 3)
    with pytest.raises(ValueError):
        permute_partition(part, (0, 1))


@pytest.mark.parametrize("name", ["ex8", "eq15", "symmetric5"])
def test_partition_orbits_match_the_group_scan(name, sigma3, sigma15):
    sigma = {"ex8": sigma3, "eq15": sigma15, "symmetric5": _fully_symmetric(5)}[name]
    group = symmetry_group(sigma)
    parts = [Partition.finest(sigma.width)] + enumerate_bipartitions(sigma.width)
    orbits = partition_orbits(parts, group)
    for part in parts:
        rep, g = orbits[part]
        assert rep == min(permute_partition(part, h) for h in group)
        assert g in group
        assert permute_partition(rep, g) == part
        # the tree's root is the representative, carried by the identity
        assert orbits[rep] == (rep, tuple(range(sigma.width)))


def test_orbit_representatives_cyclic(sigma15):
    group = symmetry_group(sigma15)
    reps = orbit_representatives(enumerate_bipartitions(5), group)
    assert [str(p) for p in reps] == ["A|BCDE", "AB|CDE", "ABD|CE"]
    part = parse_partition("AC|BDE", 5)
    assert partition_orbits([part], group)[part][0] == parse_partition("ABD|CE", 5)


def test_orbit_representatives_trivial_group():
    group = [(0, 1, 2)]
    parts = enumerate_bipartitions(3)
    assert orbit_representatives(parts, group) == sorted(parts)


def test_orbit_representatives_full_group(sigma3):
    group = symmetry_group(sigma3)
    reps = orbit_representatives(enumerate_bipartitions(3), group)
    assert [str(p) for p in reps] == ["A|BC"]


def test_orbit_representatives_errors():
    with pytest.raises(ValueError):
        orbit_representatives(enumerate_bipartitions(3), [])
    with pytest.raises(ValueError):
        orbit_representatives(enumerate_bipartitions(3), [(0, 1)])


def test_partition_ordering_is_stable():
    parts = enumerate_bipartitions(4)
    assert parts == sorted(parts)
    assert str(min(parts)) == "A|BCD"
