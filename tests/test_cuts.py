"""Partitions, cut commutation, and the qubit-relabeling symmetry group."""

import itertools
import math
import random
import types
from pathlib import Path

import numpy as np
import pytest

from paulicrit import (
    CapExceeded,
    OperatorSet,
    ParseError,
    Partition,
    anticommutes,
    criteria_report,
    cut_anticommute,
    enumerate_bipartitions,
    orbit_representatives,
    parse_pauli,
    parse_partition,
    restrict,
    symmetry_group,
)
import paulicrit.cuts as cuts_module
from paulicrit.cuts import cut_commute, is_cut_clique, partition_orbits
from paulicrit.pauli import permute

DATA = Path(__file__).parent / "data"


def permute_partition(part, perm):
    """Reference relabeling: site i of every block moves to perm[i]."""
    if len(perm) != part.width:
        raise ValueError(
            f"permutation length {len(perm)} does not match width {part.width}"
        )
    return Partition(
        part.width, tuple(tuple(perm[i] for i in block) for block in part.blocks)
    )


def test_partition_canonical_form():
    p = Partition(3, ((2, 1), (0,)))
    assert p.blocks == ((0,), (1, 2))
    assert str(p) == "A|BC"
    assert p == parse_partition("CB|A", 3)


def test_partition_validation():
    with pytest.raises(ValueError, match=r"misses qubit indices \[2\]"):
        Partition(3, ((0, 1),))
    with pytest.raises(ValueError, match="qubit index 1 appears in two blocks"):
        Partition(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="partition contains an empty block"):
        Partition(3, ((0,), (), (1, 2)))
    with pytest.raises(ValueError, match="qubit index 2 out of range for width 2"):
        Partition(2, ((0, 1, 2),))
    with pytest.raises(ValueError, match="width must be at least 1, got 0"):
        Partition(0, ())
    # the first fault in canonical order, site by site, whatever the masks
    for width, blocks, message in [
        (3, ((0, 0, 5),), "qubit index 0 appears in two blocks"),
        (4, ((1, 5), (0, 1)), "qubit index 1 appears in two blocks"),
        (4, ((0, 1), (5, 2, 2)), "qubit index 2 appears in two blocks"),
        (3, ((2, -1), (0, 1)), "qubit index -1 out of range for width 3"),
        (3, ((2,), (0, 7, 1)), "qubit index 7 out of range for width 3"),
        (4, ((3,), ()), "partition contains an empty block"),
        (5, ((4, 0), (2,)), r"misses qubit indices \[1, 3\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            Partition(width, blocks)


def test_partition_masks():
    part = Partition(5, ((4, 1), (3, 0, 2)))
    assert part.masks == (0b01101, 0b10010)
    # the masks follow the blocks and take no part in comparison
    assert part == parse_partition("ACD|BE", 5)
    assert "masks" not in repr(part)
    assert Partition.finest(3).masks == (1, 2, 4)


def test_partition_constructors():
    assert Partition.finest(3).blocks == ((0,), (1,), (2,))
    assert Partition.single_block(3).blocks == ((0, 1, 2),)
    assert Partition.finest(4).block_count == 4


def test_parse_partition_letters():
    p = parse_partition("AC|BDE", 5)
    assert p.blocks == ((0, 2), (1, 3, 4))
    assert str(p) == "AC|BDE"
    assert parse_partition("a|b|c", 3) == Partition.finest(3)


def test_parse_partition_indices():
    assert parse_partition("0,2|1,3,4", 5) == parse_partition("AC|BDE", 5)
    assert parse_partition("0|1|2", 3) == Partition.finest(3)


def test_partition_text_parses_back_at_every_width():
    # letters up to width 26, comma-separated indices above it
    rng = random.Random(27)
    for width in range(1, 41):
        for _ in range(5):
            labels = [rng.randrange(rng.randint(1, width)) for _ in range(width)]
            blocks = {}
            for site, label in enumerate(labels):
                blocks.setdefault(label, []).append(site)
            p = Partition(width, tuple(map(tuple, blocks.values())))
            text = str(p)
            assert text[0] == ("0" if width > 26 else "A")
            assert parse_partition(text, width) == p


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
    # "²".isdigit() holds but int("²") fails: decimal digits only
    with pytest.raises(ParseError, match=r"bad index '²' in partition '0\|²'"):
        parse_partition("0|²", 2)


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


def test_enumerate_bipartitions_cap(monkeypatch):
    # refused on the count, before any partition is built
    def forbidden(*args):
        raise AssertionError("a partition was built past the cap")

    monkeypatch.setattr(cuts_module, "Partition", forbidden)
    for width, count in ((17, 65_535), (26, 33_554_431)):
        with pytest.raises(
            CapExceeded,
            match=f"{count} bipartitions of width {width} exceed cap 32767",
        ):
            enumerate_bipartitions(width)


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


def test_cut_clique_refuses_a_partition_of_another_width():
    xx, yy, zzz = parse_pauli("xx"), parse_pauli("yy"), parse_pauli("zzz")
    assert is_cut_clique([], Partition.finest(2))
    assert is_cut_clique([xx, yy], Partition.single_block(2))
    assert not is_cut_clique([xx, yy], Partition.finest(2))
    with pytest.raises(ValueError, match="partition width 3 does not match operator width 2"):
        is_cut_clique([xx, yy], Partition.finest(3))
    # every member's width is checked before any pair
    with pytest.raises(ValueError, match="partition width 2 does not match operator width 3"):
        is_cut_clique([xx, yy, zzz], Partition.finest(2))


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
    assert list(group) == [(0, 1), (1, 0)]


def test_symmetry_group_identity_only():
    group = symmetry_group(OperatorSet.from_strings(["xz"]))
    assert list(group) == [(0, 1)]
    assert group.generators == ()


def test_symmetry_group_full_permutation(sigma3):
    group = symmetry_group(sigma3)
    assert len(group) == 6
    assert sorted(group) == sorted(itertools.permutations(range(3)))


def test_symmetry_group_cyclic(sigma15):
    group = symmetry_group(sigma15)
    shifts = sorted(
        tuple((i + k) % 5 for i in range(5)) for k in range(5)
    )
    assert list(group) == shifts


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
    # refused exactly where the report's bipartitions are: width 16 is
    # searched, width 17 is refused on its width alone, before any member
    # is read into a prefix key
    assert len(symmetry_group(OperatorSet.from_strings(["x" * 16]))) == math.factorial(16)
    with pytest.raises(CapExceeded, match="width 17: 65535 bipartitions"):
        symmetry_group(OperatorSet.from_strings(["x" * 17]))
    with pytest.raises(CapExceeded, match="exceed cap 32767"):
        symmetry_group(types.SimpleNamespace(width=17))


def _fully_symmetric(width):
    texts = []
    for letter in "xyz":
        for i, j in itertools.combinations(range(width), 2):
            sites = ["1"] * width
            sites[i] = sites[j] = letter
            texts.append("".join(sites))
    return OperatorSet.from_strings(texts)


def test_symmetry_group_node_cap():
    # both are under the width cap and their searches under the budget, but
    # listing is charged order * members before any element is built:
    # 9! * 108 (about 39M) column tests at width 9 and 12! * 198 (about
    # 9.5e10) at width 12, where width 8 charges 3.4M
    for width in (9, 12):
        group = symmetry_group(_fully_symmetric(width))
        with pytest.raises(CapExceeded, match="exceeds work budget"):
            list(group)


def test_symmetry_group_order_without_listing():
    # listing 9! elements would trip the work budget (see the test above);
    # the order and the report's orbits come from the chain alone
    sigma = _fully_symmetric(9)
    assert len(symmetry_group(sigma)) == 362_880
    notes = criteria_report(sigma).notes
    assert "symmetry group order 362880; 256 partitions in 5 orbits" in notes


def test_symmetry_group_fully_symmetric_width_seven():
    group = symmetry_group(_fully_symmetric(7))
    assert len(group) == 5040
    assert list(group) == sorted(itertools.permutations(range(7)))


def test_symmetry_group_lists_one_search_per_coset(monkeypatch):
    # listing charges 5040 * 63 = 317 520 column tests and the coset search
    # a few thousand more; a search visiting every element's leaf would
    # charge 63 * sum_k 7!/(7-k)! = 863 100
    monkeypatch.setattr(cuts_module, "SYMMETRY_WORK_BUDGET", 500_000)
    assert len(list(symmetry_group(_fully_symmetric(7)))) == 5040


def _random_texts(width, rng):
    # few letters and few members, so that some sets have symmetries
    letters = rng.choice(["1x", "1z", "1xz", "1xyz"])
    draws = (
        "".join(rng.choice(letters) for _ in range(width))
        for _ in range(rng.randint(1, 2 * width))
    )
    return {text for text in draws if text.strip("1")} or {"x" * width}


def _rotations_texts(width, rng, reflect):
    texts = set()
    for _ in range(rng.randint(1, 2)):
        pattern = rng.choice("xyz")
        pattern += "".join(rng.choice("1xyz") for _ in range(width - 1))
        for text in (pattern, pattern[::-1]) if reflect else (pattern,):
            texts.update(text[k:] + text[:k] for k in range(width))
    return texts


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
def test_symmetry_group_matches_a_scan_of_every_permutation(width):
    rng = random.Random(width)
    families = [_random_texts(width, rng) for _ in range(8)]
    families += [
        _rotations_texts(width, rng, reflect)
        for reflect in (False, True)
        for _ in range(4)
    ]
    parts = [Partition.finest(width)] + enumerate_bipartitions(width)
    nontrivial = 0
    for texts in families:
        sigma = OperatorSet.from_strings(sorted(texts))
        members = set(sigma.members)
        scan = [
            g
            for g in itertools.permutations(range(width))
            if {permute(m, g) for m in members} == members
        ]
        group = symmetry_group(sigma)
        assert list(group) == scan, sorted(texts)
        assert orbit_representatives(parts, group.generators) == sorted(
            {min(permute_partition(part, g) for g in scan) for part in parts}
        ), sorted(texts)
        nontrivial += len(scan) > 1
    assert nontrivial >= 8  # the cyclic and dihedral sets at least


def test_permute_partition():
    part = parse_partition("A|BC", 3)
    assert permute_partition(part, (2, 0, 1)) == parse_partition("AB|C", 3)
    with pytest.raises(ValueError):
        permute_partition(part, (0, 1))


# group order and orbit count over the finest partition and the bipartitions
SCANNED_SETS = {
    "ex8": (6, 2),
    "eq15": (5, 4),
    "symmetric5": (120, 3),
    "code5": (10, 4),
    "ring6": (12, 8),
    "symmetric6": (720, 4),
}


@pytest.mark.parametrize("name", SCANNED_SETS)
def test_partition_orbits_match_the_group_scan(name, sigma3, sigma15):
    order, orbit_count = SCANNED_SETS[name]
    if name in ("code5", "ring6"):
        sigma = OperatorSet.from_file(DATA / f"{name}.txt")
    else:
        sigma = {
            "ex8": sigma3,
            "eq15": sigma15,
            "symmetric5": _fully_symmetric(5),
            "symmetric6": _fully_symmetric(6),
        }[name]
    group = symmetry_group(sigma)
    scan = list(group)
    assert len(scan) == order
    parts = [Partition.finest(sigma.width)] + enumerate_bipartitions(sigma.width)
    # in reverse order the first partition met is its orbit's maximum
    for given in (parts, parts[::-1]):
        orbits = partition_orbits(given, group.generators)
        assert len({rep for rep, _ in orbits.values()}) == orbit_count
        for part in parts:
            rep, g = orbits[part]
            assert rep == min(permute_partition(part, h) for h in scan)
            assert g in scan
            assert permute_partition(rep, g) == part
            # the tree's root is the representative, carried by the identity
            assert orbits[rep] == (rep, tuple(range(sigma.width)))


def test_partition_orbits_build_only_members_outside_parts(sigma15, monkeypatch):
    parts = [Partition.finest(5)] + enumerate_bipartitions(5)
    gens = symmetry_group(sigma15).generators
    want = partition_orbits(parts, gens)
    single = parse_partition("AC|BDE", 5)
    outside = partition_orbits([single], gens)

    def forbidden(*args):
        raise AssertionError("a partition was built")

    monkeypatch.setattr(cuts_module, "Partition", forbidden)
    # every orbit member is among the parts: each is looked up by its masks
    assert partition_orbits(parts, gens) == want
    # the other members of AC|BDE's orbit are not given, so they are built
    assert len(outside) == 5
    with pytest.raises(AssertionError, match="was built"):
        partition_orbits([single], gens)


def test_partition_orbits_trivial_group_builds_no_tree(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a Schreier tree was built")

    monkeypatch.setattr(cuts_module, "_schreier_tree", forbidden)
    parts = enumerate_bipartitions(4)
    identity = (0, 1, 2, 3)
    orbits = partition_orbits(parts, [identity, list(identity)])
    assert orbits == {part: (part, identity) for part in parts}
    # the permutation and width checks come before identities are dropped
    with pytest.raises(ValueError, match="not a permutation"):
        partition_orbits(parts, [identity, (0, 0, 1, 2)])
    with pytest.raises(ValueError, match="does not match"):
        partition_orbits(parts, [(0, 1, 2)])


def test_orbit_representatives_cyclic(sigma15):
    group = symmetry_group(sigma15)
    reps = orbit_representatives(enumerate_bipartitions(5), group.generators)
    assert [str(p) for p in reps] == ["A|BCDE", "AB|CDE", "ABD|CE"]
    # the listed group generates itself
    assert orbit_representatives(enumerate_bipartitions(5), group) == reps
    part = parse_partition("AC|BDE", 5)
    assert partition_orbits([part], group.generators)[part][0] == parse_partition(
        "ABD|CE", 5
    )


def test_orbit_representatives_trivial_group():
    parts = enumerate_bipartitions(3)
    # no generators, or only the identity, generate the trivial group
    for gens in ([], [(0, 1, 2)]):
        assert orbit_representatives(parts, gens) == sorted(parts)


def test_orbit_representatives_full_group(sigma3):
    group = symmetry_group(sigma3)
    reps = orbit_representatives(enumerate_bipartitions(3), group.generators)
    assert [str(p) for p in reps] == ["A|BC"]


def test_orbit_representatives_errors():
    with pytest.raises(ValueError, match="not a permutation"):
        orbit_representatives(enumerate_bipartitions(3), [(0, 0, 1)])
    # the identity of another width is refused before identities are dropped
    with pytest.raises(ValueError, match="does not match"):
        orbit_representatives(enumerate_bipartitions(3), [(0, 1)])


def test_partition_ordering_is_stable():
    parts = enumerate_bipartitions(4)
    assert parts == sorted(parts)
    assert str(min(parts)) == "A|BCD"
