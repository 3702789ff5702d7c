"""Cut graphs, exact cliques, independence, and coloring.

Exact routines are cross-checked against brute-force enumeration on
random graphs small enough to enumerate.
"""

import itertools

import numpy as np
import pytest

from paulicrit import (
    CapExceeded,
    OperatorSet,
    Partition,
    anticommutes,
    build_graph,
    cut_anticommute,
    enumerate_bipartitions,
    independence_number,
    max_clique,
    parse_partition,
    parse_pauli,
    restrict,
)
from paulicrit.cuts import cut_commute
from paulicrit.graphs import Graph, _has_clique, chromatic_number, complement, export_dot


def brute_clique_number(g):
    n = g.vertex_count
    for r in range(n, 1, -1):
        for comb in itertools.combinations(range(n), r):
            if all(g.has_edge(i, j) for i, j in itertools.combinations(comb, 2)):
                return r
    return 1 if n else 0


def brute_chromatic_number(g):
    n = g.vertex_count
    edges = g.edges()
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for colors in itertools.product(range(k), repeat=n):
            if set(colors) != set(range(k)):
                continue
            if all(colors[i] != colors[j] for i, j in edges):
                return k
    return n


def random_graph(rng, n, p=0.5):
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return Graph.from_edges([str(i) for i in range(n)], edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(("a", "b"), (2, 0))
    with pytest.raises(ValueError):
        Graph(("a",), (1,))
    with pytest.raises(ValueError):
        Graph(("a", "b"), (0,))
    with pytest.raises(ValueError):
        Graph.from_edges(["a", "b"], [(0, 0)])


def test_graph_accessors():
    g = Graph.from_edges(["p", "q", "r"], [(0, 1), (1, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.to_json_obj() == {"labels": ["p", "q", "r"], "edges": [[0, 1], [1, 2]]}


def test_build_graph_whole_set_anticommute(sigma3):
    g = build_graph(sigma3, Partition.single_block(3), "anticommute")
    assert g.labels == sigma3.texts()
    assert g.vertex_count == 8
    assert g.edge_count == 16
    assert all(g.degree(i) == 4 for i in range(8))


def test_build_graph_finest_commute_is_empty(sigma3):
    # no identities and only x/y letters, so sitewise commuting means equal
    g = build_graph(sigma3, Partition.finest(3), "commute")
    assert g.edge_count == 0


def test_build_graph_matches_cut_relation(sigma15):
    part = parse_partition("AB|CDE", 5)
    for relation, check in (
        ("commute", cut_commute),
        ("anticommute", cut_anticommute),
    ):
        g = build_graph(sigma15, part, relation)
        for i, j in itertools.combinations(range(len(sigma15)), 2):
            expect = check(sigma15.members[i], sigma15.members[j], part)
            assert g.has_edge(i, j) == expect


def _random_set(rng, width, count):
    texts = {"".join(rng.choice(list("1xyz"), size=width)) for _ in range(count)}
    return OperatorSet(parse_pauli(t) for t in sorted(texts) if set(t) != {"1"})


def _assert_edges_match_restrictions(sigma, part):
    anti = build_graph(sigma, part, "anticommute")
    comm = build_graph(sigma, part, "commute")
    for i, j in itertools.combinations(range(len(sigma)), 2):
        p, q = sigma.members[i], sigma.members[j]
        expect = any(
            anticommutes(restrict(p, b), restrict(q, b)) for b in part.blocks
        )
        assert anti.has_edge(i, j) == expect
        assert comm.has_edge(i, j) == (not expect)


def test_build_graph_matches_restrictions_every_bipartition():
    sigma = _random_set(np.random.default_rng(17), 10, 14)
    for part in enumerate_bipartitions(10):
        _assert_edges_match_restrictions(sigma, part)


def test_build_graph_matches_restrictions_wide():
    # width 70 spans two uint64 words, with blocks on both sides of bit 64
    rng = np.random.default_rng(19)
    sigma = _random_set(rng, 70, 24)
    for block_count in (3, 3, 4, 4):
        labels = rng.integers(0, block_count, size=70)
        labels[:block_count] = range(block_count)
        blocks = tuple(
            tuple(int(i) for i in np.flatnonzero(labels == k))
            for k in range(block_count)
        )
        _assert_edges_match_restrictions(sigma, Partition(70, blocks))


def test_build_graph_rejects_bad_relation(sigma3):
    with pytest.raises(ValueError):
        build_graph(sigma3, Partition.finest(3), "adjacent")
    with pytest.raises(ValueError):
        build_graph(sigma3, Partition.finest(4), "commute")


def test_commute_and_anticommute_graphs_are_complements(sigma15):
    for part in (Partition.finest(5), parse_partition("AC|BDE", 5)):
        g_comm = build_graph(sigma15, part, "commute")
        g_anti = build_graph(sigma15, part, "anticommute")
        assert complement(g_comm).adjacency == g_anti.adjacency


def test_complement_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 9)))
        assert complement(complement(g)).adjacency == g.adjacency
    k4 = Graph.from_edges("abcd", list(itertools.combinations(range(4), 2)))
    assert complement(k4).edge_count == 0


def test_max_clique_small_cases():
    empty5 = Graph(tuple("abcde"), (0,) * 5)
    assert (max_clique(empty5).size, max_clique(empty5).witness) == (1, (0,))
    assert max_clique(Graph((), ())).size == 0
    assert max_clique(Graph((), ())).witness == ()
    path = Graph.from_edges("abc", [(0, 1), (1, 2)])
    assert (max_clique(path).size, max_clique(path).witness) == (2, (0, 1))
    triangle_late = Graph.from_edges("abcde", [(0, 1), (2, 3), (2, 4), (3, 4)])
    assert max_clique(triangle_late).witness == (2, 3, 4)


def test_max_clique_witness_is_lex_smallest():
    # two disjoint edges: (0, 1) beats (2, 3)
    g = Graph.from_edges("abcd", [(0, 1), (2, 3)])
    assert max_clique(g).witness == (0, 1)


def test_max_clique_matches_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(1, 13))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.8)))
        result = max_clique(g)
        assert result.size == brute_clique_number(g)
        assert len(result.witness) == result.size
        for i, j in itertools.combinations(result.witness, 2):
            assert g.has_edge(i, j)


def test_has_clique_matches_brute_force():
    rng = np.random.default_rng(29)
    for trial in range(40):
        n = int(rng.integers(1, 11))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.8)))
        cand = int(rng.integers(0, 1 << n))
        sub = [v for v in range(n) if cand >> v & 1]
        omega = max(
            r
            for r in range(len(sub) + 1)
            for comb in itertools.combinations(sub, r)
            if all(g.has_edge(i, j) for i, j in itertools.combinations(comb, 2))
        )
        for k in range(omega + 2):
            assert _has_clique(g.adjacency, cand, k) == (k <= omega)


def test_max_clique_deterministic():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 10)
    assert max_clique(g) == max_clique(g)


def test_max_clique_cap():
    wide = Graph(tuple(str(i) for i in range(129)), (0,) * 129)
    with pytest.raises(CapExceeded):
        max_clique(wide)


def test_independence_number_matches_complement():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 11)))
        result = independence_number(g)
        assert result.size == brute_clique_number(complement(g))
        for i, j in itertools.combinations(result.witness, 2):
            assert not g.has_edge(i, j)


def test_independence_whole_set_anticommute(sigma3):
    g = build_graph(sigma3, Partition.single_block(3), "anticommute")
    assert independence_number(g).size == 4


def test_chromatic_number_known_graphs():
    k5 = Graph.from_edges("abcde", list(itertools.combinations(range(5), 2)))
    assert chromatic_number(k5)[0] == 5
    c5 = Graph.from_edges("abcde", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert chromatic_number(c5)[0] == 3
    empty = Graph(tuple("abc"), (0,) * 3)
    assert chromatic_number(empty)[0] == 1
    k33 = Graph.from_edges(
        "abcdef", [(i, j) for i in range(3) for j in range(3, 6)]
    )
    assert chromatic_number(k33)[0] == 2
    assert chromatic_number(Graph((), ())) == (0, ())


def test_chromatic_number_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.8)))
        count, coloring = chromatic_number(g)
        assert count == brute_chromatic_number(g)
        assert len(coloring) == n
        assert len(set(coloring)) == count
        for i, j in g.edges():
            assert coloring[i] != coloring[j]


def test_chromatic_at_least_clique():
    rng = np.random.default_rng(37)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(2, 11)))
        assert chromatic_number(g)[0] >= max_clique(g).size


def test_chromatic_cap():
    wide = Graph(tuple(str(i) for i in range(65)), (0,) * 65)
    with pytest.raises(CapExceeded):
        chromatic_number(wide)


def test_commute_graph_clique_and_coloring_agree(sigma15):
    g = build_graph(sigma15, Partition.single_block(5), "commute")
    assert max_clique(g).size == 5
    assert chromatic_number(g)[0] == 5


def test_export_dot_layout():
    g = Graph.from_edges(["xx", "yy"], [(0, 1)])
    text = export_dot(g)
    assert text.splitlines() == [
        "graph sigma {",
        '  n0 [label="xx"];',
        '  n1 [label="yy"];',
        "  n0 -- n1;",
        "}",
    ]
    lone = export_dot(Graph(("a",), (0,)))
    assert lone.startswith("graph sigma {")
    assert "--" not in lone


def test_export_dot_deterministic(sigma3):
    g = build_graph(sigma3, Partition.single_block(3), "anticommute")
    assert export_dot(g) == export_dot(g)
    assert export_dot(g).count("--") == 16
