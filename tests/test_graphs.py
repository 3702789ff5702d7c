"""Cut graphs, exact cliques, independence, and coloring.

Exact routines are cross-checked against brute-force enumeration on
random graphs small enough to enumerate.
"""

import itertools
import json
import random
from pathlib import Path

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
from paulicrit.graphs import (
    Graph,
    _assign_colours,
    _asymmetry,
    _complements,
    _grow_clique,
    chromatic_number,
    complement,
    cut_cliques,
    cut_graphs,
    export_dot,
)
from paulicrit.pauli import PauliString

# the width-4 set whose clique number is not an upper bound on ABC|D
PAD4 = OperatorSet.from_strings("xy11 1x11 xzy1 1yx1 yyz1 xzz1 xx11 zxx1".split())
DATA = Path(__file__).parent / "data"


def graph_from_edges(labels, edges):
    """The graph on ``labels`` whose edges are the given index pairs."""
    adj = [0] * len(labels)
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(tuple(labels), tuple(adj))


def has_edge(g, i, j):
    return bool(g.adjacency[i] >> j & 1)


def brute_clique_number(g):
    n = g.vertex_count
    for r in range(n, 1, -1):
        for comb in itertools.combinations(range(n), r):
            if all(has_edge(g, i, j) for i, j in itertools.combinations(comb, 2)):
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
    return graph_from_edges([str(i) for i in range(n)], edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(("a", "b"), (2, 0))
    with pytest.raises(ValueError):
        Graph(("a",), (1,))
    with pytest.raises(ValueError):
        Graph(("a", "b"), (0,))
    with pytest.raises(ValueError):
        graph_from_edges(["a", "b"], [(0, 0)])
    with pytest.raises(ValueError, match="adjacency row 0 references missing vertices"):
        Graph(("a", "b"), (4, 0))


def test_graph_accessors():
    g = graph_from_edges(["p", "q", "r"], [(0, 1), (1, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
    assert not has_edge(g, 0, 2)
    assert g.degree(1) == 2
    assert g.to_json_obj() == {"labels": ["p", "q", "r"], "edges": [[0, 1], [1, 2]]}


def test_graph_json_is_json_dumps_of_its_object():
    sigma = _random_set(np.random.default_rng(27), 6, 40)
    graphs = [
        graph_from_edges([], []),
        graph_from_edges(["p"], []),  # no edges: "edges": []
        graph_from_edges(['q"1', "back\\slash", "caf\u00e9"], [(0, 2)]),
        build_graph(PAD4, parse_partition("ABC|D", 4), "commute"),
    ]
    for part in (Partition.finest(6), Partition.single_block(6)):
        for relation in ("commute", "anticommute"):
            graphs.append(build_graph(sigma, part, relation))
    for g in graphs:
        assert g.to_json() == json.dumps(g.to_json_obj(), indent=2)


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
            assert has_edge(g, i, j) == expect


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
        assert has_edge(anti, i, j) == expect
        assert has_edge(comm, i, j) == (not expect)


def test_build_graph_matches_restrictions_every_bipartition():
    sigma = _random_set(np.random.default_rng(17), 10, 14)
    for part in enumerate_bipartitions(10):
        _assert_edges_match_restrictions(sigma, part)


def test_build_graph_matches_restrictions_wide():
    # width 70: site masks wider than 64 bits, blocks on both sides of bit 64
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


def _seeded_set(width, count, seed):
    """``count`` distinct non-identity strings drawn as in bench/reference.py."""
    rng = random.Random(seed)
    picked = set()
    while len(picked) < count:
        x, z = rng.randrange(1 << width), rng.randrange(1 << width)
        if x or z:
            picked.add((x, z))
    return OperatorSet(PauliString(width, x, z) for x, z in sorted(picked))


def _set_partitions(width):
    """Every partition of 0..width-1 (Bell-number many)."""
    blockings = [[]]
    for site in range(width):
        grown = []
        for blocks in blockings:
            for k in range(len(blocks)):
                grown.append(blocks[:k] + [blocks[k] + [site]] + blocks[k + 1 :])
            grown.append(blocks + [[site]])
        blockings = grown
    return [Partition(width, tuple(map(tuple, blocks))) for blocks in blockings]


def _assert_pair_rule(sigma, part, g):
    assert g.labels == sigma.texts()
    for i, j in itertools.combinations(range(len(sigma)), 2):
        assert has_edge(g, i, j) == cut_commute(sigma[i], sigma[j], part)


def test_cut_graphs_match_pair_rule_every_partition():
    for width in range(3, 8):
        sigma = _seeded_set(width, 2 * width, width)
        parts = _set_partitions(width)
        assert len(parts) == (5, 15, 52, 203, 877)[width - 3]
        graphs = list(cut_graphs(sigma, parts))
        assert len(graphs) == len(parts)
        for part, g in zip(parts, graphs):
            _assert_pair_rule(sigma, part, g)
            # kernel graphs come through Graph's constructor, so building
            # one again from its rows passes the same checks
            assert Graph(g.labels, g.adjacency) == g


def test_cut_graphs_refuse_an_asymmetric_site_matrix(monkeypatch):
    import paulicrit.graphs as graphs_module

    sigma = _seeded_set(4, 8, 4)
    single = Partition.single_block(4)
    (clean,) = cut_graphs(sigma, [single])
    stack = graphs_module._stack
    calls = []

    def corrupt(rows, n):
        calls.append(n)
        out = stack(rows, n)
        # the first stacked matrix is site 0's: flip row 0, column 1
        return out ^ 0b10 if len(calls) == 1 else out

    seen = []

    class Recorded(Graph):
        def __init__(self, labels, adjacency):
            seen.append(adjacency)
            super().__init__(labels, adjacency)

    monkeypatch.setattr(graphs_module, "_stack", corrupt)
    monkeypatch.setattr(graphs_module, "Graph", Recorded)
    # one block XORs every site, so the flip reaches the yielded graph's
    # row 0 and not its row 1; Graph's own check refuses it
    with pytest.raises(ValueError, match=r"adjacency not symmetric at \(0, 1\)"):
        next(cut_graphs(sigma, [single]))
    (rows,) = seen
    assert rows[0] == clean.adjacency[0] ^ 0b10
    assert rows[1:] == clean.adjacency[1:]


def brute_asymmetry(rows, n):
    """First (i, j) in row-major order where a matrix of n-bit rows
    differs from its transpose, built bit by bit."""
    transposed = [0] * n
    for i, row in enumerate(rows):
        for j in range(n):
            transposed[j] |= (row >> j & 1) << i
    for i in range(n):
        diff = rows[i] ^ transposed[i]
        if diff:
            return i, (diff & -diff).bit_length() - 1
    return None


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 40, 45, 63, 64, 65, 127, 128])
def test_asymmetry_matches_a_brute_force_transpose(n):
    rng = random.Random(n)
    for trial in range(8):
        rows = [0] * n
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        # odd trials flip one bit; off the diagonal that breaks symmetry
        if trial % 2 and n:
            rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
        want = brute_asymmetry(rows, n)
        assert want is None or trial % 2
        assert _asymmetry(rows, n) == want


def test_cut_graphs_match_pair_rule_wide():
    sigma = _seeded_set(70, 30, 70)
    even_odd = Partition(70, (tuple(range(0, 70, 2)), tuple(range(1, 70, 2))))
    parts = [Partition.finest(70), Partition.single_block(70), even_odd]
    for part, g in zip(parts, cut_graphs(sigma, parts)):
        _assert_pair_rule(sigma, part, g)


def test_cut_graphs_one_call_equals_one_call_per_partition():
    sigma = _seeded_set(6, 20, 1)
    parts = _set_partitions(6)[::7] + [Partition.finest(6)]
    batched = list(cut_graphs(sigma, parts))
    assert batched == [next(cut_graphs(sigma, [part])) for part in parts]
    assert batched == [build_graph(sigma, part, "commute") for part in parts]


def test_cut_graphs_width_mismatch_raises_on_first_next(sigma3):
    graphs = cut_graphs(sigma3, [Partition.finest(4)])
    with pytest.raises(ValueError, match="partition width 4"):
        next(graphs)


def _walk_rows(rng, width, bipartitions=None):
    """The finest partition, the bipartitions (a sample of ``bipartitions``
    of them when given), a few three-block partitions and the single block:
    rows of width - 1, 1, 2 and 0 parity bits."""
    halves = enumerate_bipartitions(width) if width >= 2 else []
    if bipartitions is not None and len(halves) > bipartitions:
        halves = rng.sample(halves, bipartitions)
    thirds = []
    for _ in range(4 if width >= 3 else 0):
        sites = list(range(width))
        rng.shuffle(sites)
        cut, cut2 = sorted(rng.sample(range(1, width), 2))
        blocks = (sites[:cut], sites[cut:cut2], sites[cut2:])
        thirds.append(Partition(width, tuple(map(tuple, blocks))))
    return [Partition.finest(width), *halves, *thirds, Partition.single_block(width)]


def _assert_walk_equals_max_clique(sigma, parts):
    results = cut_cliques(sigma, parts)
    assert results is not None
    assert len(results) == len(parts)
    for part, g, got in zip(parts, cut_graphs(sigma, parts), results):
        assert got == max_clique(g), str(part)


def test_cut_cliques_equal_max_clique_on_random_sets(monkeypatch):
    # the witness, the lexicographically smallest maximum clique, of
    # every row; the budget is raised so that every walk finishes
    import paulicrit.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "CLIQUE_WALK_BUDGET", 10**9)
    rng = random.Random(25)
    for trial in range(90):
        width = 2 + trial % 9
        count = rng.randint(2, min(60, 4**width - 1))
        sigma = _seeded_set(width, count, trial)
        _assert_walk_equals_max_clique(sigma, _walk_rows(rng, width, 64))


# ring6's plain graph is complete, and on its rows with clique numbers of
# 14-29 the walk, bounded only by candidate counts, passes 200 000 child
# tests per row; its case takes the rows where the walk ends
RING6_ROWS = "A|B|C|D|E|F ABD|CEF ACD|BEF ADF|BCE AB|CD|EF AD|BE|CF AE|BC|DF ABCDEF"


@pytest.mark.parametrize("name", ["code5", "eq15", "pad4", "ring6"])
def test_cut_cliques_equal_max_clique_on_fixture_sets(name, monkeypatch):
    import paulicrit.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "CLIQUE_WALK_BUDGET", 10**9)
    sigma = OperatorSet.from_file(DATA / f"{name}.txt")
    if name == "ring6":
        parts = [parse_partition(text, 6) for text in RING6_ROWS.split()]
    else:
        parts = _walk_rows(random.Random(5), sigma.width)
    _assert_walk_equals_max_clique(sigma, parts)


def test_cut_cliques_stop_on_their_budget(monkeypatch):
    import paulicrit.graphs as graphs_module

    sigma = _seeded_set(6, 20, 3)
    parts = _walk_rows(random.Random(3), 6)
    assert cut_cliques(sigma, parts) is not None
    assert cut_cliques(sigma, []) == []
    monkeypatch.setattr(graphs_module, "CLIQUE_WALK_BUDGET", 0)
    assert cut_cliques(sigma, parts) is None
    with pytest.raises(ValueError, match="partition width 5"):
        cut_cliques(sigma, [Partition.finest(5)])


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
    k4 = graph_from_edges("abcd", list(itertools.combinations(range(4), 2)))
    assert complement(k4).edge_count == 0


def test_max_clique_small_cases():
    empty5 = Graph(tuple("abcde"), (0,) * 5)
    assert max_clique(empty5) == (0,)
    assert max_clique(Graph((), ())) == ()
    path = graph_from_edges("abc", [(0, 1), (1, 2)])
    assert max_clique(path) == (0, 1)
    triangle_late = graph_from_edges("abcde", [(0, 1), (2, 3), (2, 4), (3, 4)])
    assert max_clique(triangle_late) == (2, 3, 4)


def test_max_clique_witness_is_lex_smallest():
    # two disjoint edges: (0, 1) beats (2, 3)
    g = graph_from_edges("abcd", [(0, 1), (2, 3)])
    assert max_clique(g) == (0, 1)


def test_max_clique_matches_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(1, 13))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.8)))
        witness = max_clique(g)
        assert len(witness) == brute_clique_number(g)
        for i, j in itertools.combinations(witness, 2):
            assert has_edge(g, i, j)
        # combinations() runs in lexicographic order
        first = next(
            comb
            for comb in itertools.combinations(range(n), len(witness))
            if all(has_edge(g, i, j) for i, j in itertools.combinations(comb, 2))
        )
        assert witness == first


def test_max_clique_witness_probes_below_the_first_clique_found(monkeypatch):
    # triangles 123 and 456, and 0 joined to 1 only: the search meets 456
    # first, then the rebuild probes 0 (fails) and 1 (succeeds, returning
    # 23) below it, and commits 2 and 3 with no search
    import paulicrit.graphs as graphs_module

    g = graph_from_edges(
        "abcdefg", [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (0, 1)]
    )
    found = [0]
    adj = g.adjacency
    size = _grow_clique(adj, _complements(adj), 0, 0, 0b1111111, 0, 7, found)
    assert (size, found[0]) == (3, 0b1110000)

    searches = []  # (candidates, goal) of every search max_clique starts

    def counting(adj, comp, size, path, cand, best, goal, found):
        if size == 0:
            searches.append((cand, goal))
        return _grow_clique(adj, comp, size, path, cand, best, goal, found)

    monkeypatch.setattr(graphs_module, "_grow_clique", counting)
    assert max_clique(g) == (1, 2, 3)
    assert searches == [(0b1111111, 7), (0b10, 2), (0b1100, 2)]


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
        witness = independence_number(g)
        assert witness == max_clique(complement(g))
        assert len(witness) == brute_clique_number(complement(g))
        for i, j in itertools.combinations(witness, 2):
            assert not has_edge(g, i, j)


def test_independence_whole_set_anticommute(sigma3):
    g = build_graph(sigma3, Partition.single_block(3), "anticommute")
    assert len(independence_number(g)) == 4


def reference_dsatur(adj):
    """Standalone DSATUR greedy colouring: the uncoloured vertex of largest
    saturation (ties: larger degree, then smaller index) takes the smallest
    colour its neighbours leave free."""
    n = len(adj)
    colours = [-1] * n

    def neighbour_colours(v):
        return {colours[u] for u in range(n) if adj[v] >> u & 1 and colours[u] >= 0}

    for _ in range(n):
        pick = max(
            (v for v in range(n) if colours[v] < 0),
            key=lambda v: (len(neighbour_colours(v)), adj[v].bit_count(), -v),
        )
        banned = neighbour_colours(pick)
        colours[pick] = min(c for c in range(n) if c not in banned)
    return colours


def test_first_descent_is_dsatur_greedy(sigma3, sigma15):
    # the probe at k = n never backtracks, so it returns the greedy colouring
    graphs = []
    for sigma in (sigma3, sigma15, PAD4):
        width = sigma.width
        parts = [Partition.finest(width), Partition.single_block(width)]
        graphs.extend(cut_graphs(sigma, parts + enumerate_bipartitions(width)))
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 25))
        graphs.append(random_graph(rng, n, p=float(rng.uniform(0.1, 0.9))))
    for g in graphs:
        colours = [-1] * g.vertex_count
        assert _assign_colours(g.adjacency, colours, g.vertex_count, 0, 0)
        assert colours == reference_dsatur(g.adjacency)


def test_chromatic_number_known_graphs():
    k5 = graph_from_edges("abcde", list(itertools.combinations(range(5), 2)))
    assert chromatic_number(k5)[0] == 5
    c5 = graph_from_edges("abcde", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert chromatic_number(c5)[0] == 3
    empty = Graph(tuple("abc"), (0,) * 3)
    assert chromatic_number(empty)[0] == 1
    k33 = graph_from_edges(
        "abcdef", [(i, j) for i in range(3) for j in range(3, 6)]
    )
    assert chromatic_number(k33)[0] == 2
    assert chromatic_number(Graph((), ())) == (0, ())
    # pad4's no-cut graph has omega 2, so its probe at k = 2 fails
    plain = build_graph(PAD4, Partition.single_block(4), "commute")
    assert len(max_clique(plain)) == 2
    assert chromatic_number(plain)[0] == 3


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
        assert chromatic_number(g)[0] >= len(max_clique(g))


def test_chromatic_cap():
    wide = Graph(tuple(str(i) for i in range(65)), (0,) * 65)
    with pytest.raises(CapExceeded):
        chromatic_number(wide)


def test_commute_graph_clique_and_coloring_agree(sigma15):
    g = build_graph(sigma15, Partition.single_block(5), "commute")
    assert len(max_clique(g)) == 5
    assert chromatic_number(g)[0] == 5


def test_export_dot_layout():
    g = graph_from_edges(["xx", "yy"], [(0, 1)])
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
