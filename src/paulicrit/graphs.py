"""Undirected graphs over operator-set indices, with exact searches.

Vertices are the members of an operator set in their set order; edges
record a pairwise cut relation.  Adjacency lives in one int bitmask per
vertex, which keeps the branch-and-bound inner loops to a few word ops.
``_bits`` is the one walk over a row's set bits, lowest first: the edge
list, the DSATUR neighbour colours and ``cut_cliques`` read rows through
it.

``cut_graphs`` is the one cut-relation kernel: one call builds the graph
of every given partition from transposed (per-site) member bitmasks, and
``build_graph`` is its single-partition form.  Every graph, from the
kernel or ``complement``, comes through ``Graph``'s one constructor,
which checks its rows for range, self loops and symmetry.
The symmetry check, ``_asymmetry``, is pure int: ``_stack`` pads rows to
a power-of-two bit width, so the rows are already a square bit matrix
that log2(side) delta swaps transpose.  This module imports no numpy,
and neither do ``bounds`` and ``graph`` runs, which would otherwise spend
more time importing numpy than building their graphs.

``cut_cliques`` answers ``max_clique`` for many partitions without
building their graphs.  Every cut graph is the plain graph less some
pairs, so each plainly commuting pair carries one bit per partition, set
where it cut-commutes, and one lexicographic walk over the plain graph's
cliques serves every partition.  Its pair table costs O(n^2) once, where
the kernel pays O(n) per partition before any search, and its work is
budgeted per partition, so reports use it when the partitions outnumber
the members and fall back to the kernel when it trips.

``max_clique`` and ``chromatic_number`` are exact and deterministic:
runs on equal inputs return identical results, and every witness is
re-verified against the adjacency relation before it is returned.
``max_clique`` runs one colour-bounded search for the clique number and
a maximum clique, and keeps that clique as a known completion while it
rebuilds the lexicographically smallest witness.

``chromatic_number`` deepens from the clique number over one DSATUR
backtracking search, ``_assign_colours``, whose first descent gives each
picked vertex the smallest free colour, never above the open palette.  So
DSATUR greedy is ``_assign_colours`` at k = n, and a probe at its count
succeeds on that descent: the deepening never passes the greedy count.
"""

from __future__ import annotations

import functools
import json
from typing import Iterable, Iterator, Literal

from .cuts import Partition, check_partition_width
from .errors import check_cap
from .pauli import OperatorSet, _Frozen, _set

CLIQUE_VERTEX_CAP = 128
COLOR_VERTEX_CAP = 64
# Exporting a graph costs time and memory quadratic in its vertex count.
# As JSON on width-12 sets: 1.1-1.9 s and 232 MB peak at 2048 vertices,
# 2.7-2.9 s and 494 MB at 3000 (2-CPU VM); building and checking the
# 2048-vertex graph is 0.05 s and 19 MB of that, the rest is the edge list.
GRAPH_VERTEX_CAP = 2048
# Child tests ``cut_cliques`` may make per partition before it gives up.
# Random width-10 sets of 40 members need 4.5-8 per row over 512 rows, and
# random width-16 sets of 128 members 16.4-17.2 over 32 768.  Dense sets
# need far more, and their trip is spent before the per-row route (2-CPU
# VM): 56-100 ms on the width-16 ring products (1162 rows), 1.5 s on those
# products plus a member that leaves the group trivial, and 4.9 s on 128
# random weight-2 strings (32 768 rows).
CLIQUE_WALK_BUDGET = 32
# one edge of "edges" as json.dumps(..., indent=2) nests it in a graph
_EDGE = "    [\n      %d,\n      %d\n    ]"


def _side(n: int) -> int:
    """Row width in bits of the ``_stack`` layout: the smallest power of
    two that holds n bits, and at least one byte."""
    return max(8, 1 << (n - 1).bit_length())


def _bits(row: int) -> Iterator[int]:
    """Indices of the set bits of a row, lowest first."""
    while row:
        low = row & -row
        row ^= low
        yield low.bit_length() - 1


def _stack(rows: Iterable[int], n: int) -> int:
    """One int holding each row in ``_side(n)`` bits, row i from bit
    i * side, so n rows fill the top of a side-by-side bit matrix."""
    stride = _side(n) // 8
    raw = b"".join(r.to_bytes(stride, "little") for r in rows)
    return int.from_bytes(raw, "little")


@functools.lru_cache(maxsize=4)
def _transpose_rounds(side: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta-swap round that transposes a
    side-by-side bit matrix.  Round d exchanges bit (i, j) with bit
    (i + d, j - d) wherever bit d of i is clear and bit d of j is set,
    which swaps bit d of i with bit d of j; the rounds for d = 1, 2, 4, ...
    < side together swap i with j.  The masks of one side take log2(side)
    times the bytes of one matrix, 5.6 MB at side 2048."""
    stride = side // 8
    zero = bytes(stride)
    rounds = []
    d = 1
    while d < side:
        row = sum(1 << j for j in range(side) if j & d).to_bytes(stride, "little")
        mask = b"".join(zero if i & d else row for i in range(side))
        rounds.append((d * (side - 1), int.from_bytes(mask, "little")))
        d <<= 1
    return tuple(rounds)


def _asymmetry(rows: Iterable[int], n: int) -> tuple[int, int] | None:
    """First (i, j) in row-major order where an n-by-n bit matrix, given
    by its rows with no bit at or past column n, differs from its
    transpose, or None when it is symmetric.

    Pure int: the rows are stacked (``_stack``) into one square bit matrix
    and transposed by log2(side) delta swaps, so the check needs no numpy."""
    side = _side(n)
    bits = flipped = _stack(rows, n)
    for shift, mask in _transpose_rounds(side):
        swap = (flipped ^ flipped >> shift) & mask
        flipped ^= swap ^ swap << shift
    diff = bits ^ flipped
    if not diff:
        return None
    return divmod((diff & -diff).bit_length() - 1, side)


class Graph(_Frozen):
    """Immutable undirected graph; adjacency[i] is the neighbour bitmask of i."""

    __slots__ = _fields = ("labels", "adjacency")
    labels: tuple[str, ...]
    adjacency: tuple[int, ...]

    def __init__(self, labels: tuple[str, ...], adjacency: tuple[int, ...]) -> None:
        n = len(labels)
        if len(adjacency) != n:
            raise ValueError("labels and adjacency rows disagree in length")
        full = (1 << n) - 1
        for i, row in enumerate(adjacency):
            if row & ~full:
                raise ValueError(f"adjacency row {i} references missing vertices")
            if (row >> i) & 1:
                raise ValueError(f"vertex {i} has a self loop")
        at = _asymmetry(adjacency, n)
        if at is not None:
            raise ValueError(f"adjacency not symmetric at {at}")
        _set(self, "labels", labels)
        _set(self, "adjacency", adjacency)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with i < j, sorted."""
        return [
            (i, j)
            for i, row in enumerate(self.adjacency)
            for j in _bits(row & -(2 << i))
        ]

    @property
    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.vertex_count)) // 2

    def to_json_obj(self) -> dict:
        return {
            "labels": list(self.labels),
            "edges": [[i, j] for i, j in self.edges()],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_obj(), indent=2)``, byte for byte.

        CPython skips its C encoder whenever ``indent`` is set, and the
        edges are nearly all of a graph, so each ``[i, j]`` pair is written
        from one template instead; the labels still go through
        ``json.dumps``."""
        head = json.dumps({"labels": list(self.labels)}, indent=2)[:-2]  # less "\n}"
        edges = ",\n".join(map(_EDGE.__mod__, self.edges()))
        return '%s,\n  "edges": %s\n}' % (head, "[\n%s\n  ]" % edges if edges else "[]")


class CliqueResult(_Frozen):
    """Clique number plus one verified witness (sorted vertex indices)."""

    __slots__ = _fields = ("size", "witness")
    size: int
    witness: tuple[int, ...]

    def __init__(self, size: int, witness: tuple[int, ...]) -> None:
        _set(self, "size", size)
        _set(self, "witness", witness)


def cut_graphs(sigma: OperatorSet, parts: Iterable[Partition]) -> Iterator[Graph]:
    """Cut-commutativity graph of sigma for each partition, in the order given.

    Bit j of ``xcol[k]`` (``zcol[k]``) is set when member j carries x or y
    (z or y) at site k, so the members whose overlap with member i is odd
    at site k are ``(zcol[k] if x_ik) ^ (xcol[k] if z_ik)``.  XOR over a
    block's sites gives the members that anticommute with i on that block
    (the parity rule of ``cuts``); OR over the blocks gives i's
    cut-anticommute row.  All members' rows are stacked into one int per
    site, ``stride`` bytes a row, so a partition costs one XOR per site
    and one OR per block.  Memory is width * n * n bits whatever the
    number of partitions, since one graph is yielded at a time.  Masking
    with ``others`` (every other member in every row) clears the diagonal.
    Each graph is built by ``Graph``'s constructor, which checks the rows
    it is given, so a kernel fault raises its ``ValueError``.
    """
    members = sigma.members
    n = len(members)
    width = sigma.width
    xcol = [0] * width
    zcol = [0] * width
    for j, m in enumerate(members):
        for k in range(width):
            xcol[k] |= (m.x_bits >> k & 1) << j
            zcol[k] |= (m.z_bits >> k & 1) << j
    stride = _side(n) // 8  # bytes per stacked row

    odd_at = [
        _stack(
            (
                (zcol[k] if m.x_bits >> k & 1 else 0)
                ^ (xcol[k] if m.z_bits >> k & 1 else 0)
                for m in members
            ),
            n,
        )
        for k in range(width)
    ]
    others = _stack((((1 << n) - 1) ^ (1 << i) for i in range(n)), n)
    labels = sigma.texts()
    for part in parts:
        check_partition_width(part, width)
        anti = 0
        for block in part.blocks:
            odd = 0
            for k in block:
                odd ^= odd_at[k]
            anti |= odd
        raw = (others & ~anti).to_bytes(n * stride, "little")
        yield Graph(
            labels,
            tuple(
                int.from_bytes(raw[at : at + stride], "little")
                for at in range(0, n * stride, stride)
            ),
        )


def build_graph(
    sigma: OperatorSet,
    part: Partition,
    relation: Literal["commute", "anticommute"],
) -> Graph:
    """Graph over sigma's members; edges are pairs in the cut relation.

    The commute graph is the one graph of ``cut_graphs(sigma, [part])``;
    the anticommute graph is its complement.
    """
    if relation not in ("commute", "anticommute"):
        raise ValueError(f"relation must be 'commute' or 'anticommute', got {relation!r}")
    graph = next(cut_graphs(sigma, [part]))
    return graph if relation == "commute" else complement(graph)


def complement(g: Graph) -> Graph:
    """Same vertices, complemented edge set."""
    n = g.vertex_count
    full = (1 << n) - 1
    adj = tuple((full & ~row) & ~(1 << i) for i, row in enumerate(g.adjacency))
    return Graph(g.labels, adj)


def _complements(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Row v is every vertex except v and its neighbours (a negative int)."""
    return tuple(~(row | 1 << v) for v, row in enumerate(adj))


def _grow_clique(
    adj: tuple[int, ...],
    comp: tuple[int, ...],
    size: int,
    path: int,
    cand: int,
    best: int,
    goal: int,
    found: list[int],
) -> int:
    """Largest of ``best`` and size + the clique number of ``cand``; the
    search returns as soon as that value reaches ``goal``.

    ``path`` is the clique of ``size`` vertices that every candidate
    extends, and ``comp`` holds the ``_complements`` of ``adj``.  The
    largest clique found that beats ``best`` is written to ``found[0]`` as
    a bitmask.  Candidates are greedily coloured, and a vertex of colour c
    reaches at most size + c, so classes of colour at most best - size are
    coloured but not recorded: the branch loop would prune them unread.
    """
    floor = best - size
    classes: list[tuple[int, int]] = []  # (colour, members) of recorded classes
    colour = 0
    rest = cand
    while rest:
        colour += 1
        cls = left = rest
        while cls:
            low = cls & -cls
            cls &= comp[low.bit_length() - 1]
            rest ^= low
        if colour > floor:
            classes.append((colour, left ^ rest))
    local = cand
    for colour, cls in reversed(classes):
        while cls:
            if size + colour <= best:
                return best
            v = cls.bit_length() - 1
            bit = 1 << v
            cls ^= bit
            nxt = local & adj[v]
            if nxt and size + 1 < goal:
                best = _grow_clique(
                    adj, comp, size + 1, path | bit, nxt, best, goal, found
                )
            elif size + 1 > best:
                best = size + 1
                found[0] = path | bit
            if best >= goal:
                return best
            local ^= bit
    return best


def check_clique_cap(n: int) -> None:
    """Refuse a clique search on more than ``CLIQUE_VERTEX_CAP`` vertices."""
    check_cap(n, CLIQUE_VERTEX_CAP, f"clique search on {n} vertices")


def max_clique(g: Graph) -> CliqueResult:
    """Exact maximum clique with the lexicographically smallest witness.

    One colour-bounded branch and bound gives the clique number and a
    maximum clique.  The witness is then rebuilt greedily, committing the
    smallest vertex that still allows a completion of full size, with
    that clique kept as a known completion: a probe that reaches its
    smallest vertex commits it with no search, so only smaller vertices
    are probed, and a probe that succeeds returns the clique that becomes
    the next known completion.
    """
    n = g.vertex_count
    check_clique_cap(n)
    if n == 0:
        return CliqueResult(0, ())
    adj = g.adjacency
    comp = _complements(adj)
    found = [0]
    size = _grow_clique(adj, comp, 0, 0, (1 << n) - 1, 0, n, found)
    known = found[0]

    witness: list[int] = []
    cand = (1 << n) - 1
    while len(witness) < size:
        if not known or known & ~cand:
            raise RuntimeError("clique witness reconstruction failed")
        need = size - len(witness) - 1
        low = known & -known
        probe = cand & (low - 1)
        while probe:
            bit = probe & -probe
            probe ^= bit
            v = bit.bit_length() - 1
            rest = cand & adj[v] & -(bit << 1)
            found[0] = 0
            if need == 0 or _grow_clique(
                adj, comp, 0, 0, rest, need - 1, need, found
            ) >= need:
                known = found[0]
                break
        else:
            v = low.bit_length() - 1
            rest = cand & adj[v] & -(low << 1)
            known ^= low
        witness.append(v)
        cand = rest

    wmask = sum(1 << v for v in witness)
    for v in witness:
        if (adj[v] | 1 << v) & wmask != wmask:
            raise RuntimeError("clique witness failed verification")
    return CliqueResult(size, tuple(witness))


def cut_cliques(
    sigma: OperatorSet, parts: Iterable[Partition]
) -> list[CliqueResult] | None:
    """``max_clique`` of each partition's cut-commutativity graph, in the
    order given, from one walk over the plain graph's cliques; None when
    the walk exceeds ``CLIQUE_WALK_BUDGET`` child tests per partition.

    Every cut graph is the plain graph less the pairs whose overlap is odd
    on some block.  A partition of b blocks takes the overlap parities of
    its first b - 1 blocks as bits, since a plainly commuting pair has even
    overlap overall, and one more bit when b > 2: adding 2**(b-1) - 1 to
    the field carries into it exactly when some parity is odd.  So each
    plainly commuting pair gets one int, the XOR of per-site masks over its
    overlap's sites (the parity rule of ``cuts``), and one live bit per
    partition, set where the pair cut-commutes.  ``_walk_cliques`` then
    visits the plain graph's cliques in lexicographic order once for all
    partitions.  The witnesses are not re-verified here: ``bounds``
    certifies each one on the members' bits.
    """
    members = sigma.members
    n = len(members)
    check_clique_cap(n)
    width = sigma.width
    fields_at: list[int] = []  # the sites whose overlap parity bit p reads
    carry = 0
    at = []  # the live bit of each partition
    for part in parts:
        check_partition_width(part, width)
        fields = part.masks[:-1]
        if len(fields) > 1:
            carry |= ((1 << len(fields)) - 1) << len(fields_at)
            fields_at += fields
        at.append(len(fields_at))
        fields_at.append(fields[0] if len(fields) == 1 else 0)
    if not at:
        return []
    live = ((1 << len(fields_at)) - 1) ^ carry
    # bit p of site k's row is set when bit p reads site k; built from text
    site_rows = [
        int(bytes(48 + (m >> k & 1) for m in reversed(fields_at)), 2)
        for k in range(width)
    ]

    adj = [0] * n
    pairs = [[0] * j for j in range(n)]  # [j][i], i < j: live bits of the pair
    by_overlap: dict[int, int] = {}
    for i, a in enumerate(members):
        for j in range(i + 1, n):
            b = members[j]
            w = (a.x_bits & b.z_bits) ^ (a.z_bits & b.x_bits)
            if w.bit_count() & 1:
                continue
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            rows = by_overlap.get(w)
            if rows is None:
                odd = 0
                for k in _bits(w):
                    odd ^= site_rows[k]
                rows = by_overlap[w] = live & ~(odd + carry)
            pairs[j][i] = rows

    below = [-1] * (n + 1)
    witness: list[tuple[int, ...]] = [()] * len(fields_at)
    budget = CLIQUE_WALK_BUDGET * len(at)
    if _walk_cliques(adj, pairs, (), (1 << n) - 1, live, below, witness, budget) < 0:
        return None
    return [CliqueResult(len(w), w) for w in map(witness.__getitem__, at)]


def _walk_cliques(
    adj: list[int],
    pairs: list[list[int]],
    path: tuple[int, ...],
    cand: int,
    live: int,
    below: list[int],
    witness: list[tuple[int, ...]],
    work: int,
) -> int:
    """Pre-order walk, smallest vertex first, over the cliques that extend
    ``path`` by vertices of ``cand``; returns the work left, negative when
    the walk stopped on its budget.

    ``live`` holds the live bits of the rows on which ``path`` is a
    cut-clique, and ``below[s]`` those of the rows whose largest clique
    recorded so far has fewer than s members (all bits set at first).  A
    clique of size k is recorded, at the live bit in ``witness``, for
    every live row still below k: cliques come in lexicographic order, so
    it is that row's smallest k-clique.  A child keeps only the rows that
    it could still raise, those below k + its candidates, and is skipped
    when none is left; each child tested costs one unit of work.
    """
    size = len(path) + 1
    while cand:
        work -= 1
        if work < 0:
            return work
        low = cand & -cand
        cand ^= low
        u = low.bit_length() - 1
        rows = live
        col = pairs[u]
        for v in path:
            rows &= col[v]
        nxt = cand & adj[u]
        rows &= below[size + nxt.bit_count()]
        if not rows:
            continue
        clique = path + (u,)
        new = rows & below[size]
        if new:
            keep = ~new
            for s in range(1, size + 1):
                below[s] &= keep
            for bit in _bits(new):
                witness[bit] = clique
        if nxt:
            work = _walk_cliques(adj, pairs, clique, nxt, rows, below, witness, work)
            if work < 0:
                return work
    return work


def independence_number(g: Graph) -> CliqueResult:
    """Exact maximum independent set, via the clique complement duality."""
    result = max_clique(complement(g))
    wmask = sum(1 << v for v in result.witness)
    for v in result.witness:
        if g.adjacency[v] & wmask:
            raise RuntimeError("independent-set witness failed verification")
    return result


def _dsatur_pick(adj: tuple[int, ...], colours: list[int]) -> tuple[int, set[int]]:
    """The uncoloured vertex of largest saturation (ties: degree, then
    smallest index) and the colours of its neighbours."""
    pick = -1
    pick_key = (-1, -1, 1)
    banned: set[int] = set()
    for v, colour in enumerate(colours):
        if colour >= 0:
            continue
        seen = {colours[u] for u in _bits(adj[v]) if colours[u] >= 0}
        key = (len(seen), adj[v].bit_count(), -v)
        if key > pick_key:
            pick, pick_key, banned = v, key, seen
    return pick, banned


def _assign_colours(
    adj: tuple[int, ...], colours: list[int], k: int, done: int, palette: int
) -> bool:
    """Extend a partial colouring (-1 = uncoloured) to k colours, in place;
    a failed search leaves ``colours`` as it found it."""
    if done == len(colours):
        return True
    pick, banned = _dsatur_pick(adj, colours)
    # At most one brand-new colour may be opened, killing palette symmetry.
    for c in range(min(k, palette + 1)):
        if c in banned:
            continue
        colours[pick] = c
        if _assign_colours(adj, colours, k, done + 1, max(palette, c + 1)):
            return True
        colours[pick] = -1
    return False


def chromatic_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number and one proper colouring: the first k from
    the clique number up whose ``_assign_colours`` probe succeeds."""
    n = g.vertex_count
    check_cap(n, COLOR_VERTEX_CAP, f"colouring search on {n} vertices")
    if n == 0:
        return 0, ()
    adj = g.adjacency
    omega = _grow_clique(adj, _complements(adj), 0, 0, (1 << n) - 1, 0, n, [0])
    colours = [-1] * n
    for count in range(omega, n + 1):
        if _assign_colours(adj, colours, count, 0, 0):
            break
    for i, j in g.edges():
        if colours[i] == colours[j]:
            raise RuntimeError("colouring failed verification")
    if len(set(colours)) != count:
        raise RuntimeError("colour count failed verification")
    return count, tuple(colours)


def export_dot(g: Graph) -> str:
    """Graphviz text for ``graph sigma``; vertex order and edge order are
    deterministic."""
    lines = ["graph sigma {"]
    for i, label in enumerate(g.labels):
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in g.edges():
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
