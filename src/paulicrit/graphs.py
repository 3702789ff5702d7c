"""Undirected graphs over operator-set indices, with exact searches.

Vertices are the members of an operator set in their set order; edges
record a pairwise cut relation.  Adjacency lives in one int bitmask per
vertex, which keeps the branch-and-bound inner loops to a few word ops.

``cut_graphs`` is the one cut-relation kernel: one call builds the graph
of every given partition from transposed (per-site) member bitmasks, and
``build_graph`` is its single-partition form.  ``Graph`` checks every
graph it is given for range, self loops and symmetry; the kernel instead
proves its per-site matrices symmetric once per call, which makes every
graph it yields symmetric by construction.  That check, ``_asymmetry``,
is pure int: ``_stack`` pads rows to a power-of-two bit width, so a
stack is already a square bit matrix that log2(side) delta swaps
transpose.  This module imports no numpy, and neither do ``bounds`` and
``graph`` runs, which would otherwise spend more time importing numpy
than building their graphs.

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
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from .cuts import Partition
from .errors import CapExceeded
from .pauli import OperatorSet

CLIQUE_VERTEX_CAP = 128
COLOR_VERTEX_CAP = 64
# Exporting a graph costs time and memory quadratic in its vertex count.
# As JSON on width-12 sets: 6.6 s and 430 MB peak at 2048 vertices, 14.4 s
# and 891 MB at 3000 (2-CPU VM); building the 2048-vertex graph is 0.12 s
# and 19 MB of that, the rest is the edge list.
GRAPH_VERTEX_CAP = 2048


def _side(n: int) -> int:
    """Row width in bits of the ``_stack`` layout: the smallest power of
    two that holds n bits, and at least one byte."""
    return max(8, 1 << (n - 1).bit_length())


def _stack(rows: Iterable[int], n: int) -> int:
    """One int holding each row in ``_side(n)`` bits, row i from bit
    i * side, so n rows fill the top of a side-by-side bit matrix."""
    stride = _side(n) // 8
    raw = b"".join(r.to_bytes(stride, "little") for r in rows)
    return int.from_bytes(raw, "little")


@functools.lru_cache(maxsize=4)
def _transpose_rounds(side: int) -> tuple[tuple[int, bytes], ...]:
    """(shift, mask) of each delta-swap round that transposes a
    side-by-side bit matrix, the mask as bytes.  Round d exchanges bit
    (i, j) with bit (i + d, j - d) wherever bit d of i is clear and bit d
    of j is set, which swaps bit d of i with bit d of j; the rounds for
    d = 1, 2, 4, ... < side together swap i with j.  The masks of one side
    take log2(side) times the bytes of one matrix, 5.6 MB at side 2048."""
    stride = side // 8
    zero = bytes(stride)
    rounds = []
    d = 1
    while d < side:
        row = sum(1 << j for j in range(side) if j & d).to_bytes(stride, "little")
        mask = b"".join(zero if i & d else row for i in range(side))
        rounds.append((d * (side - 1), mask))
        d <<= 1
    return tuple(rounds)


def _asymmetry(stacked: list[int], n: int) -> tuple[int, int, int] | None:
    """First (matrix, i, j) in row-major order where a stacked n-by-n bit
    matrix (``_stack`` layout, no bit at or past column n) differs from
    its transpose, or None when all are symmetric.

    Pure int: the matrices are laid end to end in one int and transposed
    together by log2(side) delta swaps, so the check needs no numpy."""
    side = _side(n)
    size = side * side // 8
    bits = int.from_bytes(
        b"".join(m.to_bytes(size, "little") for m in stacked), "little"
    )
    flipped = bits
    for shift, mask in _transpose_rounds(side):
        swap = (flipped ^ flipped >> shift) & int.from_bytes(
            mask * len(stacked), "little"
        )
        flipped ^= swap ^ swap << shift
    diff = bits ^ flipped
    if not diff:
        return None
    matrix, at = divmod((diff & -diff).bit_length() - 1, side * side)
    return (matrix, *divmod(at, side))


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph; adjacency[i] is the neighbour bitmask of i."""

    labels: tuple[str, ...]
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.adjacency) != n:
            raise ValueError("labels and adjacency rows disagree in length")
        full = (1 << n) - 1
        for i, row in enumerate(self.adjacency):
            if row & ~full:
                raise ValueError(f"adjacency row {i} references missing vertices")
            if (row >> i) & 1:
                raise ValueError(f"vertex {i} has a self loop")
        at = _asymmetry([_stack(self.adjacency, n)], n)
        if at is not None:
            raise ValueError(f"adjacency not symmetric at ({at[1]}, {at[2]})")

    @classmethod
    def from_edges(cls, labels: Iterable[str], edges: Iterable[tuple[int, int]]) -> "Graph":
        labels = tuple(labels)
        adj = [0] * len(labels)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(labels, tuple(adj))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adjacency[i] >> j) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with i < j, sorted."""
        out = []
        for i, row in enumerate(self.adjacency):
            row >>= i + 1
            j = i + 1
            while row:
                if row & 1:
                    out.append((i, j))
                row >>= 1
                j += 1
        return out

    @property
    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.vertex_count)) // 2

    def to_json_obj(self) -> dict:
        return {
            "labels": list(self.labels),
            "edges": [[i, j] for i, j in self.edges()],
        }


@dataclass(frozen=True)
class CliqueResult:
    """Clique number plus one verified witness (sorted vertex indices)."""

    size: int
    witness: tuple[int, ...]


def _symmetric_graph(labels: tuple[str, ...], adjacency: tuple[int, ...]) -> Graph:
    """A Graph whose rows the caller has proved in range, loop-free and
    symmetric; it skips ``Graph.__post_init__``."""
    g = object.__new__(Graph)
    object.__setattr__(g, "labels", labels)
    object.__setattr__(g, "adjacency", adjacency)
    return g


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
    number of partitions, since one graph is yielded at a time.

    Each site matrix is proved symmetric once per call, before the first
    graph: XOR and OR keep symmetry, and masking with ``others`` (every
    other member in every row) clears the diagonal and every bit out of
    range.  So the graphs are symmetric by construction and skip the
    per-graph check of ``Graph``; a site matrix that fails its check
    raises ``RuntimeError``.
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
    bad = _asymmetry(odd_at, n)
    if bad is not None:
        raise RuntimeError(
            f"site {bad[0]} overlap matrix not symmetric at ({bad[1]}, {bad[2]})"
        )
    others = _stack((((1 << n) - 1) ^ (1 << i) for i in range(n)), n)
    labels = sigma.texts()
    for part in parts:
        if part.width != width:
            raise ValueError(
                f"partition width {part.width} does not match operator width {width}"
            )
        anti = 0
        for block in part.blocks:
            odd = 0
            for k in block:
                odd ^= odd_at[k]
            anti |= odd
        raw = (others & ~anti).to_bytes(n * stride, "little")
        yield _symmetric_graph(
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
    if n > CLIQUE_VERTEX_CAP:
        raise CapExceeded(
            f"clique search on {n} vertices exceeds cap {CLIQUE_VERTEX_CAP}"
        )


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


def independence_number(g: Graph) -> CliqueResult:
    """Exact maximum independent set, via the clique complement duality."""
    result = max_clique(complement(g))
    for a in result.witness:
        for b in result.witness:
            if a != b and g.has_edge(a, b):
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
        seen = {colours[u] for u in _neighbours(adj, v) if colours[u] >= 0}
        key = (len(seen), adj[v].bit_count(), -v)
        if key > pick_key:
            pick, pick_key, banned = v, key, seen
    return pick, banned


def _neighbours(adj: tuple[int, ...], v: int):
    row = adj[v]
    while row:
        u = (row & -row).bit_length() - 1
        row &= row - 1
        yield u


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
    if n > COLOR_VERTEX_CAP:
        raise CapExceeded(
            f"colouring search on {n} vertices exceeds cap {COLOR_VERTEX_CAP}"
        )
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
