"""Undirected graphs over operator-set indices, with exact searches.

Vertices are the members of an operator set in their set order; edges
record a pairwise cut relation.  Adjacency lives in one int bitmask per
vertex, which keeps the branch-and-bound inner loops to a few word ops.

``max_clique`` and ``chromatic_number`` are exact and deterministic:
runs on equal inputs return identical results, and every witness is
re-verified against the adjacency relation before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .cuts import Partition
from .errors import CapExceeded
from .pauli import OperatorSet

CLIQUE_VERTEX_CAP = 128
COLOR_VERTEX_CAP = 64
# Exporting a graph costs time and memory quadratic in its vertex count:
# 7.0 s and 426 MB at 2048 vertices, 14.9 s and 891 MB at 3000.
GRAPH_VERTEX_CAP = 2048

_FOLDS = tuple(np.uint64(shift) for shift in (32, 16, 8, 4, 2, 1))
_BAND_WORDS = 1 << 20  # 8 MB per temporary of the banded overlap matrix


def _unpack_rows(rows: tuple[int, ...], n: int) -> np.ndarray:
    """n-by-n bool matrix whose row i holds the low n bits of rows[i]."""
    size = -(-n // 8)
    raw = b"".join(row.to_bytes(size, "little") for row in rows)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(n, size)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)


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
        bits = _unpack_rows(self.adjacency, n)
        asymmetric = np.argwhere(bits != bits.T)
        if asymmetric.size:
            i, j = asymmetric[0]
            raise ValueError(f"adjacency not symmetric at ({i}, {j})")

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


def _words(values: Iterable[int], count: int) -> np.ndarray:
    """Split int bitmasks into rows of ``count`` little-endian uint64 words."""
    raw = b"".join(v.to_bytes(8 * count, "little") for v in values)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, count)


def build_graph(
    sigma: OperatorSet,
    part: Partition,
    relation: Literal["commute", "anticommute"],
) -> Graph:
    """Graph over sigma's members; edges are pairs in the cut relation.

    All pairs at once: W[i, j] = (x_i & z_j) ^ (z_i & x_j) is the site-wise
    symplectic overlap, and members i and j cut-anticommute exactly when
    W[i, j] & mask has odd popcount for some block mask.  Widths above 64
    span several words; the parity of a masked row is the parity of the
    XOR of its words, folded down to one bit (numpy 1.24 has no popcount).
    W is taken a band of rows at a time so that large sets stay within
    ``_BAND_WORDS`` words per temporary.
    """
    if relation not in ("commute", "anticommute"):
        raise ValueError(f"relation must be 'commute' or 'anticommute', got {relation!r}")
    if sigma.width != part.width:
        raise ValueError(
            f"partition width {part.width} does not match operator width {sigma.width}"
        )
    members = sigma.members
    n = len(members)
    count = -(-sigma.width // 64)
    x = _words((m.x_bits for m in members), count)
    z = _words((m.z_bits for m in members), count)
    masks = _words(part.masks, count)
    band = max(1, _BAND_WORDS // (n * count))
    adj: list[int] = []
    for start in range(0, n, band):
        w = x[start : start + band, None, :] & z[None, :, :]
        w ^= z[start : start + band, None, :] & x[None, :, :]
        anti = np.zeros(w.shape[:2], dtype=bool)
        for mask in masks:
            v = np.bitwise_xor.reduce(w & mask, axis=-1)
            for shift in _FOLDS:
                v ^= v >> shift
            anti |= (v & np.uint64(1)).astype(bool)
        related = anti if relation == "anticommute" else ~anti
        rows = np.packbits(related, axis=1, bitorder="little")
        # a member cut-commutes with itself; that is not an edge
        for i, row in enumerate(rows, start):
            adj.append(int.from_bytes(row.tobytes(), "little") & ~(1 << i))
    return Graph(sigma.texts(), tuple(adj))


def complement(g: Graph) -> Graph:
    """Same vertices, complemented edge set."""
    n = g.vertex_count
    full = (1 << n) - 1
    adj = tuple((full & ~row) & ~(1 << i) for i, row in enumerate(g.adjacency))
    return Graph(g.labels, adj)


def _greedy_color_order(adj: tuple[int, ...], cand: int) -> list[tuple[int, int]]:
    """Greedy colouring of a candidate bitmask; (vertex, colour) in colour order."""
    order: list[tuple[int, int]] = []
    colour = 0
    rest = cand
    while rest:
        colour += 1
        cls = rest
        while cls:
            v = (cls & -cls).bit_length() - 1
            bit = 1 << v
            cls &= ~adj[v]
            cls &= ~bit
            rest &= ~bit
            order.append((v, colour))
    return order


def _clique_number(adj: tuple[int, ...], n: int) -> int:
    """Branch and bound with greedy colouring upper bounds."""
    return _grow_clique(adj, 0, (1 << n) - 1, 0, n) if n else 0


def _grow_clique(
    adj: tuple[int, ...], size: int, cand: int, best: int, goal: int
) -> int:
    """Largest of ``best`` and size + the clique number of ``cand``; the
    search returns as soon as that value reaches ``goal``."""
    order = _greedy_color_order(adj, cand)
    local = cand
    for v, colour in reversed(order):
        if size + colour <= best:
            return best
        nxt = local & adj[v]
        if nxt and size + 1 < goal:
            best = _grow_clique(adj, size + 1, nxt, best, goal)
        elif size + 1 > best:
            best = size + 1
        if best >= goal:
            return best
        local &= ~(1 << v)
    return best


def _has_clique(adj: tuple[int, ...], cand: int, k: int) -> bool:
    """Does the candidate bitmask contain a clique of size k?"""
    return k <= 0 or _grow_clique(adj, 0, cand, k - 1, k) >= k


def check_clique_cap(n: int) -> None:
    """Refuse a clique search on more than ``CLIQUE_VERTEX_CAP`` vertices."""
    if n > CLIQUE_VERTEX_CAP:
        raise CapExceeded(
            f"clique search on {n} vertices exceeds cap {CLIQUE_VERTEX_CAP}"
        )


def max_clique(g: Graph) -> CliqueResult:
    """Exact maximum clique with the lexicographically smallest witness.

    The clique number comes from a colour-bounded branch and bound; the
    witness is then rebuilt greedily, committing the smallest vertex that
    still allows a completion of full size.
    """
    n = g.vertex_count
    check_clique_cap(n)
    if n == 0:
        return CliqueResult(0, ())
    adj = g.adjacency
    size = _clique_number(adj, n)

    witness: list[int] = []
    cand = (1 << n) - 1
    while len(witness) < size:
        probe = cand
        committed = False
        while probe:
            v = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            rest = cand & adj[v] & ~((1 << (v + 1)) - 1)
            if _has_clique(adj, rest, size - len(witness) - 1):
                witness.append(v)
                cand = rest
                committed = True
                break
        if not committed:
            raise RuntimeError("clique witness reconstruction failed")

    for a in witness:
        for b in witness:
            if a != b and not g.has_edge(a, b):
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
    for v, colour in enumerate(colours):
        if colour >= 0:
            continue
        sat = len({colours[u] for u in _neighbours(adj, v) if colours[u] >= 0})
        key = (sat, adj[v].bit_count(), -v)
        if key > pick_key:
            pick_key = key
            pick = v
    banned = {colours[u] for u in _neighbours(adj, pick) if colours[u] >= 0}
    return pick, banned


def _greedy_coloring(adj: tuple[int, ...], n: int) -> list[int]:
    """Saturation-guided greedy proper colouring; deterministic."""
    colours = [-1] * n
    for _ in range(n):
        pick, banned = _dsatur_pick(adj, colours)
        c = 0
        while c in banned:
            c += 1
        colours[pick] = c
    return colours


def _neighbours(adj: tuple[int, ...], v: int):
    row = adj[v]
    while row:
        u = (row & -row).bit_length() - 1
        row &= row - 1
        yield u


def _try_coloring(adj: tuple[int, ...], n: int, k: int) -> list[int] | None:
    """Exact k-colouring by saturation-first backtracking, or None."""
    colours = [-1] * n
    return colours if _assign_colours(adj, colours, k, 0, 0) else None


def _assign_colours(
    adj: tuple[int, ...], colours: list[int], k: int, done: int, palette: int
) -> bool:
    """Extend a partial colouring (-1 = uncoloured) to k colours, in place."""
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
    """Exact chromatic number and one proper colouring.

    Iterative deepening from the clique-number lower bound up to a greedy
    upper bound; each probe is a backtracking k-colouring search.
    """
    n = g.vertex_count
    if n > COLOR_VERTEX_CAP:
        raise CapExceeded(
            f"colouring search on {n} vertices exceeds cap {COLOR_VERTEX_CAP}"
        )
    if n == 0:
        return 0, ()
    adj = g.adjacency
    lower = _clique_number(adj, n)
    greedy = _greedy_coloring(adj, n)
    upper = max(greedy) + 1
    best = greedy
    count = upper
    for k in range(lower, upper):
        attempt = _try_coloring(adj, n, k)
        if attempt is not None:
            best = attempt
            count = k
            break
    for i, j in g.edges():
        if best[i] == best[j]:
            raise RuntimeError("colouring failed verification")
    if len(set(best)) != count:
        raise RuntimeError("colour count failed verification")
    return count, tuple(best)


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
