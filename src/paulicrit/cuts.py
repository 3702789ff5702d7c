"""Qubit partitions, commutation relative to a cut, and set symmetries.

A partition splits the qubit labels 0..width-1 into disjoint blocks.  Two
strings cut-anticommute when their restrictions anticommute on at least
one block, and cut-commute when the restrictions commute on every block.
The plain (uncut) relations are recovered by the single-block partition.

The restrictions are never built.  With the site-wise symplectic overlap
w = (p.x & q.z) ^ (p.z & q.x), the restrictions to a block anticommute
exactly when popcount(w & block_mask) is odd, so each partition carries
its block bitmasks (``Partition.masks``) and the cut test is one parity
per block.  ``is_cut_clique`` is the per-pair home of this parity rule:
``cut_anticommute`` calls it on one pair, ``cut_commute`` is the
negation of that, and the bounds certify every witness with it.  Its two
batch forms are ``graphs.cut_graphs``, which applies the rule to all
pairs at once on per-site bitmasks of the members, and
``graphs.cut_cliques``, whose walk reads it from a table of pair
overlaps.  ``pauli.restrict`` builds a restriction as an operator.  The
program builds none: the oracle reads its block actions from
``states.gather_table``.  The tests compare this rule against
``restrict``.

The symmetry group of a set is found by a stabilizer-chain search (Sims'
method), capped in search work (``SYMMETRY_WORK_BUDGET``) and refused
only on the widths whose bipartitions ``BIPARTITION_CAP`` refuses, so
every report the caps admit gets orbit pruning.  G_i, the elements fixing
sites 0..i-1, is built for i = n-2 down to 0: the orbit of site i under
the generators found so far is grown breadth-first, each point p with a
carrier t_p sending i to p, and each site j > i outside that orbit gets
one depth-first search for the first image that fixes 0..i-1 and sends i
to j.  A leaf found is a new generator; an exhausted subtree proves that
no element sends i to j.  So one search runs per coset, not per element.
``symmetry_group`` returns the chain (``SymmetryChain``): the generators
and the carriers of each level, with |G| the product of the orbit sizes.
Every generator is a leaf of the search, which maps the set onto itself,
so every element the generators compose is a symmetry too and no closure
proof is needed.  The elements are listed, as the products
t_0∘t_1∘...∘t_{n-2} of carriers, only when the chain is iterated.

The one orbit routine ``partition_orbits`` works from generators alone,
so no caller scans the whole group.  It grows one Schreier tree per orbit
over block masks: a node is a partition's mask tuple (``Partition.masks``,
masks sorted by lowest site), and a generator moves each mask through
``pauli.site_map``, one table lookup per byte.  The orbit's minimum is its
representative, and each member carries a group element mapping the
representative onto it.  Members are the given partitions, looked up by
their masks; only a member outside them is built, through the one
``Partition`` constructor, which validates every partition it makes.
Identity generators are dropped first, so the trivial group grows no tree.

Partitions are stored canonically: sites sorted inside each block, blocks
sorted by their smallest site.  The constructor checks a block at a time
on its mask and names the first fault site by site only when one is found.
Text forms use block letters A, B, C, ... for widths up to 26 (``AC|BDE``)
or comma-separated indices (``0,2|1,3,4``).
"""

from __future__ import annotations

from collections import Counter
from functools import partial, total_ordering
from itertools import combinations
from math import prod
from operator import add
from string import ascii_uppercase
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import CapExceeded, ParseError
from .pauli import OperatorSet, PauliString, _Frozen, _set, site_map

# A search node at depth d tests the n - d unused columns, each against
# every member, so it is charged members * (n - d) column tests.  Only
# listing the group (iterating the chain; reports never do) is charged
# order * members, before any element is built.  A fully symmetric set of
# width w has order w!: its search costs 9 996 tests at width 8, where
# listing 40 320 * 84 = 3 386 880 is admitted, while listing 9! * 108 =
# 39 191 040 at width 9 and 12! * 198 at width 12 trips within milliseconds.
SYMMETRY_WORK_BUDGET = 12_000_000
# A report's row count doubles per qubit.  On a 2-CPU VM, bounds on random
# sets at width 16 took 1.1 s with 10 members and 4.9-6.8 s with 128 (the
# clique cap), through the one clique walk of graphs.cut_cliques.  A set
# whose walk trips pays a clique search per row instead: 128 random
# weight-2 strings trip after 4.9 s, and their per-row route passes 15
# minutes.
BIPARTITION_CAP = 32_767
# block letters of the text form, A for site 0, up to width 26
_LETTERS = tuple(ascii_uppercase)

T = TypeVar("T")


@total_ordering
class Partition(_Frozen):
    """Disjoint cover of the qubit labels 0..width-1 by nonempty blocks.

    Equal partitions compare, hash and order by ``(width, blocks)``;
    ``masks`` and ``_hash`` are derived from them and never compared."""

    __slots__ = ("width", "blocks", "masks", "_hash")
    _fields = ("width", "blocks")
    width: int
    blocks: tuple[tuple[int, ...], ...]
    # one site bitmask per block, in block order
    masks: tuple[int, ...]
    # hash of the compared fields, taken once: reports look rows up often
    _hash: int

    def __init__(self, width: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        if width < 1:
            raise ValueError(f"width must be at least 1, got {width}")
        canon = tuple(sorted(map(tuple, map(sorted, blocks))))
        masks = []
        seen = 0
        for block in canon:
            # a sorted block in range whose mask has one bit per site and
            # none seen before is sound; any other is diagnosed site by site
            if block and block[0] >= 0 and block[-1] < width:
                mask = sum(map((1).__lshift__, block))
                if mask.bit_count() == len(block) and not mask & seen:
                    masks.append(mask)
                    seen |= mask
                    continue
            _refuse_block(block, width, seen)
        if seen != (1 << width) - 1:
            missing = [site for site in range(width) if not seen >> site & 1]
            raise ValueError(f"partition misses qubit indices {missing}")
        _set(self, "width", width)
        _set(self, "blocks", canon)
        _set(self, "masks", tuple(masks))
        _set(self, "_hash", hash((width, canon)))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    @classmethod
    def finest(cls, width: int) -> "Partition":
        """Every qubit in its own block."""
        return cls(width, tuple((i,) for i in range(width)))

    @classmethod
    def single_block(cls, width: int) -> "Partition":
        """All qubits together; cut relations degenerate to the plain ones."""
        return cls(width, (tuple(range(width)),))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        if self.width <= 26:
            return "|".join(
                ["".join([_LETTERS[i] for i in block]) for block in self.blocks]
            )
        return "|".join([",".join(map(str, block)) for block in self.blocks])


def _refuse_block(block: tuple[int, ...], width: int, seen: int) -> None:
    """Raise the fault of an unsound block: empty, or its first site, in
    order, that is out of range or in ``seen`` or earlier in the block."""
    if not block:
        raise ValueError("partition contains an empty block")
    for site in block:
        if not 0 <= site < width:
            raise ValueError(f"qubit index {site} out of range for width {width}")
        if seen >> site & 1:
            raise ValueError(f"qubit index {site} appears in two blocks")
        seen |= 1 << site


def parse_partition(text: str, width: int) -> Partition:
    """Parse ``AC|BDE`` letter syntax or ``0,2|1,3,4`` index syntax."""
    body = text.strip()
    if not body:
        raise ParseError("empty partition text")
    uses_digits = any(ch.isdigit() for ch in body)
    blocks: list[tuple[int, ...]] = []
    for chunk in body.split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty block in partition {text!r}")
        if uses_digits:
            sites = []
            for token in chunk.split(","):
                token = token.strip()
                if not token.isdecimal():
                    raise ParseError(f"bad index {token!r} in partition {text!r}")
                sites.append(int(token))
            blocks.append(tuple(sites))
        else:
            sites = []
            for ch in chunk:
                if ch.isspace():
                    continue
                idx = ord(ch.upper()) - ord("A")
                if not 0 <= idx < 26:
                    raise ParseError(f"bad letter {ch!r} in partition {text!r}")
                sites.append(idx)
            blocks.append(tuple(sites))
    try:
        return Partition(width, tuple(blocks))
    except ValueError as exc:
        raise ParseError(f"partition {text!r}: {exc}") from exc


def enumerate_bipartitions(width: int) -> list[Partition]:
    """All two-block partitions, in sorted order; 2**(width-1) - 1 of them,
    refused before any is built when that is over ``BIPARTITION_CAP``."""
    if width < 2:
        raise ValueError("bipartitions need at least 2 qubits")
    excess = _bipartition_excess(width)
    if excess:
        raise CapExceeded(excess)
    sites = frozenset(range(width))
    # Qubit 0 always stays in the first block, killing the mirror double count.
    splits = [
        (tuple(sorted(sites.difference(second))), second)
        for size in range(1, width)
        for second in combinations(range(1, width), size)
    ]
    splits.sort()  # canonical block tuples sort as their partitions do
    return [Partition(width, split) for split in splits]


def _bipartition_excess(width: int) -> str | None:
    """Why ``BIPARTITION_CAP`` refuses the 2**(width-1) - 1 bipartitions
    of a width, or None when it admits them; read at call time."""
    count = (1 << (width - 1)) - 1
    if count <= BIPARTITION_CAP:
        return None
    try:
        shown = str(count)
    except ValueError:  # more digits than int-to-str conversion allows
        shown = f"2**{width - 1} - 1"
    return f"{shown} bipartitions of width {width} exceed cap {BIPARTITION_CAP}"


def check_partition_width(part: Partition, width: int) -> None:
    """Raise ``ValueError`` unless the partition is ``width`` qubits wide."""
    if part.width != width:
        raise ValueError(
            f"partition width {part.width} does not match operator width {width}"
        )


def is_cut_clique(members: Sequence[PauliString], part: Partition) -> bool:
    """True when the members pairwise cut-commute.  Checked pair by pair on
    the members' bits by the parity rule above; a pair with no symplectic
    overlap passes at once.  Every printed witness passes this test."""
    for m in members:
        check_partition_width(part, m.width)
    masks = part.masks
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            w = (a.x_bits & b.z_bits) ^ (a.z_bits & b.x_bits)
            if w:
                for mask in masks:
                    if (w & mask).bit_count() & 1:
                        return False
    return True


def cut_anticommute(p: PauliString, q: PauliString, part: Partition) -> bool:
    """True when the restrictions anticommute on at least one block."""
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    return not is_cut_clique((p, q), part)


def cut_commute(p: PauliString, q: PauliString, part: Partition) -> bool:
    """True when the restrictions commute on every block."""
    return not cut_anticommute(p, q, part)


def _first_image(
    image: list[int],
    keys: list[int],
    columns: list[list[int]],
    profiles: list[dict[int, int]],
    choices: Iterable[int],
    work: int,
) -> int:
    """Depth-first search for the first full image extending ``image``.

    The site after ``image`` tries the columns in ``choices``; deeper
    sites try every unused column.  ``keys`` holds each member's
    image-column prefix as a base-4 integer.  A site may take image j
    only when the prefixes grown by column j have the same multiset as
    the source prefixes of that length.  On success ``image`` is left
    full; otherwise it is restored.  Returns the column tests charged so
    far, members times unused columns per node; raises ``CapExceeded``
    past ``SYMMETRY_WORK_BUDGET``.
    """
    n = len(columns)
    depth = len(image)
    work = _charge(work, len(keys) * (n - depth), n)
    if depth == n:
        return work
    want = profiles[depth]
    shifted = [key << 2 for key in keys]
    for j in choices:
        if j in image:
            continue
        grown = list(map(add, shifted, columns[j]))
        # dict equality runs in C; Counter.__eq__ is Python code (3.11) and
        # was most of the search.  Neither side holds a zero count.
        if dict.__eq__(Counter(grown), want):
            image.append(j)
            work = _first_image(image, grown, columns, profiles, range(n), work)
            if len(image) == n:
                return work
            image.pop()
    return work


def _charge(work: int, cost: int, width: int) -> int:
    work += cost
    if work > SYMMETRY_WORK_BUDGET:
        raise CapExceeded(
            f"symmetry search on width {width} exceeds work budget "
            f"{SYMMETRY_WORK_BUDGET} member-column tests"
        )
    return work


class SymmetryChain(_Frozen):
    """Stabilizer chain of a set's qubit symmetries, from ``symmetry_group``.

    ``transversals`` holds the carriers of sites n-2 down to 0.  ``len()``
    is the group order.  Iterating lists the elements in sorted order; the
    listing is charged order * ``member_count`` column tests, and must hold
    exactly order distinct elements and the identity (both checked).
    """

    __slots__ = _fields = ("width", "generators", "transversals", "member_count")
    width: int
    generators: tuple[tuple[int, ...], ...]
    transversals: tuple[tuple[tuple[int, ...], ...], ...]
    member_count: int

    def __len__(self) -> int:
        return prod(len(carriers) for carriers in self.transversals)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        order = len(self)
        _charge(0, order * self.member_count, self.width)
        identity = tuple(range(self.width))
        found = [identity]
        # levels n-2 down to 0, so each product is t_0∘t_1∘...∘t_{n-2}
        for carriers in self.transversals:
            found = [tuple(map(t.__getitem__, h)) for t in carriers for h in found]
        if len(set(found)) != order:
            raise RuntimeError("symmetry listing does not match the group order")
        found.sort()
        if found[:1] != [identity]:  # the identity sorts first
            raise RuntimeError("symmetry search lost the identity")
        return iter(found)


def symmetry_group(sigma: OperatorSet) -> SymmetryChain:
    """The qubit relabelings that map the operator set onto itself.

    Elements follow the convention of ``pauli.permute``: entry g[i] is the
    new label of qubit i.  A stabilizer chain (see the module docstring)
    finds one element per coset: at each level, a first-leaf search over
    images, with a multiset pruning test on letter-column prefixes, for
    each site not yet in the orbit.  Worst case factorial, so the search's
    work is capped (``SYMMETRY_WORK_BUDGET``).  The width is refused, before
    any prefix key is built, exactly where ``BIPARTITION_CAP`` refuses the
    width's bipartitions: no report needs the group of a wider set.
    """
    n = sigma.width
    excess = _bipartition_excess(n)
    if excess:
        raise CapExceeded(f"symmetry search on width {n}: {excess}")
    columns = [
        [(m.x_bits >> site & 1) | (m.z_bits >> site & 1) << 1 for m in sigma.members]
        for site in range(n)
    ]
    # prefixes[d] = source-row prefixes of length d, as base-4 integers;
    # profiles[d] = their multiset at length d+1
    prefixes = [[0] * len(sigma.members)]
    for column in columns:
        prefixes.append([key * 4 + code for key, code in zip(prefixes[-1], column)])
    profiles = [dict(Counter(keys)) for keys in prefixes[1:]]

    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    transversals: list[tuple[tuple[int, ...], ...]] = []
    work = 0
    for i in range(n - 2, -1, -1):
        # every generator found so far fixes 0..i-1, so it lies in G_i
        orbit = _schreier_tree(i, [(g, g.__getitem__) for g in gens], identity)
        for j in range(i + 1, n):
            if j in orbit:
                continue
            image = list(range(i))
            work = _first_image(image, prefixes[i], columns, profiles, (j,), work)
            if len(image) == n:
                gens.append(tuple(image))
                orbit = _schreier_tree(i, [(g, g.__getitem__) for g in gens], identity)
        transversals.append(tuple(orbit.values()))
    return SymmetryChain(n, tuple(gens), tuple(transversals), len(sigma.members))


def _schreier_tree(
    root: T,
    moves: list[tuple[tuple[int, ...], Callable[[T], T]]],
    identity: tuple[int, ...],
) -> dict[T, tuple[int, ...]]:
    """Orbit of ``root`` under the generators, each image with an element
    g that carries root to it.  ``moves`` pairs each generator s with its
    action x -> x·s, which must compose as the relabelings do: moving x
    by g and then by s equals moving it by s∘g."""
    tree = {root: identity}
    queue = [root]
    for node in queue:  # the queue grows while it is read: breadth first
        g = tree[node]
        for s, act in moves:
            child = act(node)
            if child not in tree:
                tree[child] = tuple(map(s.__getitem__, g))
                queue.append(child)
    return tree


def move_masks(
    move: Callable[[int], int], masks: tuple[int, ...]
) -> tuple[int, ...]:
    """A canonical block-mask tuple (``Partition.masks``, sorted by lowest
    site) moved by a ``site_map``, sorted into canonical order again."""
    return tuple(sorted(map(move, masks), key=_lowest_bit))


def _block_action(
    perm: tuple[int, ...],
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The relabeling's action on canonical block-mask tuples."""
    return partial(move_masks, site_map(perm, len(perm)))


def _lowest_bit(mask: int) -> int:
    return mask & -mask


def partition_orbits(
    parts: Iterable[Partition], gens: Iterable[Sequence[int]]
) -> dict[Partition, tuple[Partition, tuple[int, ...]]]:
    """Orbit representative and carrying element for every partition.

    Maps each given partition, and every other member of its orbit under
    the group that ``gens`` generate, to (rep, g): rep is the
    lexicographically smallest partition of the orbit and g a group element
    carrying rep onto the partition, each block {i, j, ...} of rep onto the
    block {g[i], g[j], ...}.  One Schreier tree per orbit over the
    generators (a list of all elements also serves), grown on block masks:
    a search from the first partition met finds the orbit and its minimum,
    and unless that partition is the minimum, a second rooted there gives
    each member its element (the root gets the identity).  Members come
    from ``parts`` by their masks; only a member outside ``parts`` is
    built.  Identities are dropped, and without other generators every
    partition is its own orbit.
    """
    gens = [tuple(g) for g in gens]
    widths = {len(g) for g in gens}
    parts = list(parts)
    for part in parts:
        if widths - {part.width}:
            raise ValueError(
                f"partition width {part.width} does not match generator "
                f"widths {sorted(widths)}"
            )
    moves = [(g, _block_action(g)) for g in gens if g != tuple(range(len(g)))]
    if not moves:
        return {part: (part, tuple(range(part.width))) for part in parts}
    width = len(moves[0][0])
    identity = tuple(range(width))
    given = {part.masks: part for part in parts}
    out: dict[Partition, tuple[Partition, tuple[int, ...]]] = {}
    for part in parts:
        if part in out:
            continue
        tree = _schreier_tree(part.masks, moves, identity)
        members = {
            key: given[key] if key in given else _from_masks(width, key)
            for key in tree
        }
        rep = min(members.values())
        if rep.masks != part.masks:
            tree = _schreier_tree(rep.masks, moves, identity)
        for key, g in tree.items():
            out[members[key]] = (rep, g)
    return out


def _from_masks(width: int, masks: tuple[int, ...]) -> Partition:
    return Partition(
        width,
        tuple(tuple(i for i in range(width) if mask >> i & 1) for mask in masks),
    )


def orbit_representatives(
    parts: Iterable[Partition], gens: Iterable[Sequence[int]]
) -> list[Partition]:
    """One canonical representative per orbit of the group that ``gens``
    generate, sorted."""
    return sorted({rep for rep, _ in partition_orbits(parts, gens).values()})
