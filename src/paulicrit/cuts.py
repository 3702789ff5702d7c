"""Qubit partitions, commutation relative to a cut, and set symmetries.

A partition splits the qubit labels 0..width-1 into disjoint blocks.  Two
strings cut-anticommute when their restrictions anticommute on at least
one block, and cut-commute when the restrictions commute on every block.
The plain (uncut) relations are recovered by the single-block partition.

The restrictions are never built.  With the site-wise symplectic overlap
w = (p.x & q.z) ^ (p.z & q.x), the restrictions to a block anticommute
exactly when popcount(w & block_mask) is odd, so each partition carries
its block bitmasks (``Partition.masks``) and the cut test is one parity
per block.  ``pauli.restrict`` is now only the definition the tests
compare this rule against.

The symmetry group of a set is found by backtracking over site images,
capped in width and in search work.  Its group property is proved from
generators rather than by composing every pair (``_generators``): walking
the elements in sorted order, an element joins the generators when the
closure of the earlier ones misses it, and that closure grows
breadth-first with every product required to lie in the set.  This costs
|G|·|gens| compositions with |gens| <= log2 |G|.  In a finite set,
closure under composition implies closure under inverse, so no inverse
check is needed.  The proof runs once per use, inside the one orbit
routine ``partition_orbits``: it builds one Schreier tree per orbit over
the generators, the orbit's minimum is its representative, and each
member carries a group element mapping the representative onto it, so no
caller scans the whole group.

Partitions are stored canonically: sites sorted inside each block, blocks
sorted by their smallest site.  Text forms use block letters A, B, C, ...
for widths up to 26 (``AC|BDE``) or comma-separated indices (``0,2|1,3,4``).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter
from typing import Iterable, Sequence

from .errors import CapExceeded, ParseError
from .pauli import OperatorSet, PauliString

# The symmetry search is factorial in the worst case; stop well before that hurts.
SYMMETRY_WIDTH_CAP = 12
# A search node at depth d tests the n - d unused columns, each against
# every member, so it is charged members * (n - d) column tests.  A fully
# symmetric set of width w with m members costs m * sum_k w!/(w-k)! tests:
# 9 206 400 at width 8 (84 members), 106 532 172 at width 9.  The budget
# admits width 8, and every larger input trips after the same work.
SYMMETRY_WORK_BUDGET = 12_000_000


@dataclass(frozen=True, order=True)
class Partition:
    """Disjoint cover of the qubit labels 0..width-1 by nonempty blocks."""

    width: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be at least 1, got {self.width}")
        canon = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        object.__setattr__(self, "blocks", canon)
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("partition contains an empty block")
            for site in block:
                if not 0 <= site < self.width:
                    raise ValueError(
                        f"qubit index {site} out of range for width {self.width}"
                    )
                if site in seen:
                    raise ValueError(f"qubit index {site} appears in two blocks")
                seen.add(site)
        if len(seen) != self.width:
            missing = sorted(set(range(self.width)) - seen)
            raise ValueError(f"partition misses qubit indices {missing}")

    @classmethod
    def finest(cls, width: int) -> "Partition":
        """Every qubit in its own block."""
        return cls(width, tuple((i,) for i in range(width)))

    @classmethod
    def single_block(cls, width: int) -> "Partition":
        """All qubits together; cut relations degenerate to the plain ones."""
        return cls(width, (tuple(range(width)),))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """One site bitmask per block, in block order."""
        return tuple(sum(1 << site for site in block) for block in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def is_trivial(self) -> bool:
        return self.block_count == 1

    def __str__(self) -> str:
        if self.width <= 26:
            return "|".join(
                "".join(chr(ord("A") + i) for i in block) for block in self.blocks
            )
        return "|".join(",".join(str(i) for i in block) for block in self.blocks)


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
                if not token.isdigit():
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
    """All two-block partitions, in sorted order; 2**(width-1) - 1 of them."""
    if width < 2:
        raise ValueError("bipartitions need at least 2 qubits")
    parts: list[Partition] = []
    for mask in range(1, 1 << (width - 1)):
        # Qubit 0 always stays in the first block, killing the mirror double count.
        second = tuple(i for i in range(1, width) if (mask >> (i - 1)) & 1)
        first = tuple(i for i in range(width) if i not in second)
        parts.append(Partition(width, (first, second)))
    parts.sort()
    return parts


def _check_pair(p: PauliString, q: PauliString, part: Partition) -> None:
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    if p.width != part.width:
        raise ValueError(
            f"partition width {part.width} does not match operators of width {p.width}"
        )


def cut_anticommute(p: PauliString, q: PauliString, part: Partition) -> bool:
    """True when the restrictions anticommute on at least one block."""
    _check_pair(p, q, part)
    w = (p.x_bits & q.z_bits) ^ (p.z_bits & q.x_bits)
    return any((w & mask).bit_count() & 1 for mask in part.masks)


def cut_commute(p: PauliString, q: PauliString, part: Partition) -> bool:
    """True when the restrictions commute on every block."""
    _check_pair(p, q, part)
    return not cut_anticommute(p, q, part)


def _extend_images(
    image: list[int],
    keys: list[int],
    columns: list[list[int]],
    profiles: list[dict[int, int]],
    found: list[tuple[int, ...]],
    work: int,
) -> int:
    """Depth-first search for the images of the sites after ``image``.

    ``keys`` holds each member's image-column prefix as a base-4 integer.
    A site may take image j only when the prefixes grown by column j have
    the same multiset as the source prefixes of that length.  Returns the
    column tests charged so far, members times unused columns per node;
    raises ``CapExceeded`` past ``SYMMETRY_WORK_BUDGET``.
    """
    depth = len(image)
    work += len(keys) * (len(columns) - depth)
    if work > SYMMETRY_WORK_BUDGET:
        raise CapExceeded(
            f"symmetry search on width {len(columns)} exceeds work budget "
            f"{SYMMETRY_WORK_BUDGET} member-column tests"
        )
    if depth == len(columns):
        found.append(tuple(image))
        return work
    want = profiles[depth]
    shifted = [key << 2 for key in keys]
    for j, column in enumerate(columns):
        if j in image:
            continue
        grown = list(map(add, shifted, column))
        # dict equality runs in C; Counter.__eq__ is Python code (3.11) and
        # was most of the search.  Neither side holds a zero count.
        if dict.__eq__(Counter(grown), want):
            image.append(j)
            work = _extend_images(image, grown, columns, profiles, found, work)
            image.pop()
    return work


def _generators(group: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Generators of a permutation set, proving that it is a group.

    Elements are walked in sorted order; one joins the generators when the
    closure of the earlier generators does not contain it.  The closure
    grows breadth-first under right multiplication by the generators, and
    every product must lie in the set, else ``RuntimeError``.  Once the
    walk ends the closure is the whole set, so the set is the group the
    generators generate.  Each element meets each generator once, so the
    proof costs |G|·|gens| compositions, and |gens| <= log2 |G| because
    every new generator at least doubles the closure.
    """
    members = set(group)
    identity = tuple(range(len(group[0])))
    if identity not in members:
        raise ValueError("symmetry group must contain the identity")
    closure = {identity}
    gens: list[tuple[int, ...]] = []
    steps: list[itemgetter] = []
    for g in sorted(members):
        if g in closure:
            continue
        gens.append(g)
        steps.append(itemgetter(*g))
        every = tuple(steps)
        # elements already in the closure still lack the new generator
        queue = deque((e, every[-1:]) for e in closure)
        while queue:
            e, apply = queue.popleft()
            for step in apply:
                product = step(e)  # e composed with a generator: e[g[i]]
                if product not in members:
                    raise RuntimeError(
                        "symmetry result not closed under composition"
                    )
                if product not in closure:
                    closure.add(product)
                    queue.append((product, every))
    return gens


def symmetry_group(sigma: OperatorSet) -> list[tuple[int, ...]]:
    """All qubit relabelings that map the operator set onto itself, sorted.

    Returned in the convention of ``pauli.permute``: entry g[i] is the new
    label of qubit i.  Backtracking over images with a multiset pruning
    test on letter-column prefixes; worst case factorial, so the width is
    capped (``SYMMETRY_WIDTH_CAP``) and so is the search work
    (``SYMMETRY_WORK_BUDGET``).  The result always contains the identity
    (checked).  Its closure is proved where it is used:
    ``partition_orbits`` runs ``_generators`` on it.
    """
    n = sigma.width
    if n > SYMMETRY_WIDTH_CAP:
        raise CapExceeded(
            f"symmetry search on width {n} exceeds cap {SYMMETRY_WIDTH_CAP}"
        )
    columns = [
        [(m.x_bits >> site & 1) | (m.z_bits >> site & 1) << 1 for m in sigma.members]
        for site in range(n)
    ]
    # profiles[d] = multiset of source-row prefixes of length d+1
    profiles: list[dict[int, int]] = []
    keys = [0] * len(sigma.members)
    for column in columns:
        keys = [key * 4 + code for key, code in zip(keys, column)]
        profiles.append(dict(Counter(keys)))

    found: list[tuple[int, ...]] = []
    _extend_images([], [0] * len(sigma.members), columns, profiles, found, 0)
    found.sort()
    if found[:1] != [tuple(range(n))]:  # the identity sorts first
        raise RuntimeError("symmetry search lost the identity")
    return found


def permute_partition(part: Partition, perm: Sequence[int]) -> Partition:
    """Apply a qubit relabeling to every block."""
    if len(perm) != part.width:
        raise ValueError(
            f"permutation length {len(perm)} does not match width {part.width}"
        )
    return Partition(
        part.width, tuple(tuple(perm[i] for i in block) for block in part.blocks)
    )


def _schreier_tree(
    root: Partition, gens: list[tuple[int, ...]]
) -> dict[Partition, tuple[int, ...]]:
    """Orbit of ``root`` under the generators, each image with an element
    g such that permute_partition(root, g) is that image."""
    tree = {root: tuple(range(root.width))}
    queue = [root]
    for node in queue:  # the queue grows while it is read: breadth first
        g = tree[node]
        for s in gens:
            child = permute_partition(node, s)
            if child not in tree:
                tree[child] = tuple(s[i] for i in g)
                queue.append(child)
    return tree


def partition_orbits(
    parts: Iterable[Partition], group: Iterable[Sequence[int]]
) -> dict[Partition, tuple[Partition, tuple[int, ...]]]:
    """Orbit representative and carrying element for every partition.

    Maps each given partition, and every other member of its orbit, to
    (rep, g): rep is the lexicographically smallest partition of the orbit
    and g a group element with permute_partition(rep, g) == partition.
    One Schreier tree per orbit over the group's generators: a search from
    the first partition met finds the orbit and its minimum, and a second
    search rooted at the minimum gives each member its element (the root
    gets the identity).  Costs 2·|orbit|·|gens| images per orbit.
    """
    group = [tuple(g) for g in group]
    if not group:
        raise ValueError("symmetry group must contain at least the identity")
    n = len(group[0])
    for g in group:
        if sorted(g) != list(range(n)):
            raise ValueError(f"{g} is not a permutation of 0..{n - 1}")
    gens = _generators(group)
    out: dict[Partition, tuple[Partition, tuple[int, ...]]] = {}
    for part in parts:
        if part.width != n:
            raise ValueError(
                f"partition width {part.width} does not match group width {n}"
            )
        if part in out:
            continue
        rep = min(_schreier_tree(part, gens))
        for image, g in _schreier_tree(rep, gens).items():
            out[image] = (rep, g)
    return out


def orbit_representatives(
    parts: Iterable[Partition], group: Iterable[Sequence[int]]
) -> list[Partition]:
    """One canonical representative per orbit of the group action, sorted."""
    return sorted({rep for rep, _ in partition_orbits(parts, group).values()})
