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

Partitions are stored canonically: sites sorted inside each block, blocks
sorted by their smallest site.  Text forms use block letters A, B, C, ...
for widths up to 26 (``AC|BDE``) or comma-separated indices (``0,2|1,3,4``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapExceeded, ParseError
from .pauli import OperatorSet, PauliString

# The symmetry search is factorial in the worst case; stop well before that hurts.
SYMMETRY_WIDTH_CAP = 12


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


def symmetry_group(
    sigma: OperatorSet, cap: int = SYMMETRY_WIDTH_CAP
) -> list[tuple[int, ...]]:
    """All qubit relabelings that map the operator set onto itself.

    Returned in the convention of ``pauli.permute``: entry g[i] is the new
    label of qubit i.  Backtracking over images with a multiset pruning
    test on letter-column prefixes; worst case factorial, fine at the
    widths the cap admits.  The result always contains the identity and
    is closed under composition and inverse (checked).
    """
    n = sigma.width
    if n > cap:
        raise CapExceeded(f"symmetry search on width {n} exceeds cap {cap}")
    rows = [tuple(m.letter(site) for site in range(n)) for m in sigma.members]
    count = len(rows)

    # src_profiles[d] = multiset of source-row prefixes of length d+1
    src_profiles: list[Counter] = []
    acc: list[tuple[str, ...]] = [() for _ in rows]
    for depth in range(n):
        acc = [key + (rows[m][depth],) for m, key in enumerate(acc)]
        src_profiles.append(Counter(acc))

    image = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def extend(depth: int, keys: list[tuple[str, ...]]) -> None:
        if depth == n:
            found.append(tuple(image))
            return
        want = src_profiles[depth]
        for j in range(n):
            if used[j]:
                continue
            grown = [keys[m] + (rows[m][j],) for m in range(count)]
            if Counter(grown) == want:
                used[j] = True
                image[depth] = j
                extend(depth + 1, grown)
                used[j] = False

    extend(0, [() for _ in rows])
    found.sort()

    group = set(found)
    identity = tuple(range(n))
    if identity not in group:
        raise RuntimeError("symmetry search lost the identity")
    for g in found:
        inverse = [0] * n
        for i, gi in enumerate(g):
            inverse[gi] = i
        if tuple(inverse) not in group:
            raise RuntimeError("symmetry result not closed under inverse")
        for h in found:
            composed = tuple(g[h[i]] for i in range(n))
            if composed not in group:
                raise RuntimeError("symmetry result not closed under composition")
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


def canonical_representative(
    part: Partition, group: Iterable[Sequence[int]]
) -> Partition:
    """Lexicographically smallest image of the partition under the group."""
    images = [permute_partition(part, g) for g in group]
    if not images:
        raise ValueError("symmetry group must contain at least the identity")
    return min(images)


def orbit_representatives(
    parts: Iterable[Partition], group: Iterable[Sequence[int]]
) -> list[Partition]:
    """One canonical representative per orbit of the group action, sorted."""
    group = [tuple(g) for g in group]
    if not group:
        raise ValueError("symmetry group must contain at least the identity")
    reps: set[Partition] = set()
    for part in parts:
        if part.width != len(group[0]):
            raise ValueError(
                f"partition width {part.width} does not match group width {len(group[0])}"
            )
        reps.add(canonical_representative(part, group))
    return sorted(reps)
