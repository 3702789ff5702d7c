"""Phase-free N-qubit Pauli strings with a bit-pair site encoding.

A Pauli string is a tensor product of single-site operators drawn from
{1, x, y, z}, written left to right with qubit 0 first.  Site letters are
stored in two bitmasks: bit i of ``x_bits`` is set when site i carries x
or y, and bit i of ``z_bits`` when it carries z or y.  The representation
is phase-free by design: strings are compared and tested for commutation
but never multiplied, so the i-phases of a full Pauli-group algebra are
unrepresentable on purpose.

Two strings anticommute exactly when the symplectic overlap parity
popcount(p.x & q.z) + popcount(p.z & q.x) is odd; everything downstream
(cut relations, graphs, bounds) reduces to this test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import CapExceeded, ParseError

if TYPE_CHECKING:
    import numpy as np

# Dense matrices grow as 4**width; keep them to desk scale.
MATRIX_QUBIT_CAP = 6

_LETTERS = "1xzy"  # indexed by (z_bit << 1) | x_bit


@dataclass(frozen=True)
class PauliString:
    """One phase-free Pauli tensor product on ``width`` qubits."""

    width: int
    x_bits: int
    z_bits: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be at least 1, got {self.width}")
        mask = (1 << self.width) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("support bits fall outside the declared width")

    def letter(self, site: int) -> str:
        """Site letter at qubit index ``site``, one of '1xyz'."""
        if not 0 <= site < self.width:
            raise ValueError(f"site {site} out of range for width {self.width}")
        x = (self.x_bits >> site) & 1
        z = (self.z_bits >> site) & 1
        return _LETTERS[(z << 1) | x]

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def __str__(self) -> str:
        return format_pauli(self)


def parse_pauli(text: str) -> PauliString:
    """Parse a site-letter string such as ``1xxxz``.

    Qubit 0 is the leftmost character.  Accepted letters are 1/i for the
    identity and x, y, z in either case.
    """
    if not text:
        raise ParseError("empty Pauli string")
    x_bits = 0
    z_bits = 0
    for pos, ch in enumerate(text):
        low = ch.lower()
        if low in ("1", "i"):
            continue
        if low == "x":
            x_bits |= 1 << pos
        elif low == "y":
            x_bits |= 1 << pos
            z_bits |= 1 << pos
        elif low == "z":
            z_bits |= 1 << pos
        else:
            raise ParseError(
                f"illegal character {ch!r} at position {pos} in {text!r}"
            )
    return PauliString(len(text), x_bits, z_bits)


def format_pauli(p: PauliString) -> str:
    """Canonical lowercase text form, qubit 0 first."""
    return "".join(p.letter(site) for site in range(p.width))


def weight(p: PauliString) -> int:
    """Number of non-identity sites."""
    return (p.x_bits | p.z_bits).bit_count()


def restrict(p: PauliString, block: Iterable[int]) -> PauliString:
    """Restriction of ``p`` to a qubit subset, sites kept in qubit order."""
    sites = sorted(set(block))
    if not sites:
        raise ValueError("cannot restrict to an empty qubit block")
    if sites[0] < 0 or sites[-1] >= p.width:
        raise ValueError(f"block {sites} out of range for width {p.width}")
    x_bits = 0
    z_bits = 0
    for new, old in enumerate(sites):
        x_bits |= ((p.x_bits >> old) & 1) << new
        z_bits |= ((p.z_bits >> old) & 1) << new
    return PauliString(len(sites), x_bits, z_bits)


def anticommutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic test: odd overlap parity means the strings anticommute."""
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    overlap = (p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()
    return overlap % 2 == 1


def permute(p: PauliString, perm: Sequence[int]) -> PauliString:
    """Relabel qubits: the letter at site i moves to site perm[i]."""
    if sorted(perm) != list(range(p.width)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 0..{p.width - 1}")
    x_bits = 0
    z_bits = 0
    for old in range(p.width):
        x_bits |= ((p.x_bits >> old) & 1) << perm[old]
        z_bits |= ((p.z_bits >> old) & 1) << perm[old]
    return PauliString(p.width, x_bits, z_bits)


def to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2**width complex matrix, up to ``MATRIX_QUBIT_CAP`` qubits.

    numpy is imported here, its one use in this module, so that parsing
    and the bit-level modules built on this one never load it."""
    import numpy as np

    if p.width > MATRIX_QUBIT_CAP:
        raise CapExceeded(
            f"dense matrix for width {p.width} exceeds cap {MATRIX_QUBIT_CAP}"
        )
    site_matrices = {
        "1": np.eye(2, dtype=complex),
        "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    }
    out = np.array([[1.0 + 0.0j]])
    for site in range(p.width):
        out = np.kron(out, site_matrices[p.letter(site)])
    return out


class OperatorSet:
    """Ordered, duplicate-free collection of same-width Pauli strings.

    This is the operator list sigma whose squared expectations are summed
    into the criterion value.  The all-identity string is rejected: its
    expectation is constant and would shift every bound trivially.
    """

    __slots__ = ("width", "members", "_texts")

    def __init__(self, members: Iterable[PauliString]):
        width: int | None = None
        kept: list[PauliString] = []
        seen: set[PauliString] = set()
        for m in members:
            if width is None:
                width = m.width
            elif m.width != width:
                raise ValueError(
                    f"width mismatch in operator set: {m.width} vs {width}"
                )
            if m.is_identity:
                raise ValueError("the all-identity string cannot be a member")
            if m not in seen:
                seen.add(m)
                kept.append(m)
        if width is None:
            raise ValueError("an operator set needs at least one member")
        self.width: int = width
        self.members: tuple[PauliString, ...] = tuple(kept)
        self._texts: tuple[str, ...] = tuple(format_pauli(m) for m in kept)

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "OperatorSet":
        return cls(parse_pauli(t) for t in texts)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "OperatorSet":
        """Parse the file format: one string per line, '#' comments, blanks skipped."""
        members: list[PauliString] = []
        for num, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                members.append(parse_pauli(line))
            except ParseError as exc:
                raise ParseError(f"line {num}: {exc}") from exc
        if not members:
            raise ParseError("no operators found in input")
        try:
            return cls(members)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "OperatorSet":
        with open(path, encoding="utf-8") as handle:
            return cls.from_lines(handle)

    def texts(self) -> tuple[str, ...]:
        return self._texts

    def index(self, p: PauliString) -> int:
        return self.members.index(p)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, idx: int) -> PauliString:
        return self.members[idx]

    def __contains__(self, p: object) -> bool:
        return p in self.members

    def __repr__(self) -> str:
        return f"OperatorSet({list(self.texts())!r})"


def cp_expand(pattern: PauliString) -> OperatorSet:
    """Closure of a pattern under cyclic qubit rotation.

    Duplicates collapse, so the result has between 1 and ``width`` members
    and is independent of the rotation direction.
    """
    n = pattern.width
    mask = (1 << n) - 1
    members: list[PauliString] = []
    x, z = pattern.x_bits, pattern.z_bits
    for _ in range(n):
        members.append(PauliString(n, x, z))
        if n > 1:
            x = ((x << 1) | (x >> (n - 1))) & mask
            z = ((z << 1) | (z >> (n - 1))) & mask
    return OperatorSet(members)
