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

The records of the bit-level modules (``PauliString`` here, and those of
``cuts``, ``graphs`` and ``bounds``) are ``__slots__`` classes on the
private base ``_Frozen``, which gives them equality, hashing, ``repr``,
immutability and copying from a tuple of field names.  One rule: a record
that validates writes its own ``__init__`` and sets each slot through
``_set``; any other declares only ``_fields`` and ``_defaults`` and takes
the base's one ``__init__``.  No ``__init__`` is generated, and they are
not dataclasses: importing ``dataclasses`` loads ``inspect`` and ``ast``,
and each decorator runs generated code through ``exec``, which together
cost a ``bounds`` run more to start than it spends on a small set.
``states`` and ``oracle`` keep their dataclasses: they load numpy, which
takes far longer, and the tests swap a field of an ``OracleResult`` with
``dataclasses.replace``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import ParseError, check_cap

if TYPE_CHECKING:
    import numpy as np

# Dense matrices grow as 4**width; keep them to desk scale.
MATRIX_QUBIT_CAP = 6

_LETTERS = "1xzy"  # indexed by (z_bit << 1) | x_bit


_set = object.__setattr__


class _Frozen:
    """Immutable record: its ``_fields`` are its constructor parameters in
    order, and it compares, hashes, prints and pickles as the tuple of
    them, like a frozen dataclass.  A subclass declares its slots and
    ``_fields``.  One that validates sets each field once in its own
    ``__init__`` through ``_set``; any other takes this ``__init__``, which
    binds arguments to ``_fields`` as a call would, an omitted one to its
    value in ``_defaults``.  It is written once, not generated per record
    through ``exec``, which would cost every start."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _values: tuple  # the fields' values, in order

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls._fields
        if len(fields) > 1:
            cls._values = property(attrgetter(*fields))
        else:  # attrgetter of one name gives the bare value, of none fails
            cls._values = property(lambda r: tuple(getattr(r, f) for f in fields))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # the fields after the positional ones take keywords or defaults
            rest = fields[len(args) :]
            values = {**self._defaults, **kwargs}
            bound = kwargs.keys() <= set(rest) <= values.keys()
            if len(args) > len(fields) or not bound:
                raise TypeError(
                    f"{self.__class__.__qualname__}() takes {fields}, not "
                    f"{len(args)} positional arguments and keywords {sorted(kwargs)}"
                )
            args += tuple(map(values.__getitem__, rest))
        for name, value in zip(fields, args):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and unpickled records are built through the constructor
        return self.__class__, self._values


class PauliString(_Frozen):
    """One phase-free Pauli tensor product on ``width`` qubits."""

    __slots__ = _fields = ("width", "x_bits", "z_bits")
    width: int
    x_bits: int
    z_bits: int

    def __init__(self, width: int, x_bits: int, z_bits: int) -> None:
        if width < 1:
            raise ValueError(f"width must be at least 1, got {width}")
        mask = (1 << width) - 1
        if x_bits & ~mask or z_bits & ~mask:
            raise ValueError("support bits fall outside the declared width")
        _set(self, "width", width)
        _set(self, "x_bits", x_bits)
        _set(self, "z_bits", z_bits)

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


_LEGAL = "1iIxXyYzZ"
_DROP_LEGAL = str.maketrans("", "", _LEGAL)
# each letter's x bit and z bit as a binary digit
_X_DIGITS = str.maketrans(_LEGAL, "000111100")
_Z_DIGITS = str.maketrans(_LEGAL, "000001111")


def parse_pauli(text: str) -> PauliString:
    """Parse a site-letter string such as ``1xxxz``.

    Qubit 0 is the leftmost character.  Accepted letters are 1/i for the
    identity and x, y, z in either case.  Linear in the length: one
    ``str.translate`` finds the first illegal character, and each mask is
    one base-2 ``int`` of the text translated to that mask's digits and
    reversed, so qubit 0 lands on bit 0.
    """
    if not text:
        raise ParseError("empty Pauli string")
    illegal = text.translate(_DROP_LEGAL)
    if illegal:
        ch = illegal[0]
        raise ParseError(
            f"illegal character {ch!r} at position {text.index(ch)} in {text!r}"
        )
    reverse = text[::-1]
    return PauliString(
        len(text),
        int(reverse.translate(_X_DIGITS), 2),
        int(reverse.translate(_Z_DIGITS), 2),
    )


def format_pauli(p: PauliString) -> str:
    """Canonical lowercase text form, qubit 0 first, in time linear in the
    width.  Each mask's binary digits, read as octal, put site q on octal
    digit q (from the least significant), so that digit of x + 2z is the
    ``_LETTERS`` index of the site's letter."""
    x = int(format(p.x_bits, "b"), 8)
    z = int(format(p.z_bits, "b"), 8)
    digits = format(x + 2 * z, f"0{p.width}o")[::-1]
    return digits.translate(str.maketrans("0123", _LETTERS))


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


def site_map(perm: Sequence[int], width: int) -> Callable[[int], int]:
    """The map a qubit relabeling induces on site bitmasks below 2**width:
    bit i moves to bit perm[i].  ``perm`` is checked once, here.

    Each site's image bit is grown into one table per byte of the mask,
    so a mask moves by one lookup per byte.  ``permute`` moves strings
    and ``cuts.partition_orbits`` moves partition blocks through it.
    """
    if sorted(perm) != list(range(width)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 0..{width - 1}")
    tables = []
    for low in range(0, width, 8):
        table = [0]
        for site in range(low, min(low + 8, width)):
            bit = 1 << perm[site]
            table += [image | bit for image in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def move(mask: int) -> int:
        image = 0
        for table in tables:
            image |= table[mask & 0xFF]
            mask >>= 8
        return image

    return move


def permute(p: PauliString, perm: Sequence[int]) -> PauliString:
    """Relabel qubits: the letter at site i moves to site perm[i]."""
    move = site_map(perm, p.width)
    return PauliString(p.width, move(p.x_bits), move(p.z_bits))


def to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2**width complex matrix, up to ``MATRIX_QUBIT_CAP`` qubits.

    numpy is imported here, its one use in this module, so that parsing
    and the bit-level modules built on this one never load it."""
    import numpy as np

    check_cap(p.width, MATRIX_QUBIT_CAP, f"dense matrix for width {p.width}")
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

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, idx: int) -> PauliString:
        return self.members[idx]

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
