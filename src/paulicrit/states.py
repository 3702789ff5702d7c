"""Dense quantum states and bitwise Pauli expectations.

States are either pure (amplitude vector) or mixed (density matrix) on
``width`` qubits.  Qubit 0 is the most significant bit of the basis
index, matching the leftmost-letter convention of the Pauli text form:
basis index b encodes the bitstring of qubit values read left to right.

Expectations never build operator matrices.  A Pauli string acts on a
basis state as P|b> = i**y * (-1)**popcount(b & zmask) |b ^ xmask>, with
masks translated from qubit order to index order, so tr(rho P) is a
single fancy-indexed sum.  ``gather_table`` lays out these actions for a
whole member list on a block at once, and every Pauli action on
amplitudes comes from it: the oracle's block actions, the projections of
``common_eigenstate``, and one trace routine, ``_traces``, which gives
both ``expectation`` and ``evaluate_q`` their values of tr(rho s).

``common_eigenstate`` and ``anticommuting_unit_combination`` take their
operators through one family check, ``_family``, which refuses an empty
family, mixed widths, and a pair outside the wanted relation.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cuts import Partition
from .errors import check_cap
from .pauli import (
    OperatorSet,
    PauliString,
    anticommutes,
    format_pauli,
    parse_pauli,
    to_matrix,
)

PURE_QUBIT_CAP = 12
MIXED_QUBIT_CAP = 8
EIGENSTATE_QUBIT_CAP = 10

_NORM_TOL = 1e-10
# a density matrix may have eigenvalues this far below zero from rounding
_POSITIVITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure state vector or a density operator."""

    width: int
    kind: str  # "pure" or "mixed"
    data: np.ndarray

    @classmethod
    def pure(cls, amplitudes) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        dim = vec.shape[0]
        width = dim.bit_length() - 1
        if dim < 2 or dim != 1 << width:
            raise ValueError(f"amplitude count {dim} is not a power of two >= 2")
        if not np.isfinite(vec).all():
            raise ValueError("state vector has a non-finite amplitude")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state vector norm {norm} is not 1")
        vec = vec.copy()
        vec.flags.writeable = False
        return cls(width, "pure", vec)

    @classmethod
    def mixed(cls, matrix) -> "QuantumState":
        rho = np.asarray(matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        dim = rho.shape[0]
        width = dim.bit_length() - 1
        if dim < 2 or dim != 1 << width:
            raise ValueError(f"dimension {dim} is not a power of two >= 2")
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has a non-finite entry")
        if np.max(np.abs(rho - rho.conj().T)) > _NORM_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > _NORM_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1")
        low = float(np.linalg.eigvalsh(rho)[0])
        if low < -_POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low}")
        rho = rho.copy()
        rho.flags.writeable = False
        return cls(width, "mixed", rho)

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    def density(self) -> np.ndarray:
        """Density matrix form, regardless of kind."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data.copy()


def gather_table(
    members: Sequence[PauliString], block: Iterable[int], amplitudes: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray | None]]:
    """The members' actions on a block as one gather table: member k
    restricted to the block, s_k, sends basis state |b> of the block's
    2^|block| amplitudes (its sites in qubit order) to
    phases[k, b] |perms[k, b]>, so phases[k, b] == S_k[perms[k, b], b] for
    the matrix S_k of s_k.  On a one-qubit block, letters[k] is member
    k's letter one-hot over (x, y, z), a zero row for the identity; on
    wider blocks letters is None.

    Yields (start, perms, phases, letters) for consecutive chunks of
    max(1, amplitudes >> |block|) members from members[start], so no
    chunk's temporary holds more than max(amplitudes, 2^|block|) entries.
    The table is built from the members' bits (members at most 63 qubits
    wide) by whole-array integer ops over all of the block's sites at
    once; the index and sign tables of each block size are built once
    and cached read-only (``_block_tables``)."""
    sites = sorted(set(block))
    size = len(sites)
    idx, signs, places = _block_tables(size)
    # qubit sites[j] is index bit places[j] = size - 1 - j of the block
    shifts = np.array(sites, dtype=np.int64)
    x = np.array([m.x_bits for m in members], dtype=np.int64)[:, None] >> shifts & 1
    z = np.array([m.z_bits for m in members], dtype=np.int64)[:, None] >> shifts & 1
    xmasks = (x << places).sum(axis=1)
    zmasks = (z << places).sum(axis=1)
    y_count = (x & z).sum(axis=1)
    units = _UNITS[y_count % 4]
    letters = None
    if size == 1:
        # x and z are the one site's bits: (1, 0) for x, (1, 1) for y,
        # (0, 1) for z
        x, z = x[:, 0], z[:, 0]
        letters = np.zeros((len(members), 3))
        hot = np.flatnonzero(x | z)
        letters[hot, (2 * z - y_count)[hot]] = 1.0
    step = max(1, amplitudes >> size)
    for start in range(0, len(members), step):
        stop = start + step
        yield (
            start,
            idx ^ xmasks[start:stop, None],
            units[start:stop, None] * signs[idx & zmasks[start:stop, None]],
            None if letters is None else letters[start:stop],
        )


# i**k for k = 0..3: a member's phases carry i**y for its y count y
_UNITS = np.array([1.0j**k for k in range(4)])
_UNITS.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _block_tables(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of a block of ``size`` qubits: ``np.arange(2**size)``,
    its signs (-1.0 at the indices with an odd number of set bits, 1.0 at
    the others) and the index bit of each site, size - 1 down to 0.  One
    entry per block size: the callers' qubit caps keep sizes to at most
    ``PURE_QUBIT_CAP``, whose tables take 64 KB."""
    odd = np.zeros(1, dtype=bool)
    for _ in range(size):
        odd = np.concatenate([odd, ~odd])
    tables = (
        np.arange(1 << size),
        np.where(odd, -1.0, 1.0),
        np.arange(size - 1, -1, -1, dtype=np.int64),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _check_expectation(state: QuantumState, width: int) -> None:
    """Refuse operators of another width than the state, then a state over
    its kind's cap: ``PURE_QUBIT_CAP`` or ``MIXED_QUBIT_CAP``."""
    if state.width != width:
        raise ValueError(
            f"state width {state.width} does not match operator width {width}"
        )
    cap = PURE_QUBIT_CAP if state.is_pure else MIXED_QUBIT_CAP
    check_cap(state.width, cap, f"expectation on width {state.width}")


def _traces(state: QuantumState, members: Sequence[PauliString]) -> Iterator[float]:
    """tr(rho s), real by Hermiticity, for each member in order, from the
    members' ``gather_table`` on all qubits with one sum per member.  A
    chunk of members holds no more amplitudes than one pure state at
    ``PURE_QUBIT_CAP``, so no temporary outgrows one expectation's at that
    cap."""
    data = state.data
    idx = _block_tables(state.width)[0]
    table = gather_table(members, range(state.width), 1 << PURE_QUBIT_CAP)
    for _, perms, phases, _ in table:
        if state.is_pure:
            terms = data * phases * np.conj(data[perms])
        else:
            terms = data[idx, perms] * phases
        yield from np.add.reduce(terms, axis=1).real.tolist()


def expectation(state: QuantumState, p: PauliString) -> float:
    """tr(rho P) on pure states up to ``PURE_QUBIT_CAP`` qubits, mixed up
    to ``MIXED_QUBIT_CAP``."""
    _check_expectation(state, p.width)
    (value,) = _traces(state, [p])
    return value


@dataclass(frozen=True, eq=False)
class QValue:
    """Criterion value: sum of squared expectations over an operator set."""

    value: float
    contributions: dict

    def to_json_obj(self) -> dict:
        return {"value": self.value, "contributions": dict(self.contributions)}


def evaluate_q(state: QuantumState, sigma: OperatorSet) -> QValue:
    """Criterion value of a state on an operator set, with per-member
    terms: the squares of each member's ``expectation``, summed in member
    order."""
    _check_expectation(state, sigma.width)
    contributions: dict[str, float] = {}
    total = 0.0
    for text, e in zip(sigma.texts(), _traces(state, sigma.members)):
        term = e * e
        contributions[text] = term
        total += term
    return QValue(total, contributions)


def named_state(name: str, width: int, detail: str | None = None) -> QuantumState:
    """Reference states: ghz, w, smolin, and computational basis states;
    a pure one wider than ``PURE_QUBIT_CAP`` is refused before allocation.
    Only ``basis`` takes a detail, its bitstring; the others refuse one."""
    name = name.lower()
    if name not in ("ghz", "w", "smolin", "basis"):
        raise ValueError(f"unknown state name {name!r}")
    if detail is not None and name != "basis":
        raise ValueError(f"{name} state takes no detail, got {detail!r}")
    if name == "smolin":
        if width != 4:
            raise ValueError("smolin is a 4 qubit state")
        # (1 + xxxx + yyyy + zzzz) / 16, the equal mixture of the four
        # (same Bell state) x (same Bell state) pairs; each entry is exactly 0 or 1/8
        terms = ("1111", "xxxx", "yyyy", "zzzz")
        return QuantumState.mixed(sum(to_matrix(parse_pauli(t)) for t in terms) / 16)
    check_cap(width, PURE_QUBIT_CAP, f"{name} state on width {width}")
    if name == "basis":
        if detail is None:
            raise ValueError("basis state needs a bitstring, e.g. basis:0101")
        bits = detail.strip()
        if len(bits) != width or any(b not in "01" for b in bits):
            raise ValueError(f"bitstring {detail!r} does not match width {width}")
    elif width < 2:
        raise ValueError(f"{name} needs at least 2 qubits")
    vec = np.zeros(1 << width, dtype=complex)
    if name == "ghz":
        vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    elif name == "w":
        for q in range(width):
            vec[1 << (width - 1 - q)] = 1.0 / np.sqrt(width)
    else:
        vec[int(bits, 2)] = 1.0
    return QuantumState.pure(vec)


def mix(states: Sequence[QuantumState], weights: Sequence[float]) -> QuantumState:
    """Convex mixture as a density operator."""
    if len(states) != len(weights) or not states:
        raise ValueError("states and weights must be equally many and nonempty")
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {sum(weights)}, not 1")
    width = states[0].width
    if any(s.width != width for s in states):
        raise ValueError("mixture members must share a width")
    rho = np.zeros((1 << width, 1 << width), dtype=complex)
    for s, w in zip(states, weights):
        rho += w * s.density()
    return QuantumState.mixed(rho)


def check_eigenstate_cap(width: int) -> None:
    """Refuse an eigenstate search on more than ``EIGENSTATE_QUBIT_CAP`` qubits."""
    check_cap(width, EIGENSTATE_QUBIT_CAP, f"eigenstate search on width {width}")


def _family(ops: Iterable[PauliString], anticommuting: bool) -> list[PauliString]:
    """The operators as a list, refused when there are none, when their
    widths differ, or when a pair is not in the wanted relation: pairwise
    anticommuting if ``anticommuting``, else pairwise commuting."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    width = ops[0].width
    if any(op.width != width for op in ops):
        raise ValueError("operators must share a width")
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if anticommutes(a, b) != anticommuting:
                relation = "commute" if anticommuting else "anticommute"
                raise ValueError(
                    f"operators {format_pauli(a)} and {format_pauli(b)} {relation}"
                )
    return ops


def common_eigenstate(ops: Iterable[PauliString]) -> QuantumState:
    """A simultaneous +-1 eigenstate of a pairwise commuting family.

    From |0...0>, each operator P keeps (1 + P)/2 of the running vector,
    or (1 - P)/2 where that annihilates it.  The two halves are orthogonal
    and sum to a unit vector, so one has norm at least 1/sqrt(2); and P
    commutes with the earlier projectors, so their +-1 relations survive.
    Each P applies from its ``gather_table`` row as (phases * v)[perms].
    """
    ops = _family(ops, anticommuting=False)
    width = ops[0].width
    check_eigenstate_cap(width)
    if any(op.is_identity for op in ops):
        raise ValueError("identity operator has no sign choice")

    vec = np.zeros(1 << width, dtype=complex)
    vec[0] = 1.0
    for _, perms, phases, _ in gather_table(ops, range(width), 1):
        moved = (phases[0] * vec)[perms[0]]
        half = 0.5 * (vec + moved)
        if np.linalg.norm(half) < 1e-6:
            half = 0.5 * (vec - moved)
        vec = half / np.linalg.norm(half)
    state = QuantumState.pure(vec)
    if not all(abs(abs(e) - 1.0) <= 1e-8 for e in _traces(state, ops)):
        raise RuntimeError("no common eigenstate found for the commuting family")
    return state


def assemble_product(part: Partition, factors: Sequence[np.ndarray]) -> QuantumState:
    """Tensor per-block unit vectors into one pure state on all qubits.

    factors[k] lives on the qubits of part.blocks[k]; axes are reordered
    so the result follows the global qubit convention.
    """
    if len(factors) != part.block_count:
        raise ValueError("one factor per block required")
    for block, f in zip(part.blocks, factors):
        if np.asarray(f).shape != (1 << len(block),):
            raise ValueError(
                f"factor of shape {np.asarray(f).shape} does not fit block {block}"
            )
    vec = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        vec = np.kron(vec, np.asarray(f, dtype=complex))
    order = [site for block in part.blocks for site in block]
    if order != list(range(part.width)):
        tensor = vec.reshape([2] * part.width)
        axes = [order.index(q) for q in range(part.width)]
        vec = np.transpose(tensor, axes).reshape(-1)
    return QuantumState.pure(vec)


def haar_unit(
    rng: np.random.Generator, dims: Sequence[int], count: int = 1
) -> list[np.ndarray]:
    """``count`` Haar-random unit vectors of each dimension in ``dims``, one
    (count, dim) array per dimension, from one ``standard_normal`` call.
    Row r of each equals, bit for bit, v / numpy.linalg.norm(v) for
    v = standard_normal(dim) + 1j * standard_normal(dim) drawn round r,
    dimension by dimension."""
    draws = rng.standard_normal((count, 2 * sum(dims)))
    units, at = [], 0
    for dim in dims:
        v = draws[:, at : at + dim] + 1.0j * draws[:, at + dim : at + 2 * dim]
        at += 2 * dim
        # numpy.linalg.norm's sum, on the same strided views of one vector
        norms = [np.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag)) for r in v]
        units.append(v / np.array(norms)[:, None])
    return units


def random_product_state(part: Partition, seed) -> QuantumState:
    """Haar-random pure state in each block, tensored along the partition."""
    check_cap(part.width, PURE_QUBIT_CAP, f"product state on width {part.width}")
    rng = np.random.default_rng(seed)
    units = haar_unit(rng, [1 << len(b) for b in part.blocks])
    return assemble_product(part, [u[0] for u in units])


def anticommuting_unit_combination(
    ops: Sequence[PauliString], coeffs: Sequence[float]
) -> np.ndarray:
    """Unit-coefficient combination of pairwise anticommuting strings.

    Returns the dense matrix sum(c_i P_i); with pairwise anticommuting
    members and a unit coefficient vector the square is the identity, so
    the combination is again a valid observable with eigenvalues +-1.
    ``to_matrix`` refuses widths above its qubit cap before any matrix is
    allocated.
    """
    ops = _family(ops, anticommuting=True)
    if len(ops) != len(coeffs):
        raise ValueError("one coefficient per operator required")
    norm = float(np.sqrt(sum(float(c) ** 2 for c in coeffs)))
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"coefficient vector norm {norm} is not 1")
    return sum(float(c) * to_matrix(op) for op, c in zip(ops, coeffs))


def state_to_json_obj(state: QuantumState) -> dict:
    """JSON form: width, kind, and [re, im] pairs (row major for matrices)."""
    if state.is_pure:
        payload = [[float(a.real), float(a.imag)] for a in state.data]
        return {"width": state.width, "kind": "pure", "amplitudes": payload}
    flat = state.data.reshape(-1)
    payload = [[float(a.real), float(a.imag)] for a in flat]
    return {"width": state.width, "kind": "mixed", "matrix": payload}


def _complex_entries(pairs: list, what: str) -> np.ndarray:
    """The complex numbers of ``[re, im]`` pairs, refusing any other entry,
    NaN and infinities included."""
    for i, entry in enumerate(pairs):
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    and math.isfinite(x) for x in entry)
        ):
            raise ValueError(f"{what} {i} is {entry!r}, not a pair of real numbers")
    return np.array([complex(re, im) for re, im in pairs])


def state_from_json_obj(obj: dict) -> QuantumState:
    """The state of a JSON object; its width must be a JSON integer, at most
    the cap of its kind, which is checked before any amplitude is read."""
    try:
        width = obj["width"]
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    if type(width) is not int or width < 1:
        raise ValueError(f"bad state width {width!r}")
    if kind not in ("pure", "mixed"):
        raise ValueError(f"unknown state kind {kind!r}")
    cap = PURE_QUBIT_CAP if kind == "pure" else MIXED_QUBIT_CAP
    check_cap(width, cap, f"{kind} state of width {width}")
    dim = 1 << width
    if kind == "pure":
        pairs = obj.get("amplitudes")
        if not isinstance(pairs, list) or len(pairs) != dim:
            raise ValueError(f"pure state needs {dim} amplitude pairs")
        return QuantumState.pure(_complex_entries(pairs, "amplitude"))
    pairs = obj.get("matrix")
    if not isinstance(pairs, list) or len(pairs) != dim * dim:
        raise ValueError(f"mixed state needs {dim * dim} matrix entries")
    flat = _complex_entries(pairs, "matrix entry")
    return QuantumState.mixed(flat.reshape(dim, dim))


def save_state(state: QuantumState, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state_to_json_obj(state), handle, indent=2)
        handle.write("\n")


def load_state(path) -> QuantumState:
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise ValueError("state file must hold a JSON object")
    return state_from_json_obj(obj)
