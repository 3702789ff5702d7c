"""Dense quantum states and bitwise Pauli expectations.

States are either pure (amplitude vector) or mixed (density matrix) on
``width`` qubits.  Qubit 0 is the most significant bit of the basis
index, matching the leftmost-letter convention of the Pauli text form:
basis index b encodes the bitstring of qubit values read left to right.

Expectations never build operator matrices.  A Pauli string acts on a
basis state as P|b> = i**y * (-1)**popcount(b & zmask) |b ^ xmask>, with
masks translated from qubit order to index order, so tr(rho P) is a
single fancy-indexed sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cuts import Partition
from .errors import CapExceeded
from .pauli import OperatorSet, PauliString, anticommutes, format_pauli, to_matrix

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


def _index_mask(width: int, qubit_mask: int) -> int:
    """Translate a qubit-order bitmask into a basis-index bitmask."""
    out = 0
    for q in range(width):
        if (qubit_mask >> q) & 1:
            out |= 1 << (width - 1 - q)
    return out


def pauli_action(p: PauliString) -> tuple[int, np.ndarray]:
    """Index flip mask and per-basis phase vector of a Pauli string."""
    width = p.width
    dim = 1 << width
    ix = _index_mask(width, p.x_bits)
    iz = _index_mask(width, p.z_bits)
    idx = np.arange(dim)
    parity = np.zeros(dim, dtype=np.int64)
    m = iz
    while m:
        bit = (m & -m).bit_length() - 1
        parity ^= (idx >> bit) & 1
        m &= m - 1
    y_count = (p.x_bits & p.z_bits).bit_count()
    phases = (1.0j ** (y_count % 4)) * np.where(parity, -1.0, 1.0)
    return ix, phases.astype(complex)


def apply_pauli(p: PauliString, vector: np.ndarray) -> np.ndarray:
    """P |psi> for a pure amplitude vector, without building a matrix."""
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    if vec.shape[0] != 1 << p.width:
        raise ValueError(
            f"vector length {vec.shape[0]} does not match width {p.width}"
        )
    ix, phases = pauli_action(p)
    idx = np.arange(vec.shape[0])
    return (phases * vec)[idx ^ ix]


def expectation(state: QuantumState, p: PauliString) -> float:
    """tr(rho P), real by Hermiticity, via bitwise index action; pure
    states up to ``PURE_QUBIT_CAP`` qubits, mixed up to ``MIXED_QUBIT_CAP``."""
    if state.width != p.width:
        raise ValueError(
            f"state width {state.width} does not match operator width {p.width}"
        )
    cap = PURE_QUBIT_CAP if state.is_pure else MIXED_QUBIT_CAP
    if state.width > cap:
        raise CapExceeded(f"expectation on width {state.width} exceeds cap {cap}")
    ix, phases = pauli_action(p)
    idx = np.arange(1 << state.width)
    if state.is_pure:
        value = np.sum(state.data * phases * np.conj(state.data[idx ^ ix]))
    else:
        value = np.sum(state.data[idx, idx ^ ix] * phases)
    return float(value.real)


@dataclass(frozen=True, eq=False)
class QValue:
    """Criterion value: sum of squared expectations over an operator set."""

    value: float
    contributions: dict

    def to_json_obj(self) -> dict:
        return {"value": self.value, "contributions": dict(self.contributions)}


def evaluate_q(state: QuantumState, sigma: OperatorSet) -> QValue:
    """Criterion value of a state on an operator set, with per-member terms."""
    contributions: dict[str, float] = {}
    total = 0.0
    for member in sigma.members:
        e = expectation(state, member)
        term = e * e
        contributions[format_pauli(member)] = term
        total += term
    return QValue(total, contributions)


def named_state(name: str, width: int, detail: str | None = None) -> QuantumState:
    """Reference states: ghz, w, smolin, and computational basis states."""
    name = name.lower()
    if name == "ghz":
        if width < 2:
            raise ValueError("ghz needs at least 2 qubits")
        vec = np.zeros(1 << width, dtype=complex)
        vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
        return QuantumState.pure(vec)
    if name == "w":
        if width < 2:
            raise ValueError("w needs at least 2 qubits")
        vec = np.zeros(1 << width, dtype=complex)
        for q in range(width):
            vec[1 << (width - 1 - q)] = 1.0 / np.sqrt(width)
        return QuantumState.pure(vec)
    if name == "smolin":
        if width != 4:
            raise ValueError("smolin is a 4 qubit state")
        # Equal mixture of the four (same Bell state) x (same Bell state) pairs,
        # the first pair on qubits 0,1 and the second on qubits 2,3.
        root = 1.0 / np.sqrt(2.0)
        bells = [
            np.array([root, 0.0, 0.0, root], dtype=complex),
            np.array([root, 0.0, 0.0, -root], dtype=complex),
            np.array([0.0, root, root, 0.0], dtype=complex),
            np.array([0.0, root, -root, 0.0], dtype=complex),
        ]
        rho = np.zeros((16, 16), dtype=complex)
        for bell in bells:
            psi = np.kron(bell, bell)
            rho += 0.25 * np.outer(psi, psi.conj())
        return QuantumState.mixed(rho)
    if name == "basis":
        if detail is None:
            raise ValueError("basis state needs a bitstring, e.g. basis:0101")
        bits = detail.strip()
        if len(bits) != width or any(b not in "01" for b in bits):
            raise ValueError(f"bitstring {detail!r} does not match width {width}")
        vec = np.zeros(1 << width, dtype=complex)
        vec[int(bits, 2)] = 1.0
        return QuantumState.pure(vec)
    raise ValueError(f"unknown state name {name!r}")


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
    if width > EIGENSTATE_QUBIT_CAP:
        raise CapExceeded(
            f"eigenstate search on width {width} exceeds cap {EIGENSTATE_QUBIT_CAP}"
        )


def common_eigenstate(ops: Iterable[PauliString]) -> QuantumState:
    """A simultaneous +-1 eigenstate of a pairwise commuting family.

    Sequential projector construction: for each operator keep (1 + P)/2
    of the running vector, falling back to (1 - P)/2 when the + branch
    annihilates it.  The fallback branch is then the whole vector, so the
    sweep cannot die; signs prefer +1 wherever the projector survives.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    width = ops[0].width
    if any(op.width != width for op in ops):
        raise ValueError("operators must share a width")
    check_eigenstate_cap(width)
    if any(op.is_identity for op in ops):
        raise ValueError("identity operator has no sign choice")
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if anticommutes(a, b):
                raise ValueError(
                    f"operators {format_pauli(a)} and {format_pauli(b)} anticommute"
                )

    dim = 1 << width
    rng = np.random.default_rng(20240923)
    for attempt in range(8):
        if attempt == 0:
            vec = np.zeros(dim, dtype=complex)
            vec[0] = 1.0
        else:
            vec = rng.standard_normal(dim) + 1.0j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
        ok = True
        for op in ops:
            moved = apply_pauli(op, vec)
            plus = 0.5 * (vec + moved)
            norm = float(np.linalg.norm(plus))
            if norm >= 1e-6:
                vec = plus / norm
                continue
            minus = 0.5 * (vec - moved)
            norm = float(np.linalg.norm(minus))
            if norm < 1e-6:
                ok = False
                break
            vec = minus / norm
        if not ok:
            continue
        if all(
            abs(abs(float(np.vdot(vec, apply_pauli(op, vec)).real)) - 1.0) <= 1e-8
            for op in ops
        ):
            return QuantumState.pure(vec)
    raise RuntimeError("no common eigenstate found for the commuting family")


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


def random_product_state(part: Partition, seed) -> QuantumState:
    """Haar-random pure state in each block, tensored along the partition."""
    if part.width > PURE_QUBIT_CAP:
        raise CapExceeded(
            f"product state on width {part.width} exceeds cap {PURE_QUBIT_CAP}"
        )
    rng = np.random.default_rng(seed)
    factors = []
    for block in part.blocks:
        d = 1 << len(block)
        v = rng.standard_normal(d) + 1.0j * rng.standard_normal(d)
        factors.append(v / np.linalg.norm(v))
    return assemble_product(part, factors)


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
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    if len(ops) != len(coeffs):
        raise ValueError("one coefficient per operator required")
    width = ops[0].width
    if any(op.width != width for op in ops):
        raise ValueError("operators must share a width")
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if not anticommutes(a, b):
                raise ValueError(
                    f"operators {format_pauli(a)} and {format_pauli(b)} commute"
                )
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


def state_from_json_obj(obj: dict) -> QuantumState:
    try:
        width = int(obj["width"])
        kind = obj["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    if width < 1:
        raise ValueError(f"bad state width {width}")
    dim = 1 << width
    if kind == "pure":
        pairs = obj.get("amplitudes")
        if not isinstance(pairs, list) or len(pairs) != dim:
            raise ValueError(f"pure state needs {dim} amplitude pairs")
        vec = np.array([complex(re, im) for re, im in pairs])
        return QuantumState.pure(vec)
    if kind == "mixed":
        pairs = obj.get("matrix")
        if not isinstance(pairs, list) or len(pairs) != dim * dim:
            raise ValueError(f"mixed state needs {dim * dim} matrix entries")
        flat = np.array([complex(re, im) for re, im in pairs])
        return QuantumState.mixed(flat.reshape(dim, dim))
    raise ValueError(f"unknown state kind {kind!r}")


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
