"""Independent numerical maximization of the criterion value.

These searches never consult the graph machinery.  The product-state
search runs cyclic block-coordinate ascent over explicit block factors,
each block step an exact top-eigenvector update batched over restarts;
the global search runs a monotone shifted power step on the full state
vector.  Agreement between an oracle maximum and a clique bound is
therefore evidence for both, not circularity.

Tolerances are deliberately split: saturation (did the optimizer reach
the bound) is judged at 1e-3, soundness (did it exceed the bound, which
must never happen) at 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bound_for_partition
from .cuts import Partition
from .errors import CapExceeded
from .pauli import OperatorSet, restrict, to_matrix
from .states import (
    PURE_QUBIT_CAP,
    QuantumState,
    assemble_product,
    evaluate_q,
    pauli_action,
)

GLOBAL_QUBIT_CAP = 10
PRODUCT_BLOCK_CAP = 6

SATURATION_TOL = 1e-3
SOUNDNESS_TOL = 1e-6


@dataclass(frozen=True)
class OracleConfig:
    """Restart and convergence policy; deterministic for a fixed seed."""

    restarts: int = 64
    max_iterations: int = 2000
    convergence_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.convergence_tol <= 0:
            raise ValueError(
                f"convergence_tol must be positive, got {self.convergence_tol}"
            )


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Best value found, the state that reached it, and search accounting.

    ``converged`` reports whether the winning restart met the convergence
    tolerance before exhausting its iteration budget; ``iterations_used``
    is the sum over restarts of the sweeps each restart ran (for the
    product search, one sweep is one eigenvector step on every block).
    """

    best_value: float
    best_state: QuantumState
    iterations_used: int
    converged: bool


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1.0j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _expectations(mats: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row r holds <u_r|A_s|u_r> for every member s (real parts)."""
    member_count, dim = mats.shape[0], mats.shape[1]
    flat = mats.reshape(member_count * dim, dim)
    moved = (u @ flat.T).reshape(-1, member_count, dim)  # A_s u_r
    return np.einsum("rsi,ri->rs", moved, u.conj()).real


def maximize_q_product(
    sigma: OperatorSet, part: Partition, config: OracleConfig | None = None
) -> OracleResult:
    """Best criterion value over pure states product across the partition.

    Per restart: draw one Haar-random factor per block, then sweep the
    blocks cyclically.  A block step holds the other blocks fixed and
    replaces the factor by the top eigenvector of H_b = sum_s w_s <s_b> s_b,
    where w_s is the product of the squared expectations on the other
    blocks.  The step never lowers Q: in the block's density matrix rho,
    Q(rho) = sum_s w_s tr(rho s_b)^2 is convex with gradient 2 H_b, so
    Q(rho') >= Q(rho) + 2 tr((rho' - rho) H_b) >= Q(rho) when rho'
    projects onto the top eigenvector of H_b.  The step needs no step size,
    so all restarts move together through one stacked ``eigh`` per block;
    a restart leaves the batch once its sweep gain drops below the
    convergence tolerance.
    """
    if config is None:
        config = OracleConfig()
    if sigma.width != part.width:
        raise ValueError(
            f"partition width {part.width} does not match operator width {sigma.width}"
        )
    if sigma.width > PURE_QUBIT_CAP:
        raise CapExceeded(
            f"product search on width {sigma.width} exceeds cap {PURE_QUBIT_CAP}"
        )
    for block in part.blocks:
        if len(block) > PRODUCT_BLOCK_CAP:
            raise CapExceeded(
                f"block {block} exceeds size cap {PRODUCT_BLOCK_CAP}"
            )

    blocks = part.blocks
    mats = [
        np.stack([to_matrix(restrict(s, block)) for s in sigma.members])
        for block in blocks
    ]
    rng = np.random.default_rng(config.seed)
    # drawn restart by restart, block by block, so restart r starts from
    # the same factors whatever the restart count
    draws = [
        [_random_unit(rng, 1 << len(b)) for b in blocks]
        for _ in range(config.restarts)
    ]
    factors = [np.stack([d[bi] for d in draws]) for bi in range(len(blocks))]
    exps = np.stack([_expectations(m, f) for m, f in zip(mats, factors)])
    values = np.sum(np.prod(exps, axis=0) ** 2, axis=1)
    sweeps = np.zeros(config.restarts, dtype=np.int64)
    converged = np.zeros(config.restarts, dtype=bool)

    active = np.arange(config.restarts)
    for _ in range(config.max_iterations):
        if active.size == 0:
            break
        sweeps[active] += 1
        for bi, m in enumerate(mats):
            others = np.prod(np.delete(exps[:, active], bi, axis=0), axis=0)
            coeffs = others * others * exps[bi, active]
            dim = m.shape[1]
            h = (coeffs @ m.reshape(len(m), dim * dim)).reshape(-1, dim, dim)
            top = np.linalg.eigh(h)[1][:, :, -1]
            factors[bi][active] = top
            exps[bi, active] = _expectations(m, top)
        new_values = np.sum(np.prod(exps[:, active], axis=0) ** 2, axis=1)
        gain = new_values - values[active]
        values[active] = new_values
        done = gain <= config.convergence_tol * np.maximum(1.0, np.abs(new_values))
        converged[active[done]] = True
        active = active[~done]

    best = int(np.argmax(values))
    state = assemble_product(part, [f[best] for f in factors])
    final = evaluate_q(state, sigma).value
    return OracleResult(final, state, int(sweeps.sum()), bool(converged[best]))


def maximize_q_global(
    sigma: OperatorSet, config: OracleConfig | None = None
) -> OracleResult:
    """Best criterion value over all pure states of matching width.

    Per restart, from a Haar-random start, repeat the shifted power step
    psi <- normalise(H psi + sqrt(m Q) psi) with H = sum_s <s> s, m the
    member count and Q the current value.  The step never lowers Q.  By
    Cauchy-Schwarz the norm of H is at most sum_s |<s>| <= sqrt(m Q), so
    H + sqrt(m Q) is positive semidefinite, and a power step on a positive
    semidefinite matrix never lowers its expectation, which differs from
    <H> by the same sqrt(m Q) on both states.  Q is convex in the density
    matrix with gradient 2 H, so Q(psi') >= Q(psi) + 2 (<H>' - <H>) >=
    Q(psi).  The shift also damps the negative branch of a symmetric
    spectrum, which plain power iteration would never leave.  A restart
    stops once its sweep gain is at most ``convergence_tol`` times
    max(1, Q), the product search's rule.
    """
    if config is None:
        config = OracleConfig()
    width = sigma.width
    if width > GLOBAL_QUBIT_CAP:
        raise CapExceeded(
            f"global search on width {width} exceeds cap {GLOBAL_QUBIT_CAP}"
        )
    dim = 1 << width

    idx = np.arange(dim)
    perms = np.empty((len(sigma), dim), dtype=np.int64)
    phases = np.empty((len(sigma), dim), dtype=complex)
    for k, member in enumerate(sigma.members):
        flip, phase = pauli_action(member)
        perms[k] = idx ^ flip
        phases[k] = phase

    def survey(psi: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        moved = phases * psi[perms]  # row k holds s_k |psi>
        exps = (moved @ psi.conj()).real
        return float(np.sum(exps * exps)), exps, moved

    rng = np.random.default_rng(config.seed)
    best_value = -1.0
    best_vec: np.ndarray | None = None
    best_converged = False
    steps_total = 0

    for _ in range(config.restarts):
        psi = _random_unit(rng, dim)
        value, exps, moved = survey(psi)
        converged = False
        for _ in range(config.max_iterations):
            steps_total += 1
            shift = float(np.sqrt(len(sigma.members) * value))
            target = exps @ moved + shift * psi  # (H + sqrt(m Q)) |psi>
            tn = float(np.linalg.norm(target))
            if tn <= 1e-12:  # every <s> vanishes: a critical point
                converged = True
                break
            previous = value
            psi = target / tn
            value, exps, moved = survey(psi)
            if value - previous <= config.convergence_tol * max(1.0, value):
                converged = True
                break
        if value > best_value:
            best_value = value
            best_vec = psi.copy()
            best_converged = converged

    assert best_vec is not None
    state = QuantumState.pure(best_vec)
    final = evaluate_q(state, sigma).value
    return OracleResult(final, state, steps_total, best_converged)


@dataclass(frozen=True)
class VerificationRecord:
    """Graph bound vs oracle maximum for one partition."""

    partition: Partition
    graph_bound: int
    oracle_value: float
    gap: float
    saturated: bool
    violation: bool

    def to_json_obj(self) -> dict:
        return {
            "partition": str(self.partition),
            "graph_bound": self.graph_bound,
            "oracle_value": self.oracle_value,
            "gap": self.gap,
            "saturated": self.saturated,
            "violation": self.violation,
        }


def verify_bound(
    sigma: OperatorSet, part: Partition, config: OracleConfig | None = None
) -> VerificationRecord:
    """Compare the clique bound with the oracle's product-state maximum.

    A violation (oracle above the bound beyond arithmetic tolerance)
    means one of the two routes is defective and must fail loudly in any
    test that sees it.
    """
    bound = bound_for_partition(sigma, part)[0]
    result = maximize_q_product(sigma, part, config)
    gap = bound - result.best_value
    return VerificationRecord(
        partition=part,
        graph_bound=bound,
        oracle_value=result.best_value,
        gap=gap,
        saturated=gap <= SATURATION_TOL,
        violation=result.best_value > bound + SOUNDNESS_TOL,
    )
