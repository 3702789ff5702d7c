"""Independent numerical maximization of the criterion value.

These searches never consult the graph machinery.  One search serves
both questions: restarted block-coordinate ascent over pure states
product across a partition.  The unconstrained maximum is the one-block
case.  Agreement between an oracle maximum and a clique bound is
therefore evidence for both, not circularity.

There are two block steps, both monotone.  The shifted power step is
applied matrix-free through the members' (flip, phase) actions on the
block.  The exact step puts a one-qubit block on the Bloch axis that
maximizes Q with the other blocks fixed.  A restart switches its
one-qubit blocks to the exact step once it is settled: after its first
sweep that gains at most ``SATURATION_TOL`` times max(1, Q).  Every
wider block keeps the power step throughout.  So on the finest
partition a restart that sweeps again after settling ends on a product
of Pauli eigenstates, where Q is an exact integer.

On wider blocks the power step converges only linearly, so every two
sweeps end in a squared extrapolation cycle (SQUAREM; Varadhan and
Roland, Scand. J. Statist. 35, 2008) on those blocks.  The trial is
surveyed and kept only where its exact Q is at least the value after
the second sweep, so Q never decreases.  A trial is not a sweep:
settling, convergence and the sweep budget count plain sweeps only.

One work budget, checked before any search, bounds the amplitudes a
sweep touches: restarts x members x the summed block dimensions, summed
over the partitions a call or command will search.

Tolerances are deliberately split: saturation (did the optimizer reach
the bound) is judged at 1e-3, soundness (did it exceed the bound, which
must never happen) at 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import states
from .bounds import bound_for_partition
from .cuts import Partition
from .errors import CapExceeded
from .pauli import OperatorSet, restrict
from .states import (
    QuantumState,
    assemble_product,
    evaluate_q,
    pauli_action,
)

ORACLE_WORK_BUDGET = 8_000_000
_BATCH_AMPLITUDES = 1 << 18

SATURATION_TOL = 1e-3
SOUNDNESS_TOL = 1e-6
# a restart stops once a sweep gains at most this times max(1, Q)
CONVERGENCE_TOL = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    """Restart and sweep policy; deterministic for a fixed seed."""

    restarts: int = 64
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Best value found, the state that reached it, and search accounting.

    ``converged`` reports whether the winning restart met the convergence
    tolerance before exhausting its iteration budget; ``iterations_used``
    is the sum over restarts of the sweeps each restart ran (one sweep is
    one step on every block).
    """

    best_value: float
    best_state: QuantumState
    iterations_used: int
    converged: bool


def check_work_budget(
    sigma: OperatorSet, parts: Sequence[Partition], config: OracleConfig
) -> None:
    """Raise CapExceeded when restarts x members x the summed 2^|block|
    over ``parts`` exceeds ``ORACLE_WORK_BUDGET``."""
    dims = sum(sum(1 << len(block) for block in part.blocks) for part in parts)
    work = config.restarts * len(sigma) * dims
    if work > ORACLE_WORK_BUDGET:
        raise CapExceeded(
            f"oracle search over {len(parts)} partitions charges {work}, "
            f"over work budget {ORACLE_WORK_BUDGET}"
        )


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1.0j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _block_action(
    sigma: OperatorSet, block: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gather indices and phases of every member restricted to the block:
    (s_b psi)[r, k, i] = phases[k, i] * psi[r, perms[k, i]].  On a
    one-qubit block the third entry holds each member's letter one-hot
    over (x, y, z), a zero row for the identity; on wider blocks it is
    None."""
    idx = np.arange(1 << len(block))
    perms = np.empty((len(sigma), idx.size), dtype=np.int64)
    phases = np.empty((len(sigma), idx.size), dtype=complex)
    letters = np.zeros((len(sigma), 3)) if len(block) == 1 else None
    for k, member in enumerate(sigma.members):
        site = restrict(member, block)
        flip, phases[k] = pauli_action(site)
        perms[k] = idx ^ flip
        if letters is not None and (site.x_bits or site.z_bits):
            # (x_bits, z_bits) is (1, 0) for x, (1, 1) for y, (0, 1) for z
            letters[k, 2 * site.z_bits - (site.x_bits & site.z_bits)] = 1.0
    return perms, phases, letters


def _survey(
    action: tuple[np.ndarray, np.ndarray, np.ndarray | None],
    psi: np.ndarray,
    moved: np.ndarray,
) -> np.ndarray:
    """Fill moved[r, k] with s_k psi_r for every restart row r and member k,
    and return the expectations <s_k>_r.  A restart wider than
    _BATCH_AMPLITUDES goes in chunks of members, each multiplied and
    reduced while it is in cache."""
    perms, phases, _ = action
    exps = np.empty(moved.shape[:2])
    bra = psi.conj()[:, :, None]
    step = max(1, _BATCH_AMPLITUDES // psi.size)
    for k in range(0, len(perms), step):
        chunk = moved[:, k : k + step]
        # the indices are in range; "clip" lets take write into out unbuffered
        np.take(psi, perms[k : k + step], axis=1, out=chunk, mode="clip")
        chunk *= phases[k : k + step]
        exps[:, k : k + step] = (chunk @ bra)[:, :, 0].real
    return exps


def _qubit_maximizer(weights: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Exact maximizer of Q over one qubit, one row per restart: with
    m = weights @ letters, Q = C + sum_j m_j n_j^2 over the Bloch vector n,
    so an eigenstate of sigma_j for j = argmax m attains the maximum
    max_j m_j + C.  argmax takes the first maximum, so ties go to x, then
    y, then z."""
    axes = np.array([[1.0, 1.0], [1.0, 1.0j], [np.sqrt(2.0), 0.0]]) / np.sqrt(2.0)
    return axes[np.argmax(weights @ letters, axis=1)]


def _squared_trial(
    x0: list[np.ndarray], x1: list[np.ndarray], x2: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Squared extrapolation from the factors x0, x1, x2 of some blocks
    before, between and after two sweeps, one row per restart: with
    r = x1 - x0, v = x2 - 2 x1 + x0 and alpha = min(-|r| / |v|, -1), norms
    over all the given blocks, each block moves to
    normalise(x0 - 2 alpha r + alpha^2 v).  alpha = -1 gives x2.  Returns
    the trial blocks and which rows are finite; v = 0 leaves a row
    non-finite, and such a row's trial is x2."""
    r = [b - a for a, b in zip(x0, x1)]
    v = [c - 2.0 * b + a for a, b, c in zip(x0, x1, x2)]
    r_norm = np.sqrt(sum(np.sum(np.abs(d) ** 2, axis=1) for d in r))
    v_norm = np.sqrt(sum(np.sum(np.abs(d) ** 2, axis=1) for d in v))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = np.minimum(-r_norm / v_norm, -1.0)[:, None]
        trial = [a - 2.0 * alpha * dr + alpha**2 * dv for a, dr, dv in zip(x0, r, v)]
        trial = [t / np.linalg.norm(t, axis=1)[:, None] for t in trial]
    finite = np.logical_and.reduce([np.isfinite(t).all(axis=1) for t in trial])
    return [np.where(finite[:, None], t, x) for t, x in zip(trial, x2)], finite


def _extrapolate(
    actions: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
    wide: list[int],
    factors: list[np.ndarray],
    moved: list[np.ndarray],
    exps: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    start: list[np.ndarray],
    middle: list[np.ndarray],
) -> None:
    """Move the active rows' wide blocks to their squared-extrapolation
    trial where its Q is at least Q(x2); every other row stays at x2.
    Updates factors, moved, exps and values in place."""
    x2 = [factors[bi][rows] for bi in wide]
    trial, finite = _squared_trial(
        [s[rows] for s in start], [m[rows] for m in middle], x2
    )
    trial_exps = exps.copy()
    for j, bi in enumerate(wide):
        trial_exps[bi] = _survey(actions[bi], trial[j], moved[bi])
    trial_values = np.sum(np.prod(trial_exps, axis=0) ** 2, axis=1)
    accept = finite & (trial_values >= values[rows])
    values[rows[accept]] = trial_values[accept]
    exps[:, accept] = trial_exps[:, accept]
    for j, bi in enumerate(wide):
        factors[bi][rows[accept]] = trial[j][accept]
    # the trial overwrote moved; survey x2 again on the rows that keep it
    reject = ~accept
    if reject.all():
        for j, bi in enumerate(wide):
            _survey(actions[bi], x2[j], moved[bi])
    elif reject.any():
        # a batch of several restarts holds at most _BATCH_AMPLITUDES
        # amplitudes, so these copies stay small
        for j, bi in enumerate(wide):
            kept = moved[bi][reject]
            _survey(actions[bi], x2[j][reject], kept)
            moved[bi][reject] = kept


def _ascend(
    actions: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
    draws: list[list[np.ndarray]],
    config: OracleConfig,
) -> tuple[float, list[np.ndarray], int, bool]:
    """Block-coordinate ascent on one batch of restarts: the best restart's
    value, factors and converged flag, and the batch's total sweeps."""
    factors = [np.stack([d[bi] for d in draws]) for bi in range(len(actions))]
    moved = [
        np.empty((len(draws), len(perms), f.shape[1]), dtype=complex)
        for (perms, _, _), f in zip(actions, factors)
    ]
    exps = np.stack([_survey(a, f, m) for a, f, m in zip(actions, factors, moved)])
    values = np.sum(np.prod(exps, axis=0) ** 2, axis=1)
    sweeps = np.zeros(len(draws), dtype=np.int64)
    converged = np.zeros(len(draws), dtype=bool)

    # blocks of two or more qubits, the ones the squared extrapolation moves
    wide = [bi for bi, action in enumerate(actions) if action[2] is None]

    # moved, exps and settled hold the active restarts only; rows maps
    # them back
    rows = np.arange(len(draws))
    settled = np.zeros(len(draws), dtype=bool)
    for sweep in range(config.max_iterations):
        if rows.size == 0:
            break
        if sweep % 2 == 0:
            start = [factors[bi].copy() for bi in wide]
        sweeps[rows] += 1
        for bi, action in enumerate(actions):
            others = np.prod(np.delete(exps, bi, axis=0), axis=0)
            weights = others * others
            coeffs = weights * exps[bi]
            psi = factors[bi][rows]
            target = (coeffs[:, None, :] @ moved[bi])[:, 0]
            target += np.abs(coeffs).sum(axis=1)[:, None] * psi
            norms = np.linalg.norm(target, axis=1)
            # every coefficient vanishes only where Q = 0, a critical point
            stuck = norms <= 1e-12
            target[stuck], norms[stuck] = psi[stuck], 1.0
            psi = target / norms[:, None]
            letters = action[2]
            if letters is not None and settled.any():
                psi[settled] = _qubit_maximizer(weights[settled], letters)
            factors[bi][rows] = psi
            exps[bi] = _survey(action, psi, moved[bi])
        new_values = np.sum(np.prod(exps, axis=0) ** 2, axis=1)
        gain = new_values - values[rows]
        values[rows] = new_values
        scale = np.maximum(1.0, np.abs(new_values))
        settled |= gain <= SATURATION_TOL * scale
        done = gain <= CONVERGENCE_TOL * scale
        if done.any():
            converged[rows[done]] = True
            rows, exps, settled = rows[~done], exps[:, ~done], settled[~done]
            moved = [m[~done] for m in moved]
        if sweep % 2 == 0:
            middle = [factors[bi].copy() for bi in wide]
        elif wide and rows.size:
            _extrapolate(
                actions, wide, factors, moved, exps, values, rows, start, middle
            )

    best = int(np.argmax(values))
    best_factors = [f[best] for f in factors]
    return float(values[best]), best_factors, int(sweeps.sum()), bool(converged[best])


def maximize_q_product(
    sigma: OperatorSet, part: Partition, config: OracleConfig | None = None
) -> OracleResult:
    """Best criterion value over pure states product across the partition.

    Per restart: draw one Haar-random factor per block, then sweep the
    blocks cyclically.  A block step holds the other blocks fixed, with
    w_s the product of the squared expectations on the other blocks.

    A restart is settled after its first sweep whose gain is at most
    ``SATURATION_TOL`` times max(1, Q).  From then on each of its one-qubit
    blocks takes the exact step; every other block, and every block of an
    unsettled restart, takes the power step.

    The power step is psi_b <- normalise(H_b psi_b + c psi_b), with
    H_b = sum_s w_s <s_b> s_b and c = sum_s |w_s <s_b>|.  It never lowers
    Q.  Every s_b has norm 1, so the norm of H_b is at most c and
    A = H_b + c is positive semidefinite.  A power step on a positive
    semidefinite A never lowers <A>: over the spectral measure of psi_b,
    E[l^3] >= E[l^2] E[l] for l >= 0, and <A> differs from <H_b> by the
    same c on both states.  In the block's density matrix rho,
    Q(rho) = sum_s w_s tr(rho s_b)^2 is convex with gradient 2 H_b, so
    Q(rho') >= Q(rho) + 2 tr((rho' - rho) H_b) >= Q(rho).  The shift also
    damps the negative branch of a symmetric spectrum, which plain power
    iteration would never leave.

    The exact step on a one-qubit block sets it to an eigenstate of
    sigma_j for j = argmax m, m_j = sum of w_s over the members whose
    letter on the qubit is sigma_j (ties to x, then y, then z).  It never
    lowers Q, because it is the block's maximum: with n the qubit's Bloch
    vector, <s_b> = n_j for letter sigma_j and 1 for the identity, so
    Q = C + sum_j m_j n_j^2 with m_j >= 0, C the identity members' share,
    and over |n| = 1 this is at most C + max_j m_j, attained at n = e_j.
    Near a Bloch axis the power step closes the last gap only sublinearly;
    the exact step lands on the axis.  It waits for the settling sweep
    because from a random start it would commit every qubit to an axis at
    once, and on some sets (random_set(6, 12, 2) of the benchmark's
    reference module) that reaches the best value far less often.

    After every two sweeps, with x0, x1, x2 a restart's factors on its
    blocks of two or more qubits before, between and after them,
    r = x1 - x0, v = x2 - 2 x1 + x0 and alpha = min(-|r| / |v|, -1) (norms
    over those blocks), each such block tries
    normalise(x0 - 2 alpha r + alpha^2 v); one-qubit blocks keep x2, and
    alpha = -1 gives x2 itself.  The power step's fixed point is
    approached linearly, and this squared extrapolation jumps along that
    slow direction.  It never lowers Q, because it is only a proposal:
    the trial is surveyed and a restart keeps it only if its exact Q is
    at least Q(x2); otherwise, and where v = 0 or the trial is not
    finite, the restart stays at x2.  Trials are not sweeps: they count
    neither towards ``iterations_used`` and ``max_iterations`` nor
    towards settling and convergence, which plain sweeps alone decide.
    A partition without a block of two or more qubits takes no trial.

    Neither step has a step size, so restarts move together, in batches
    that cache at most _BATCH_AMPLITUDES amplitudes s_b psi_b where a
    restart allows; a restart leaves its batch once its sweep gain is at
    most ``CONVERGENCE_TOL`` times max(1, Q).
    """
    if config is None:
        config = OracleConfig()
    if sigma.width != part.width:
        raise ValueError(
            f"partition width {part.width} does not match operator width {sigma.width}"
        )
    if sigma.width > states.PURE_QUBIT_CAP:
        raise CapExceeded(
            f"product search on width {sigma.width} exceeds cap "
            f"{states.PURE_QUBIT_CAP}"
        )
    check_work_budget(sigma, [part], config)

    blocks = part.blocks
    actions = [_block_action(sigma, block) for block in blocks]
    rng = np.random.default_rng(config.seed)
    # drawn restart by restart, block by block, so restart r starts from
    # the same factors whatever the restart count
    draws = [
        [_random_unit(rng, 1 << len(b)) for b in blocks]
        for _ in range(config.restarts)
    ]
    per_restart = len(sigma) * sum(1 << len(b) for b in blocks)
    size = max(1, _BATCH_AMPLITUDES // per_restart)
    runs = [
        _ascend(actions, draws[start : start + size], config)
        for start in range(0, config.restarts, size)
    ]
    # max keeps the first of equal values, so ties go to the lowest restart
    _, best_factors, _, best_converged = max(runs, key=lambda run: run[0])
    sweeps = sum(run[2] for run in runs)

    state = assemble_product(part, best_factors)
    final = evaluate_q(state, sigma).value
    return OracleResult(final, state, sweeps, best_converged)


def maximize_q_global(
    sigma: OperatorSet, config: OracleConfig | None = None
) -> OracleResult:
    """Best criterion value over all pure states of matching width: the
    product search on the one-block partition."""
    return maximize_q_product(sigma, Partition.single_block(sigma.width), config)


@dataclass(frozen=True)
class VerificationRecord:
    """Graph bound vs oracle maximum for one partition.  ``converged`` is
    the oracle's flag for its winning restart, so an unsaturated row can be
    told apart from a search cut short by the sweep budget; ``sweeps`` is
    the oracle's ``iterations_used``."""

    partition: Partition
    graph_bound: int
    oracle_value: float
    gap: float
    saturated: bool
    violation: bool
    converged: bool
    sweeps: int

    def to_json_obj(self) -> dict:
        return {
            "partition": str(self.partition),
            "graph_bound": self.graph_bound,
            "oracle_value": self.oracle_value,
            "gap": self.gap,
            "saturated": self.saturated,
            "violation": self.violation,
            "converged": self.converged,
            "sweeps": self.sweeps,
        }


def verify_against(
    sigma: OperatorSet,
    part: Partition,
    bound: int,
    config: OracleConfig | None = None,
) -> VerificationRecord:
    """Compare a graph bound for the partition with the oracle's
    product-state maximum.

    A violation (oracle above the bound beyond arithmetic tolerance)
    means one of the two routes is defective and must fail loudly in any
    test that sees it.
    """
    result = maximize_q_product(sigma, part, config)
    gap = bound - result.best_value
    return VerificationRecord(
        partition=part,
        graph_bound=bound,
        oracle_value=result.best_value,
        gap=gap,
        saturated=gap <= SATURATION_TOL,
        violation=result.best_value > bound + SOUNDNESS_TOL,
        converged=result.converged,
        sweeps=result.iterations_used,
    )


def verify_bound(
    sigma: OperatorSet, part: Partition, config: OracleConfig | None = None
) -> VerificationRecord:
    """``verify_against`` on the partition's clique bound from
    ``bound_for_partition``."""
    return verify_against(sigma, part, bound_for_partition(sigma, part)[0], config)
