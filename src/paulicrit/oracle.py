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

Each block's member actions come from one gather table,
``states.gather_table``.  The sweep calls numpy's ufunc reductions
directly, and forms norms by the formula ``numpy.linalg.norm`` evaluates
on one axis, so each float operation on a restart row is the one numpy's
wrappers would run, on the same operands in the same order.  A row's
operations do not depend on the batch of restarts it runs in.  They can
depend on how a survey splits the members into chunks, since the BLAS
may group a product's rows differently by their count; the chunk size
is fixed by ``_BATCH_AMPLITUDES`` and the block, so results stay
deterministic.

One admission check, ``check_work_budget``, runs before any search: the
width cap, and a work budget on the amplitudes a sweep touches:
restarts x members x the summed block dimensions, summed over the
partitions a call or command will search.

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
from .cuts import Partition, check_partition_width
from .errors import CapExceeded, check_cap
from .pauli import OperatorSet
from .states import (
    QuantumState,
    assemble_product,
    evaluate_q,
    gather_table,
    haar_unit,
)

ORACLE_WORK_BUDGET = 8_000_000
_BATCH_AMPLITUDES = 1 << 18

SATURATION_TOL = 1e-3
SOUNDNESS_TOL = 1e-6
# a restart stops once a sweep gains at most this times max(1, Q)
CONVERGENCE_TOL = 1e-9
# sweeps per restart; read at call time, so tests may patch it here
MAX_SWEEPS = 2000

# unit eigenvectors of x, y and z for eigenvalue +1, one per row
_AXES = np.array([[1.0, 1.0], [1.0, 1.0j], [np.sqrt(2.0), 0.0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class OracleConfig:
    """Restart policy; deterministic for a fixed seed."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Best value found, the state that reached it, and search accounting.

    ``converged`` reports whether the winning restart met the convergence
    tolerance within ``MAX_SWEEPS`` sweeps; ``iterations_used``
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
    """The oracle's one admission check: raise CapExceeded when sigma is
    wider than ``states.PURE_QUBIT_CAP``, or when restarts x members x the
    summed 2^|block| over ``parts`` exceeds ``ORACLE_WORK_BUDGET``.  The
    width is read first, so with no parts the check is the width cap
    alone."""
    check_cap(
        sigma.width, states.PURE_QUBIT_CAP, f"product search on width {sigma.width}"
    )
    dims = sum(sum(1 << len(block) for block in part.blocks) for part in parts)
    work = config.restarts * len(sigma) * dims
    if work > ORACLE_WORK_BUDGET:
        raise CapExceeded(
            f"oracle search over {len(parts)} partitions charges {work}, "
            f"over work budget {ORACLE_WORK_BUDGET}"
        )


def _block_action(
    sigma: OperatorSet, block: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gather indices and phases of every member restricted to the block:
    phases[k, i] * psi[r, perms[k, i]] is (s_b^T psi)[r, k, i], and the
    transpose s_b^T is s_b times (-1)^(its y letters).  That sign cancels
    in Q, which squares each expectation, and in the power step, which
    weights each member's action by its expectation.  On a
    one-qubit block the third entry holds each member's letter one-hot
    over (x, y, z), a zero row for the identity; on wider blocks it is
    None.  All three come from ``states.gather_table``."""
    dim = 1 << len(block)
    perms = np.empty((len(sigma), dim), dtype=np.int64)
    phases = np.empty((len(sigma), dim), dtype=complex)
    letters = np.empty((len(sigma), 3)) if len(block) == 1 else None
    table = gather_table(sigma.members, block, _BATCH_AMPLITUDES)
    for start, chunk_perms, chunk_phases, chunk_letters in table:
        stop = start + len(chunk_perms)
        perms[start:stop] = chunk_perms
        phases[start:stop] = chunk_phases
        if letters is not None:
            letters[start:stop] = chunk_letters
    return perms, phases, letters


def _survey(
    action: tuple[np.ndarray, np.ndarray, np.ndarray | None],
    psi: np.ndarray,
    moved: np.ndarray,
) -> np.ndarray:
    """Fill moved[r, k] with s_k^T psi_r for every restart row r and member
    k, and return the expectations <s_k^T>_r = +-<s_k>_r.  A restart wider
    than _BATCH_AMPLITUDES goes in chunks of members, each multiplied and
    reduced while it is in cache."""
    perms, phases, _ = action
    bra = psi.conj()[:, :, None]
    step = max(1, _BATCH_AMPLITUDES // psi.size)
    if step >= len(perms):
        psi.take(perms, axis=1, out=moved, mode="clip")
        moved *= phases
        return (moved @ bra)[:, :, 0].real
    exps = np.empty(moved.shape[:2])
    for k in range(0, len(perms), step):
        chunk = moved[:, k : k + step]
        # the indices are in range; "clip" lets take write into out unbuffered
        psi.take(perms[k : k + step], axis=1, out=chunk, mode="clip")
        chunk *= phases[k : k + step]
        exps[:, k : k + step] = (chunk @ bra)[:, :, 0].real
    return exps


def _q_values(exps: np.ndarray) -> np.ndarray:
    """Q of each restart row from exps[block, row, member]: the sum over
    members of the squared product over blocks."""
    return np.add.reduce(np.multiply.reduce(exps, axis=0) ** 2, axis=1)


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, by the formula numpy.linalg.norm
    evaluates for axis=1."""
    return np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=1))


def _qubit_maximizer(weights: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Exact maximizer of Q over one qubit, one row per restart: with
    m = weights @ letters, Q = C + sum_j m_j n_j^2 over the Bloch vector n,
    so an eigenstate of sigma_j for j = argmax m attains the maximum
    max_j m_j + C.  argmax takes the first maximum, so ties go to x, then
    y, then z."""
    return _AXES[np.argmax(weights @ letters, axis=1)]


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
    r_norm = np.sqrt(sum(np.add.reduce(np.abs(d) ** 2, axis=1) for d in r))
    v_norm = np.sqrt(sum(np.add.reduce(np.abs(d) ** 2, axis=1) for d in v))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = np.minimum(-r_norm / v_norm, -1.0)[:, None]
        trial = [a - 2.0 * alpha * dr + alpha**2 * dv for a, dr, dv in zip(x0, r, v)]
        trial = [t / _norms(t)[:, None] for t in trial]
    finite = np.logical_and.reduce(
        [np.logical_and.reduce(np.isfinite(t), axis=1) for t in trial]
    )
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
    trial_values = _q_values(trial_exps)
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
) -> tuple[float, list[np.ndarray], int, bool]:
    """Block-coordinate ascent on one batch of restarts: the best restart's
    value, factors and converged flag, and the batch's total sweeps."""
    factors = [np.stack([d[bi] for d in draws]) for bi in range(len(actions))]
    moved = [
        np.empty((len(draws), len(perms), f.shape[1]), dtype=complex)
        for (perms, _, _), f in zip(actions, factors)
    ]
    exps = np.stack([_survey(a, f, m) for a, f, m in zip(actions, factors, moved)])
    values = _q_values(exps)
    sweeps = np.zeros(len(draws), dtype=np.int64)
    converged = np.zeros(len(draws), dtype=bool)

    # blocks of two or more qubits, the ones the squared extrapolation moves
    wide = [bi for bi, action in enumerate(actions) if action[2] is None]
    # others[bi] lists every block but bi
    blocks = np.arange(len(actions))
    others = [np.delete(blocks, bi) for bi in blocks]

    # moved, exps and settled hold the active restarts only; rows maps
    # them back
    rows = np.arange(len(draws))
    settled = np.zeros(len(draws), dtype=bool)
    for sweep in range(MAX_SWEEPS):
        if rows.size == 0:
            break
        if sweep % 2 == 0:
            start = [factors[bi].copy() for bi in wide]
        sweeps[rows] += 1
        any_settled = settled.any()
        for bi, action in enumerate(actions):
            rest = np.multiply.reduce(exps[others[bi]], axis=0)
            weights = rest * rest
            coeffs = weights * exps[bi]
            psi = factors[bi][rows]
            target = (coeffs[:, None, :] @ moved[bi])[:, 0]
            target += np.add.reduce(np.abs(coeffs), axis=1)[:, None] * psi
            norms = _norms(target)
            # every coefficient vanishes only where Q = 0, a critical point
            stuck = norms <= 1e-12
            if stuck.any():
                target[stuck], norms[stuck] = psi[stuck], 1.0
            psi = target / norms[:, None]
            letters = action[2]
            if letters is not None and any_settled:
                psi[settled] = _qubit_maximizer(weights[settled], letters)
            factors[bi][rows] = psi
            exps[bi] = _survey(action, psi, moved[bi])
        new_values = _q_values(exps)
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
    neither towards ``iterations_used`` and ``MAX_SWEEPS`` nor
    towards settling and convergence, which plain sweeps alone decide.
    A partition without a block of two or more qubits takes no trial.

    Neither step has a step size, so restarts move together, in batches
    that cache at most _BATCH_AMPLITUDES amplitudes s_b psi_b where a
    restart allows; a restart leaves its batch once its sweep gain is at
    most ``CONVERGENCE_TOL`` times max(1, Q).
    """
    if config is None:
        config = OracleConfig()
    check_partition_width(part, sigma.width)
    check_work_budget(sigma, [part], config)

    blocks = part.blocks
    actions = [_block_action(sigma, block) for block in blocks]
    rng = np.random.default_rng(config.seed)
    # drawn restart by restart, block by block, so restart r starts from
    # the same factors whatever the restart count
    draws = [
        [haar_unit(rng, 1 << len(b)) for b in blocks]
        for _ in range(config.restarts)
    ]
    per_restart = len(sigma) * sum(1 << len(b) for b in blocks)
    size = max(1, _BATCH_AMPLITUDES // per_restart)
    runs = [
        _ascend(actions, draws[start : start + size])
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
