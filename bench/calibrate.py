"""Reference kernels that measure how fast the machine runs a kind of work.

On a shared virtual machine the speed of a core drifts by up to a factor
of two over tens of seconds, with the load of other tenants, and a 30 s
run can sit wholly in a slow or a fast phase.  While the untraced passes
run, a ``Sampler`` times a fixed kernel every INTERVAL_S, and the runner
reports the jobs' seconds scaled by the mean of ``NOMINAL_S / kernel
time`` over the samples: the machine's relative speed integrated over the
pass, since the samples are evenly spaced in time.  This gives seconds at
nominal speed.  The mean follows speed changes within a pass, which the
median of the kernel times does not; on the oracle workload it cut the
spread of scaled times across seeds from about 0.08 to 0.01.  Each workload's kernel is a small
frozen copy of the kind of loop its time goes to (the oracle's step-size
ladder on small complex arrays, the cut test by restriction, the symmetry
closure check), so that both slow down alike.  The kernels belong to the
benchmark and do not change with the program, so a faster program still
reads faster.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

_PERMS = list(itertools.permutations(range(5)))
_GROUP = set(_PERMS)


def _tuples() -> int:
    """Group closure test: compose permutations, look them up in a set."""
    hits = 0
    for g in _PERMS[:100]:
        for h in _PERMS:
            hits += tuple(g[h[i]] for i in range(5)) in _GROUP
    return hits


@dataclass(frozen=True)
class _Pauli:
    width: int
    x: int
    z: int

    def __post_init__(self) -> None:
        mask = (1 << self.width) - 1
        if self.width < 1 or self.x & ~mask or self.z & ~mask:
            raise ValueError("bits outside the width")


def _restrict(p: _Pauli, block) -> _Pauli:
    x = z = 0
    for new, old in enumerate(sorted(set(block))):
        x |= ((p.x >> old) & 1) << new
        z |= ((p.z >> old) & 1) << new
    return _Pauli(len(block), x, z)


_OPS = [_Pauli(10, (i * 37) & 1023, (i * 91) & 1023) for i in range(1, 49)]
_BLOCKS = ((0, 2, 3, 7), (1, 4, 5, 6, 8, 9))


def _objects() -> int:
    """Cut test by restriction: build restricted strings per block and
    compare symplectic parities, pair by pair."""
    anti = 0
    for i, p in enumerate(_OPS):
        for q in _OPS[i + 1:]:
            anti += any(
                ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2
                for a, b in ((_restrict(p, blk), _restrict(q, blk)) for blk in _BLOCKS)
            )
    return anti


_RNG = np.random.default_rng(0)
_MATS = _RNG.standard_normal((8, 4, 4)) + 1j * _RNG.standard_normal((8, 4, 4))
_MATS = _MATS + _MATS.conj().transpose(0, 2, 1)
_WEIGHTS = _RNG.random(8)
_ALPHAS = 0.5 ** np.arange(34)


def _numpy() -> float:
    """Projected gradient steps on sum_s w_s <u|A_s|u>^2 with a vectorized
    step-size ladder, on small complex arrays."""
    count, dim = _MATS.shape[:2]
    flat = _MATS.reshape(count * dim, dim)
    u = np.ones(dim, dtype=complex) / np.sqrt(dim)
    for _ in range(200):
        moved = _MATS @ u
        exps = (moved @ u.conj()).real
        grad = 4.0 * ((_WEIGHTS * exps) @ moved)
        grad = grad - np.vdot(u, grad).real * u
        cands = u[None, :] + _ALPHAS[:, None] * grad[None, :]
        cands = cands / np.linalg.norm(cands, axis=1)[:, None]
        moved_all = (flat @ cands.T).T.reshape(-1, count, dim)
        cand_exps = np.sum(moved_all * cands.conj()[:, None, :], axis=2).real
        values = np.sum(_WEIGHTS * cand_exps * cand_exps, axis=1)
        u = cands[int(np.argmax(values))]
    return float(values.max())


KERNELS = {"oracle": _numpy, "cuts-scale": _objects, "symmetric": _tuples}

# Kernel seconds at nominal speed: the fast state of an Intel Xeon
# 2.0 GHz 2-vCPU virtual machine with Python 3.11 and numpy 2.4.
NOMINAL_S = {"oracle": 0.0095, "cuts-scale": 0.0090, "symmetric": 0.0090}
INTERVAL_S = 0.25
# Seconds a fresh interpreter takes to import numpy at nominal speed; the
# runner scales set-up samples by it over a baseline start timed just before.
NUMPY_START_S = 0.16


class Sampler:
    """Runs the workload's kernel every INTERVAL_S of wall time from a
    SIGALRM handler, between the program's bytecodes, so that the samples
    cover the same seconds as the jobs.  ``spent_s`` is the time the
    handler took; the runner subtracts it from the jobs' times."""

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        KERNELS[self.workload]()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def __enter__(self) -> "Sampler":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from seconds now to seconds at nominal speed."""
        return statistics.mean(NOMINAL_S[self.workload] / k for k in self.samples)
