"""Independent reference answers for the benchmark's output checks.

Nothing here imports paulicrit: Pauli strings are parsed from their text
form into (x, z) bitmasks, the cut relation is decided by the symplectic
form, and clique numbers come from a small branch-and-bound search.  Two
strings p, q cut-commute on a partition iff popcount(w & block) is even
for every block, where w = (x_p & z_q) ^ (z_p & x_q).
"""

from __future__ import annotations

import itertools
import random

import numpy as np

_BITS = {"1": (0, 0), "i": (0, 0), "x": (1, 0), "y": (1, 1), "z": (0, 1)}


def parse(text: str) -> tuple[int, int]:
    """(x, z) bitmasks of a site-letter string; qubit 0 is the first letter."""
    x = z = 0
    for pos, ch in enumerate(text.strip().lower()):
        bx, bz = _BITS[ch]
        x |= bx << pos
        z |= bz << pos
    return x, z


def fmt(x: int, z: int, width: int) -> str:
    letters = {(0, 0): "1", (1, 0): "x", (1, 1): "y", (0, 1): "z"}
    return "".join(letters[((x >> i) & 1, (z >> i) & 1)] for i in range(width))


def partition_masks(text: str) -> list[int]:
    """Block bitmasks of a letter partition such as ``AB|CDE``."""
    masks = []
    for block in text.split("|"):
        mask = 0
        for ch in block:
            mask |= 1 << (ord(ch) - ord("A"))
        masks.append(mask)
    return masks


def partition_text(masks: list[int], width: int) -> str:
    """Letter form in the program's canonical order (blocks by smallest site)."""
    blocks = sorted(
        [i for i in range(width) if (m >> i) & 1] for m in masks if m
    )
    return "|".join("".join(chr(ord("A") + i) for i in b) for b in blocks)


def symplectic(p: tuple[int, int], q: tuple[int, int]) -> int:
    return (p[0] & q[1]) ^ (p[1] & q[0])


def cut_commute(p, q, masks: list[int]) -> bool:
    w = symplectic(p, q)
    return all((w & m).bit_count() % 2 == 0 for m in masks)


def witness_problems(witness: list[str], sigma: set[str], masks: list[int]) -> list[str]:
    """Membership and pairwise cut-commutation of a claimed witness clique."""
    problems = [f"witness {t} is not in sigma" for t in witness if t not in sigma]
    ops = [parse(t) for t in witness]
    for (a, pa), (b, pb) in itertools.combinations(zip(witness, ops), 2):
        if not cut_commute(pa, pb, masks):
            problems.append(f"witness pair {a} {b} cut-anticommutes")
    return problems


class CutAlgebra:
    """Cut-commutation graphs of one operator set, built with numpy."""

    def __init__(self, texts: list[str]):
        self.texts = list(texts)
        self.width = len(texts[0])
        ops = [parse(t) for t in texts]
        xs = np.array([o[0] for o in ops], dtype=np.int64)
        zs = np.array([o[1] for o in ops], dtype=np.int64)
        self.w = (xs[:, None] & zs[None, :]) ^ (zs[:, None] & xs[None, :])

    def adjacency(self, masks: list[int]) -> list[int]:
        commute = np.ones(self.w.shape, dtype=bool)
        for m in masks:
            commute &= np.bitwise_count(self.w & m) % 2 == 0
        np.fill_diagonal(commute, False)
        packed = np.packbits(commute, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def omega(self, masks: list[int]) -> int:
        return clique_number(self.adjacency(masks))


def clique_number(adj: list[int]) -> int:
    """Maximum clique size, by branch and bound with a greedy colour bound."""
    best = 0

    def colour_order(cand: int) -> list[tuple[int, int]]:
        order = []
        colour = 0
        while cand:
            colour += 1
            avail = cand
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~adj[v] & ~(1 << v)
                cand &= ~(1 << v)
                order.append((v, colour))
        return order

    def expand(size: int, cand: int) -> None:
        nonlocal best
        for v, colour in reversed(colour_order(cand)):
            if size + colour <= best:
                return
            new = cand & adj[v]
            if new:
                expand(size + 1, new)
            elif size + 1 > best:
                best = size + 1
            cand &= ~(1 << v)

    n = len(adj)
    if n:
        expand(0, (1 << n) - 1)
    return best


def all_partitions(width: int) -> list[list[int]]:
    """Finest partition, then every bipartition, as block-mask lists."""
    full = (1 << width) - 1
    parts = [[1 << i for i in range(width)]]
    if width >= 2:
        for second in range(1, 1 << (width - 1)):
            second <<= 1  # qubit 0 stays in the first block
            if [full & ~second, second] != parts[0]:
                parts.append([full & ~second, second])
    return parts


def random_set(width: int, count: int, seed: int) -> list[str]:
    """``count`` distinct non-identity strings, uniform, sorted by text."""
    rng = random.Random(seed)
    picked: set[tuple[int, int]] = set()
    while len(picked) < count:
        x, z = rng.randrange(1 << width), rng.randrange(1 << width)
        if x or z:
            picked.add((x, z))
    return sorted(fmt(x, z, width) for x, z in picked)


def symmetric_set(width: int) -> list[str]:
    """Every qubit permutation of xx1..1, yy1..1 and zz1..1."""
    texts = []
    for letter in "xyz":
        for i, j in itertools.combinations(range(width), 2):
            sites = ["1"] * width
            sites[i] = sites[j] = letter
            texts.append("".join(sites))
    return sorted(texts)


def cyclic_expansion(patterns: list[str]) -> list[str]:
    """Each pattern with its rotations, first-seen order, no duplicates."""
    out: list[str] = []
    for pattern in patterns:
        for k in range(len(pattern)):
            rotated = pattern[-k:] + pattern[:-k] if k else pattern
            if rotated not in out:
                out.append(rotated)
    return out


_PAULI = {
    "1": np.eye(2),
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1, -1]),
}


def q_value(amplitudes: np.ndarray, texts: list[str]) -> float:
    """Sum of squared expectations of a pure state; qubit 0 is the most
    significant index bit, the first factor of the Kronecker product."""
    total = 0.0
    for text in texts:
        op = np.ones((1, 1))
        for ch in text:
            op = np.kron(op, _PAULI[ch])
        total += float(np.vdot(amplitudes, op @ amplitudes).real) ** 2
    return total


def product_residual(amplitudes: np.ndarray, first_block: int) -> float:
    """Second singular value across the cut after the first ``first_block``
    qubits; zero exactly for a product state."""
    width = int(amplitudes.size).bit_length() - 1
    matrix = amplitudes.reshape(1 << first_block, 1 << (width - first_block))
    return float(np.linalg.svd(matrix, compute_uv=False)[1])
