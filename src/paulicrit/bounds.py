"""Separability bounds from clique numbers of cut-commutativity graphs.

For a fixed partition, a state that is a product across the cut can
saturate a family of members only when they pairwise cut-commute, so the
clique number of the cut-commutativity graph bounds the criterion value
on that partition's product states.  Mixing cannot help: a convex
combination never beats its best component, so the bound for a whole
separability class is the maximum clique number over the partitions the
class contains.  States with no separability restriction are governed by
the plain commutativity graph instead: its clique number is reachable by
a common eigenstate, and the chromatic number caps every state because
each colour class is a pairwise anticommuting family contributing at
most 1.  ``criteria_report`` is the one route from a set to its class
and no-cut bounds; ``bound_for_partition`` serves a single partition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cuts import (
    Partition,
    cut_commute,
    enumerate_bipartitions,
    partition_orbits,
    symmetry_group,
)
from .errors import CapExceeded
from .graphs import (
    CLIQUE_VERTEX_CAP,
    COLOR_VERTEX_CAP,
    build_graph,
    check_clique_cap,
    chromatic_number,
    max_clique,
)
from .pauli import OperatorSet, PauliString, format_pauli, permute

QUANTUM_CONSISTENCY_TOL = 1e-6


@dataclass(frozen=True)
class PartitionBound:
    """Bound for one partition, with its witness clique and orbit tag."""

    bound: int
    witness: tuple[str, ...]
    orbit: Partition


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Full criterion report for one operator set."""

    sigma: tuple[str, ...]
    width: int
    per_partition: dict
    class_bounds: dict
    quantum_lower: int
    quantum_witness: tuple[str, ...]
    quantum_upper: int | None
    notes: tuple[str, ...] = field(default=())

    def to_json_obj(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "width": self.width,
            "partitions": [
                {
                    "partition": str(part),
                    "orbit": str(row.orbit),
                    "bound": row.bound,
                    "witness": list(row.witness),
                }
                for part, row in self.per_partition.items()
            ],
            "class_bounds": dict(self.class_bounds),
            "quantum": {
                "lower": self.quantum_lower,
                "witness": list(self.quantum_witness),
                "upper": self.quantum_upper,
            },
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


@dataclass(frozen=True)
class Claim:
    """One certified exclusion: the state lies outside the named class."""

    claim: str
    threshold: float


@dataclass(frozen=True)
class Verdict:
    """Classification of a measured criterion value against a report."""

    q_value: float
    claims: tuple[Claim, ...]
    warnings: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "q_value": self.q_value,
            "claims": [
                {"claim": c.claim, "threshold": c.threshold} for c in self.claims
            ],
            "warnings": list(self.warnings),
        }


def _verify_cut_clique(
    members: tuple[PauliString, ...], part: Partition
) -> None:
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not cut_commute(a, b, part):
                raise RuntimeError("bound witness failed the cut relation check")


def bound_for_partition(
    sigma: OperatorSet, part: Partition, cap: int = CLIQUE_VERTEX_CAP
) -> tuple[int, tuple[PauliString, ...]]:
    """Criterion bound for states product across one partition.

    Returns the clique number of the cut-commutativity graph and the
    witness members, re-verified against the cut relation.
    """
    g = build_graph(sigma, part, "commute")
    result = max_clique(g, cap)
    witness = tuple(sigma.members[i] for i in result.witness)
    _verify_cut_clique(witness, part)
    return result.size, witness


def criteria_report(
    sigma: OperatorSet,
    *,
    quantum_upper: bool = False,
    clique_cap: int = CLIQUE_VERTEX_CAP,
    color_cap: int = COLOR_VERTEX_CAP,
) -> BoundReport:
    """Bounds for the finest partition and every bipartition, plus the
    no-cut quantum values, with orbit pruning under the set's symmetries."""
    width = sigma.width
    # every graph below has one vertex per member; refuse before any search
    check_clique_cap(len(sigma), clique_cap)
    notes: list[str] = []
    try:
        group = symmetry_group(sigma)
    except CapExceeded as exc:
        group = [tuple(range(width))]
        notes.append(f"identity group used: {exc}; orbits not pruned")

    finest = Partition.finest(width)
    bipartitions = enumerate_bipartitions(width) if width >= 2 else []
    # at width 2 the finest partition is the one bipartition
    parts = [finest] + [p for p in bipartitions if p != finest]
    orbits = partition_orbits(parts, group)
    identity = tuple(range(width))

    cache: dict[Partition, tuple[int, tuple[PauliString, ...]]] = {}
    per_partition: dict[Partition, PartitionBound] = {}
    for part in parts:
        rep, g = orbits[part]
        if rep not in cache:
            cache[rep] = bound_for_partition(sigma, rep, clique_cap)
        bound, members = cache[rep]
        if g != identity:
            members = tuple(permute(m, g) for m in members)
        _verify_cut_clique(members, part)
        witness = tuple(sorted(format_pauli(m) for m in members))
        per_partition[part] = PartitionBound(bound, witness, rep)

    class_bounds: dict[str, int] = {
        "full_separability": per_partition[finest].bound
    }
    if bipartitions:
        class_bounds["any_bipartition"] = max(
            per_partition[p].bound for p in bipartitions
        )

    plain = build_graph(sigma, Partition.single_block(width), "commute")
    clique = max_clique(plain, clique_cap)
    upper = chromatic_number(plain, color_cap)[0] if quantum_upper else None

    notes.append(
        f"symmetry group order {len(group)}; "
        f"{len(parts)} partitions in {len(cache)} orbits"
    )
    notes.append(
        "class bounds take the maximum over member partitions; "
        "mixing never exceeds the best component"
    )
    if upper is not None:
        notes.append(
            f"colouring upper bound {upper}: no state of this width exceeds it"
        )

    return BoundReport(
        sigma=sigma.texts(),
        width=width,
        per_partition=per_partition,
        class_bounds=class_bounds,
        quantum_lower=clique.size,
        quantum_witness=tuple(plain.labels[i] for i in clique.witness),
        quantum_upper=upper,
        notes=tuple(notes),
    )


def classify(q_value: float, report: BoundReport) -> Verdict:
    """Turn a measured criterion value into exclusion claims.

    A claim appears only when the value strictly exceeds the bound; equal
    values certify nothing.  A value above the no-cut reachable maximum
    earns a warning, since no state of the declared width can get there.
    """
    if q_value < 0:
        raise ValueError(f"criterion value cannot be negative, got {q_value}")
    claims: list[Claim] = []
    full = report.class_bounds.get("full_separability")
    if full is not None and q_value > full:
        claims.append(Claim("entangled (not fully separable)", float(full)))
    finest = Partition.finest(report.width)
    for part, row in report.per_partition.items():
        if part == finest:
            continue
        if q_value > row.bound:
            claims.append(
                Claim(f"not separable w.r.t. {part}", float(row.bound))
            )
    genuine = report.class_bounds.get("any_bipartition")
    if genuine is not None and q_value > genuine:
        claims.append(
            Claim("genuinely multipartite entangled", float(genuine))
        )
    warnings: tuple[str, ...] = ()
    if q_value > report.quantum_lower + QUANTUM_CONSISTENCY_TOL:
        warnings = (
            f"value {q_value} exceeds the no-cut maximum "
            f"{report.quantum_lower}; check the inputs",
        )
    return Verdict(q_value, tuple(claims), warnings)
