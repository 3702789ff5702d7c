"""Separability thresholds from clique numbers of cut-commutativity graphs.

For a fixed partition, members that pairwise cut-commute have a common
eigenstate in every block, and the product of those eigenstates gives
each of them expectation +-1.  So product states across the cut attain
the clique number omega of the cut-commutativity graph: omega is a lower
bound on the largest criterion value over those product states, and not
in general the largest.  pad4 (``xy11 1x11 xzy1 1yx1 yyz1 xzz1 xx11
zxx1``) has omega 2 on ``ABC|D``, and a product state across that cut
reaches Q = 2.0938.  The report still uses omega as every partition's
threshold, so a claim built on it holds only where omega is also the
product-state maximum; ``verify`` compares the two numerically.  Mixing
cannot raise the maximum: a convex combination never beats its best
component, so the threshold for a whole separability class is the
largest over the partitions the class contains.  States with no
separability restriction are governed by the plain commutativity graph
instead: its clique number is reachable by a common eigenstate, and the
chromatic number caps every state because each colour class is a
pairwise anticommuting family contributing at most 1.
``criteria_report`` is the one route from a set to its rows and its
class and no-cut bounds: one ``cut_graphs`` pass yields the graph of
every orbit representative.  ``verify`` and ``bounds --verify`` check the
report's rows, taking each bound from its row.  ``bound_for_partition``
serves a single partition, as the library's ``verify_bound`` does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cuts import (
    Partition,
    enumerate_bipartitions,
    partition_orbits,
    symmetry_group,
)
from .errors import CapExceeded
from .graphs import (
    build_graph,
    check_clique_cap,
    chromatic_number,
    cut_graphs,
    max_clique,
)
from .pauli import OperatorSet, PauliString, permute

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
    """Raise unless the members pairwise cut-commute, by the parity rule of
    ``cuts``: a pair cut-anticommutes when its symplectic overlap has odd
    weight on some block.  Checked pair by pair, not by the cut kernel."""
    for m in members:
        if m.width != part.width:
            raise ValueError(
                f"partition width {part.width} does not match operators "
                f"of width {m.width}"
            )
    masks = part.masks
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            w = (a.x_bits & b.z_bits) ^ (a.z_bits & b.x_bits)
            for mask in masks:
                if (w & mask).bit_count() & 1:
                    raise RuntimeError("bound witness failed the cut relation check")


def bound_for_partition(
    sigma: OperatorSet, part: Partition
) -> tuple[int, tuple[PauliString, ...]]:
    """Clique-number threshold for states product across one partition.

    Returns the clique number of the cut-commutativity graph, which such
    states attain, and the witness members, re-verified against the cut
    relation.
    """
    g = build_graph(sigma, part, "commute")
    result = max_clique(g)
    witness = tuple(sigma.members[i] for i in result.witness)
    _verify_cut_clique(witness, part)
    return result.size, witness


def criteria_report(sigma: OperatorSet, *, quantum_upper: bool = False) -> BoundReport:
    """Bounds for the finest partition and every bipartition, plus the
    no-cut quantum values, with orbit pruning under the set's symmetries."""
    width = sigma.width
    # every graph below has one vertex per member; refuse before any search
    check_clique_cap(len(sigma))
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

    # one graph per orbit, from one pass of the cut kernel; first-met order
    reps = list(dict.fromkeys(orbits[part][0] for part in parts))
    cliques = {rep: max_clique(g) for rep, g in zip(reps, cut_graphs(sigma, reps))}
    text_of = dict(zip(sigma.members, sigma.texts()))
    per_partition: dict[Partition, PartitionBound] = {}
    for part in parts:
        rep, g = orbits[part]
        result = cliques[rep]
        members = tuple(sigma.members[i] for i in result.witness)
        if g != identity:
            members = tuple(permute(m, g) for m in members)
        _verify_cut_clique(members, part)
        try:
            witness = tuple(sorted(text_of[m] for m in members))
        except KeyError:
            raise RuntimeError(
                "permuted bound witness is not a member of sigma"
            ) from None
        per_partition[part] = PartitionBound(result.size, witness, rep)

    class_bounds: dict[str, int] = {
        "full_separability": per_partition[finest].bound
    }
    if bipartitions:
        class_bounds["any_bipartition"] = max(
            per_partition[p].bound for p in bipartitions
        )

    plain = build_graph(sigma, Partition.single_block(width), "commute")
    clique = max_clique(plain)
    upper = chromatic_number(plain)[0] if quantum_upper else None

    notes.append(
        f"symmetry group order {len(group)}; "
        f"{len(parts)} partitions in {len(reps)} orbits"
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

    A claim appears only when the value strictly exceeds the threshold;
    equal values certify nothing.  The thresholds are the report's clique
    numbers, which product states attain but may exceed (pad4 reaches
    2.0938 across ``ABC|D``, whose clique number is 2), so a claim is
    proven only where its clique number is also the product-state
    maximum.  A value above ``quantum_lower``, the no-cut clique number,
    earns a warning to check the inputs; that value too is attained, not
    proven maximal.
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
