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
class and no-cut bounds.  When the orbit representatives outnumber the
members, one ``cut_cliques`` walk over the plain graph's cliques finds
every representative's clique number and witness; otherwise, or when
that walk runs out of budget, one ``cut_graphs`` pass yields each
representative's graph for its own ``max_clique``.  The no-cut clique
comes from ``bound_for_partition`` on the single-block partition.  Each
orbit's witness, and the no-cut one, is checked once, pair by pair on the
members' bits, by ``cuts.is_cut_clique``, independently of the kernel;
the plain graph is built again only for ``chromatic_number`` under
``quantum_upper``.  Every other row is proved to be its
representative's image under its carrier, and each carrier is proved a
symmetry of the set once, by mapping every member into the set:
relabelling keeps every block parity, so the moved witness is a
cut-clique of the row and the row's bound is its own clique number.
``verify`` checks the report's rows, taking each bound from its row.
``bound_for_partition`` serves a single partition, as the library's
``verify_bound`` does.

``BoundReport.to_json`` is ``json.dumps(to_json_obj(), indent=2)``, byte
for byte, and the tests hold it to that.  CPython skips its C encoder
whenever ``indent`` is set, so a report of many rows cost more to print
than to find; each row is written from one template instead, with its
strings escaped by the escaper ``json.dumps`` uses.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

from .cuts import (
    Partition,
    enumerate_bipartitions,
    is_cut_clique,
    move_masks,
    partition_orbits,
    symmetry_group,
)
from .errors import CapExceeded
from .graphs import (
    build_graph,
    check_clique_cap,
    chromatic_number,
    cut_cliques,
    cut_graphs,
    max_clique,
)
from .pauli import OperatorSet, PauliString, _Frozen, _set, format_pauli, site_map

QUANTUM_CONSISTENCY_TOL = 1e-6
_CUT_CHECK_FAILED = "bound witness failed the cut relation check"
# one row of "partitions" as json.dumps(..., indent=2) nests it in a report
_ROW = """\
    {
      "partition": %s,
      "orbit": %s,
      "bound": %d,
      "witness": %s
    }"""
_WITNESS = "[\n        %s\n      ]"
_WITNESS_SEP = ",\n        "
_NO_ROWS = '\n  "partitions": []'


class _Quoted(dict):
    """Each key's text as a JSON string literal, escaped the way
    ``json.dumps`` escapes it by default, made once on first use."""

    def __missing__(self, key) -> str:
        quoted = self[key] = encode_basestring_ascii(str(key))
        return quoted


class PartitionBound(_Frozen):
    """Bound for one partition, with its witness clique and orbit tag."""

    __slots__ = _fields = ("bound", "witness", "orbit")
    bound: int
    witness: tuple[str, ...]
    orbit: Partition

    def __init__(self, bound: int, witness: tuple[str, ...], orbit: Partition) -> None:
        _set(self, "bound", bound)
        _set(self, "witness", witness)
        _set(self, "orbit", orbit)


class BoundReport(_Frozen):
    """Full criterion report for one operator set.  Reports compare and
    hash by identity: the rows are a dict."""

    __slots__ = _fields = (
        "sigma",
        "width",
        "per_partition",
        "class_bounds",
        "quantum_lower",
        "quantum_witness",
        "quantum_upper",
        "notes",
    )
    sigma: tuple[str, ...]
    width: int
    per_partition: dict
    class_bounds: dict
    quantum_lower: int
    quantum_witness: tuple[str, ...]
    quantum_upper: int | None
    notes: tuple[str, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        sigma: tuple[str, ...],
        width: int,
        per_partition: dict,
        class_bounds: dict,
        quantum_lower: int,
        quantum_witness: tuple[str, ...],
        quantum_upper: int | None,
        notes: tuple[str, ...] = (),
    ) -> None:
        _set(self, "sigma", sigma)
        _set(self, "width", width)
        _set(self, "per_partition", per_partition)
        _set(self, "class_bounds", class_bounds)
        _set(self, "quantum_lower", quantum_lower)
        _set(self, "quantum_witness", quantum_witness)
        _set(self, "quantum_upper", quantum_upper)
        _set(self, "notes", notes)

    def to_json_obj(self) -> dict:
        return self._json_obj(
            [
                {
                    "partition": str(part),
                    "orbit": str(row.orbit),
                    "bound": row.bound,
                    "witness": list(row.witness),
                }
                for part, row in self.per_partition.items()
            ]
        )

    def _json_obj(self, rows: list) -> dict:
        """The report as ``to_json_obj`` gives it, with ``rows`` as its
        partition rows."""
        return {
            "sigma": list(self.sigma),
            "width": self.width,
            "partitions": rows,
            "class_bounds": dict(self.class_bounds),
            "quantum": {
                "lower": self.quantum_lower,
                "witness": list(self.quantum_witness),
                "upper": self.quantum_upper,
            },
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_obj(), indent=2)``, byte for byte.

        CPython skips its C encoder whenever ``indent`` is set, and the
        partition rows are nearly all of a report, so each row is written
        from one template instead.  Each distinct partition's text and each
        member's escaped text is made once; orbit texts repeat across rows.
        The head and the tail still come from ``json.dumps``."""
        # every other field through json.dumps; a JSON string holds no raw
        # newline, so the empty rows' line is found only as the report's key
        text = json.dumps(self._json_obj([]), indent=2)
        if not self.per_partition:
            return text
        head, _, tail = text.partition(_NO_ROWS)
        names, members = _Quoted(), _Quoted()
        rows = ",\n".join(
            [
                _ROW
                % (
                    names[part],
                    names[row.orbit],
                    row.bound,
                    _WITNESS % _WITNESS_SEP.join([members[m] for m in row.witness])
                    if row.witness
                    else "[]",
                )
                for part, row in self.per_partition.items()
            ]
        )
        return '%s\n  "partitions": [\n%s\n  ]%s' % (head, rows, tail)


class Claim(_Frozen):
    """One certified exclusion: the state lies outside the named class."""

    __slots__ = _fields = ("claim", "threshold")
    claim: str
    threshold: float

    def __init__(self, claim: str, threshold: float) -> None:
        _set(self, "claim", claim)
        _set(self, "threshold", threshold)


class Verdict(_Frozen):
    """Classification of a measured criterion value against a report."""

    __slots__ = _fields = ("q_value", "claims", "warnings")
    q_value: float
    claims: tuple[Claim, ...]
    warnings: tuple[str, ...]

    def __init__(
        self, q_value: float, claims: tuple[Claim, ...], warnings: tuple[str, ...] = ()
    ) -> None:
        _set(self, "q_value", q_value)
        _set(self, "claims", claims)
        _set(self, "warnings", warnings)

    def to_json_obj(self) -> dict:
        return {
            "q_value": self.q_value,
            "claims": [
                {"claim": c.claim, "threshold": c.threshold} for c in self.claims
            ],
            "warnings": list(self.warnings),
        }


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
    if not is_cut_clique(witness, part):
        raise RuntimeError(_CUT_CHECK_FAILED)
    return result.size, witness


def criteria_report(sigma: OperatorSet, *, quantum_upper: bool = False) -> BoundReport:
    """Bounds for the finest partition and every bipartition, plus the
    no-cut quantum values, with orbit pruning under the set's symmetries."""
    width = sigma.width
    # every graph below has one vertex per member; refuse before any search
    check_clique_cap(len(sigma))
    # the bipartition cap reads the width alone, before any partition is built
    bipartitions = enumerate_bipartitions(width) if width >= 2 else []
    finest = Partition.finest(width)
    # at width 2 the finest partition is the one bipartition
    parts = [finest] + [p for p in bipartitions if p != finest]
    notes: list[str] = []
    try:
        group = symmetry_group(sigma)
        gens, order = group.generators, len(group)
    except CapExceeded as exc:
        gens, order = (), 1
        notes.append(f"identity group used: {exc}; orbits not pruned")
    # generators are symmetries, so all they generate are
    orbits = partition_orbits(parts, gens)
    identity = tuple(range(width))

    # one clique per orbit, in first-met order.  With more orbits than
    # members, one walk over the plain graph's cliques serves them all,
    # unless it runs out of budget; else one pass of the cut kernel yields
    # each orbit's graph for its own search.  Each orbit's witness is
    # certified once, on its representative
    placed = [orbits[part] for part in parts]
    reps = list(dict.fromkeys(rep for rep, _ in placed))
    results = cut_cliques(sigma, reps) if len(reps) > len(sigma) else None
    if results is None:
        results = map(max_clique, cut_graphs(sigma, reps))
    cliques = dict(zip(reps, results))
    for rep, result in cliques.items():
        if not is_cut_clique([sigma.members[i] for i in result.witness], rep):
            raise RuntimeError(_CUT_CHECK_FAILED)
    # A row is proved to be its representative's image under its carrier.
    # Each distinct carrier is proved a symmetry of sigma once: every member
    # moved by its site map must be a member, and a relabelling is
    # injective, so the map is then a bijection of sigma.  The carrier must
    # also send the representative's block masks onto the row's (both
    # sorted by lowest site).  Relabelling keeps every block parity, so the
    # witness moved by index is a cut-clique of the row, and the row's bound
    # is its own clique number.  No string is built and no pair re-checked.
    index_of = {(m.x_bits, m.z_bits): i for i, m in enumerate(sigma.members)}
    xs = [m.x_bits for m in sigma.members]
    zs = [m.z_bits for m in sigma.members]
    texts = sigma.texts()
    carriers = {}  # carrier -> (site map, text of each member's image)
    per_partition: dict[Partition, PartitionBound] = {}
    for part, (rep, g) in zip(parts, placed):
        result = cliques[rep]
        image, named = rep.masks, texts
        if g != identity:
            carrier = carriers.get(g)
            if carrier is None:
                move = site_map(g, width)
                perm = list(map(index_of.get, zip(map(move, xs), map(move, zs))))
                if None in perm:
                    raise RuntimeError(
                        f"orbit carrier {g} moves {texts[perm.index(None)]} "
                        "to a string that is not a member of sigma"
                    )
                carrier = carriers[g] = (move, [texts[i] for i in perm])
            move, named = carrier
            image = move_masks(move, image)
        if image != part.masks:
            raise RuntimeError(f"orbit carrier does not send {rep} onto {part}")
        witness = tuple(sorted(map(named.__getitem__, result.witness)))
        per_partition[part] = PartitionBound(result.size, witness, rep)

    # rows in the order of parts: the finest partition, then the others
    values = [row.bound for row in per_partition.values()]
    class_bounds: dict[str, int] = {"full_separability": values[0]}
    if bipartitions:
        class_bounds["any_bipartition"] = max(values[-len(bipartitions) :])

    single = Partition.single_block(width)
    lower, plain_witness = bound_for_partition(sigma, single)
    upper = None
    if quantum_upper:
        upper = chromatic_number(build_graph(sigma, single, "commute"))[0]

    notes.append(
        f"symmetry group order {order}; "
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
        quantum_lower=lower,
        quantum_witness=tuple(map(format_pauli, plain_witness)),
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
    if not math.isfinite(q_value):
        raise ValueError(f"criterion value must be finite, got {q_value}")
    if q_value < 0:
        raise ValueError(f"criterion value cannot be negative, got {q_value}")
    claims: list[Claim] = []
    full = report.class_bounds["full_separability"]
    if q_value > full:
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
