"""Command line surface for bound reports, graphs, evaluation, verification.

``verify`` and ``bounds --verify`` take one route and print the same rows:
the oracle's admission check on the finest partition, which every
verification searches, then the ``criteria_report`` of the set, then the
oracle on its finest partition and sorted orbit representatives, each
against its row's bound.  So the symmetry search runs once, and a set the
oracle can never search is refused before its report is built.

numpy loads only with ``states`` and ``oracle``, which this module imports
inside the commands that use them: ``verify``, ``eval``, ``bounds
--verify`` and ``generate --clique-state``.  ``bounds``, ``graph`` and
``generate --cp`` run on the bit-level modules alone and never import it.

Exit codes: 0 success, 1 soundness violation during verification, 2 for
parse and input errors, 3 when a size cap is exceeded.  Errors print one
diagnostic line to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import graphs
from .bounds import BoundReport, classify, criteria_report
from .cuts import Partition, parse_partition
# no command calls these two or verify_bound below; bench/spans.py wraps
# them by name here, so they stay until a change to the benchmark drops
# them from its targets (CHANGES.md names this)
from .cuts import orbit_representatives, symmetry_group  # noqa: F401
from .errors import CapExceeded, ParseError
from .graphs import build_graph, export_dot, max_clique
from .pauli import OperatorSet, cp_expand, parse_pauli

_NAMED_STATES = ("ghz", "w", "smolin", "basis")


# These three stay names of this module, which the commands call through,
# because bench/spans.py wraps ``cli.evaluate_q``, ``cli.load_state`` and
# ``cli.verify_bound``.
def evaluate_q(state, sigma: OperatorSet):
    """``states.evaluate_q``, imported on first call: it loads numpy."""
    from .states import evaluate_q

    return evaluate_q(state, sigma)


def load_state(path):
    """``states.load_state``, imported on first call: it loads numpy."""
    from .states import load_state

    return load_state(path)


def verify_bound(sigma: OperatorSet, part: Partition, config=None):
    """``oracle.verify_bound``, imported on first call: it loads numpy."""
    from .oracle import verify_bound

    return verify_bound(sigma, part, config)


def _load_sigma(path: str) -> OperatorSet:
    try:
        return OperatorSet.from_file(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _resolve_state(spec: str, width: int):
    name, _, detail = spec.partition(":")
    if name.lower() in _NAMED_STATES:
        from .states import named_state

        return named_state(name, width, detail or None)
    try:
        return load_state(spec)
    except OSError as exc:
        raise ParseError(f"{spec}: {exc.strerror or exc}") from exc


def _format_table(rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _verification_rows(records) -> list[str]:
    rows = [
        ("partition", "graph_bound", "oracle_value", "gap", "saturated", "converged")
    ]
    for rec in records:
        status = "yes" if rec.saturated else "no"
        if rec.violation:
            status = "VIOLATION"
        rows.append(
            (
                str(rec.partition),
                str(rec.graph_bound),
                f"{rec.oracle_value:.9f}",
                # an exact oracle value can leave a gap of -4e-16; rounding
                # first and adding 0.0 prints it as 0, not -0
                f"{round(rec.gap, 9) + 0.0:.9f}",
                status,
                "yes" if rec.converged else "no",
            )
        )
    return _format_table(rows)


def _admitted_config(sigma: OperatorSet, args):
    """The oracle settings of ``args``, admitted on the finest partition,
    which every verification searches, before any report is built."""
    from .oracle import OracleConfig, check_work_budget

    config = OracleConfig(restarts=args.restarts, seed=args.seed)
    check_work_budget(sigma, [Partition.finest(sigma.width)], config)
    return config


def _verification_records(sigma: OperatorSet, report: BoundReport, config) -> list:
    """Oracle check of the finest partition and the report's sorted orbit
    representatives against their rows' bounds, refused before any search
    when those partitions together exceed the oracle's work budget."""
    from .oracle import check_work_budget, verify_against

    finest = Partition.finest(sigma.width)
    reps = sorted({row.orbit for row in report.per_partition.values()})
    parts = [finest] + [rep for rep in reps if rep != finest]
    check_work_budget(sigma, parts, config)
    rows = report.per_partition
    return [verify_against(sigma, part, rows[part].bound, config) for part in parts]


def _verification_exit(records) -> int:
    """1 with a diagnostic when the oracle exceeded any graph bound, else 0."""
    if any(rec.violation for rec in records):
        print("error: oracle exceeded a graph bound; see verification rows",
              file=sys.stderr)
        return 1
    return 0


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_bounds(args) -> int:
    sigma = _load_sigma(args.sigma)
    config = _admitted_config(sigma, args) if args.verify else None
    report = criteria_report(sigma, quantum_upper=args.quantum_upper)
    records = None if config is None else _verification_records(sigma, report, config)
    if args.json:
        obj = report.to_json_obj()
        if records is not None:
            obj["verification"] = [rec.to_json_obj() for rec in records]
        print(json.dumps(obj, indent=2))
    else:
        lines = [f"sigma: {len(report.sigma)} operators, width {report.width}", ""]
        rows = [("partition", "orbit", "bound", "witness")]
        for part, row in report.per_partition.items():
            rows.append(
                (str(part), str(row.orbit), str(row.bound), " ".join(row.witness))
            )
        lines.extend(_format_table(rows))
        lines.append("")
        for name, value in report.class_bounds.items():
            lines.append(f"{name}: {value}")
        witness = " ".join(report.quantum_witness)
        lines.append(f"quantum_lower: {report.quantum_lower} (witness: {witness})")
        upper = "not computed" if report.quantum_upper is None else report.quantum_upper
        lines.append(f"quantum_upper: {upper}")
        for note in report.notes:
            lines.append(f"note: {note}")
        if records is not None:
            lines.append("")
            lines.extend(_verification_rows(records))
        print("\n".join(lines))
    return 0 if records is None else _verification_exit(records)


def cmd_graph(args) -> int:
    sigma = _load_sigma(args.sigma)
    part = (
        parse_partition(args.cut, sigma.width)
        if args.cut
        else Partition.single_block(sigma.width)
    )
    if len(sigma) > graphs.GRAPH_VERTEX_CAP:
        raise CapExceeded(
            f"graph export on {len(sigma)} vertices exceeds cap "
            f"{graphs.GRAPH_VERTEX_CAP}"
        )
    graph = build_graph(sigma, part, args.relation)
    if args.json:
        _write_output(json.dumps(graph.to_json_obj(), indent=2) + "\n", args.output)
    else:
        _write_output(export_dot(graph), args.output)
    return 0


def cmd_eval(args) -> int:
    sigma = _load_sigma(args.sigma)
    state = _resolve_state(args.state, sigma.width)
    qvalue = evaluate_q(state, sigma)
    report = criteria_report(sigma)
    verdict = classify(qvalue.value, report)
    if args.json:
        obj = {"q": qvalue.to_json_obj(), "verdict": verdict.to_json_obj()}
        print(json.dumps(obj, indent=2))
    else:
        lines = [f"Q = {qvalue.value:.10f}"]
        rows = [("operator", "contribution")]
        for text, term in qvalue.contributions.items():
            rows.append((text, f"{term:.10f}"))
        lines.extend(_format_table(rows))
        if verdict.claims:
            for claim in verdict.claims:
                lines.append(f"claim: {claim.claim} (bound {claim.threshold:g})")
        else:
            lines.append("claim: none (no bound exceeded)")
        for warning in verdict.warnings:
            lines.append(f"warning: {warning}")
        print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    sigma = _load_sigma(args.sigma)
    config = _admitted_config(sigma, args)
    records = _verification_records(sigma, criteria_report(sigma), config)
    if args.json:
        print(json.dumps([rec.to_json_obj() for rec in records], indent=2))
    else:
        print("\n".join(_verification_rows(records)))
    return _verification_exit(records)


def cmd_generate(args) -> int:
    if args.cp is not None:
        members = []
        for token in args.cp.split(","):
            token = token.strip()
            if not token:
                continue
            members.extend(cp_expand(parse_pauli(token)).members)
        if not members:
            raise ParseError("no patterns given to --cp")
        try:
            sigma = OperatorSet(members)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        _write_output("\n".join(sigma.texts()) + "\n", args.output)
        return 0
    from .states import check_eigenstate_cap, common_eigenstate, state_to_json_obj

    sigma = _load_sigma(args.clique_state)
    # the eigenstate's width cap is cheap; refuse before the clique search
    check_eigenstate_cap(sigma.width)
    graph = build_graph(sigma, Partition.single_block(sigma.width), "commute")
    clique = max_clique(graph)
    ops = [sigma.members[i] for i in clique.witness]
    state = common_eigenstate(ops)
    _write_output(
        json.dumps(state_to_json_obj(state), indent=2) + "\n", args.output
    )
    return 0


def _add_oracle_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="oracle RNG seed")
    sub.add_argument("--restarts", type=int, default=64,
                     help="oracle restart count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulicrit",
        description=(
            "Entanglement criteria from cut-commutativity graphs of "
            "Pauli operator sets"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_bounds = subs.add_parser(
        "bounds", help="separability bounds and quantum values for an operator set"
    )
    p_bounds.add_argument("sigma", help="operator set file, one Pauli string per line")
    p_bounds.add_argument("--json", action="store_true", help="machine output")
    p_bounds.add_argument("--verify", action="store_true",
                          help="run the numerical oracle against every orbit")
    p_bounds.add_argument("--quantum-upper", action="store_true",
                          help="also run the exact colouring upper bound")
    _add_oracle_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_graph = subs.add_parser("graph", help="export a cut relation graph")
    p_graph.add_argument("sigma", help="operator set file")
    p_graph.add_argument("--cut", default=None,
                         help="partition text such as A|BC or 0,2|1,3 (default: no cut)")
    p_graph.add_argument("--relation", choices=("commute", "anticommute"),
                         default="commute", help="edge relation (default commute)")
    p_graph.add_argument("--json", action="store_true",
                         help="JSON {labels, edges} instead of DOT")
    p_graph.add_argument("-o", "--output", default=None, help="output path")
    p_graph.set_defaults(func=cmd_graph)

    p_eval = subs.add_parser(
        "eval", help="criterion value of a state plus its verdict"
    )
    p_eval.add_argument("sigma", help="operator set file")
    p_eval.add_argument("--state", required=True,
                        help="ghz | w | smolin | basis:BITS | path to a state file")
    p_eval.add_argument("--json", action="store_true", help="machine output")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = subs.add_parser(
        "verify", help="oracle check of every partition orbit bound"
    )
    p_verify.add_argument("sigma", help="operator set file")
    p_verify.add_argument("--json", action="store_true", help="machine output")
    _add_oracle_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = subs.add_parser(
        "generate", help="write an operator set or a clique eigenstate"
    )
    source = p_gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--cp", default=None,
                        help="comma-separated patterns to close under cyclic rotation")
    source.add_argument("--clique-state", default=None,
                        help="operator set file; writes the max-clique common eigenstate")
    p_gen.add_argument("-o", "--output", default=None, help="output path")
    p_gen.set_defaults(func=cmd_generate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, since parsing
    leaves it unchanged and building one leaves hundreds of objects in
    reference cycles."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
