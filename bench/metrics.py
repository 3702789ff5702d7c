"""Metric definitions.  Names, units and directions are read from
BENCHMARK.json, whose schema has no room for more; MOVES records, for each
per-layer metric, the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
# name: unit
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MOVES = {
    "oracle.maximize_q_product_s": "wall_s on oracle; no change on cuts-scale or symmetric",
    "oracle.maximize_q_product_calls": "wall_s on oracle",
    "oracle.sweeps": "wall_s on oracle",
    "oracle.s_per_sweep": "wall_s on oracle",
    "oracle.converged_fraction": "wall_s on oracle",
    "oracle.saturated_fraction": "correctness on oracle: verify rows that reach the bound",
    "graphs.build_graph_s": "wall_s on cuts-scale; small share on symmetric and oracle",
    "graphs.build_graph_calls": "wall_s on cuts-scale",
    "graphs.edges": "wall_s on cuts-scale",
    "graphs.max_clique_s": "wall_s on cuts-scale, at most its share",
    "graphs.max_clique_calls": "wall_s on cuts-scale",
    "cuts.symmetry_group_s": "wall_s on symmetric; about zero on cuts-scale",
    "cuts.symmetry_group_calls": "wall_s on symmetric",
    "cuts.group_order": "wall_s on symmetric",
    "cuts.orbit_representatives_s": "wall_s on oracle, where verify picks orbits",
    "bounds.criteria_report_s": "wall_s on symmetric and cuts-scale",
    "bounds.criteria_report_self_s": "wall_s on symmetric and cuts-scale",
    "bounds.bound_for_partition_calls": "wall_s on symmetric and cuts-scale",
    "bounds.classify_s": "wall_s on oracle",
    "states.evaluate_q_s": "wall_s on oracle, under 1%",
    "states.evaluate_q_calls": "wall_s on oracle",
    "states.load_state_s": "wall_s on oracle, under 1%",
    "pauli.from_file_s": "setup_s on every workload",
    "cli.self_s": "wall_s on every workload",
    "cli.verify_s": "wall_s on oracle (the verify commands)",
    "cli.bounds_s": "wall_s on cuts-scale and symmetric (the bounds commands)",
    "cli.eval_s": "wall_s on oracle (the eval commands)",
    "trace.overhead_s": "none: traced minus untraced wall_s",
}

# Counts that one commit must reproduce exactly from run to run.
DETERMINISTIC = [name for name, unit in PER_LAYER.items() if unit == "count"]


def layer_values(summary: dict, saturated: tuple[int, int]) -> dict:
    """Per-layer values of one traced pass (trace.overhead_s and
    pauli.from_file_s are measured by the runner)."""

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def count(name: str, key: str) -> int:
        return summary.get(name, {}).get("counts", {}).get(key, 0)

    mqp = "oracle.maximize_q_product"
    sweeps = count(mqp, "sweeps")
    return {
        "oracle.maximize_q_product_s": total(mqp),
        "oracle.maximize_q_product_calls": calls(mqp),
        "oracle.sweeps": sweeps,
        "oracle.s_per_sweep": total(mqp) / sweeps if sweeps else 0.0,
        "oracle.converged_fraction": count(mqp, "converged") / calls(mqp) if calls(mqp) else 0.0,
        "oracle.saturated_fraction": saturated[0] / saturated[1] if saturated[1] else 0.0,
        "graphs.build_graph_s": total("graphs.build_graph"),
        "graphs.build_graph_calls": calls("graphs.build_graph"),
        "graphs.edges": count("graphs.build_graph", "edges"),
        "graphs.max_clique_s": total("graphs.max_clique"),
        "graphs.max_clique_calls": calls("graphs.max_clique"),
        "cuts.symmetry_group_s": total("cuts.symmetry_group"),
        "cuts.symmetry_group_calls": calls("cuts.symmetry_group"),
        "cuts.group_order": count("cuts.symmetry_group", "group_order"),
        "cuts.orbit_representatives_s": total("cuts.orbit_representatives"),
        "bounds.criteria_report_s": total("bounds.criteria_report"),
        "bounds.criteria_report_self_s": summary.get("bounds.criteria_report", {}).get("self_s", 0.0),
        "bounds.bound_for_partition_calls": calls("bounds.bound_for_partition"),
        "bounds.classify_s": total("bounds.classify"),
        "states.evaluate_q_s": total("states.evaluate_q"),
        "states.evaluate_q_calls": calls("states.evaluate_q"),
        "states.load_state_s": total("states.load_state"),
        "cli.self_s": sum(r["self_s"] for n, r in summary.items() if n.startswith("cli.")),
        "cli.verify_s": total("cli.verify"),
        "cli.bounds_s": total("cli.bounds"),
        "cli.eval_s": total("cli.eval"),
    }
