"""Multiqubit entanglement criteria from cut-commutativity graphs.

The library builds graphs over sets of Pauli strings whose edges record
commutation relative to a qubit partition, turns clique numbers into
separability bounds for the criterion value Q (the sum of squared
expectations over the set), evaluates Q on explicit states, and checks
every bound against an independent numerical maximizer.
"""

from .bounds import (
    BoundReport,
    Claim,
    PartitionBound,
    Verdict,
    bound_for_partition,
    classify,
    criteria_report,
)
from .cuts import (
    Partition,
    cut_anticommute,
    cut_commute,
    enumerate_bipartitions,
    orbit_representatives,
    parse_partition,
    permute_partition,
    symmetry_group,
)
from .errors import CapExceeded, ParseError
from .graphs import (
    CliqueResult,
    Graph,
    build_graph,
    chromatic_number,
    complement,
    export_dot,
    independence_number,
    max_clique,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    VerificationRecord,
    maximize_q_global,
    maximize_q_product,
    verify_bound,
)
from .pauli import (
    OperatorSet,
    PauliString,
    anticommutes,
    cp_expand,
    format_pauli,
    parse_pauli,
    permute,
    restrict,
    to_matrix,
    weight,
)
from .states import (
    QuantumState,
    QValue,
    anticommuting_unit_combination,
    apply_pauli,
    assemble_product,
    common_eigenstate,
    evaluate_q,
    expectation,
    load_state,
    mix,
    named_state,
    pauli_action,
    random_product_state,
    save_state,
    state_from_json_obj,
    state_to_json_obj,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapExceeded",
    "Claim",
    "CliqueResult",
    "Graph",
    "OperatorSet",
    "OracleConfig",
    "OracleResult",
    "ParseError",
    "Partition",
    "PartitionBound",
    "PauliString",
    "QValue",
    "QuantumState",
    "Verdict",
    "VerificationRecord",
    "anticommutes",
    "anticommuting_unit_combination",
    "apply_pauli",
    "assemble_product",
    "bound_for_partition",
    "build_graph",
    "chromatic_number",
    "classify",
    "common_eigenstate",
    "complement",
    "cp_expand",
    "criteria_report",
    "cut_anticommute",
    "cut_commute",
    "enumerate_bipartitions",
    "evaluate_q",
    "expectation",
    "export_dot",
    "format_pauli",
    "independence_number",
    "load_state",
    "max_clique",
    "maximize_q_global",
    "maximize_q_product",
    "mix",
    "named_state",
    "orbit_representatives",
    "parse_partition",
    "parse_pauli",
    "pauli_action",
    "permute",
    "permute_partition",
    "random_product_state",
    "restrict",
    "save_state",
    "state_from_json_obj",
    "state_to_json_obj",
    "symmetry_group",
    "to_matrix",
    "verify_bound",
    "weight",
]
