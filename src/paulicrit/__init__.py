"""Multiqubit entanglement criteria from cut-commutativity graphs.

The library builds graphs over sets of Pauli strings whose edges record
commutation relative to a qubit partition, turns clique numbers into
separability bounds for the criterion value Q (the sum of squared
expectations over the set), evaluates Q on explicit states, and checks
every bound against an independent numerical maximizer.
"""

from .bounds import bound_for_partition, classify, criteria_report
from .cuts import (
    Partition,
    cut_anticommute,
    enumerate_bipartitions,
    orbit_representatives,
    parse_partition,
    symmetry_group,
)
from .errors import CapExceeded, ParseError
from .graphs import build_graph, independence_number, max_clique
from .oracle import OracleConfig, maximize_q_global, verify_bound
from .pauli import OperatorSet, anticommutes, parse_pauli, restrict, to_matrix, weight
from .states import (
    QuantumState,
    anticommuting_unit_combination,
    assemble_product,
    common_eigenstate,
    evaluate_q,
    expectation,
    mix,
    named_state,
    random_product_state,
)

__version__ = "0.1.0"

# what the acceptance suite and the README example import, plus the error types
__all__ = [
    "CapExceeded",
    "OperatorSet",
    "OracleConfig",
    "ParseError",
    "Partition",
    "QuantumState",
    "anticommutes",
    "anticommuting_unit_combination",
    "assemble_product",
    "bound_for_partition",
    "build_graph",
    "classify",
    "common_eigenstate",
    "criteria_report",
    "cut_anticommute",
    "enumerate_bipartitions",
    "evaluate_q",
    "expectation",
    "independence_number",
    "max_clique",
    "maximize_q_global",
    "mix",
    "named_state",
    "orbit_representatives",
    "parse_partition",
    "parse_pauli",
    "random_product_state",
    "restrict",
    "symmetry_group",
    "to_matrix",
    "verify_bound",
    "weight",
]
