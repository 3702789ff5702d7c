"""Multiqubit entanglement criteria from cut-commutativity graphs.

The library builds graphs over sets of Pauli strings whose edges record
commutation relative to a qubit partition, turns clique numbers into
separability bounds for the criterion value Q (the sum of squared
expectations over the set), evaluates Q on explicit states, and checks
every bound against an independent numerical maximizer.

Bounds come from the bit-level modules (``pauli``, ``cuts``, ``graphs``,
``bounds``), which never import numpy; only ``states`` and ``oracle``
load it, and ``pauli.to_matrix`` on its first call.  So the public names
below resolve on first access (PEP 562), each from its module, and
``import paulicrit`` imports no submodule: a ``bounds`` run never pays
for the numerical ones.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    "bound_for_partition": "bounds",
    "classify": "bounds",
    "criteria_report": "bounds",
    "Partition": "cuts",
    "cut_anticommute": "cuts",
    "enumerate_bipartitions": "cuts",
    "orbit_representatives": "cuts",
    "parse_partition": "cuts",
    "symmetry_group": "cuts",
    "CapExceeded": "errors",
    "ParseError": "errors",
    "build_graph": "graphs",
    "independence_number": "graphs",
    "max_clique": "graphs",
    "OracleConfig": "oracle",
    "maximize_q_global": "oracle",
    "verify_bound": "oracle",
    "OperatorSet": "pauli",
    "anticommutes": "pauli",
    "parse_pauli": "pauli",
    "restrict": "pauli",
    "to_matrix": "pauli",
    "weight": "pauli",
    "QuantumState": "states",
    "anticommuting_unit_combination": "states",
    "assemble_product": "states",
    "common_eigenstate": "states",
    "evaluate_q": "states",
    "expectation": "states",
    "mix": "states",
    "named_state": "states",
    "random_product_state": "states",
}

# what the acceptance suite and the README example import, plus the error types
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
