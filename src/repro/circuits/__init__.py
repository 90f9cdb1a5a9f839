"""Boolean circuits: the CVP substrate (paper, Sections 4(8), 6 and 7)."""

from repro.circuits.circuit import Circuit, Gate, GateOp
from repro.circuits.eval import evaluate, evaluate_all, evaluate_layered, gate_value
from repro.circuits.generators import (
    deep_chain_circuit,
    layered_circuit,
    random_circuit,
    random_inputs,
)
from repro.circuits.transform import dual_rail_inputs, to_monotone_dual_rail

__all__ = [
    "Circuit",
    "Gate",
    "GateOp",
    "evaluate",
    "evaluate_all",
    "evaluate_layered",
    "gate_value",
    "deep_chain_circuit",
    "layered_circuit",
    "random_circuit",
    "random_inputs",
    "dual_rail_inputs",
    "to_monotone_dual_rail",
]
