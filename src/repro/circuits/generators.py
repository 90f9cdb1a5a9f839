"""Random circuit generators for CVP workloads.

Deep chains make P-hardness-shaped instances (depth Theta(n), where
layer-parallelism cannot help); shallow layered circuits make NC-shaped
instances; unrestricted random DAG circuits exercise correctness.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.circuits.circuit import Circuit, Gate, GateOp

__all__ = [
    "random_circuit",
    "layered_circuit",
    "deep_chain_circuit",
    "random_inputs",
]

_GENERAL_OPS = (GateOp.AND, GateOp.OR, GateOp.NOT, GateOp.NAND, GateOp.NOR)
_MONOTONE_OPS = (GateOp.AND, GateOp.OR)


def random_inputs(n_inputs: int, rng: random.Random) -> List[bool]:
    return [rng.random() < 0.5 for _ in range(n_inputs)]


def _input_layer(n_inputs: int) -> List[Gate]:
    return [Gate(GateOp.INPUT, payload=position) for position in range(n_inputs)]


def random_circuit(
    n_inputs: int,
    n_gates: int,
    rng: random.Random,
    *,
    ops: Tuple[GateOp, ...] = _GENERAL_OPS,
) -> Circuit:
    """A random DAG circuit: each new gate draws arguments uniformly from
    all earlier gates.  Output = last gate."""
    if n_inputs < 1 or n_gates < 1:
        raise ValueError("need at least one input and one gate")
    gates = _input_layer(n_inputs)
    for _ in range(n_gates):
        op = ops[rng.randrange(len(ops))]
        args = tuple(rng.randrange(len(gates)) for _ in range(op.arity))
        gates.append(Gate(op, args=args))
    return Circuit(n_inputs, gates)


def layered_circuit(
    n_inputs: int,
    width: int,
    depth: int,
    rng: random.Random,
    *,
    monotone: bool = True,
) -> Circuit:
    """A width x depth layered circuit; arguments come from the previous
    layer only, so the circuit depth equals ``depth`` exactly."""
    if min(n_inputs, width, depth) < 1:
        raise ValueError("n_inputs, width and depth must be positive")
    ops = _MONOTONE_OPS if monotone else _GENERAL_OPS
    gates = _input_layer(n_inputs)
    previous = list(range(n_inputs))
    for _ in range(depth):
        current = []
        for _ in range(width):
            op = ops[rng.randrange(len(ops))]
            args = tuple(previous[rng.randrange(len(previous))] for _ in range(op.arity))
            current.append(len(gates))
            gates.append(Gate(op, args=args))
        previous = current
    return Circuit(n_inputs, gates)


def deep_chain_circuit(length: int, rng: random.Random, *, n_inputs: int = 8) -> Circuit:
    """A depth-Theta(length) chain: gate i combines gate i-1 with a random
    input.  The hard shape for parallel evaluation -- layered depth grows
    linearly with size, the Theorem 9 workload."""
    if length < 1:
        raise ValueError("length must be positive")
    gates = _input_layer(n_inputs)
    previous = 0
    for step in range(length):
        other = rng.randrange(n_inputs)
        op = (GateOp.AND, GateOp.OR)[step % 2]
        gates.append(Gate(op, args=(previous, other)))
        previous = len(gates) - 1
    return Circuit(n_inputs, gates)
