"""Circuit transformations: dual-rail monotonization.

Gadget reductions from CVP (such as CVP -> BDS) are usually stated for
monotone circuits; :func:`to_monotone_dual_rail` lifts such a reduction to
general circuits.  The repository has no such gadget: Theorem 5 is shown by
:mod:`repro.reductions_zoo.to_bds`'s solve-and-emit reduction, and this
module is checked on its own.  The construction is the standard dual-rail
trick: every gate g is replaced by a pair (g+, g-) computing g and NOT g,
with De Morgan swapping AND/OR on the negative rail.  Negated inputs become
*fresh inputs* (positions n..2n-1), so the transformed circuit is monotone
and evaluates correctly when fed ``inputs + [not b for b in inputs]``.
Every step is a local rewrite -- an NC function in the paper's sense.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.circuits.circuit import Circuit, Gate, GateOp
from repro.core.errors import CircuitError

__all__ = ["to_monotone_dual_rail", "dual_rail_inputs"]


def dual_rail_inputs(inputs: List[bool]) -> List[bool]:
    """The input vector for a dual-rail-transformed circuit."""
    return list(inputs) + [not bit for bit in inputs]


def to_monotone_dual_rail(circuit: Circuit) -> Circuit:
    """An AND/OR-only circuit equivalent to ``circuit`` under
    :func:`dual_rail_inputs`.

    Size exactly doubles (one positive and one negative rail per gate);
    depth is preserved.
    """
    n = circuit.n_inputs
    gates: List[Gate] = []
    # positive[i] / negative[i]: indices of the rails of original gate i.
    positive: List[int] = []
    negative: List[int] = []

    def emit(gate: Gate) -> int:
        gates.append(gate)
        return len(gates) - 1

    for gate in circuit.gates:
        if gate.op is GateOp.INPUT:
            positive.append(emit(Gate(GateOp.INPUT, payload=gate.payload)))
            negative.append(emit(Gate(GateOp.INPUT, payload=n + gate.payload)))
        elif gate.op is GateOp.CONST:
            positive.append(emit(Gate(GateOp.CONST, payload=gate.payload)))
            negative.append(emit(Gate(GateOp.CONST, payload=1 - gate.payload)))
        elif gate.op is GateOp.NOT:
            (argument,) = gate.args
            positive.append(negative[argument])
            negative.append(positive[argument])
        elif gate.op in (GateOp.AND, GateOp.OR, GateOp.NAND, GateOp.NOR):
            a, b = gate.args
            if gate.op in (GateOp.AND, GateOp.NAND):
                # value rail: AND of positives; complement: OR of negatives.
                value = emit(Gate(GateOp.AND, args=_ordered(positive[a], positive[b])))
                complement = emit(Gate(GateOp.OR, args=_ordered(negative[a], negative[b])))
            else:
                # value rail: OR of positives; complement: AND of negatives.
                value = emit(Gate(GateOp.OR, args=_ordered(positive[a], positive[b])))
                complement = emit(Gate(GateOp.AND, args=_ordered(negative[a], negative[b])))
            if gate.op in (GateOp.AND, GateOp.OR):
                positive.append(value)
                negative.append(complement)
            else:  # NAND / NOR swap the rails
                positive.append(complement)
                negative.append(value)
        else:  # pragma: no cover - exhaustive over GateOp
            raise CircuitError(f"unsupported gate op {gate.op}")

    return Circuit(2 * n, gates, output=positive[circuit.output])


def _ordered(a: int, b: int) -> Tuple[int, int]:
    """Argument order is semantically irrelevant for AND/OR; normalize."""
    return (a, b) if a <= b else (b, a)
