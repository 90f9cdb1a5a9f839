"""Unit tests for the Boolean circuit substrate (repro.circuits)."""

import random

import pytest

from repro.circuits import (
    Circuit,
    Gate,
    GateOp,
    deep_chain_circuit,
    dual_rail_inputs,
    evaluate,
    evaluate_all,
    evaluate_layered,
    layered_circuit,
    random_circuit,
    random_inputs,
    to_monotone_dual_rail,
)
from repro.core.cost import CostTracker
from repro.core.errors import CircuitError
from repro.parallel import ParallelMachine


def xor_circuit() -> Circuit:
    """(x0 AND NOT x1) OR (NOT x0 AND x1), built by hand."""
    gates = [
        Gate(GateOp.INPUT, payload=0),  # 0
        Gate(GateOp.INPUT, payload=1),  # 1
        Gate(GateOp.NOT, args=(0,)),  # 2
        Gate(GateOp.NOT, args=(1,)),  # 3
        Gate(GateOp.AND, args=(0, 3)),  # 4
        Gate(GateOp.AND, args=(2, 1)),  # 5
        Gate(GateOp.OR, args=(4, 5)),  # 6
    ]
    return Circuit(2, gates)


class TestValidation:
    def test_forward_reference_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(1, [Gate(GateOp.NOT, args=(0,))])

    def test_arity_checked(self):
        with pytest.raises(CircuitError):
            Circuit(1, [Gate(GateOp.INPUT, payload=0), Gate(GateOp.AND, args=(0,))])

    def test_input_payload_range_checked(self):
        with pytest.raises(CircuitError):
            Circuit(1, [Gate(GateOp.INPUT, payload=3)])

    def test_const_payload_checked(self):
        with pytest.raises(CircuitError):
            Circuit(0, [Gate(GateOp.CONST, payload=7)])

    def test_output_range_checked(self):
        with pytest.raises(CircuitError):
            Circuit(1, [Gate(GateOp.INPUT, payload=0)], output=5)

    def test_empty_circuit_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(0, [])


class TestEvaluation:
    def test_xor_truth_table(self):
        circuit = xor_circuit()
        for a in (False, True):
            for b in (False, True):
                assert evaluate(circuit, [a, b]) == (a != b)

    def test_all_gate_ops(self):
        cases = {
            GateOp.AND: [(False, False, False), (True, False, False), (True, True, True)],
            GateOp.OR: [(False, False, False), (True, False, True), (True, True, True)],
            GateOp.NAND: [(True, True, False), (False, True, True)],
            GateOp.NOR: [(False, False, True), (True, False, False)],
        }
        for op, rows in cases.items():
            for a, b, expected in rows:
                circuit = Circuit(
                    2,
                    [
                        Gate(GateOp.INPUT, payload=0),
                        Gate(GateOp.INPUT, payload=1),
                        Gate(op, args=(0, 1)),
                    ],
                )
                assert evaluate(circuit, [a, b]) == expected, op

    def test_const_gates(self):
        circuit = Circuit(0, [Gate(GateOp.CONST, payload=1)])
        assert evaluate(circuit, [])

    def test_wrong_input_arity_raises(self):
        with pytest.raises(CircuitError):
            evaluate(xor_circuit(), [True])

    def test_evaluate_all_returns_every_gate(self):
        values = evaluate_all(xor_circuit(), [True, False])
        assert values[0] is True and values[1] is False
        assert values[6] is True

    def test_cost_linear_in_size(self):
        rng = random.Random(40)
        tracker = CostTracker()
        circuit = random_circuit(4, 200, rng)
        evaluate(circuit, random_inputs(4, rng), tracker)
        assert 200 <= tracker.work <= 3 * (200 + 4) + 10


class TestLayeredEvaluation:
    def test_agrees_with_sequential(self):
        rng = random.Random(41)
        for _ in range(40):
            circuit = random_circuit(3, rng.randint(1, 50), rng)
            inputs = random_inputs(3, rng)
            machine = ParallelMachine(CostTracker())
            assert evaluate_layered(circuit, inputs, machine) == evaluate(
                circuit, inputs
            )

    def test_depth_tracks_circuit_depth(self):
        rng = random.Random(42)
        deep = deep_chain_circuit(300, rng)
        shallow = layered_circuit(8, 32, 5, rng)
        t_deep, t_shallow = CostTracker(), CostTracker()
        evaluate_layered(deep, random_inputs(deep.n_inputs, rng), ParallelMachine(t_deep))
        evaluate_layered(
            shallow, random_inputs(shallow.n_inputs, rng), ParallelMachine(t_shallow)
        )
        assert deep.depth() == 300
        assert shallow.depth() == 5
        assert t_deep.depth > 10 * t_shallow.depth


class TestStructure:
    def test_layers_partition_gates(self):
        circuit = xor_circuit()
        layers = circuit.layers()
        assert sorted(g for layer in layers for g in layer) == list(range(7))
        assert layers[0] == [0, 1]
        assert circuit.depth() == 3

    def test_encode_decode_roundtrip(self):
        rng = random.Random(43)
        for _ in range(20):
            circuit = random_circuit(3, rng.randint(1, 30), rng)
            assert Circuit.decode(circuit.encode()) == circuit

    def test_monotone_flag(self):
        rng = random.Random(44)
        assert layered_circuit(3, 4, 5, rng, monotone=True).is_monotone
        assert not xor_circuit().is_monotone


class TestDualRail:
    def test_equivalence_on_random_circuits(self):
        rng = random.Random(45)
        for _ in range(120):
            circuit = random_circuit(rng.randint(1, 5), rng.randint(1, 25), rng)
            inputs = random_inputs(circuit.n_inputs, rng)
            monotone = to_monotone_dual_rail(circuit)
            assert monotone.is_monotone
            assert evaluate(monotone, dual_rail_inputs(inputs)) == evaluate(
                circuit, inputs
            )

    def test_size_at_most_doubles(self):
        rng = random.Random(46)
        circuit = random_circuit(4, 60, rng)
        monotone = to_monotone_dual_rail(circuit)
        assert len(monotone.gates) <= 2 * len(circuit.gates)

    def test_dual_rail_inputs(self):
        assert dual_rail_inputs([True, False]) == [True, False, False, True]


class TestGenerators:
    def test_deep_chain_depth(self):
        rng = random.Random(47)
        assert deep_chain_circuit(123, rng).depth() == 123

    def test_layered_depth(self):
        rng = random.Random(48)
        assert layered_circuit(4, 8, 7, rng).depth() == 7

    def test_bad_parameters_rejected(self):
        rng = random.Random(49)
        with pytest.raises(ValueError):
            random_circuit(0, 5, rng)
        with pytest.raises(ValueError):
            deep_chain_circuit(0, rng)
        with pytest.raises(ValueError):
            layered_circuit(1, 0, 1, rng)
