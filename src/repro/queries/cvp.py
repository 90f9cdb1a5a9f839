"""Circuit Value Problem query classes (paper, Section 4(8) and Theorem 9).

CVP -- given a circuit alpha with inputs x1..xn and designated output y, is
y true? -- is the canonical P-complete problem.  Two factorizations make the
paper's separation concrete:

* **Upsilon_CVP** (Section 4(8)): the circuit *and its inputs* are data, the
  designated output gate is the query.  Preprocessing evaluates every gate
  once (PTIME); each query is then an O(1) table lookup.  Many queries over
  one big circuit (think: a compiled dataflow over a fixed dataset) become
  feasible.
* **Upsilon_0** (Theorem 9): the data part is the empty string and the whole
  instance is the query.  Preprocessing sees only epsilon, so unless P = NC
  queries cannot be answered in polylog time -- the certifier measures
  exactly that: per-query depth grows linearly in |q|.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.eval import evaluate_all
from repro.circuits.generators import deep_chain_circuit, random_circuit, random_inputs
from repro.core.cost import CostTracker
from repro.core.factorization import Factorization
from repro.core.language import DecisionProblem
from repro.core.query import PiScheme, QueryClass, state_codec

__all__ = [
    "CVPData",
    "cvp_problem",
    "cvp_factorized_class",
    "cvp_trivial_class",
    "gate_table_scheme",
    "reevaluate_scheme",
    "upsilon_cvp",
]

#: Data part under Upsilon_CVP: the circuit together with its input bits.
CVPData = Tuple[Circuit, Tuple[bool, ...]]
#: Full CVP instance: (circuit, inputs, designated output gate).
CVPInstance = Tuple[Circuit, Tuple[bool, ...], int]


def _generate_data(size: int, rng: random.Random) -> CVPData:
    n_inputs = max(2, size // 64)
    circuit = random_circuit(n_inputs, max(size, 4), rng)
    return circuit, tuple(random_inputs(n_inputs, rng))


def _generate_gate_queries(data: CVPData, rng: random.Random, count: int) -> List[int]:
    circuit, _ = data
    return [rng.randrange(len(circuit.gates)) for _ in range(count)]


def _naive_gate_value(data: CVPData, gate: int, tracker: CostTracker) -> bool:
    circuit, inputs = data
    return evaluate_all(circuit, list(inputs), tracker)[gate]


def cvp_factorized_class() -> QueryClass:
    """(CVP, Upsilon_CVP): circuit+inputs as data, output gate as query."""
    return QueryClass(
        name="cvp-factorized",
        evaluate=_naive_gate_value,
        generate_data=_generate_data,
        generate_queries=_generate_gate_queries,
        data_size=lambda data: len(data[0].gates),
        description="is gate y true in circuit alpha on inputs x (Section 4(8))",
    )


def gate_table_scheme() -> PiScheme:
    """Section 4(8)'s preprocessing: evaluate all gates once; O(1) queries."""

    def preprocess(data: CVPData, tracker: CostTracker) -> List[bool]:
        circuit, inputs = data
        return evaluate_all(circuit, list(inputs), tracker)

    def evaluate(values: List[bool], gate: int, tracker: CostTracker) -> bool:
        tracker.tick(1)
        return values[gate]

    dump, load = state_codec(from_state=list, to_state=list)  # gate values, in gate order
    return PiScheme(
        name="gate-value-table",
        preprocess=preprocess,
        evaluate=evaluate,
        factorization_name="Upsilon_CVP",
        description="evaluate every gate in preprocessing; O(1) lookups",
        dump=dump,
        load=load,
    )


def cvp_trivial_class() -> QueryClass:
    """(CVP, Upsilon_0): epsilon as data, whole instances as queries.

    As with :func:`repro.queries.bds.bds_trivial_query_class`, the integer
    "data" is only a workload-scale hint with no query information;
    ``data_size`` reports |q|'s scale so certification fits against query
    size.  Instances are deep chain circuits -- the shape where layer
    parallelism cannot reduce depth below Theta(|q|).
    """

    def generate_data(size: int, rng: random.Random) -> int:
        return max(size, 8)

    def generate_queries(scale: int, rng: random.Random, count: int) -> List[CVPInstance]:
        instances: List[CVPInstance] = []
        for _ in range(count):
            circuit = deep_chain_circuit(scale, rng)
            inputs = tuple(random_inputs(circuit.n_inputs, rng))
            instances.append((circuit, inputs, circuit.output))
        return instances

    def evaluate(scale: int, query: CVPInstance, tracker: CostTracker) -> bool:
        circuit, inputs, gate = query
        return evaluate_all(circuit, list(inputs), tracker)[gate]

    return QueryClass(
        name="cvp-trivial",
        evaluate=evaluate,
        generate_data=generate_data,
        generate_queries=generate_queries,
        data_size=lambda scale: scale,
        description="(CVP, Upsilon_0): nothing to preprocess (Theorem 9)",
    )


def reevaluate_scheme() -> PiScheme:
    """The only scheme available under Upsilon_0: evaluate per query.

    Certification *fails* this scheme -- evaluation depth is Theta(|q|) --
    which is the measured content of Theorem 9's separation.
    """

    def preprocess(data, tracker: CostTracker):
        tracker.tick(1)
        return data

    def evaluate(_, query: CVPInstance, tracker: CostTracker) -> bool:
        circuit, inputs, gate = query
        return evaluate_all(circuit, list(inputs), tracker)[gate]

    return PiScheme(
        name="cvp-reevaluate",
        preprocess=preprocess,
        evaluate=evaluate,
        factorization_name="Upsilon_0[CVP]",
        description="no useful preprocessing; full evaluation per query",
    )


def cvp_problem() -> DecisionProblem:
    """CVP as a decision problem over (circuit, inputs, output) instances."""

    def contains(instance: CVPInstance, tracker: CostTracker) -> bool:
        circuit, inputs, gate = instance
        return evaluate_all(circuit, list(inputs), tracker)[gate]

    def generate(size: int, rng: random.Random) -> CVPInstance:
        circuit, inputs = _generate_data(size, rng)
        gate = rng.randrange(len(circuit.gates))
        return circuit, inputs, gate

    def encode_instance(instance: CVPInstance) -> str:
        circuit, inputs, gate = instance
        from repro.core import alphabet

        return alphabet.encode((circuit.encode(), tuple(inputs), gate))

    return DecisionProblem(
        name="CVP",
        contains=contains,
        generate=generate,
        encode_instance=encode_instance,
        description="circuit value problem (paper, Section 4(8); P-complete)",
    )


def upsilon_cvp() -> Factorization:
    """Section 4(8): pi1 = (alpha, x), pi2 = y."""
    return Factorization(
        name="Upsilon_CVP",
        pi1=lambda instance: (instance[0], instance[1]),
        pi2=lambda instance: instance[2],
        rho=lambda data, gate: (data[0], data[1], gate),
        description="circuit and inputs as data, output gate as query",
    )
