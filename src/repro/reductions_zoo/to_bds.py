"""Reductions into BDS: the executable shape of Theorem 5 / Corollary 6.

Theorem 5 proves every problem L in P NC-factor-reducible to BDS using the
identity factorization of L and the NC function h supplied by BDS's
P-completeness.  Two executable specimens are provided:

:func:`solve_and_emit_bds`
    The generic reduction for problems whose (factored) pair language we can
    decide: alpha maps everything to one fixed 3-path *witness graph*, beta
    decides the instance and emits the vertex pair (1, 2) for yes and (2, 1)
    for no.  For sources in NC, deciding *is* an NC function and this is
    literally the Theorem 5 construction; for harder sources it is still a
    correct many-one reduction, merely a PTIME one.  The repository has no
    genuinely-NC gadget for the P-complete case (CVP -> BDS); the
    monotone dual-rail transform such a gadget would start from is
    :func:`repro.circuits.transform.to_monotone_dual_rail`.

:func:`refactorize_to_bds`
    The Figure 1 move as a reduction: the *trivially factorized* BDS query
    class (nothing preprocessable) NC-factor-reduces to the properly
    factorized BDS problem with identity alpha/beta -- the source
    factorization simply re-partitions each instance.  This is what
    "making a query class Pi-tractable by re-factorization" means.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.core.cost import NULL_TRACKER
from repro.core.factorization import Factorization, identity_factorization
from repro.core.language import DecisionProblem, decision_problem_of
from repro.core.query import QueryClass
from repro.core.reductions import NCFactorReduction
from repro.graphs.graph import Graph
from repro.queries.bds import bds_problem, upsilon_bds

__all__ = [
    "witness_graph",
    "witness_pair",
    "solve_and_emit_bds",
    "refactorize_to_bds",
]


def witness_graph() -> Graph:
    """The canonical BDS target: the path 0 - 1 - 2.

    Its breadth-depth search visits 0, 1, 2 in numbering order, so the query
    (1, 2) is a yes-instance and (2, 1) a no-instance.
    """
    graph = Graph(3)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    return graph


def witness_pair(answer: bool) -> Tuple[int, int]:
    return (1, 2) if answer else (2, 1)


def solve_and_emit_bds(
    problem: DecisionProblem,
    *,
    name: str | None = None,
) -> NCFactorReduction:
    """``problem <=NC_fa BDS`` via the identity factorization of the source.

    Both alpha and beta receive the full instance (pi1 = pi2 = x); alpha is
    the constant witness graph, beta decides x and picks the matching vertex
    pair.  Definition 4's equivalence holds by construction:
    ``x in L  iff  (1, 2) visited in order  iff  <alpha(x), beta(x)> in
    S(BDS, Upsilon_BDS)``.
    """
    target = bds_problem()

    def beta(instance: Any) -> Tuple[int, int]:
        return witness_pair(problem.member(instance, NULL_TRACKER))

    return NCFactorReduction(
        name=name or f"{problem.name}<=fa BDS",
        source=problem,
        target=target,
        source_factorization=identity_factorization(f"identity[{problem.name}]"),
        target_factorization=upsilon_bds(),
        alpha=lambda instance: witness_graph(),
        beta=beta,
        description="Theorem 5 solve-and-emit reduction to BDS",
    )


def refactorize_to_bds(trivial_class: QueryClass) -> NCFactorReduction:
    """The trivially-factorized BDS class, re-factorized into BDS proper.

    Instances of the source decision problem are ``(scale, (G, (u, v)))``
    pairs (the data part is morally epsilon; see
    :func:`repro.queries.bds.bds_trivial_query_class`).  The source
    factorization *re-partitions* them -- pi1 extracts G, pi2 extracts
    (u, v) -- after which alpha and beta are identities.  Corollary 6 in one
    object: nothing changed but the factorization, and the problem became
    Pi-tractable.
    """
    source = decision_problem_of(trivial_class)
    target = bds_problem()

    refactorization = Factorization(
        name=f"refactorized[{trivial_class.name}]",
        pi1=lambda instance: instance[1][0],  # the graph inside the query part
        pi2=lambda instance: instance[1][1],  # the vertex pair
        rho=lambda graph, pair: (max(graph.n, 2), (graph, pair)),
        description="re-partition: graph becomes the data part",
    )

    return NCFactorReduction(
        name=f"{trivial_class.name}<=fa BDS (refactorization)",
        source=source,
        target=target,
        source_factorization=refactorization,
        target_factorization=upsilon_bds(),
        alpha=lambda graph: graph,
        beta=lambda pair: pair,
        description="Figure 1's re-factorization, as an NC-factor reduction",
    )
