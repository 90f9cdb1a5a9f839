"""Property tests: factorization laws, reduction correctness, incremental
closure agreement -- the executable content of Proposition 1, Lemma 2/8."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compose_f, verify_f_reduction, verify_reduction
from repro.core.reductions import compose
from repro.kernelization import VCInstance, vc_brute_force, vc_decide
from repro.graphs import Digraph, Graph, gnm_graph
from repro.indexes import TransitiveClosureIndex
from repro.queries.bds import bds_problem, upsilon_bds, upsilon_prime
from repro.queries.membership import membership_problem
from repro.reductions_zoo import (
    membership_to_point_selection,
    point_to_range_selection,
    solve_and_emit_bds,
)

seeds = st.integers(min_value=0, max_value=2**30)
sizes = st.integers(min_value=4, max_value=64)


@given(seeds, sizes)
@settings(max_examples=40, deadline=None)
def test_bds_factorizations_roundtrip(seed, size):
    problem = bds_problem()
    instance = problem.generate(size, random.Random(seed))
    upsilon_bds().check_round_trip(instance)
    upsilon_prime().check_round_trip(instance)


@given(seeds, sizes)
@settings(max_examples=30, deadline=None)
def test_f_reduction_chain_preserves_membership(seed, size):
    rng = random.Random(seed)
    from repro.queries.membership import membership_class

    query_class = membership_class()
    data = query_class.generate_data(size, rng)
    queries = query_class.generate_queries(data, rng, 4)
    pairs = [(data, query) for query in queries]
    composite = compose_f(
        membership_to_point_selection(), point_to_range_selection()
    )
    assert verify_f_reduction(composite, pairs) == []


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_solve_and_emit_reduction_on_random_instances(seed):
    problem = membership_problem()
    reduction = solve_and_emit_bds(problem)
    instances = [problem.generate(32, random.Random(seed + i)) for i in range(4)]
    assert verify_reduction(reduction, instances, cross_pairs=False) == []


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_lemma2_composition_on_random_instances(seed):
    problem = membership_problem()
    composite = compose(
        solve_and_emit_bds(problem), solve_and_emit_bds(bds_problem())
    )
    instances = [problem.generate(24, random.Random(seed + i)) for i in range(3)]
    assert verify_reduction(composite, instances, cross_pairs=False) == []


@given(seeds, st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=60))
@settings(max_examples=40, deadline=None)
def test_incremental_closure_agrees_with_batch(seed, n, edge_count):
    rng = random.Random(seed)
    graph = Digraph(n)
    closure = TransitiveClosureIndex(graph)
    for _ in range(edge_count):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
            closure.insert_edge(u, v)
    batch = TransitiveClosureIndex(graph)
    assert all(
        closure.reachable(u, v) == batch.reachable(u, v)
        for u in range(n)
        for v in range(n)
    )


@given(seeds, st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_vc_kernel_decision_matches_brute_force(seed, n, k):
    rng = random.Random(seed)
    graph = gnm_graph(n, rng.randint(0, 2 * n), rng)
    instance = VCInstance(graph, k)
    assert vc_decide(instance) == vc_brute_force(instance)
    assert vc_decide(instance, kernelize=False) == vc_brute_force(instance)
