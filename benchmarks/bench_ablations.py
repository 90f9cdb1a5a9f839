"""ABL -- ablations for the implementation's own design choices.

Not paper figures; these justify implementation parameters:

* A1: B+-tree node order (fan-out) -- probe and build cost trade-off;
* A2: position index representation for BDS (sorted run vs dict);
* A3: reachability preprocessing route (bitset closure vs NC squaring).
"""

import random

from conftest import bench_points, bench_size, format_table

from repro.core import CostTracker
from repro.graphs import gnm_digraph
from repro.indexes import BPlusTree, TransitiveClosureIndex
from repro.parallel import ParallelMachine, transitive_closure_squaring
from repro.queries import bds_query_class, position_dict_scheme, position_index_scheme
from repro.queries.reachability import adjacency_matrix

SEED = 20130826


def test_abl_btree_order(benchmark, experiment_report):
    """A1: node order sweep.  Larger nodes -> shallower trees but more
    comparisons per node; the cost model shows the log_B(n) * log2(B)
    plateau that makes the choice a constant-factor one."""
    n = bench_size(15)
    rng = random.Random(SEED)
    keys = [rng.randrange(4 * n) for _ in range(n)]
    probes = [rng.randrange(4 * n) for _ in range(64)]

    def run():
        rows = []
        for order in (8, 16, 32, 64, 128, 256):
            build_tracker = CostTracker()
            tree = BPlusTree.from_keys(keys, order=order, tracker=build_tracker)
            probe_tracker = CostTracker()
            for probe in probes:
                tree.contains(probe, probe_tracker)
            rows.append(
                (order, tree.height, build_tracker.work, probe_tracker.work // 64)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report(
        f"ABL-A1: B+-tree order sweep (n = {n})",
        format_table(["order", "height", "build work", "probe work/q"], rows),
    )
    # Probe cost varies by at most ~2x across a 32x order range.
    probe_costs = [row[3] for row in rows]
    assert max(probe_costs) <= 3 * min(probe_costs)


def test_abl_bds_position_representation(benchmark, experiment_report):
    """A2: Example 5 prescribes binary search (O(log n)); a dict gives O(1).
    Both are Pi-tractable; the ablation quantifies the constant."""
    query_class = bds_query_class()

    def run():
        rows = []
        for size in bench_points(9, 11, 13):
            data, queries = query_class.sample_workload(size, SEED, 32)
            for scheme in (position_index_scheme(), position_dict_scheme()):
                preprocessed = scheme.preprocess(data, CostTracker())
                tracker = CostTracker()
                for query in queries:
                    scheme.answer(preprocessed, query, tracker)
                rows.append((size, scheme.name, tracker.work // 32))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report(
        "ABL-A2: BDS position index -- sorted run (Example 5) vs dict",
        format_table(["|G|", "scheme", "query work/q"], rows),
    )


def test_abl_reachability_preprocessing_route(benchmark, experiment_report):
    """A3: building the closure -- sequential bitset sweep vs charged NC
    matrix squaring.  Same answers; the squaring route has polylog *depth*
    but pays n^3 log n work, the bitset route is work-efficient but
    sequential.  This is Example 3's trade-off at preprocessing time."""

    def run():
        rows = []
        for n in (32, 64, 128, 256):
            rng = random.Random(SEED + n)
            graph = gnm_digraph(n, 3 * n, rng)
            bitset_tracker = CostTracker()
            index = TransitiveClosureIndex(graph, bitset_tracker)
            squaring_tracker = CostTracker()
            closure = transitive_closure_squaring(
                adjacency_matrix(graph), ParallelMachine(squaring_tracker)
            )
            assert (index.as_matrix() == closure).all()
            rows.append(
                (
                    n,
                    bitset_tracker.work,
                    bitset_tracker.depth,
                    squaring_tracker.work,
                    squaring_tracker.depth,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report(
        "ABL-A3: closure build -- sequential bitsets vs NC matrix squaring (work/depth)",
        format_table(
            ["n", "bitset work", "bitset depth", "squaring work", "squaring depth"],
            rows,
        ),
    )
    # Squaring: massively more work, massively less depth.
    assert all(row[3] > 50 * row[1] for row in rows)
    assert all(row[4] < row[2] for row in rows[2:])
