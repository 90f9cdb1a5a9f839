"""Integration: the Section 4 strategies working together end-to-end.

Each test replays one of the paper's prose scenarios across module
boundaries: compression feeding query answering, views replacing base
relations, incremental preprocessing keeping an index live under updates.
"""

import random

import pytest

from repro.catalog import CATALOG, build_query_engine
from repro.compression import LosslessCompressedGraph, ReachabilityPreservingCompression
from repro.core import CostTracker
from repro.graphs import Digraph, is_reachable, social_digraph
from repro.incremental import ChangeKind, EdgeChange, TupleChange
from repro.indexes import TransitiveClosureIndex
from repro.queries import range_selection_class, views_scheme
from repro.storage.relation import uniform_int_relation


class TestCompressionVsLossless:
    """Section 4(5): query-preserving compression answers without
    decompression; lossless pays Theta(|D|) per query."""

    def test_cost_gap(self):
        rng = random.Random(200)
        graph = social_digraph(250, rng)
        preserving = ReachabilityPreservingCompression(graph)
        lossless = LosslessCompressedGraph(graph)

        queries = [(rng.randrange(250), rng.randrange(250)) for _ in range(25)]
        preserving_tracker, lossless_tracker = CostTracker(), CostTracker()
        for u, v in queries:
            expected = is_reachable(graph, u, v)
            assert preserving.reachable(u, v, preserving_tracker) == expected
            assert lossless.reachable(u, v, lossless_tracker) == expected
        assert lossless_tracker.work > 100 * preserving_tracker.work

    def test_compression_composes_with_closure_index(self):
        # Compress first, index the compressed graph: answers survive both.
        rng = random.Random(201)
        graph = social_digraph(120, rng)
        compressed = ReachabilityPreservingCompression(graph)
        index = TransitiveClosureIndex(compressed.compressed)
        for _ in range(200):
            u, v = rng.randrange(120), rng.randrange(120)
            class_u, class_v = compressed.class_of(u), compressed.class_of(v)
            via_index = (
                True
                if compressed.reachable(u, v) and class_u == class_v
                else index.reachable(class_u, class_v)
                if class_u != class_v
                else compressed.reachable(u, v)
            )
            assert compressed.reachable(u, v) == is_reachable(graph, u, v)
            if class_u != class_v:
                assert via_index == is_reachable(graph, u, v)


class TestViewsEndToEnd:
    def test_views_answer_the_generated_workload(self):
        query_class = range_selection_class()
        scheme = views_scheme(bucket_count=8)
        data, queries = query_class.sample_workload(size=600, seed=202, query_count=60)
        preprocessed = scheme.preprocess(data, CostTracker())
        for query in queries:
            assert scheme.answer(preprocessed, query, CostTracker()) == (
                query_class.pair_in_language(data, query)
            )

    def test_view_probe_never_scans_base_relation(self):
        query_class = range_selection_class()
        scheme = views_scheme(bucket_count=8)
        data, _ = query_class.sample_workload(size=2000, seed=203, query_count=1)
        preprocessed = scheme.preprocess(data, CostTracker())
        tracker = CostTracker()
        scheme.answer(preprocessed, ("a", 10, 13), tracker)
        assert tracker.work < len(data) // 10


def _served_scheme(kind):
    return next(row for row in CATALOG if row.name == kind).serving()[1]


class TestIncrementalPreprocessing:
    """Section 4(7) + Section 1's incremental-preprocessing remark:
    maintain Pi(D) under dD instead of re-running Pi -- through the
    ``apply_delta`` hooks of the served schemes."""

    def test_index_stays_consistent_with_recomputation(self):
        rng = random.Random(204)
        relation = uniform_int_relation(300, rng, value_range=(0, 120))
        with build_query_engine() as engine:
            live = engine.attach(
                "live", relation, kinds=["point-selection"], mutable=True
            ).warm()
            for step in range(120):
                key = rng.randrange(140)
                live.apply_changes([TupleChange(ChangeKind.INSERT, (key, step))])
            # Compare against an index rebuilt from the updated relation.
            rebuilt = engine.attach("rebuilt", live.dataset(), kinds=["point-selection"])
            assert engine.stats().per_kind["point-selection"].delta_batches == 120
            for probe in range(0, 140, 3):
                query = ("a", probe)
                assert live.query("point-selection", query) == rebuilt.query(
                    "point-selection", query
                )

    def test_incremental_beats_recompute_for_small_deltas(self):
        scheme = _served_scheme("reachability")
        graph = Digraph(150)
        closure = scheme.preprocess(Digraph(150), CostTracker())
        rng = random.Random(205)
        for _ in range(200):
            u, v = rng.randrange(150), rng.randrange(150)
            if u != v:
                graph.add_edge(u, v)
                scheme.apply_delta(closure, [EdgeChange(ChangeKind.INSERT, u, v)], CostTracker())
        incremental = CostTracker()
        scheme.apply_delta(closure, [EdgeChange(ChangeKind.INSERT, 0, 149)], incremental)
        graph.add_edge(0, 149)
        recompute = CostTracker()
        scheme.preprocess(graph, recompute)
        assert incremental.work < recompute.work

    def test_boundedness_cost_scales_with_changed_not_data(self):
        # Same |dD| against two very different |D|: incremental cost must be
        # within a modest factor, while rebuild costs diverge ~20x.
        scheme = _served_scheme("point-selection")
        costs = {}
        rebuilds = {}
        for n in (200, 4000):
            rng = random.Random(n)
            relation = uniform_int_relation(n, rng, value_range=(0, 10**9))
            indexes = scheme.preprocess(relation, CostTracker())
            batch = [
                TupleChange(ChangeKind.INSERT, (2_000_000_000 + i, 0))
                for i in range(8)
            ]
            tracker = CostTracker()
            scheme.apply_delta(indexes, batch, tracker)
            costs[n] = tracker.work
            for change in batch:
                relation.insert(change.row)
            rebuild = CostTracker()
            scheme.preprocess(relation, rebuild)
            rebuilds[n] = rebuild.work
        assert rebuilds[4000] > 15 * rebuilds[200]
        assert costs[4000] < 3 * costs[200]
