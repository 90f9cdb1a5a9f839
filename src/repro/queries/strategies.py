"""Section 4's general strategies (5)-(7) packaged as Pi-schemes.

The paper presents query-preserving compression, query answering using
views, and incremental evaluation as *generic* routes into PiT0Q, "not
limited to any specific Q".  This module instantiates each against the
concrete query classes of this package:

* strategy (5) -> an alternative Pi-scheme for the reachability class that
  answers on the compressed graph only;
* strategy (6) -> an alternative Pi-scheme for range selection that answers
  from materialized views only (using the query-rewriting lambda);
* strategy (7) is about maintenance rather than answering: it is the
  ``apply_delta`` hook of the served schemes
  (:func:`repro.queries.selection._apply_relation_delta`,
  :meth:`repro.indexes.reachability.TransitiveClosureIndex.insert_edge`),
  and its boundedness experiment is
  ``benchmarks/bench_case7_incremental.py``.
"""

from __future__ import annotations

from typing import Tuple

from repro.compression.reachability_preserving import ReachabilityPreservingCompression
from repro.core.cost import CostTracker
from repro.core.query import PiScheme
from repro.graphs.graph import Digraph
from repro.storage.relation import Relation
from repro.views.rewrite import rewrite_range
from repro.views.view import ViewSet

__all__ = ["compression_scheme", "views_scheme"]


def compression_scheme() -> PiScheme:
    """Strategy (5): compress the graph, answer reachability on Dc.

    Preprocessing is the PTIME compression; evaluation never touches the
    original graph -- "Q(D) = Q(Dc)" by construction.
    """

    def preprocess(graph: Digraph, tracker: CostTracker) -> ReachabilityPreservingCompression:
        return ReachabilityPreservingCompression(graph, tracker)

    def evaluate(
        compressed: ReachabilityPreservingCompression,
        query: Tuple[int, int],
        tracker: CostTracker,
    ) -> bool:
        source, target = query
        return compressed.reachable(source, target, tracker)

    return PiScheme(
        name="query-preserving-compression",
        preprocess=preprocess,
        evaluate=evaluate,
        description="reachability-preserving compression (Section 4(5))",
    )


def views_scheme(bucket_count: int = 16) -> PiScheme:
    """Strategy (6): materialize a view partition, answer from V(D) only.

    The per-query rewrite (range -> clipped per-view probes) is the paper's
    ``lambda(Q)`` query reformulation; uncovered key ranges hold no tuples by
    construction, so clipping preserves the Boolean answer.
    """

    def preprocess(relation: Relation, tracker: CostTracker) -> dict:
        view_sets = {}
        for attribute in relation.schema.attribute_names():
            column = relation.column(attribute, tracker)
            low = min(column) if column else 0
            high = max(column) if column else 0
            views = ViewSet.partition(
                relation, attribute, (low, high), bucket_count, tracker
            )
            view_sets[attribute] = (views, low, high)
        return view_sets

    def evaluate(
        view_sets: dict,
        query: Tuple[str, int, int],
        tracker: CostTracker,
    ) -> bool:
        attribute, low, high = query
        views, covered_low, covered_high = view_sets[attribute]
        # Keys outside the materialized span hold no tuples by construction,
        # so clipping the probe preserves the Boolean answer.
        low = max(low, covered_low)
        high = min(high, covered_high)
        tracker.tick(2)
        if low > high:
            return False
        return rewrite_range(views, low, high).evaluate(tracker)

    return PiScheme(
        name=f"views[{bucket_count}]",
        preprocess=preprocess,
        evaluate=evaluate,
        description="materialized range views + query rewriting (Section 4(6))",
    )
