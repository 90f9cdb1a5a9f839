#!/usr/bin/env python3
"""Social-network reachability: the Section 4 strategies on one workload.

The scenario the paper's Section 4(5) motivates: a social graph queried
heavily for "can user u reach user v?".  This example runs the same query
workload through four regimes --

1. per-query BFS (no preprocessing),
2. query-preserving compression (strategy 5),
3. a precomputed transitive-closure index (Example 3),
4. lossless compression (the contrast: must decompress per query) --

and then keeps the closure index live under new follow-edges with the
bounded incremental algorithm (strategy 7): a mutable engine session folds
each batch of follows into the served closure through its delta hook.

Run:  python examples/social_network_reachability.py
"""

import random

from repro.catalog import build_query_engine
from repro.compression import LosslessCompressedGraph, ReachabilityPreservingCompression
from repro.core import CostTracker
from repro.graphs import is_reachable, social_digraph
from repro.incremental import ChangeKind, EdgeChange
from repro.indexes import TransitiveClosureIndex

USERS = 600
QUERIES = 200


def main() -> None:
    rng = random.Random(7)
    graph = social_digraph(USERS, rng)
    print("=" * 72)
    print("Social-network reachability (paper, Example 3 + Section 4(5)/(7))")
    print("=" * 72)
    print(f"\nGraph: {graph.n} users, {graph.edge_count} follow edges")

    queries = [(rng.randrange(USERS), rng.randrange(USERS)) for _ in range(QUERIES)]

    # Regime 1: per-query BFS.
    bfs_tracker = CostTracker()
    bfs_answers = [is_reachable(graph, u, v, bfs_tracker) for u, v in queries]

    # Regime 2: query-preserving compression (Section 4(5)).
    compressed = ReachabilityPreservingCompression(graph)
    qp_tracker = CostTracker()
    qp_answers = [compressed.reachable(u, v, qp_tracker) for u, v in queries]

    # Regime 3: transitive-closure index (Example 3).
    index = TransitiveClosureIndex(graph)
    index_tracker = CostTracker()
    index_answers = [index.reachable(u, v, index_tracker) for u, v in queries]

    # Regime 4: lossless compression -- decompress on every query.
    lossless = LosslessCompressedGraph(graph)
    lossless_tracker = CostTracker()
    lossless_answers = [
        lossless.reachable(u, v, lossless_tracker) for u, v in queries[:20]
    ]

    assert bfs_answers == qp_answers == index_answers
    assert lossless_answers == bfs_answers[:20]

    print(f"\nAll four regimes agree on {QUERIES} queries.  Per-query work:")
    print(f"  per-query BFS              : {bfs_tracker.work // QUERIES:>10,}")
    print(f"  query-preserving compressed: {qp_tracker.work // QUERIES:>10,}")
    print(f"  closure-index lookup       : {index_tracker.work // QUERIES:>10,}")
    print(f"  lossless (decompress+BFS)  : {lossless_tracker.work // 20:>10,}")
    print(
        f"\nCompression: {graph.n}v/{graph.edge_count}e -> "
        f"{compressed.compressed_vertices}v/{compressed.compressed_edges}e "
        f"(ratio {compressed.compression_ratio():.2f}; "
        f"lossless byte ratio {lossless.compression_ratio():.2f} but unqueryable)"
    )

    # Strategy 7: keep reachability live as new follows arrive.  Bounded
    # incremental computation means cost tracks |CHANGED| = |dD| + |dO|,
    # not |D|: follows inside already-connected communities are nearly free,
    # and only genuinely connecting edges pay for the pairs they create.
    print("\nIncremental maintenance under new follow edges (Section 4(7)):")
    with build_query_engine() as engine:
        live = engine.attach("follows", graph, kinds=["reachability"], mutable=True).warm()
        follows = set(graph.edges())

        def follow(batch):
            """Fold one batch of follows; returns its delta-hook ms and |dO|."""
            pairs = TransitiveClosureIndex(live.dataset()).reachable_pair_count()
            spent = engine.stats().per_kind["reachability"].delta_seconds
            live.apply_changes([EdgeChange(ChangeKind.INSERT, u, v) for u, v in batch])
            follows.update(batch)
            spent = engine.stats().per_kind["reachability"].delta_seconds - spent
            gained = TransitiveClosureIndex(live.dataset()).reachable_pair_count() - pairs
            return spent * 1e3, gained

        # Batch A: 50 redundant follows (target already reachable).
        redundant = []
        attempts = 0
        while len(redundant) < 50 and attempts < 5000:
            attempts += 1
            u, v = rng.randrange(USERS), rng.randrange(USERS)
            if (
                u != v
                and (u, v) not in follows
                and (u, v) not in redundant
                and live.query("reachability", (u, v))
            ):
                redundant.append((u, v))
        redundant_ms, redundant_gained = follow(redundant)
        # Batch B: 50 arbitrary follows (some create many new reachable pairs).
        novel = [(rng.randrange(USERS), rng.randrange(USERS)) for _ in range(50)]
        novel = [(u, v) for u, v in novel if u != v]
        novel_ms, novel_gained = follow(novel)

        stats = engine.stats().per_kind["reachability"]
        assert stats.delta_batches == 2 and stats.fallback_rebuilds == 0
        assert redundant_gained == 0
        print(f"  {len(redundant)} redundant follows : {redundant_ms:>8.2f} ms  "
              f"(|CHANGED| = {len(redundant)} + 0)")
        print(
            f"  {len(novel)} arbitrary follows : {novel_ms:>8.2f} ms  "
            f"(|CHANGED| = {len(novel)} + {novel_gained:,} -- cost tracks the output change)"
        )
        print(f"  a rebuild from scratch costs {stats.build_seconds * 1e3:.2f} ms *per batch*,")
        print("  even when nothing changed -- boundedness is the win (paper, [35]).")
        print(f"  ({stats.delta_batches} batches folded by the served delta hook, "
              f"{stats.fallback_rebuilds} rebuilds)")

        updated = live.dataset()
        checks = queries + [(rng.randrange(USERS), rng.randrange(USERS)) for _ in range(QUERIES)]
        assert all(
            live.query("reachability", (u, v)) == is_reachable(updated, u, v)
            for u, v in checks
        )
        print(f"  live closure verified against BFS on {len(checks)} queries "
              f"over the updated graph.")

if __name__ == "__main__":
    main()
