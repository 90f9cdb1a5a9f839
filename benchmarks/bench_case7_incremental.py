"""C7 -- Section 4(7): (bounded) incremental evaluation.

Paper claims: incremental cost should be analysed against
|CHANGED| = |dD| + |dO| [35] and, for bounded algorithms, be independent of
|D|.  Series: (a) incremental index maintenance vs rebuild across |D|
with |dD| fixed; (b) incremental transitive closure cost against |CHANGED|.

Both series measure the hooks mutable sessions run, reached through the
catalog: ``point-selection``'s served scheme (the ``btree-per-attribute``
structure) folds a batch through ``apply_delta`` and rebuilds through
``preprocess``; ``reachability``'s ``closure_scheme`` builds the
:class:`~repro.indexes.TransitiveClosureIndex` whose ``insert_edge`` returns
the new-pair count.
"""

import random

from conftest import bench_size, bench_sizes, format_table

from repro.catalog import CATALOG
from repro.core import CostTracker
from repro.graphs import Digraph
from repro.incremental import ChangeKind, TupleChange
from repro.storage.relation import uniform_int_relation

SIZES = bench_sizes(9, 14)
SEED = 20130826
BATCH = 16


def served_scheme(kind):
    """The scheme the engine serves ``kind`` with."""
    return next(row for row in CATALOG if row.name == kind).serving()[1]


def test_c7_shape_bounded_index_maintenance(benchmark, experiment_report):
    def run():
        scheme = served_scheme("point-selection")
        rows = []
        for size in SIZES:
            rng = random.Random(SEED + size)
            relation = uniform_int_relation(size, rng, value_range=(0, 10**9))
            indexes = scheme.preprocess(relation, CostTracker())
            batch = [
                TupleChange(ChangeKind.INSERT, (2_000_000_000 + i, 0))
                for i in range(BATCH)
            ]
            incremental = CostTracker()
            scheme.apply_delta(indexes, batch, incremental)
            for change in batch:
                relation.insert(change.row)
            rebuild = CostTracker()
            scheme.preprocess(relation, rebuild)
            rows.append(
                (
                    size,
                    BATCH,
                    incremental.work,
                    rebuild.work,
                    f"{rebuild.work / max(incremental.work, 1):.0f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report(
        "C7a (Section 4(7)): fixed |dD| batch -- incremental maintenance vs rebuild",
        format_table(["|D|", "|dD|", "incremental work", "rebuild work", "gap"], rows),
    )
    # Rebuild grows linearly with |D| (at least the size ratio of the sweep);
    # the incremental batch only via log n.
    assert rows[-1][3] > (SIZES[-1] // SIZES[0]) * rows[0][3]
    assert rows[-1][2] < 4 * rows[0][2]


def test_c7_shape_closure_cost_tracks_changed(benchmark, experiment_report):
    def run():
        rng = random.Random(SEED)
        closure = served_scheme("reachability").preprocess(Digraph(256), CostTracker())
        buckets = {}  # |CHANGED| decade -> (total work, count)
        for _ in range(500):
            u, v = rng.randrange(256), rng.randrange(256)
            if u == v:
                continue
            tracker = CostTracker()
            # |CHANGED| = one edge plus the pairs it makes reachable (every
            # component is one vertex: the build starts edgeless).
            delta = 1 + closure.insert_edge(u, v, tracker)
            decade = len(str(max(delta, 1)))
            work, count = buckets.get(decade, (0, 0))
            buckets[decade] = (work + tracker.work, count + 1)
        return [
            (f"10^{decade - 1}..10^{decade}", count, work // max(count, 1))
            for decade, (work, count) in sorted(buckets.items())
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report(
        "C7b (Section 4(7)): incremental closure -- mean work per |CHANGED| decade",
        format_table(["|CHANGED| bucket", "#updates", "mean work"], rows),
    )
    # Work grows with |CHANGED|: each decade costs strictly more per update,
    # and the top decade dwarfs the bottom one.
    works = [row[2] for row in rows]
    assert works[-1] > 50 * max(works[0], 1)
    assert all(later >= earlier for earlier, later in zip(works, works[1:]))


def test_c7_wallclock_incremental_insert(benchmark):
    scheme = served_scheme("point-selection")
    rng = random.Random(SEED)
    relation = uniform_int_relation(bench_size(12), rng, value_range=(0, 10**9))
    indexes = scheme.preprocess(relation, CostTracker())
    counter = iter(range(10**9))

    def insert_one():
        change = TupleChange(ChangeKind.INSERT, (3_000_000_000 + next(counter), 0))
        scheme.apply_delta(indexes, [change], CostTracker())

    benchmark(insert_one)


def test_c7_wallclock_rebuild(benchmark):
    scheme = served_scheme("point-selection")
    rng = random.Random(SEED)
    relation = uniform_int_relation(bench_size(12), rng, value_range=(0, 10**9))
    benchmark(lambda: scheme.preprocess(relation, CostTracker()))
