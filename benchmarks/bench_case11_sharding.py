"""C11 -- sharded Pi-structures: partitioned builds and scatter-gather (ISSUE 2).

Measures the sharded serving path of :mod:`repro.service.sharding` against
the monolithic path of ISSUE 1, through the full engine stack (fingerprint,
plan, build, persist, serve):

* **cold, time to first answer** -- a routed query against a sharded kind
  only builds the shards it scatters to (an RMQ window touches overlapping
  blocks; a membership probe touches one hash bucket), so first-answer
  latency drops below the monolithic full build as |D| grows.
* **shard build after a change batch** -- the tentpole scenario: after a
  point change, content-addressed shard artifacts make every untouched
  shard a cache hit, so the "rebuild" is a (parallel) build of the touched
  shards only.  This beats the monolithic rebuild wall-clock at every size,
  including the smoke cap.
* **warm scatter-gather serve** -- per-query latency once everything is
  hot: routed kinds probe one small shard; broadcast kinds pay K partials
  plus the merge.

Pure-Python preprocessing contends on the GIL, so the *cold full* sharded
build (K structures + K artifact writes) is reported but expected to trail
the monolithic build at smoke sizes; the wins come from building *less*
(routing, shard-level invalidation) and from overlapping the GIL-releasing
I/O.  Every scenario asserts answer equivalence with the naive semantics.
"""

from __future__ import annotations

import statistics
import time

from conftest import bench_size, format_table

from repro.catalog import build_query_engine, build_registry
from repro.service import ArtifactStore

SEED = 20130826
SHARDS = 8
REBUILD_KIND = "minimum-range-query"  # range policy: a point change = 1 block
ROUTED_KIND = "list-membership"  # hash policy: a probe routes to 1 bucket
WARM_QUERIES = 32


def _engine(root, shards):
    return build_query_engine(store=ArtifactStore(root), shards=shards, max_workers=4)


def _min_over(repetitions, run):
    return min(run() for _ in range(repetitions))


def test_c11_sharded_vs_monolithic(benchmark, experiment_report, bench_json, tmp_path):
    size = bench_size(13)
    repetitions = 7
    counter = iter(range(10_000))
    classes = {
        entry.name: entry.query_class
        for entry in build_registry().entries()
        if entry.name in (REBUILD_KIND, ROUTED_KIND)
    }
    workloads = {}  # deterministic for a fixed seed: generate once per kind

    def fresh_root():
        return tmp_path / f"store-{next(counter)}"

    def workload(kind):
        if kind not in workloads:
            workloads[kind] = classes[kind].sample_workload(size, SEED, WARM_QUERIES)
        return workloads[kind]

    # -- scenario 1: cold, time to first answer ------------------------------
    def cold_first_answer(kind, shards):
        def run():
            data, queries = workload(kind)
            with _engine(fresh_root(), shards) as engine:
                started = time.perf_counter()
                engine.attach("d", data, kinds=[kind]).query(kind, queries[0])
                return time.perf_counter() - started

        return _min_over(repetitions, run)

    # -- scenario 2: full build (warm every shard), then a point-change rebuild
    def build_then_rebuild(shards):
        builds, rebuilds = [], []
        rebuilt_shards = 0
        for _ in range(repetitions):
            data, _queries = workload(REBUILD_KIND)
            with _engine(fresh_root(), shards) as engine:
                started = time.perf_counter()
                engine.attach("before", data, kinds=[REBUILD_KIND]).warm()
                builds.append(time.perf_counter() - started)

                changed = list(data)
                changed[len(changed) // 2] -= 1_000
                changed = tuple(changed)
                before = engine.stats().per_kind[REBUILD_KIND]
                started = time.perf_counter()
                engine.attach("after", changed, kinds=[REBUILD_KIND]).warm()
                rebuilds.append(time.perf_counter() - started)
                after = engine.stats().per_kind[REBUILD_KIND]
                rebuilt_shards = (after.shard_builds - before.shard_builds) or (
                    after.builds - before.builds
                )
        return min(builds), min(rebuilds), rebuilt_shards

    # -- scenario 3: warm serve latency (everything hot) ---------------------
    def warm_serve(kind, shards):
        data, queries = workload(kind)
        with _engine(fresh_root(), shards) as engine:
            query_class, _ = engine.registration(kind)
            ds = engine.attach("d", data, kinds=[kind]).warm()
            expected = [query_class.pair_in_language(data, q) for q in queries]
            latencies, answers = [], []
            for query in queries:
                started = time.perf_counter()
                answers.append(ds.query(kind, query))
                latencies.append(time.perf_counter() - started)
            assert answers == expected, f"{kind}: sharded != naive"
        return statistics.median(latencies)

    def run():
        return {
            "cold_first_mono": cold_first_answer(ROUTED_KIND, 1),
            "cold_first_shard": cold_first_answer(ROUTED_KIND, SHARDS),
            "build_rebuild_mono": build_then_rebuild(1),
            "build_rebuild_shard": build_then_rebuild(SHARDS),
            "warm_routed_mono": warm_serve(ROUTED_KIND, 1),
            "warm_routed_shard": warm_serve(ROUTED_KIND, SHARDS),
            "warm_scatter_mono": warm_serve(REBUILD_KIND, 1),
            "warm_scatter_shard": warm_serve(REBUILD_KIND, SHARDS),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    mono_build, mono_rebuild, mono_rebuilt = results["build_rebuild_mono"]
    shard_build, shard_rebuild, shard_rebuilt = results["build_rebuild_shard"]
    cold_mono = results["cold_first_mono"]
    cold_shard = results["cold_first_shard"]

    us = lambda seconds: f"{seconds * 1e6:.0f}"
    ratio = lambda shard, mono: f"{shard / mono:.2f}x"
    experiment_report(
        f"C11 (sharding): K={SHARDS} shards vs monolithic, |D| = {size}",
        format_table(
            ["scenario", "monolithic (us)", f"sharded K={SHARDS} (us)", "sharded/mono"],
            [
                (
                    f"cold first answer [{ROUTED_KIND}]",
                    us(cold_mono),
                    us(cold_shard),
                    ratio(cold_shard, cold_mono),
                ),
                (
                    f"cold full build [{REBUILD_KIND}]",
                    us(mono_build),
                    us(shard_build),
                    ratio(shard_build, mono_build),
                ),
                (
                    f"shard build after point change [{REBUILD_KIND}]",
                    us(mono_rebuild),
                    us(shard_rebuild),
                    ratio(shard_rebuild, mono_rebuild),
                ),
                (
                    f"warm serve p50, routed [{ROUTED_KIND}]",
                    us(results["warm_routed_mono"]),
                    us(results["warm_routed_shard"]),
                    ratio(results["warm_routed_shard"], results["warm_routed_mono"]),
                ),
                (
                    f"warm serve p50, scatter-gather [{REBUILD_KIND}]",
                    us(results["warm_scatter_mono"]),
                    us(results["warm_scatter_shard"]),
                    ratio(results["warm_scatter_shard"], results["warm_scatter_mono"]),
                ),
            ],
        ),
    )
    bench_json(
        "sharding",
        {
            "dataset_size": size,
            "shards": SHARDS,
            "cold_first_answer_mono_ms": cold_mono * 1e3,
            "cold_first_answer_sharded_ms": cold_shard * 1e3,
            "cold_full_build_mono_ms": mono_build * 1e3,
            "cold_full_build_sharded_ms": shard_build * 1e3,
            "rebuild_after_change_mono_ms": mono_rebuild * 1e3,
            "rebuild_after_change_sharded_ms": shard_rebuild * 1e3,
            "rebuild_shards_touched": shard_rebuilt,
            "warm_routed_p50_us": {
                "mono": results["warm_routed_mono"] * 1e6,
                "sharded": results["warm_routed_shard"] * 1e6,
            },
            "warm_scatter_p50_us": {
                "mono": results["warm_scatter_mono"] * 1e6,
                "sharded": results["warm_scatter_shard"] * 1e6,
            },
        },
    )

    # The headline: after a point change, the sharded path builds only the
    # touched shard (verified by the counter) and its wall-clock beats the
    # monolithic rebuild -- at the largest smoke size and above.
    assert shard_rebuilt == 1, "a point change must rebuild exactly one shard"
    assert mono_rebuilt == 1  # the monolithic path rebuilds its single structure
    assert shard_rebuild < mono_rebuild, (
        f"sharded rebuild {shard_rebuild * 1e3:.2f}ms should beat monolithic "
        f"{mono_rebuild * 1e3:.2f}ms"
    )
    # Warm sharded serving stays in the same latency class as monolithic
    # (routed probes touch one small shard; scatter pays K partials).
    assert results["warm_routed_shard"] < results["warm_routed_mono"] * 4
    assert results["warm_scatter_shard"] < results["warm_scatter_mono"] * 20
