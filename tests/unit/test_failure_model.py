"""The failure model's in-process rows, each made to fail through a test seam.

One test per store, shard, cache and delta row of the "Failure model" table
in ``docs/architecture.md``: the seam (``tests/fault_seams.py``) makes the
failure happen, and the test asserts the *defined* recovery plus the exact
health counters it must move (``engine.stats().health()``).  The worker
rows need processes and stay in ``tests/chaos/``, whose completeness test
keeps :data:`fault_seams.SCENARIOS` and the pinning tests in lockstep.
"""

from __future__ import annotations

import pytest
from fault_seams import FaultyStore, InjectedFault, Shots, failing, lose_shards, storm

from repro.catalog import build_query_engine
from repro.incremental.changes import ChangeKind, TupleChange
from repro.service import engine as engine_module
from repro.service.artifacts import ArtifactStore


def _insert(*row):
    return TupleChange(ChangeKind.INSERT, tuple(row))


def _persisted_membership(tmp_path, data):
    """Persist the list-membership artifact, then return a fresh engine over
    a :class:`FaultyStore` whose first query must come from the store."""
    with build_query_engine(store=ArtifactStore(tmp_path)) as warmup:
        warmup.attach("d", data, kinds=["list-membership"]).warm()
    store = FaultyStore(tmp_path)
    return store, build_query_engine(store=store)


def _scheme(ds, kind):
    return ds.registration_for(kind).scheme


# -- store reads -----------------------------------------------------------------


def test_corrupt_artifact_recovers_by_bounded_retry(tmp_path):
    """One corrupt read: the engine counts the checksum failure, retries the
    read, and serves from the clean file -- no rebuild, no deleted artifact."""
    data = tuple(range(64))
    store, engine = _persisted_membership(tmp_path, data)
    with engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        store.corrupt.arm()
        assert ds.query("list-membership", 7)
        assert not ds.query("list-membership", 99)
        health = engine.stats().health()
        assert health["checksum_failures"] == 1
        assert health["rebuild_retries"] == 1
        stats = engine.stats().per_kind["list-membership"]
        assert stats.store_hits == 1  # the retry read the clean file
        assert stats.builds == 0  # recovery never fell back to a rebuild
        assert store.contains(ds.artifact_key("list-membership"))


def test_corrupt_artifact_persistent_rebuilds_from_source(tmp_path):
    """Every read corrupt: retries exhaust, the bad artifact is deleted, and
    the structure rebuilds from source -- always safe, artifacts are pure
    caches of PTIME-recomputable state."""
    data = tuple(range(64))
    store, engine = _persisted_membership(tmp_path, data)
    with engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        store.corrupt.arm(times=None)
        assert ds.query("list-membership", 7)
        health = engine.stats().health()
        assert health["checksum_failures"] == 1 + engine_module.LOAD_RETRIES
        assert health["rebuild_retries"] == engine_module.LOAD_RETRIES
        stats = engine.stats().per_kind["list-membership"]
        assert stats.store_hits == 0
        assert stats.builds == 1
    # The rebuild re-persisted a clean artifact: a third engine store-hits.
    with build_query_engine(store=ArtifactStore(tmp_path)) as engine:
        assert engine.attach("d", data, kinds=["list-membership"]).query(
            "list-membership", 7
        )
        assert engine.stats().per_kind["list-membership"].store_hits == 1


def test_truncate_artifact_detected_and_recovered(tmp_path):
    """Truncation trips the length/checksum integrity checks -- the same
    recovery family as bit rot: count, retry, serve."""
    data = tuple(range(64))
    store, engine = _persisted_membership(tmp_path, data)
    with engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        store.truncate.arm()
        assert ds.query("list-membership", 7)
        health = engine.stats().health()
        assert health["checksum_failures"] == 1
        assert health["rebuild_retries"] == 1
        assert engine.stats().per_kind["list-membership"].store_hits == 1


def test_slow_artifact_read_counts_slow_loads(tmp_path, monkeypatch):
    """A slow read still serves correctly; the latency is observable as a
    ``slow_loads`` tick instead of a silent stall."""
    monkeypatch.setattr(engine_module, "SLOW_LOAD_SECONDS", 0.005)
    data = tuple(range(64))
    store, engine = _persisted_membership(tmp_path, data)
    with engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        store.slow.arm()
        assert ds.query("list-membership", 7)
        assert store.slow.fired == 1
        health = engine.stats().health()
        assert health["slow_loads"] >= 1
        assert health["checksum_failures"] == 0
        assert engine.stats().per_kind["list-membership"].store_hits == 1


# -- scatter-gather shards ---------------------------------------------------------


@pytest.mark.parametrize("kind, data, query", [
    ("list-membership", tuple(range(64)), 7),
    ("minimum-range-query", tuple(range(48)), (0, 47, 0)),
    ("topk-threshold", tuple((i, 100 - i) for i in range(16)), ((1, 1), 3, 100)),
], ids=["union", "monoid", "kway"])
def test_dead_shard_raises_and_is_counted(monkeypatch, kind, data, query):
    """A shard whose evaluator raises fails the answer like any kernel that
    raises, whatever the merge family: the caller sees the exception
    unchanged, ``serve_errors`` counts it, and the next query is whole."""
    with build_query_engine() as engine:
        ds = engine.attach("d", data, kinds=[kind], shards=3)
        lost = Shots()
        lose_shards(monkeypatch, _scheme(ds, kind), lost)
        assert ds.query(kind, query) is True  # warm
        lost.arm()
        with pytest.raises(InjectedFault):
            ds.query(kind, query)
        assert engine.stats().health()["serve_errors"] == 1
        assert ds.query(kind, query) is True


def test_slow_shard_answer_stays_whole_and_correct(monkeypatch):
    """A slow partial is waited for: the answer is right and not partial."""
    data = tuple(range(64))
    with build_query_engine() as engine:
        ds = engine.attach("d", data, kinds=["list-membership"], shards=3)
        slow = Shots()
        lose_shards(monkeypatch, _scheme(ds, "list-membership"), slow, seconds=0.005)
        assert ds.query("list-membership", 7)
        slow.arm()
        answer = ds.query("list-membership", 7)
        assert slow.fired == 1
        assert answer is True
        assert not ds.query("list-membership", 99)
        assert engine.stats().health()["serve_errors"] == 0


# -- cache inserts -----------------------------------------------------------------


def test_eviction_storm_never_changes_answers():
    """Every cache insert invalidates a batch of earlier entries.  The live
    serve plans keep the structures they captured, so answers never change
    and nothing re-resolves: each kind builds once."""
    data = tuple(range(64))
    with build_query_engine(cache_entries=8) as engine:
        ds = engine.attach(
            "d", data, kinds=["list-membership", "minimum-range-query"]
        )
        expected_member = [(probe, probe in data) for probe in range(-4, 70, 7)]
        storming = Shots(None)
        storm(engine._cache, storming, size=2)
        for _ in range(5):
            for probe, expected in expected_member:
                assert ds.query("list-membership", probe) == expected
            assert ds.query("minimum-range-query", (0, 63, 0))
        assert storming.fired > 1  # entries left the cache under live plans
        assert sum(s.builds for s in engine.stats().per_kind.values()) == 2


# -- apply_delta -------------------------------------------------------------------


def test_failed_delta_apply_commits_batch_and_repairs(monkeypatch):
    """``apply_delta`` crashes mid-batch: the batch still commits (content
    is the source of truth) and the structure is repaired by rebuild, so no
    torn snapshot is ever published."""
    with build_query_engine() as engine:
        ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"], mutable=True)
        assert ds.query("list-membership", 2)  # materialize the structure
        scheme = _scheme(ds, "list-membership")
        monkeypatch.setattr(scheme, "apply_delta",
                            failing(scheme.apply_delta, Shots(1), "apply_delta"))
        ds.apply_changes([_insert(9)])
        # The faulted batch is fully visible -- no torn state.
        assert ds.query("list-membership", 9)
        assert ds.query("list-membership", 2)
        health = engine.stats().health()
        assert health["write_rollbacks"] == 1
        stats = engine.stats().per_kind["list-membership"]
        assert stats.fallback_rebuilds == 1
        assert stats.delta_batches == 0  # the crashed fold never counted
        # Past the fault, the next batch folds in place again.
        ds.apply_changes([_insert(11)])
        assert ds.query("list-membership", 11)
        assert engine.stats().per_kind["list-membership"].delta_batches == 1


def test_failed_delta_apply_repair_is_visible_on_the_tracked_path(monkeypatch):
    """Same torn-batch guard through the analytic evaluator
    (``query_tracked``), on a session warmed instead of first-queried."""
    with build_query_engine() as engine:
        ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"], mutable=True)
        ds.warm()
        scheme = _scheme(ds, "list-membership")
        monkeypatch.setattr(scheme, "apply_delta",
                            failing(scheme.apply_delta, Shots(1), "apply_delta"))
        ds.apply_changes([_insert(9)])
        assert ds.query_tracked("list-membership", 9)
        health = engine.stats().health()
        assert health["write_rollbacks"] == 1
        assert engine.stats().per_kind["list-membership"].fallback_rebuilds == 1


# -- store writes ------------------------------------------------------------------


def test_disk_full_sync_build_serves_from_memory(tmp_path):
    """A cold build whose synchronous persist fails still serves -- only
    durability is lost, and ``persist_failures`` makes that observable."""
    data = tuple(range(64))
    store = FaultyStore(tmp_path)
    with build_query_engine(store=store) as engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        store.full.arm(times=None)
        assert ds.query("list-membership", 7)
        assert not ds.query("list-membership", 99)
        health = engine.stats().health()
        assert health["persist_failures"] == 1
        assert not store.contains(ds.artifact_key("list-membership"))
        assert engine.stats().per_kind["list-membership"].builds == 1
