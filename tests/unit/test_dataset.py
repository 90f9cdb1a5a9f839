"""Unit tests for the dataset-first serving API (ISSUE 4).

Headliners:

* ``test_one_session_serves_sharded_and_mutable_delta_kinds`` -- the
  acceptance scenario: one ``Dataset`` serves a sharded kind and a
  delta-maintained kind at once, with answers equal to fresh immutable
  sessions over the same content;
* ``test_invalidate_evicts_every_kind_in_one_call`` -- the multi-kind
  content-eviction regression guard (the cached structure of every kind);
* ``test_named_sessions_never_touch_the_memo`` -- the payload is hashed
  exactly once, at attach.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.catalog import build_query_engine
from repro.core.errors import ServiceError, UnknownDatasetError
from repro.incremental.changes import ChangeKind, PointWrite, TupleChange
from repro.queries import (
    fischer_heun_scheme,
    membership_class,
    rmq_class,
    sorted_run_scheme,
)
from repro.service import ArtifactStore
from repro.service.engine import QueryEngine
from repro.storage.fingerprint import dataset_fingerprint


def _flat_engine(**kwargs) -> QueryEngine:
    """An engine serving two kinds over the same flat-int-tuple payloads."""
    engine = QueryEngine(**kwargs)
    engine.register("membership", membership_class(), sorted_run_scheme())
    engine.register("rmq", rmq_class(), fischer_heun_scheme())
    return engine


def _two_shape_engine(**kwargs) -> QueryEngine:
    """Like :func:`_flat_engine`, but rmq declares no ShardSpec: one
    ``attach(..., shards=4)`` session serves membership sharded and rmq
    monolithic."""
    engine = QueryEngine(**kwargs)
    engine.register("membership", membership_class(), sorted_run_scheme())
    rmq = fischer_heun_scheme()
    rmq.sharding = None
    engine.register("rmq", rmq_class(), rmq)
    return engine


# -- attach / detach lifecycle -------------------------------------------------


def test_attach_serves_all_registered_kinds_by_default():
    with _flat_engine() as engine:
        data = tuple(range(32))
        ds = engine.attach("events", data)
        assert ds.kinds == ["membership", "rmq"]
        assert ds.name == "events" and not ds.mutable and ds.version == 0
        assert ds.dataset() is data  # immutable: the snapshot is the payload
        assert ds.query("membership", 17) is True
        assert ds.query("membership", 99) is False
        assert ds.query("rmq", (4, 9, 4)) is True  # ascending: argmin is 4
        assert engine.datasets() == ["events"]
        assert engine.dataset("events") is ds


def test_attach_validates_inputs():
    engine = _flat_engine()
    engine.attach("taken", (1, 2))
    with pytest.raises(ServiceError, match="already attached"):
        engine.attach("taken", (3, 4))
    with pytest.raises(ServiceError, match="non-empty name"):
        engine.attach("", (1,))
    with pytest.raises(ServiceError, match="no scheme registered"):
        engine.attach("bad-kind", (1,), kinds=["nope"])
    with pytest.raises(ServiceError, match="shards must be"):
        engine.attach("bad-shards", (1,), shards=0)
    engine.close()
    with pytest.raises(ServiceError, match="closed"):
        engine.attach("late", (1,))
    with pytest.raises(ServiceError, match="no kinds"):
        QueryEngine().attach("empty", (1,))


def test_attach_refuses_a_shard_count_that_is_not_an_int():
    """Over the wire ``shards`` is client JSON: a float, a string or a bool
    is refused before any session exists (2.0 used to attach and then fail
    every query; True served monolithic and reported ``shards == True``)."""
    with build_query_engine() as engine:
        for shards in (2.0, "2", True):
            with pytest.raises(ServiceError, match="shards must be an int"):
                engine.attach("d", tuple(range(64)), kinds=["list-membership"],
                              shards=shards)
            assert engine.datasets() == []
        ds = engine.attach("d", tuple(range(64)), kinds=["list-membership"], shards=2)
        assert ds.shards == 2 and ds.query("list-membership", 7) is True


def test_detach_releases_the_name_and_poisons_the_session():
    with _flat_engine() as engine:
        data = (5, 1, 4)
        ds = engine.attach("events", data)
        assert ds.query("membership", 5) is True
        ds.detach()
        assert engine.datasets() == []
        with pytest.raises(UnknownDatasetError, match="detached"):
            ds.query("membership", 5)
        with pytest.raises(UnknownDatasetError):
            ds.query_batch([("membership", 5)])
        with pytest.raises(UnknownDatasetError):
            ds.warm()
        with pytest.raises(UnknownDatasetError):
            engine.dataset("events")
        ds.detach()  # idempotent
        # The name is free again.
        fresh = engine.attach("events", data)
        assert fresh.query("membership", 5) is True


def test_dataset_is_a_context_manager():
    with _flat_engine() as engine:
        with engine.attach("events", (1, 2, 3)) as ds:
            assert ds.query("membership", 2) is True
        assert engine.datasets() == []
        with pytest.raises(UnknownDatasetError, match="detached"):
            ds.query("membership", 2)


def test_engine_close_detaches_sessions():
    engine = _flat_engine()
    ds = engine.attach("events", (1, 2, 3))
    engine.close()
    with pytest.raises(UnknownDatasetError, match="detached"):
        ds.query("membership", 1)


def test_restricted_kinds_reject_unlisted_queries():
    with _flat_engine() as engine:
        ds = engine.attach("events", (3, 1, 4), kinds=["membership"])
        assert ds.kinds == ["membership"]
        assert ds.query("membership", 3) is True
        with pytest.raises(ServiceError, match="does not serve"):
            ds.query("rmq", (0, 1, 0))


# -- request routing -----------------------------------------------------------


def test_named_requests_resolve_through_the_session():
    with _flat_engine() as engine:
        data = (3, 1, 4, 1, 5)
        ds = engine.attach("events", data)
        assert engine.dataset("events") is ds  # the name hands out the session
        assert engine.dataset("events").query("membership", 4)
        assert not engine.dataset("events").query("membership", 9)
        answers = engine.dataset("events").query_batch(
            [("membership", q) for q in (1, 2, 5)]
        )
        assert answers == [True, False, True]
        with pytest.raises(UnknownDatasetError, match="ghost"):
            engine.dataset("ghost")


def test_query_batch_accepts_requests_and_pairs():
    """``requests`` is any iterable of ``(kind, query)`` pairs -- a list, a
    generator -- and nothing else: no request record, no bare kind."""
    with _flat_engine() as engine:
        ds = engine.attach("events", (1, 2, 3))
        pairs = [("membership", 2), ("membership", 9), ("membership", 3)]
        assert ds.query_batch(pairs) == [True, False, True]
        assert ds.query_batch(pair for pair in pairs) == [True, False, True]

        class Record:
            kind, query, dataset = "membership", 2, "events"

        for item in (Record(), "membership", ["membership", 2], ("membership", 2, "events")):
            with pytest.raises(ServiceError, match=r"\(kind, query\) pairs"):
                ds.query_batch([item])


def test_caller_threads_answer_through_the_session():
    """The engine runs no serve threads: concurrency is the caller's."""
    with _flat_engine() as engine:
        ds = engine.attach("events", tuple(range(100)))
        with ThreadPoolExecutor(max_workers=3) as pool:
            answers = list(pool.map(lambda q: ds.query("membership", q), (7, 250, 99)))
        assert answers == [True, False, True]
        assert engine.stats().per_kind["membership"].queries == 3


def test_warm_prebuilds_every_kind():
    with _flat_engine() as engine:
        ds = engine.attach("events", tuple(range(64))).warm()
        stats = engine.stats()
        assert stats.per_kind["membership"].builds == 1
        assert stats.per_kind["rmq"].builds == 1
        ds.query("membership", 5)
        # warm() captured the serve plans: the query is a plan hit, with no
        # second probe of the artifact layers.
        membership = engine.stats().per_kind["membership"]
        assert membership.builds == 1 and membership.cache_hits == 0


# -- per-dataset shard override ------------------------------------------------


def test_attach_shard_override_serves_sharded_without_reregistering():
    with _flat_engine() as engine:
        data = tuple(range(64))
        ds = engine.attach("events", data, kinds=["membership"], shards=4)
        assert ds.shards_for("membership") == 4
        assert ds.query("membership", 17) is True
        sharded_builds = engine.stats().per_kind["membership"].builds
        assert sharded_builds >= 1
        # The same engine still serves the monolithic path for other sessions.
        mono = engine.attach("mono", data)
        assert mono.shards_for("membership") == 1
        assert mono.query("membership", 17) is True
        assert engine.stats().per_kind["membership"].builds == sharded_builds + 1


def test_shard_override_ignores_unshardable_kinds():
    engine = _two_shape_engine()  # pretend rmq cannot shard
    ds = engine.attach("events", tuple(range(16)), shards=4)
    assert ds.shards_for("membership") == 4
    assert ds.shards_for("rmq") == 1
    assert ds.query("rmq", (2, 7, 2)) is True
    engine.close()


# -- the payload is hashed once, at attach -------------------------------------


def test_named_sessions_never_touch_the_memo(monkeypatch):
    """The dataset-first acceptance property: the payload is fingerprinted
    exactly once, at attach -- never on the request path."""
    import repro.service.engine as engine_module

    hashed = []

    def counting_fingerprint(data):
        hashed.append(data)
        return dataset_fingerprint(data)

    monkeypatch.setattr(engine_module, "dataset_fingerprint", counting_fingerprint)
    with _flat_engine() as engine:
        ds = engine.attach("events", tuple(range(32)))
        for q in range(20):
            ds.query("membership", q)
            engine.dataset("events").query("membership", q)
        assert len(hashed) == 1
        assert engine.stats().per_kind["membership"].builds == 1


# -- multi-kind detach eviction (ISSUE 4 satellite) ----------------------------


def test_invalidate_evicts_every_kind_in_one_call():
    """A dataset served under several kinds -- one of them sharded -- loses
    *all* cached monolithic structures in one ``detach`` call, and
    re-attaching the mutated payload rebuilds."""
    engine = _two_shape_engine()
    data = list(range(48))
    ds = engine.attach("events", data, shards=4)
    ds.query("membership", 3)      # sharded resolve
    ds.query("rmq", (0, 9, 0))     # monolithic resolve
    rmq_key = ds.registration_for("rmq").key(ds.fingerprint)
    assert engine._cache.get(rmq_key, record=False) is not None

    data.append(999)
    ds.detach()

    assert engine._cache.get(rmq_key, record=False) is None
    # And the next session really rebuilds from the new content.
    assert engine.attach("events", data).query("membership", 999) is True
    engine.close()


def test_detach_spares_content_shared_with_another_session():
    """Two sessions over equal content share one cached build; detaching one
    must not force the survivor to rebuild (review finding)."""
    with _flat_engine() as engine:
        first = engine.attach("a", (5, 1, 4), kinds=["membership"])
        second = engine.attach("b", tuple([5, 1, 4]), kinds=["membership"])
        assert first.fingerprint == second.fingerprint
        assert first.query("membership", 5) is True
        assert second.query("membership", 5) is True
        assert engine.stats().per_kind["membership"].builds == 1
        first.detach()
        assert second.query("membership", 1) is True  # still warm
        stats = engine.stats().per_kind["membership"]
        # One build ever: the shared structure was spared (the survivor's
        # serve plan keeps answering; no rebuild, no spurious miss).
        assert stats.builds == 1 and stats.cache_hits >= 1
        second.detach()  # last holder: now the content really evicts
        key = second.registration_for("membership").key(second.fingerprint)
        assert engine._cache.get(key, record=False) is None


def test_invalidate_spares_content_shared_with_a_named_session():
    """Detach evicts by the identity fixed at attach: a payload mutated in
    place before its session detaches still counts as the *old* content,
    which another session serves -- so nothing is evicted."""
    with _flat_engine() as engine:
        payload = [5, 1, 4]
        ds = engine.attach("a", [5, 1, 4], kinds=["membership"])
        twin = engine.attach("b", payload, kinds=["membership"])
        assert twin.query("membership", 5) is True
        assert engine.stats().per_kind["membership"].builds == 1
        payload.append(9)
        twin.detach()  # equal *old* content still attached as "a"
        assert ds.query("membership", 5) is True
        stats = engine.stats().per_kind["membership"]
        assert stats.builds == 1 and stats.cache_hits >= 1


def test_detach_evicts_cached_structures_and_plans():
    engine = _two_shape_engine()
    data = tuple(range(48))
    ds = engine.attach("events", data, shards=4)
    ds.warm()
    rmq_key = ds.registration_for("rmq").key(ds.fingerprint)
    assert engine._cache.get(rmq_key, record=False) is not None
    ds.detach()
    assert engine._cache.get(rmq_key, record=False) is None
    engine.close()


@pytest.mark.parametrize("mutable", [False, True], ids=["immutable", "mutable"])
def test_detach_frees_the_session_structures(mutable):
    """Detach frees every structure the session served from while the caller
    still holds the session: the immutable plan's, and both left-right sides
    of a mutable one."""
    kind = "list-membership"
    with build_query_engine() as engine:
        ds = engine.attach("events", tuple(range(4096)), kinds=[kind], mutable=mutable)
        assert ds.warm().query(kind, 7) is True
        if mutable:
            versions = ds._mutable._versions
            sides = [versions.current.plans[kind], versions.offline[kind]]
        else:
            sides = [ds._plan(kind)]
        refs = [weakref.ref(plan.resolve()) for plan in sides]
        del sides
        ds.detach()
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        with pytest.raises(UnknownDatasetError):
            ds.query(kind, 7)


def test_mutable_reads_racing_detach_answer_or_raise_the_session_error():
    """A read racing detach answers from the version it pinned or raises
    UnknownDatasetError -- never a KeyError out of the released sides.
    Four readers on a short switch interval, so detach lands mid-read."""
    readers, interval = 4, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _flat_engine() as engine:
            for _ in range(5):
                ds = engine.attach("events", tuple(range(128)), mutable=True).warm()
                requests = [("membership", 5), ("rmq", (0, 9, 0)), ("membership", 999)]
                outcomes = []

                def reader():
                    try:
                        while True:
                            outcomes.append(ds.query_batch(requests))
                            outcomes.append([ds.query("rmq", (0, 9, 0))])
                    except UnknownDatasetError as exc:
                        outcomes.append(exc)

                threads = [threading.Thread(target=reader) for _ in range(readers)]
                for thread in threads:
                    thread.start()
                ds.detach()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                errors = [o for o in outcomes if isinstance(o, UnknownDatasetError)]
                assert len(errors) == readers  # no reader died of anything else
                assert all(
                    o in ([True, True, False], [True]) for o in outcomes if o not in errors
                )
    finally:
        sys.setswitchinterval(interval)


# -- mutable sessions ----------------------------------------------------------


def _insert(value):
    return TupleChange(ChangeKind.INSERT, (value,))


def _delete(value):
    return TupleChange(ChangeKind.DELETE, (value,))


def test_apply_changes_requires_mutable_attach():
    with _flat_engine() as engine:
        ds = engine.attach("events", (1, 2, 3))
        with pytest.raises(ServiceError, match="mutable=True"):
            ds.apply_changes([_insert(9)])


def test_one_session_serves_sharded_and_mutable_delta_kinds(tmp_path):
    """The ISSUE 4 acceptance scenario: one Dataset serves a sharded kind
    (touched-shard fallback on writes) and a monolithic delta-maintained
    kind, with answers equal to fresh immutable sessions over the same
    content before and after mutation."""
    rng = random.Random(20130826)
    base = tuple(rng.randint(-100, 100) for _ in range(64))
    engine = _two_shape_engine(store=ArtifactStore(tmp_path))
    legacy = _flat_engine()

    ds = engine.attach("sensor", base, shards=4, mutable=True)
    assert ds.mutable and ds.shards_for("membership") == 4 and ds.shards_for("rmq") == 1

    def check_equivalence(content):
        argmin = min(range(len(content)), key=lambda i: (content[i], i))
        probes = [content[0], content[-1], 101, -101]
        windows = [(0, len(content) - 1, argmin), (2, 10, 2), (5, 5, 5)]
        with legacy.attach("reference", content) as reference:
            for probe in probes:
                assert ds.query("membership", probe) == reference.query(
                    "membership", probe
                )
            for window in windows:
                assert ds.query("rmq", window) == reference.query("rmq", window)

    check_equivalence(base)
    ds.apply_changes([PointWrite(5, -999), PointWrite(40, 999)])
    assert ds.version == 1
    post = ds.dataset()
    assert post[5] == -999 and post[40] == 999 and len(post) == len(base)
    check_equivalence(post)

    stats = engine.stats()
    # rmq took the delta path; the sharded membership kind fell back to a
    # touched-shards rebuild.
    assert stats.per_kind["rmq"].delta_batches == 1
    assert stats.per_kind["membership"].fallback_rebuilds == 1
    assert stats.per_kind["membership"].delta_batches == 0

    # The delta-maintained rmq structure lives in memory; the store keeps
    # the version-0 artifact under the attach-time key and nothing newer.
    store = engine._store
    rmq_key = ds.registration_for("rmq").key(ds.fingerprint)
    assert store.get(rmq_key) is not None
    assert rmq_key.fingerprint == ds.fingerprint

    engine.close()
    legacy.close()


def test_mutable_session_batches_are_snapshot_atomic():
    with _flat_engine() as engine:
        ds = engine.attach("events", (1, 2, 3), kinds=["membership"], mutable=True)
        assert ds.query_batch([("membership", 1), ("membership", 9)]) == [True, False]
        ds.apply_changes([_insert(9), _delete(1)])
        assert ds.query_batch([("membership", 1), ("membership", 9)]) == [False, True]
        assert ds.version == 1
        # Screened-to-noop batches do not bump the version.
        ds.apply_changes([_delete(1234)])
        assert ds.version == 1


def test_mutable_session_materializes_kinds_lazily_after_changes():
    """A kind first queried *after* batches were applied builds from the
    current content, not the attach-time payload."""
    with _flat_engine() as engine:
        ds = engine.attach("events", (5, 1, 4), mutable=True)
        ds.apply_changes([_insert(77)])  # no structure materialized yet
        assert ds.query("membership", 77) is True
        # rmq materializes even later, over the 4-element content.
        assert ds.query("rmq", (0, 3, 1)) is True  # argmin of (5,1,4,77) is 1
        stats = engine.stats()
        assert stats.per_kind["membership"].queries == 1
        assert stats.per_kind["rmq"].queries == 1


def test_mutable_session_does_not_touch_the_caller_object():
    with _flat_engine() as engine:
        payload = [3, 1, 4]
        ds = engine.attach("events", payload, kinds=["membership"], mutable=True)
        ds.apply_changes([_insert(9)])
        assert payload == [3, 1, 4]
        assert ds.dataset() == [3, 1, 4, 9]  # a list payload snapshots as a list


def test_mutable_warm_materializes_under_the_latch():
    with _flat_engine() as engine:
        ds = engine.attach("events", (5, 1, 4), mutable=True).warm()
        stats = engine.stats()
        assert stats.per_kind["membership"].builds == 1
        assert stats.per_kind["rmq"].builds == 1
        assert ds.query("membership", 5) is True
        assert engine.stats().per_kind["membership"].builds == 1  # no rebuild


def test_mutable_delta_refusal_falls_back_to_rebuild():
    """An rmq structure refuses length-changing TupleChanges mid-session:
    the batch still applies atomically through a rebuild."""
    with _flat_engine() as engine:
        ds = engine.attach("events", (5, 1, 4), mutable=True).warm()
        ds.apply_changes([_insert(0)])
        assert ds.query("membership", 0) is True
        assert ds.query("rmq", (0, 3, 3)) is True  # argmin of (5,1,4,0) is 3
        stats = engine.stats()
        # membership folded the insert in place; rmq refused and rebuilt.
        assert stats.per_kind["membership"].delta_batches == 1
        assert stats.per_kind["rmq"].fallback_rebuilds == 1


def test_mutable_session_reuses_cache_shared_structures_safely():
    """A structure already resolved for an immutable session is privatized
    through the codec before delta maintenance ever touches it."""
    with _flat_engine() as engine:
        data = (5, 1, 4)
        frozen = engine.attach("frozen", data)
        assert frozen.query("membership", 5) is True
        ds = engine.attach("events", data, kinds=["membership"], mutable=True)
        ds.apply_changes([_insert(9)])
        assert ds.query("membership", 9) is True
        # The cache-shared structure still answers for the *old* content.
        assert frozen.query("membership", 9) is False


def test_mutable_session_with_non_serializable_delta_scheme():
    """There is no build-it-twice arm: a delta scheme without a codec is
    refused at ``register``; with one, the session's twin is a codec round
    trip of its one build, and the cache holds neither side."""
    from repro.core.query import PiScheme, state_codec
    from repro.indexes.sorted_run import SortedRunIndex

    base = sorted_run_scheme()
    scheme = PiScheme(
        name="hand-built-delta",
        preprocess=base.preprocess,
        evaluate=base.evaluate,
        apply_delta=base.apply_delta,
    )
    assert scheme.apply_delta is not None and not scheme.serializable
    with QueryEngine() as engine:
        with pytest.raises(ServiceError, match="no dump/load codec"):
            engine.register("membership", membership_class(), scheme)
        scheme.dump, scheme.load = state_codec(SortedRunIndex.from_state)
        engine.register("membership", membership_class(), scheme)
        ds = engine.attach("events", (5, 1, 4), mutable=True)
        assert ds.query("membership", 5) is True
        ds.apply_changes([_insert(9)])
        assert ds.query("membership", 9) is True
        stats = engine.stats().per_kind["membership"]
        assert stats.delta_batches == 1 and stats.builds == 1
        key = ds.registration_for("membership").key(ds.fingerprint)
        assert engine._cache.get(key, record=False) is None
        versions = ds._mutable._versions
        published, twin = (
            side["membership"].resolve() for side in (versions.current.plans, versions.offline)
        )
        assert published is not twin
        assert published.values() == twin.values() == [1, 4, 5, 9]  # each folded once


def test_build_query_engine_attach_round_trip():
    """The catalog glue serves named sessions for every registered kind."""
    with build_query_engine() as engine:
        query_class, _ = engine.registration("list-membership")
        data, queries = query_class.sample_workload(96, 3, 8)
        ds = engine.attach("workload", data, kinds=["list-membership"])
        for query in queries:
            assert ds.query("list-membership", query) == query_class.pair_in_language(
                data, query
            )
