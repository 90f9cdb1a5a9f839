"""Unit tests for the serving subsystem: store, cache, engine (ISSUE 1).

The headline regression guard is ``test_concurrent_batches_match_sequential``:
the engine under concurrent mixed requests must return exactly the answers of
sequential execution (and of the naive reference semantics), with one build
per artifact even when many threads miss at once.
"""

from __future__ import annotations

import ast
import json
import random
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.catalog import build_query_engine, build_registry
from repro.core.cost import CostTracker
from repro.core.errors import (
    ArtifactCorruptionError,
    ArtifactVersionError,
    ServiceError,
)
from repro.core.query import PiScheme, state_codec
from repro.queries import membership_class, sorted_run_scheme
from repro.service.artifacts import FORMAT_VERSION, MAGIC, ArtifactKey, ArtifactStore
from repro.service.cache import LRUArtifactCache
from repro.service.engine import QueryEngine, SchemeStats

#: Every kind the catalog engine serves -- each one persisted, by name.
MIXED_KINDS = (
    "alternating-reachability",
    "bds-order",
    "cvp-factorized",
    "dag-lca",
    "list-membership",
    "minimum-range-query",
    "point-selection",
    "range-selection",
    "reachability",
    "topk-threshold",
    "tree-lca",
    "vertex-cover-fixed-k",
)


def _ask(engine, kind, data, query, name="d"):
    """Attach ``data`` under ``name`` on first use, then ask the named
    session."""
    if name not in engine.datasets():
        engine.attach(name, data, kinds=[kind])
    return engine.dataset(name).query(kind, query)


def _mixed_batch(engine, *, size=128, seed=11, per_kind=6):
    """One attached dataset per kind (named after it), ``(kind, query)``
    pairs across all of them, and the naive ground-truth answers."""
    pairs, expected = [], []
    for kind in MIXED_KINDS:
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(size, seed, per_kind)
        engine.attach(kind, data, kinds=[kind])
        for query in queries:
            pairs.append((kind, query))
            expected.append(query_class.pair_in_language(data, query))
    return pairs, expected


def _sequential(engine, pairs):
    """Each pair through the session named after its kind, on this thread."""
    return [engine.dataset(kind).query(kind, query) for kind, query in pairs]


def _race(engine, pairs, workers=8):
    """Every pair as its own task on test-owned threads, so cold queries
    race each other on the build path."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(engine.dataset(kind).query, kind, query) for kind, query in pairs
        ]
        return [future.result(timeout=60) for future in futures]


# -- LRU cache ---------------------------------------------------------------


def test_lru_cache_evicts_least_recently_used():
    cache = LRUArtifactCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a"; "b" is now the LRU entry
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.hits == 3
    assert stats.misses == 1
    assert 0 < stats.hit_rate < 1


def test_lru_cache_invalidate_and_bounds():
    cache = LRUArtifactCache(capacity=1)
    cache.put("a", 1)
    assert "a" in cache and len(cache) == 1
    assert cache.invalidate("a")
    assert not cache.invalidate("a")
    with pytest.raises(ValueError):
        LRUArtifactCache(capacity=0)


# -- artifact store ----------------------------------------------------------


def _key(params="p|v1"):
    return ArtifactKey(fingerprint="0" * 64, scheme="unit-scheme", params=params)


def test_store_put_get_delete_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path)
    key = _key()
    assert store.get(key) is None
    path = store.put(key, b"payload-bytes")
    assert path.is_file()
    assert store.get(key) == b"payload-bytes"
    assert store.size_bytes() == path.stat().st_size
    assert store.delete(key)
    assert not store.delete(key)
    assert store.get(key) is None


def test_store_rejects_payload_corruption(tmp_path):
    store = ArtifactStore(tmp_path)
    key = _key()
    path = store.put(key, b"sensitive-structure")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ArtifactCorruptionError, match="checksum"):
        store.get(key)


def test_store_rejects_bad_magic_and_truncation(tmp_path):
    store = ArtifactStore(tmp_path)
    key = _key()
    path = store.put(key, b"x" * 64)
    original = path.read_bytes()

    path.write_bytes(b"NOTANARTIFACT" + original[13:])
    with pytest.raises(ArtifactCorruptionError, match="magic"):
        store.get(key)

    path.write_bytes(original[: len(MAGIC) + 3])
    with pytest.raises(ArtifactCorruptionError, match="truncated"):
        store.get(key)


def test_store_rejects_version_mismatch(tmp_path):
    store = ArtifactStore(tmp_path)
    key = _key()
    path = store.put(key, b"payload")
    blob = bytearray(path.read_bytes())
    # The two bytes after the magic are the big-endian format version.
    blob[len(MAGIC) : len(MAGIC) + 2] = (FORMAT_VERSION + 1).to_bytes(2, "big")
    path.write_bytes(bytes(blob))
    with pytest.raises(ArtifactVersionError):
        store.get(key)


def test_store_rejects_a_header_that_is_not_byte_for_byte_canonical(tmp_path):
    """JSON has slack -- whitespace between tokens, escapes, key order -- in
    which a flipped byte parses to the same header (a separator space XOR
    0x2D is a carriage return).  Only the serialisation ``put`` writes is
    accepted."""
    store = ArtifactStore(tmp_path)
    key = _key()
    path = store.put(key, b"payload")
    blob = path.read_bytes()
    prefix = len(MAGIC) + 6
    (header_len,) = struct.unpack(">I", blob[prefix - 4 : prefix])
    header = blob[prefix : prefix + header_len]
    assert b" " not in header and b"\r" not in header  # compact: no slack to flip
    for respelled in (
        header.replace(b",", b",\r", 1),
        header.replace(b":", b": ", 1),
        header.replace(b"unit-scheme", b"unit\\u002dscheme"),
        json.dumps(dict(reversed(json.loads(header).items())), separators=(",", ":")).encode(),
    ):
        assert json.loads(respelled) == json.loads(header) and respelled != header
        path.write_bytes(
            blob[: prefix - 4] + struct.pack(">I", len(respelled)) + respelled
            + blob[prefix + header_len :]
        )
        with pytest.raises(ArtifactCorruptionError, match="canonical"):
            store.get(key)
    path.write_bytes(blob)
    assert store.get(key) == b"payload"


def test_store_rejects_key_mismatch(tmp_path):
    store = ArtifactStore(tmp_path)
    key = _key()
    other = ArtifactKey(fingerprint="f" * 64, scheme="unit-scheme", params="p|v1")
    path = store.put(key, b"payload")
    hijacked = path.parent / other.filename()
    path.rename(hijacked)
    with pytest.raises(ArtifactCorruptionError, match="fingerprint"):
        store.get(other)


def _session_key(ds, kind):
    """The attach-time artifact key a session resolves ``kind`` under."""
    return ds.registration_for(kind).key(ds.fingerprint)


def test_scheme_artifact_version_changes_artifact_identity():
    # One engine per layout: two versions of one structure cannot be
    # registered side by side (see the structure-sharing tests below).
    keys = []
    for version in (1, 2):
        scheme = sorted_run_scheme()
        scheme.artifact_version = version
        engine = QueryEngine()
        engine.register("m", membership_class(), scheme)
        keys.append(_session_key(engine.attach("d", (3, 1, 2)), "m"))
    assert keys[0] != keys[1]
    assert keys[0].fingerprint == keys[1].fingerprint
    assert keys[0].scheme == keys[1].scheme


# -- query engine ------------------------------------------------------------


def test_curated_surface_exports_resolve():
    """Every name in the curated ``repro.service.__all__`` resolves --
    including the lazily re-exported catalog factory -- and unknown
    attributes still raise AttributeError."""
    import repro.service as service

    for name in service.__all__:
        assert getattr(service, name) is not None, name
    from repro.catalog import build_query_engine as factory

    assert service.build_query_engine is factory
    with pytest.raises(AttributeError, match="no attribute"):
        service.definitely_not_exported
    # The superseded generations are gone, not wrapped.  Their names are
    # spelled in pieces so a repo-wide grep for them stays empty.
    removed = {"Dataset" + "Handle", "Snapshot" + "Latch"}
    assert removed.isdisjoint(service.__all__)
    for name in ("open" + "_dataset", "invalidate", "resolve", "warm", "artifact_key"):
        assert not hasattr(QueryEngine, name), name
    with pytest.raises(TypeError):
        QueryEngine(**{"fingerprint_memo" + "_size": 8})
    with build_query_engine() as engine:
        ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"])
        assert ds.query("list-membership", 2) is True
        snapshots = [
            SchemeStats().stats_snapshot(),
            ds.stats()["kinds"]["list-membership"],
            engine.stats().stats_snapshot(),
        ]
    for snapshot in snapshots:
        assert not [key for key in snapshot if key.startswith("fingerprint_")]


def test_dataset_stats_is_the_sessions_slice():
    with build_query_engine() as engine:
        ds = engine.attach("events", tuple(range(32)), kinds=["list-membership"])
        other = engine.attach(
            "arrays", tuple(range(32)), kinds=["minimum-range-query"]
        )
        ds.query("list-membership", 5)
        other.query("minimum-range-query", (0, 31, 0))
        stats = ds.stats()
        assert stats["dataset"] == "events"
        assert stats["mutable"] is False and stats["version"] == 0
        assert set(stats["kinds"]) == {"list-membership"}  # no other session's kinds
        assert stats["kinds"]["list-membership"]["queries"] >= 1
        assert json.loads(json.dumps(stats)) == stats


def test_dataset_stats_counts_every_session_of_a_kind():
    """The counters are the engine's per kind, not the session's: two
    sessions serving one kind report the same counts, whichever asked."""
    with build_query_engine() as engine:
        a = engine.attach("a", tuple(range(32)), kinds=["list-membership"])
        b = engine.attach("b", tuple(range(64)), kinds=["list-membership"])
        for value in range(5):
            b.query("list-membership", value)
        counters = a.stats()["kinds"]["list-membership"]
        assert counters["queries"] == 5
        assert counters == b.stats()["kinds"]["list-membership"]


def test_engine_stats_snapshot_shape():
    with build_query_engine() as engine:
        ds = engine.attach("events", tuple(range(32)), kinds=["list-membership"])
        ds.query("list-membership", 5)
        snapshot = engine.stats().stats_snapshot()
        assert snapshot["total_queries"] == 1
        assert "hit_rate" in snapshot["cache"]
        membership = snapshot["per_kind"]["list-membership"]
        assert membership["queries"] == 1
        assert 0.0 <= membership["hit_rate"] <= 1.0
        assert json.loads(json.dumps(snapshot)) == snapshot


def test_unknown_kind_raises_service_error():
    engine = QueryEngine()
    with pytest.raises(ServiceError, match="no scheme registered"):
        engine.attach("d", (1, 2), kinds=["nope"])
    with pytest.raises(ServiceError, match="already registered"):
        engine.register("m", membership_class(), sorted_run_scheme())
        engine.register("m", membership_class(), sorted_run_scheme())


def test_concurrent_batches_match_sequential(tmp_path):
    """Thread-safety regression guard (ISSUE 1 satellite): concurrent mixed
    requests return the same answers as sequential execution, starting cold so
    concurrent misses race on the build path."""
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as engine:
        assert tuple(engine.kinds()) == MIXED_KINDS
        pairs, expected = _mixed_batch(engine)
        concurrent = _race(engine, pairs)  # cold: builds race
        sequential = _sequential(engine, pairs)
        assert concurrent == sequential == expected
        stats = engine.stats()
        # One build per (kind, dataset) pair despite the concurrent misses.
        for kind in MIXED_KINDS:
            assert stats.per_kind[kind].builds == 1
            assert stats.per_kind[kind].queries == 2 * len(pairs) // len(MIXED_KINDS)
        assert stats.total_queries() == 2 * len(pairs)


def test_second_engine_serves_from_store_without_builds(tmp_path):
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as first:
        pairs, expected = _mixed_batch(first, size=96, seed=5)
        assert _sequential(first, pairs) == expected

    with build_query_engine(store=store) as second:
        pairs, expected = _mixed_batch(second, size=96, seed=5)
        assert _sequential(second, pairs) == expected
        stats = second.stats()
        assert sum(s.builds for s in stats.per_kind.values()) == 0
        assert sum(s.store_hits for s in stats.per_kind.values()) == len(MIXED_KINDS)


def test_engine_recovers_from_corrupt_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    data = tuple(range(64))
    with QueryEngine(store=store) as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        key = _session_key(engine.attach("d", data).warm(), "membership")
        path = store._path(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))

    with QueryEngine(store=store) as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        assert _ask(engine, "membership", data, 63) is True
        assert _ask(engine, "membership", data, 64) is False
        stats = engine.stats().per_kind["membership"]
        assert stats.builds == 1  # corrupt artifact dropped, rebuilt, re-persisted
        assert store.get(key) is not None  # healthy artifact re-written


def test_register_refuses_a_scheme_without_a_codec():
    """A served kind is a Pi(D) that can be kept: no dump/load, no serving.
    The refusal names where such a scheme belongs."""
    scheme = PiScheme(
        name="opaque-set",
        preprocess=lambda data, tracker: set(data),
        evaluate=lambda structure, query, tracker: query in structure,
    )
    assert not scheme.serializable
    with QueryEngine() as engine:
        with pytest.raises(ServiceError, match="no dump/load codec.*Figure 2 registry"):
            engine.register("opaque", membership_class(), scheme)
        scheme.dump = bytes  # half a codec is still none
        with pytest.raises(ServiceError, match="no dump/load codec"):
            engine.register("opaque", membership_class(), scheme)
        assert engine.kinds() == []


def test_engine_closed_rejects_work():
    engine = QueryEngine()
    engine.register("membership", membership_class(), sorted_run_scheme())
    ds = engine.attach("d", (1,))
    engine.close()
    with pytest.raises(ServiceError):  # close detached it: UnknownDatasetError
        ds.query("membership", 1)
    with pytest.raises(ServiceError, match="closed"):
        engine.attach("e", (1,))


def test_fingerprint_memo_is_content_based():
    """Artifact identity is a function of content, never of object identity."""
    engine = QueryEngine()
    engine.register("membership", membership_class(), sorted_run_scheme())
    left = _session_key(engine.attach("left", (1, 2, 3)), "membership")
    right = _session_key(engine.attach("right", tuple([1, 2, 3])), "membership")
    assert left == right  # distinct objects, equal content
    assert left != _session_key(engine.attach("other", (1, 2, 4)), "membership")


def test_invalidate_after_in_place_mutation():
    """Immutable sessions have no in-place-mutation contract: detach and
    re-attach, which re-fingerprints and rebuilds."""
    engine = QueryEngine()
    engine.register("membership", membership_class(), sorted_run_scheme())
    data = [1, 2, 3]
    assert _ask(engine, "membership", data, 4) is False
    data.append(4)
    engine.detach("d")
    assert _ask(engine, "membership", data, 4) is True
    assert engine.stats().per_kind["membership"].builds == 2


def test_cache_stats_count_one_miss_per_cold_resolve(tmp_path):
    with QueryEngine(store=ArtifactStore(tmp_path)) as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        data = (1, 2, 3)
        _ask(engine, "membership", data, 1)  # cold: one miss
        _ask(engine, "membership", data, 2)  # plan hit: no cache probe at all
        _ask(engine, "membership", data, 2, name="twin")  # new session: one hit
        cache = engine.stats().cache
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)


def test_stats_count_per_registered_kind():
    engine = QueryEngine()
    engine.register("membership", membership_class(), sorted_run_scheme())
    before = engine.stats().per_kind["membership"]
    assert before.queries == 0 and before.scheme == "sort+binary-search"
    _ask(engine, "membership", (5, 6), 5)
    after = engine.stats().per_kind["membership"]
    assert after.queries - before.queries == 1
    assert after.scheme == "sort+binary-search"


def test_build_time_and_serve_time_are_separated(tmp_path):
    with QueryEngine(store=ArtifactStore(tmp_path)) as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        data = tuple(range(4096))
        for element in (0, 17, 4096, 5000):
            _ask(engine, "membership", data, element)
        stats = engine.stats().per_kind["membership"]
        assert stats.builds == 1
        assert stats.queries == 4
        assert stats.build_seconds > 0
        assert stats.serve_seconds > 0
        # Resolution is paid once, at plan capture; the three later queries
        # are plan hits and never probe the artifact layers again.
        assert stats.cache_hits == 0 and stats.hit_rate == 0.0


# -- close() lifecycle (ISSUE 9, satellite a) ----------------------------------


def test_close_is_idempotent_and_reentrant():
    engine = QueryEngine()
    engine.register("membership", membership_class(), sorted_run_scheme())
    ds = engine.attach("d", (1, 2, 3), kinds=["membership"])
    assert ds.query("membership", 2)
    engine.close()
    engine.close()  # second close: a no-op, not a double-teardown
    with pytest.raises(ServiceError):
        ds.query("membership", 1)


def test_concurrent_closes_race_to_one_teardown():
    import threading

    engine = QueryEngine()
    engine.register("membership", membership_class(), sorted_run_scheme())
    engine.attach("d", tuple(range(64)), kinds=["membership"])
    barrier = threading.Barrier(4)
    failures = []

    def closer():
        barrier.wait()
        try:
            engine.close()
        except BaseException as exc:  # pragma: no cover - the regression
            failures.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


# -- structure-addressed artifacts (ISSUE 15) --------------------------------
#
# The artifact identity names the *structure* a scheme builds, not the scheme:
# point- and range-selection declare the same B+-trees (paper, Section 4(1)),
# so one relation costs one build, one store file, one cache entry.

SELECTION_KINDS = ("point-selection", "range-selection")


def _selection_workload(engine, size=192, seed=7, per_kind=24):
    """One relation plus (kind, query, naive answer) triples for both kinds."""
    point_class, _ = engine.registration("point-selection")
    relation, _ = point_class.sample_workload(size, seed, 0)
    triples = []
    for kind in SELECTION_KINDS:
        query_class, _ = engine.registration(kind)
        rng = random.Random(seed)
        for query in query_class.generate_queries(relation, rng, per_kind):
            triples.append((kind, query, query_class.pair_in_language(relation, query)))
    return relation, triples


def _resolutions(engine):
    per_kind = engine.stats().per_kind
    return {
        name: sum(getattr(per_kind[kind], name) for kind in SELECTION_KINDS)
        for name in ("builds", "store_hits", "cache_hits")
    }


def test_selection_kinds_share_one_build_and_one_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as first:
        relation, triples = _selection_workload(first)
        ds = first.attach("rel", relation, kinds=list(SELECTION_KINDS)).warm()
        assert _session_key(ds, "point-selection") == _session_key(ds, "range-selection")
        counts = _resolutions(first)
        assert (counts["builds"], counts["cache_hits"], counts["store_hits"]) == (1, 1, 0)
        assert len(list(tmp_path.glob("*/*.pia"))) == 1
        # One resident tree set: both serve plans captured the same object.
        assert ds._plan("point-selection").resolve() is ds._plan("range-selection").resolve()
        assert [ds.query(kind, query) for kind, query, _ in triples] == [
            expected for _, _, expected in triples
        ]

    with build_query_engine(store=store) as second:
        ds = second.attach("rel", relation, kinds=list(SELECTION_KINDS)).warm()
        counts = _resolutions(second)
        assert (counts["builds"], counts["store_hits"], counts["cache_hits"]) == (0, 1, 1)
        assert ds.query_batch([(kind, query) for kind, query, _ in triples]) == [
            expected for _, _, expected in triples
        ]


def test_selection_kinds_share_shard_artifacts(tmp_path):
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as engine:
        relation, triples = _selection_workload(engine)
        ds = engine.attach("rel", relation, kinds=list(SELECTION_KINDS), shards=4).warm()
        assert all(ds.shards_for(kind) == 4 for kind in SELECTION_KINDS)
        counts = _resolutions(engine)
        assert counts["builds"] == 4
        assert len(list(tmp_path.glob("*/*.pia"))) == 4
        for kind, query, expected in triples:
            assert ds.query(kind, query) == expected, (kind, query)
            assert ds.query_tracked(kind, query) == expected, (kind, query)

    with build_query_engine(store=store) as second:
        second.attach("rel", relation, kinds=list(SELECTION_KINDS), shards=4).warm()
        counts = _resolutions(second)
        assert counts["builds"] == 0 and counts["store_hits"] == 4


def test_detach_evicts_a_shared_structure_once(monkeypatch):
    with build_query_engine() as engine:
        relation, _ = _selection_workload(engine, size=64)
        ds = engine.attach("rel", relation, kinds=list(SELECTION_KINDS)).warm()
        key = _session_key(ds, "point-selection")
        invalidated = []
        invalidate = engine._cache.invalidate
        monkeypatch.setattr(
            engine._cache, "invalidate",
            lambda key: (invalidated.append(key), invalidate(key))[1],
        )
        ds.detach()
        assert engine._cache.get(key, record=False) is None
        # Registrations legitimately collide on a key; each key goes once.
        assert invalidated.count(key) == 1
        assert len(invalidated) == len(set(invalidated)) < len(engine.kinds())


_SET_CODEC = state_codec(from_state=set, to_state=sorted)


def _set_scheme(name, preprocess, **overrides):
    dump, load = _SET_CODEC
    return PiScheme(**{
        "name": name,
        "preprocess": preprocess,
        "evaluate": lambda structure, query, tracker: query in structure,
        "dump": dump,
        "load": load,
        **overrides,
    })


def test_register_refuses_one_structure_with_two_builders_or_layouts():
    def build(data, tracker):
        return set(data)

    engine = QueryEngine()
    engine.register("a", membership_class(), _set_scheme("set-a", build, structure="the-set"))
    # Same structure, same builder, same codec, same version: shared.
    engine.register("b", membership_class(), _set_scheme("set-b", build, structure="the-set"))
    ds = engine.attach("d", (1, 2, 3))
    assert _session_key(ds, "a") == _session_key(ds, "b")
    assert _session_key(ds, "a").scheme == "the-set"

    with pytest.raises(ServiceError, match="claim structure 'the-set'"):
        engine.register(
            "c",
            membership_class(),
            _set_scheme("set-c", lambda data, tracker: frozenset(data), structure="the-set"),
        )
    with pytest.raises(ServiceError, match="claim structure 'the-set'"):
        engine.register(
            "c",
            membership_class(),
            _set_scheme("set-c", build, structure="the-set", artifact_version=2),
        )
    with pytest.raises(ServiceError, match="claim structure 'the-set'"):
        engine.register(
            "c",
            membership_class(),
            _set_scheme("set-c", build, structure="the-set", dump=bytes, load=set),  # another codec
        )
    assert "c" not in engine.kinds()
    # The default structure is the scheme's own name: nothing is shared
    # (or refused) unless a scheme says so.
    assert _set_scheme("plain", build).structure == "plain"
    engine.register("c", membership_class(), _set_scheme("set-c", build))
    assert _session_key(ds, "a") != _session_key(engine.attach("e", (1, 2, 3)), "c")
    engine.close()


def test_artifact_keys_are_constructed_in_one_place():
    """``_Registration.key`` is the only ``ArtifactKey(`` site in the
    serving layer: every key the store sees is a Pi-structure key."""
    import repro.service

    root = Path(repro.service.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "artifacts.py":
            continue
        tree = ast.parse(path.read_text())
        owners = {
            id(call): f"{cls.name}.{fn.name}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            for call in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "ArtifactKey"):
                sites.append((path.relative_to(root).as_posix(), owners.get(id(node))))
    assert sites == [("engine.py", "_Registration.key")]


def test_every_registered_scheme_is_serializable_and_controls_stay_certified_only():
    """Registered == persisted: the two identity-Pi negative controls are in
    the Figure 2 registry and not among the engine's kinds."""
    registry = build_registry()
    with build_query_engine() as engine:
        assert tuple(engine.kinds()) == MIXED_KINDS
        for kind in engine.kinds():
            assert engine.registration(kind)[1].serializable, kind
        for control in ("bds-order-trivial", "cvp-trivial"):
            assert control in registry and control not in engine.kinds()
            assert not any(scheme.serializable
                           for scheme in registry.get(control).schemes)
