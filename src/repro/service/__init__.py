"""The serving half of the paper's economics: preprocess once, serve many.

The paper's Pi-structures are computed once in PTIME and amortized over many
polylog queries -- but an index that dies with the process amortizes nothing.
This package persists built structures and serves query batches against them:

:mod:`repro.service.artifacts`
    :class:`ArtifactStore` -- Pi-structures on disk, keyed by (dataset
    fingerprint, scheme name, params), with versioned headers and
    corruption detection.

:mod:`repro.service.cache`
    :class:`LRUArtifactCache` -- a bounded in-process cache in front of the
    store, so hot artifacts skip even the deserialization cost.

:mod:`repro.service.engine`
    :class:`QueryEngine` -- registers the kinds whose Pi(D) can be kept
    (``dump``/``load``), resolves each to a cached artifact (building and
    persisting on miss), hands out the named sessions, and keeps per-scheme
    serving statistics.

:mod:`repro.service.dataset`
    :class:`Dataset` -- the dataset-first serving surface:
    ``engine.attach(name, data)`` fingerprints a payload once and returns
    one named session serving every registered kind (monolithic, sharded
    and mutable storage shapes behind one serve-plan protocol;
    ``shards=K`` is said here, ``mutable=True`` enables ``apply_changes``).
    The session is the one thing to ask -- ``ds.query`` / ``ds.query_batch``,
    from as many caller threads as the caller brings -- and
    ``engine.dataset(name)`` returns it by name.

:mod:`repro.service.merge`
    :class:`ShardSpec` and the merge-operator families (union, monoid
    combine, k-way merge) that schemes declare to become shardable.

:mod:`repro.service.sharding`
    :class:`ShardPlan` -- a dataset partitioned into K shards, each keyed by
    its own content fingerprint, so the engine resolves (and persists) every
    shard as an independent content-addressed artifact, building misses in
    parallel; a session's serve plan resolves every shard once, when it is
    built, and ``ShardedKernel`` answers over them by scatter-gather.

:mod:`repro.service.frontend`
    The serving front: an asyncio TCP gateway (:class:`ServingFront`,
    admission control + backpressure) over a multi-process worker pool
    (:class:`Supervisor`) in which every worker hosts its own engine
    against the *shared* on-disk store, plus the sync
    :class:`RemoteClient` whose sessions duck-type :class:`Dataset`.

:mod:`repro.service.mutable`
    The write machinery behind ``attach(..., mutable=True)``: a private
    working copy (:class:`MutableContent`) and versioned, snapshot-consistent
    publication (:class:`VersionedStructures`) -- lock-free readers pin
    atomically published version records while change batches fold into
    the offline structure set through per-scheme ``apply_delta`` hooks in
    O(|CHANGED| * polylog) (falling back to touched-shard or full
    rebuilds); versions after the first live in memory only.

This module is also the *curated public surface*: everything a serving
client needs -- the engine, the dataset-first session API, the error
hierarchy and the catalog's :func:`~repro.catalog.build_query_engine`
factory -- is
importable from ``repro.service`` directly.  Deep imports
(``from repro.service.engine import QueryEngine``) keep working; the
curated names in ``__all__`` are the supported, stable set.  Each is
resolved on first access (:mod:`repro._lazy`), so a process pays only for
the role it plays: the front (gateway + supervisor) never loads the engine
or an index, and an in-process user never loads ``asyncio`` or
``multiprocessing`` (see "process roles" in ``docs/architecture.md``).

    >>> from repro.service import build_query_engine
    >>> engine = build_query_engine()
    >>> ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"])
    >>> ds.query("list-membership", 2)
    True
    >>> engine.close()
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.artifacts": ("ArtifactKey", "ArtifactStore"),
    "repro.service.cache": ("LRUArtifactCache",),
    "repro.service.dataset": ("Dataset",),
    "repro.service.mutable": ("MutableContent", "VersionedStructures"),
    "repro.service.engine": ("EngineStats", "QueryEngine", "SchemeStats"),
    "repro.service.merge": (
        "MergeOperator", "ShardPiece", "ShardSpec", "kway_merge", "monoid_merge",
        "range_blocks", "stable_bucket", "union_merge",
    ),
    "repro.service.sharding": ("PlannedShard", "ShardedStructure", "ShardPlan"),
    "repro.core.errors": (
        "ReproError", "ServiceError", "UnknownDatasetError", "ArtifactError",
        "ArtifactCorruptionError", "ArtifactVersionError", "DeltaError",
        "ProtocolError",
        "OverloadedError", "WorkerFailedError",
    ),
    # the failure model's product side (see docs/architecture.md)
    "repro.service.faults": ("RecoveryPolicy",),
    "repro.catalog": ("build_query_engine",),
    "repro.service.frontend": (
        "ServingFront", "GatewayConfig", "Supervisor", "RemoteClient", "RemoteDataset",
    ),
})
