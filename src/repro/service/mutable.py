"""Mutable datasets: the write machinery behind ``attach(..., mutable=True)``.

The paper's amortization argument (preprocess once in PTIME, serve many
polylog queries) meets production traffic here: datasets *mutate*.  Section
4(7) analyses incremental evaluation against |CHANGED| = |dD| + |dO| -- the
payoff of preprocessing survives updates only if maintaining Pi(D) costs a
function of the change, not of |D|.  This module provides the write
machinery the mutable :class:`~repro.service.dataset.Dataset` sessions are
built on:

* :class:`MutableContent` -- the private working copy of a dataset
  (validation, and change application that drops no-op changes);
* :class:`VersionedStructures` -- left-right versioned snapshot publication:
  readers pin the current :class:`_Version` record -- one serve plan per
  materialized kind, the same plan class an immutable session serves
  through -- with a single attribute load and serve **lock-free** (no latch,
  no Condition -- a writer can never block a reader), while writers
  serialize among themselves, fold each batch into an offline twin set,
  publish the new version pointer atomically, and re-apply the batch to the
  retired set -- delta cost is paid twice (O(|CHANGED|) each), never an
  O(|D|) clone.

``ds.apply_changes(batch)`` routes a batch of
:mod:`repro.incremental.changes` records to each served kind's
``PiScheme.apply_delta`` hook, mutating the offline structure in place in
O(|CHANGED| * polylog).  Schemes without a hook -- and sharded registrations
-- fall back automatically to a rebuild through the engine, where
content-addressed shard artifacts turn the rebuild into a
touched-shards-only build.  A version's identity is its number: a
monolithic kind's later versions live in memory only and write no artifact,
because no lookup could compute a key for one.  A sharded kind's rebuild
still puts every touched shard into the cache and the store, keyed by the
shard's content (ROADMAP item 8).

    >>> from repro.queries import membership_class, sorted_run_scheme
    >>> from repro.service.engine import QueryEngine
    >>> from repro.incremental.changes import ChangeKind, TupleChange
    >>> engine = QueryEngine()
    >>> engine.register("membership", membership_class(), sorted_run_scheme())
    >>> ds = engine.attach("readings", (3, 1, 4), mutable=True)
    >>> ds.query("membership", 9)
    False
    >>> _ = ds.apply_changes([TupleChange(ChangeKind.INSERT, (9,))])
    >>> ds.query("membership", 9), ds.version
    (True, 1)
    >>> engine.stats().per_kind["membership"].delta_batches
    1
    >>> engine.close()
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import DeltaError, SchemaError, ServiceError
from repro.incremental.changes import ChangeKind, EdgeChange, PointWrite, TupleChange

__all__ = [
    "MutableContent",
    "VersionedStructures",
]


# -- versioned snapshot publication (the lock-free read protocol) --------------

#: Slot value of a thread that is not currently serving a pinned version.
_IDLE = -1


class _ThreadAnchor:
    """Thread-local sentinel: it dies with the thread that owns it."""

    __slots__ = ("__weakref__",)


def _retire_token(owner_ref: "weakref.ref", token: Any) -> None:
    """Finalizer target: ``owner._retire(token)`` if the owner still lives.

    Module-level on purpose: a bound-method callback would root the whole
    owner (and through it the engine's statistics or a dataset's
    structures) in weakref's global registry until the owning *thread*
    exits.  With only a weak reference here, dropping the owner frees it at
    once; the finalizer then retires into nothing.
    """
    owner = owner_ref()
    if owner is not None:
        owner._retire(token)


def retire_on_thread_exit(local: threading.local, owner: Any, token: Any) -> None:
    """Call ``owner._retire(token)`` when the current thread exits.

    The one thread-exit finalizer of the per-thread registries -- the
    engine's query counter shards and a mutable session's read slots: an
    anchor stored on ``local`` dies with the thread, and its finalizer
    unregisters the thread's entry, so a registry serving
    thread-per-request traffic stays bounded by its *live* threads.
    """
    anchor = local.anchor = _ThreadAnchor()
    weakref.finalize(anchor, _retire_token, weakref.ref(owner), token)


class _ReadIndicator:
    """Per-thread read-announcement slots: the left-right read indicator.

    Each reading thread owns one single-cell list per indicator; announcing
    a read is one list-item store (``slot[0] = version_number``) and going
    idle is another -- no lock, no Condition, nothing shared between
    readers.  Writers scan the registered slots to wait out readers still
    pinned to a retired version before mutating it.

    Correctness rests on CPython's GIL making single-bytecode list/attribute
    stores and loads sequentially consistent: the reader's
    announce-then-recheck (:meth:`VersionedStructures.pin`) and the writer's
    publish-then-scan (:meth:`wait_until_drained` after
    :meth:`VersionedStructures.publish`) form the classic Dekker store/load
    pairing, so a reader either re-observes the new version and retries, or
    its announcement is visible to the writer's scan.

    Slots retire like the engine's per-thread query counters
    (:func:`retire_on_thread_exit`): a slot is unregistered when its thread
    dies, so a long-lived dataset serving thread-per-request traffic stays
    bounded by its *live* threads.
    """

    __slots__ = ("_local", "_slots", "_lock", "__weakref__")

    def __init__(self) -> None:
        self._local = threading.local()
        self._slots: Dict[int, List[int]] = {}
        self._lock = threading.Lock()

    def slot(self) -> List[int]:
        """This thread's announce cell, created and registered on first use."""
        try:
            return self._local.slot
        except AttributeError:
            pass
        slot = [_IDLE]
        retire_on_thread_exit(self._local, self, id(slot))
        with self._lock:
            self._slots[id(slot)] = slot
        self._local.slot = slot
        return slot

    def _retire(self, slot_id: int) -> None:
        with self._lock:
            self._slots.pop(slot_id, None)

    def wait_until_drained(self, number: int) -> None:
        """Block until no reader is announced below version ``number``.

        Writer-side only.  Progress is guaranteed: a slot below ``number``
        belongs to a reader that passed its recheck *before* the newer
        version was published, so it is mid-serve and goes idle in bounded
        time; every reader arriving after the publish pins ``number`` (or
        newer) and is never waited on -- a continuous read stream cannot
        starve the writer.
        """
        spins = 0
        while True:
            with self._lock:
                draining = any(
                    cell[0] != _IDLE and cell[0] < number
                    for cell in self._slots.values()
                )
            if not draining:
                return
            spins += 1
            # Yield immediately at first (serves are microseconds), back
            # off to a short sleep if a reader is mid-kernel.
            time.sleep(0 if spins < 100 else 0.00005)


class _Version:
    """One published snapshot of a mutable dataset: serve plans + number.

    ``plans`` maps each materialized kind to the serve plan bound to this
    side's structure -- a version is an immutable dataset, served by the
    same plan class as one.  Readers obtain the whole record with a single
    attribute load (:attr:`VersionedStructures.current`) and serve through
    ``plans`` without further coordination.  After publication a record
    only ever gains newly materialized kinds (GIL-atomic dict stores under
    the writer mutex; both sides receive the same first-touch build, so
    readers on any version observe identical answers for the new kind).
    """

    __slots__ = ("plans", "number")

    def __init__(self, plans: Dict[str, Any], number: int) -> None:
        self.plans = plans
        self.number = number


class VersionedStructures:
    """Left-right versioned snapshot publication for mutable serving.

    A reader--writer latch on the read path inflates read p999 ~3x under a
    90/10 read/write mix (writer-preferring queueing; the read-tail test in
    ``tests/chaos/test_chaos_scenarios.py`` gates the ratio against a
    pure-read control).  This class keeps readers out of the lock protocol
    entirely:

    * **Readers** pin the current :class:`_Version` record lock-free: load
      :attr:`current`, announce its number in a per-thread slot, re-check
      that :attr:`current` did not move (retrying the rare publication
      race), serve, go idle.  No shared lock is ever acquired, so a writer
      can never block a reader.
    * **Writers** serialize among themselves on :attr:`writer_mutex`, fold
      the change batch into the private *offline* twin set (invisible to
      readers), :meth:`publish` the new version with one atomic attribute
      store, then :meth:`drain` the readers still pinned to the retired
      version and re-apply the same batch to the retired set, which becomes
      the next offline set.  Delta cost is paid twice -- O(|CHANGED|) each
      time -- never an O(|D|) snapshot clone.

    The two plan dicts (kind -> serve plan) alternate between the published
    and offline roles forever.  Delta-capable monolithic kinds hold *twin
    instances*, each under its own plan (in-place maintenance on one side
    must never touch the other); kinds that rebuild instead of folding
    (sharded, no ``apply_delta``) share one plan across both sides because
    nothing mutates its structure in place.

    Deadlock rule: a thread must be idle (slot released) before taking
    :attr:`writer_mutex` -- writers drain inside the mutex, so an announced
    reader blocking on the mutex would deadlock the drain.
    """

    __slots__ = ("writer_mutex", "current", "offline", "_indicator")

    def __init__(self) -> None:
        self.writer_mutex = threading.RLock()
        self.current = _Version({}, 0)
        self.offline: Dict[str, Any] = {}
        self._indicator = _ReadIndicator()

    # -- reader protocol -------------------------------------------------------

    def slot(self) -> List[int]:
        """The calling thread's announce slot (pair with :meth:`pin`)."""
        return self._indicator.slot()

    def pin(self, slot: List[int]) -> _Version:
        """Announce-and-recheck: a version record safe to serve from.

        The recheck closes the race with a concurrent publish: if the
        pointer moved between the load and the announcement, the writer's
        drain scan may have run before the announcement became visible, so
        the loop goes idle and re-announces against the newer record.
        """
        while True:
            version = self.current
            slot[0] = version.number
            if self.current is version:
                return version
            slot[0] = _IDLE

    @staticmethod
    def release(slot: List[int]) -> None:
        """Go idle (idempotent; always reached via ``finally``)."""
        slot[0] = _IDLE

    # -- writer protocol (writer_mutex held) -----------------------------------

    def install(self, kind: str, published: Any, offline: Any) -> None:
        """First-touch materialization: both sides gain a plan for ``kind``
        in place.

        No version bump -- the content did not change, only a structure was
        built for it -- so readers pinned to any live version observe the
        kind appear with identical answers.
        """
        self.current.plans[kind] = published
        self.offline[kind] = offline

    def publish(self, number: int) -> None:
        """Atomically publish the offline set as version ``number``.

        One attribute store is the whole commit point: readers that load
        :attr:`current` after it serve the new version.  The retired plan
        dict becomes the new :attr:`offline`; the caller must :meth:`drain`
        before mutating it.
        """
        retired = self.current.plans
        self.current = _Version(self.offline, number)
        self.offline = retired

    def drain(self) -> None:
        """Wait until no reader is still pinned below the current version."""
        self._indicator.wait_until_drained(self.current.number)

    def clear(self) -> None:
        """Drop every kind from both sides (a detached session's release).

        The published record is replaced, not emptied in place, so a reader
        still pinned to it answers from the version it pinned.
        """
        self.current = _Version({}, self.current.number)
        self.offline = {}


# -- change validation (outside input) -----------------------------------------

#: Change payload scalars: values whose meaning is their value in every
#: process (never an identity-based repr or a hash-ordered iteration).
_SCALARS = (type(None), bool, int, float, str, bytes)


def _plain(value: Any) -> bool:
    """True for a scalar, or a tuple/list of plain values -- the change
    payload vocabulary.  A type walk only: it builds nothing."""
    if isinstance(value, _SCALARS):
        return True
    return isinstance(value, (tuple, list)) and all(_plain(item) for item in value)


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _is_graph(data: Any) -> bool:
    return hasattr(data, "add_edge") and hasattr(data, "edges") and hasattr(data, "n")


def _is_relation(data: Any) -> bool:
    return hasattr(data, "schema") and hasattr(data, "insert") and hasattr(data, "rows")


class MutableContent:
    """The working-copy half of a mutable dataset, independent of any kind.

    Owns a private mutable copy of the dataset (list / relation / graph) --
    the caller's object is never touched, and a fallback rebuild always has
    the post-batch content.  The copy screens its own phantom deletes and
    duplicate edge inserts (see :meth:`apply`), so no bag counter is kept
    beside it.  The mutable
    :class:`~repro.service.dataset.Dataset` sessions delegate here, so the
    change semantics (atomic validation, phantom-delete screening,
    application order) are defined exactly once.  It keeps no cost ledger
    and no change log: a screened no-op is dropped, and the one fact a
    batch acknowledges is the version its session publishes.

    Not thread-safe on its own: callers mutate it only under their
    :class:`VersionedStructures` writer mutex.  Readers never touch the
    content -- they serve from published structure snapshots.
    """

    def __init__(self, data: Any) -> None:
        self.working, self.row_shaped = self._copy_dataset(data)
        #: A sequence snapshot's type, the payload's own (a list stays a list),
        #: so an unwritten session's snapshot fingerprints like its payload.
        self.sequence_type = list if isinstance(data, list) else tuple
        #: A relation's live row -> row-id list: a delete is a lookup, not a scan.
        self.row_ids: Optional[dict] = None
        if _is_relation(self.working):
            self.row_ids = {}
            for row_id, row in self.working.scan():
                self.row_ids.setdefault(row, []).append(row_id)

    # -- working copies --------------------------------------------------------

    def _copy_dataset(self, data: Any) -> Tuple[Any, bool]:
        """A private mutable copy of ``data`` plus its element shape.

        ``row_shaped`` is True when elements are rows (tuples) rather than
        flat values -- it decides how ``TupleChange.row`` maps to elements.
        """
        if _is_relation(data):
            copy = type(data)(data.schema)
            for row in data.rows():
                copy.insert(row)
            return copy, True
        if _is_graph(data):
            return type(data)(data.n, data.edges()), False
        if isinstance(data, (tuple, list)):
            row_shaped = bool(data) and isinstance(data[0], (tuple, list))
            # Rows are tuples, as ``element`` makes them: a delete must find
            # the row it names.
            return list(map(tuple, data) if row_shaped else data), row_shaped
        raise ServiceError(
            f"mutable serving supports sequence, relation and graph datasets; "
            f"got {type(data).__name__}"
        )

    def element(self, row: Sequence[Any]) -> Any:
        """The dataset element a ``TupleChange.row`` denotes."""
        if self.row_shaped:
            return tuple(row)
        if len(row) != 1:
            raise DeltaError(
                f"flat datasets take one-tuple rows, got arity {len(row)}"
            )
        return row[0]

    def canonical(self) -> Any:
        """A fresh snapshot of the working data, typed like the original.

        Always a new object, so a rebuilt structure can never alias the
        mutated working copy.
        """
        if isinstance(self.working, list):
            return self.sequence_type(self.working)
        return self._copy_dataset(self.working)[0]

    # -- batch processing ------------------------------------------------------

    def validate(self, batch: Sequence[Any]) -> None:
        """Reject malformed batches before anything mutates (batch atomicity).

        Batches are outside input -- a wire client's JSON decodes to floats,
        bools and lists -- so every field is type-checked here: a kind must
        be a :class:`ChangeKind`, a position or vertex exactly an ``int``
        (``True`` is refused), a payload value plain (see :func:`_plain`)
        and an element hashable; a row's arity is the schema's or the first
        element's, a point write's position is in range of what the earlier
        changes of its batch leave, and a value added to flat content must
        order against it (see :meth:`_refuse_unordered`).  :meth:`apply`
        then cannot raise half-way through a batch.
        """
        added: List[Any] = []  # the values this batch adds to flat content
        # The most a sequence can hold at each change: deletes only shorten it.
        length = len(self.working) if isinstance(self.working, list) else 0
        deleted = shortened = False  # a delete; a point write after one
        arity = self.working.schema.arity if _is_relation(self.working) else (
            len(self.working[0]) if self.row_shaped and self.working else None
        )
        for change in batch:
            if isinstance(change, (TupleChange, EdgeChange)) and not isinstance(
                change.kind, ChangeKind
            ):
                raise DeltaError(f"change kind {change.kind!r} is not a ChangeKind")
            if isinstance(change, TupleChange):
                if _is_graph(self.working):
                    raise DeltaError("TupleChange targets a graph dataset")
                if not isinstance(change.row, (tuple, list)) or not _plain(change.row):
                    raise DeltaError(
                        f"row {change.row!r} is not a tuple of numbers, strings "
                        f"or bytes"
                    )
                element = self.element(change.row)
                if not _hashable(element):
                    raise DeltaError(f"element {element!r} is not hashable")
                if (
                    _is_relation(self.working)
                    and change.kind is ChangeKind.INSERT
                ):
                    try:
                        self.working.schema.validate_row(tuple(change.row))
                    except SchemaError as exc:
                        raise DeltaError(f"bad row {change.row!r}: {exc}") from exc
                elif arity is not None and len(element) != arity:
                    raise DeltaError(f"row arity {len(element)} != dataset arity {arity}")
                elif not self.row_shaped and change.kind is ChangeKind.INSERT:
                    added.append(element)
                if change.kind is ChangeKind.INSERT:
                    length += 1
                else:
                    deleted = True
            elif isinstance(change, EdgeChange):
                if not _is_graph(self.working):
                    raise DeltaError("EdgeChange targets a non-graph dataset")
                if type(change.source) is not int or type(change.target) is not int:
                    raise DeltaError(
                        f"edge ({change.source!r}, {change.target!r}) needs int vertices"
                    )
                n = self.working.n
                if not (0 <= change.source < n and 0 <= change.target < n):
                    raise DeltaError(
                        f"edge ({change.source}, {change.target}) outside [0, {n})"
                    )
            elif isinstance(change, PointWrite):
                if _is_graph(self.working) or _is_relation(self.working):
                    raise DeltaError("PointWrite targets a non-positional dataset")
                if type(change.position) is not int:
                    raise DeltaError(f"point-write position {change.position!r} is not an int")
                if not 0 <= change.position < length:
                    raise DeltaError(
                        f"point write at {change.position} outside [0, {length})"
                    )
                if not _plain(change.value) or not _hashable(change.value):
                    raise DeltaError(
                        f"point-write value {change.value!r} is not a hashable "
                        f"number, string, bytes or tuple of those"
                    )
                if not self.row_shaped:
                    added.append(change.value)
                shortened = shortened or deleted
            else:
                raise DeltaError(f"unknown change record {type(change).__name__}")
        self._refuse_unordered(added)
        if shortened:
            # Whether a delete takes effect depends on every change before it:
            # a dry run on a copy finds the length each point write meets.
            trial = list(self.working)
            for change in batch:
                if isinstance(change, PointWrite) and change.position >= len(trial):
                    raise DeltaError(f"point write at {change.position} outside [0, {len(trial)})")
                self._take(trial, change)

    def _refuse_unordered(self, values: List[Any]) -> None:
        """Refuse a float NaN, or a value ``<`` cannot order against the flat
        content (its first element, else the batch's first value).

        The kinds over flat content sort it or compare its elements: a
        TypeError there would come after the version moved, and a NaN --
        unequal to everything, itself included -- breaks a sorted run's
        binary search silently.
        """
        if not values:
            return
        reference = self.working[0] if self.working else values[0]
        for value in values:
            if isinstance(value, float) and math.isnan(value):
                raise DeltaError(f"value {value!r} has no place in any order")
            try:
                value < reference
            except TypeError:
                raise DeltaError(
                    f"value {value!r} does not order against {reference!r}"
                ) from None

    def apply(self, batch: Sequence[Any]) -> List[Any]:
        """Fold a validated batch into the working copy, in order; return the
        changes that took effect.

        A change that changes nothing is dropped: a flat element
        ``list.remove`` cannot find (one scan per delete, a whole one when
        the element is absent), a relation row with no live id, an edge
        ``remove_edge`` does not hold, an edge insert the graph already
        holds.  Each change sees every earlier one of its batch.  Phantom
        deletes must never reach a delta hook: the per-attribute selection
        indexes, for instance, would strip a payload a live row still
        accounts for.
        """
        return [change for change in batch if self._take(self.working, change)]

    def _take(self, working: Any, change: Any) -> bool:
        """Fold one change into ``working`` (the working copy, or the copy
        :meth:`validate` dry-runs a batch on); False if it changed nothing."""
        if isinstance(change, TupleChange):
            element = self.element(change.row)
            if self.row_ids is not None:
                if change.kind is ChangeKind.INSERT:
                    self.row_ids.setdefault(element, []).append(working.insert(element))
                    return True
                live = self.row_ids.get(element)
                if not live:
                    return False
                working.delete(live.pop())
            elif change.kind is ChangeKind.INSERT:
                working.append(element)
            else:
                try:
                    working.remove(element)
                except ValueError:
                    return False
        elif isinstance(change, EdgeChange):
            if change.kind is ChangeKind.INSERT:
                return working.add_edge(change.source, change.target)
            return working.remove_edge(change.source, change.target)
        else:  # PointWrite
            working[change.position] = change.value
        return True
