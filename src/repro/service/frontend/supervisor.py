"""Supervision of the worker pool: the glue around three pure pieces.

The :class:`Supervisor` owns what only a running system has -- N worker
processes (see :mod:`repro.service.frontend.workers`), their queues, a
collector and a monitor thread, one lock, the health counters -- and
leaves every *decision* to a piece testable without any of those:
:class:`~repro.service.frontend.tickets.RequestTable` (when a request is
settled), :class:`~repro.service.frontend.placement.Journal` (what
rebuilds a dataset elsewhere) and
:class:`~repro.service.frontend.placement.Router` (which worker gets a
frame).  All three are driven under ``self._lock``; the glue reads the
clock once per entry point (a submitted request, a collected message, a
monitor tick) and passes ``now`` down.  ``on_done`` callbacks always fire
outside the lock.

*Crash detection and recovery.*  The monitor thread polls worker
liveness.  When a worker dies: its in-flight reads enter the table's
retry path; in-flight writes surface
:class:`~repro.core.errors.WorkerFailedError`; mutable datasets homed
there are re-homed by replaying their journal onto a healthy worker
(inbox FIFO ordering guarantees replay lands before any rerouted
traffic); and the worker slot is restarted on the router's schedule.
Restarts never re-arm a fault plan: the ``dead-worker`` scenario models
one crash event, not a crashing binary.

*Graceful drain.*  :meth:`Supervisor.drain` marks a worker unroutable,
waits for its in-flight work up to a deadline, then re-homes its mutable
datasets through the same replay path used after a crash (skipping --
and reporting -- any dataset that still has an unacknowledged write on
the old home).  :meth:`Supervisor.undrain` returns the slot to rotation.

Health counters (``health()``): ``worker_restarts``, ``crashes_detected``,
``retried_requests``, ``failed_requests``, ``rehomed_datasets``,
``workers_lost``, ``replay_errors``, ``deadline_expired_supervisor``,
``deadline_expired_worker``, ``hedged_requests``, ``hedge_wins``,
``breaker_opened``, ``breaker_closed``, ``breaker_probes``,
``journal_checkpoints``, ``journal_checkpoint_failures``, ``drains``,
plus a ``breakers`` map of per-worker breaker states.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import random
import threading
import time
from functools import partial
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServiceError,
    WorkerFailedError,
)
from repro.service.artifacts import ArtifactStore
from repro.service.faults import DEFAULT_POLICY, FaultPlan, RecoveryPolicy
from repro.service.frontend import protocol
from repro.service.frontend.placement import Journal, Router
from repro.service.frontend.tickets import (
    OnDone, RequestTable, Ticket, stamp_deadline,
)
from repro.service.frontend.workers import merge_stats, worker_main

__all__ = ["Supervisor"]

#: Inbox depth per worker; a worker owed this many frames answers new
#: ones with :class:`~repro.core.errors.OverloadedError`.
MAX_QUEUE_PER_WORKER = 2048

#: How long :meth:`Supervisor.start` waits for every worker's engine.
READY_TIMEOUT_SECONDS = 120.0

_Response = Tuple[Dict[str, Any], bytes, int]


class _Broadcast:
    """Aggregates N sub-responses into one; first error wins."""

    def __init__(self, expected: int, on_done: OnDone,
                 combine: Optional[Callable[[List[_Response]], _Response]] = None):
        self._expected = expected
        self._on_done = on_done
        self._combine = combine
        self._lock = threading.Lock()
        self._responses: List[_Response] = []

    def collect(self, header: Dict[str, Any], body: bytes, codec: int) -> None:
        with self._lock:
            self._responses.append((header, body, codec))
            if len(self._responses) < self._expected:
                return
        errors = [r for r in self._responses if not r[0].get("ok")]
        if errors or self._combine is None:
            final = (errors or self._responses)[0]
        else:
            final = self._combine(self._responses)
        self._on_done(*final)


class _WorkerHandle(NamedTuple):
    """The process-side half of a worker slot; the router holds the rest."""

    generation: int
    process: Any
    inbox: Any


class Supervisor:
    """The multi-process worker pool behind the gateway.

    ``fault_plan`` (a :class:`~repro.service.faults.FaultPlan` or the
    picklable ``(specs, seed, policy, name)`` tuple) ships to the workers
    named in ``fault_workers`` (default: all) and is rebuilt inside each,
    giving every armed worker its own seeded clock; the plan's
    :class:`~repro.service.faults.RecoveryPolicy` doubles as the restart
    policy unless ``policy`` overrides it.

    ``hedge_delay_ms`` (None disables) is how long an immutable read may
    sit unanswered before a duplicate races on a second worker;
    ``journal_checkpoint_batches`` (None disables) bounds the mutable
    journal between checkpoints.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        store_root: Optional[str] = None,
        policy: Optional[RecoveryPolicy] = None,
        fault_plan: Optional[Any] = None,
        fault_workers: Optional[Sequence[int]] = None,
        poll_seconds: float = 0.02,
        hedge_delay_ms: Optional[float] = 50.0,
        journal_checkpoint_batches: Optional[int] = 64,
    ):
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        if isinstance(fault_plan, FaultPlan):
            if policy is None:
                policy = fault_plan.policy
            fault_plan = (fault_plan.specs, fault_plan.seed, fault_plan.policy,
                          fault_plan.name)
        if hedge_delay_ms is not None and hedge_delay_ms < 0:
            raise ServiceError(f"hedge_delay_ms must be >= 0, got {hedge_delay_ms}")
        if journal_checkpoint_batches is not None and journal_checkpoint_batches < 1:
            raise ServiceError(
                f"journal_checkpoint_batches must be >= 1, "
                f"got {journal_checkpoint_batches}"
            )
        policy = policy or DEFAULT_POLICY
        self._workers = workers
        self._store_root = store_root
        self._fault_plan = fault_plan
        self._fault_workers = fault_workers
        self._poll_seconds = poll_seconds
        self._checkpoint_batches = journal_checkpoint_batches
        self._store = ArtifactStore(store_root) if store_root is not None else None
        # Retry jitter only perturbs *timing*, never answers; a fixed seed
        # keeps chaos runs reproducible.
        self._jitter = random.Random(0x5EED)

        self._ctx = multiprocessing.get_context("spawn")
        self._outbox: Optional[Any] = None
        self._handles: List[_WorkerHandle] = []
        self._lock = threading.Lock()
        self._table = RequestTable(
            capacity=MAX_QUEUE_PER_WORKER,
            retry_budget=policy.read_retry_budget,
            retry_backoff=policy.retry_backoff_seconds,
            hedge_delay=None if hedge_delay_ms is None else hedge_delay_ms / 1000.0,
        )
        self._router = Router(policy)
        self._datasets: Dict[str, Journal] = {}
        self._counters: Dict[str, int] = dict.fromkeys((
            "worker_restarts", "crashes_detected", "retried_requests",
            "failed_requests", "rehomed_datasets", "replay_errors",
            "deadline_expired_supervisor", "deadline_expired_worker",
            "hedged_requests", "hedge_wins", "journal_checkpoints",
            "journal_checkpoint_failures", "drains",
        ), 0)
        self._closed = False
        self._stop = threading.Event()
        #: "ready" announcements still awaited by start(); a restarted
        #: worker's takes it below zero, which nobody waits on.  Touched
        #: by the collector thread only.
        self._booting = workers
        self._all_ready = threading.Event()
        self._threads: List[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Supervisor":
        if self._outbox is not None:
            raise ServiceError("supervisor already started")
        self._outbox = self._ctx.Queue()
        for _ in range(self._workers):
            worker_id = self._router.add_worker()
            self._handles.append(self._spawn(worker_id, 0, with_plan=True))
        for target, name in ((self._collect_loop, "frontend-collector"),
                             (self._monitor_loop, "frontend-monitor")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        if not self._all_ready.wait(READY_TIMEOUT_SECONDS):
            self.close()
            raise ServiceError(f"worker pool not ready within {READY_TIMEOUT_SECONDS}s")
        return self

    def _spawn(self, worker_id: int, generation: int, *, with_plan: bool) -> _WorkerHandle:
        armed = with_plan and (
            self._fault_workers is None or worker_id in self._fault_workers
        )
        settings = {
            "store_root": self._store_root,
            "fault_plan": self._fault_plan if armed else None,
        }
        inbox = self._ctx.Queue(MAX_QUEUE_PER_WORKER)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, generation, inbox, self._outbox, settings),
            name=f"frontend-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return _WorkerHandle(generation, process, inbox)

    def close(self) -> None:
        """Stop threads, drain workers, fail whatever is still in flight."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
            unanswered = self._table.close()
            self._counters["failed_requests"] += len(unanswered)
        self._stop.set()
        for handle in handles:
            try:
                handle.inbox.put_nowait(None)
            except Exception:
                pass
        if self._outbox is not None:
            self._outbox.put(("stop",))
        for handle in handles:
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5)
        closed = ServiceError("serving front is closed")
        for ticket in unanswered:
            self._deliver_error(ticket, closed)

    # -- introspection ---------------------------------------------------------

    @property
    def workers(self) -> int:
        """Target pool size."""
        return self._workers

    @property
    def healthy_workers(self) -> int:
        return self.health()["healthy_workers"]

    def health(self) -> Dict[str, Any]:
        with self._lock:
            return {
                **self._counters,
                **self._router.counters,
                "workers": self._workers,
                "healthy_workers": len(self._router.healthy()),
                "breakers": self._router.breaker_states(),
            }

    # -- request submission ----------------------------------------------------

    def submit(
        self,
        header: Dict[str, Any],
        body: bytes,
        codec: int,
        on_done: OnDone,
    ) -> None:
        """Route one request; ``on_done(header, body, codec)`` fires exactly
        once, from a supervisor thread.

        A relative ``deadline_ms`` budget in the header is converted here
        to an absolute ``deadline_mono`` instant shared with the workers;
        already-expired work raises
        :class:`~repro.core.errors.DeadlineExceededError` synchronously.

        Raises synchronously on conditions the caller must answer itself:
        :class:`~repro.core.errors.OverloadedError` when a target worker's
        queue is full, :class:`~repro.core.errors.ServiceError` when
        closed, :class:`~repro.core.errors.WorkerFailedError` when no
        healthy worker can take the request; nothing was enqueued then.
        """
        op = header.get("op")
        name = header.get("dataset")
        now = time.monotonic()
        try:
            stamp_deadline(header, now)
        except DeadlineExceededError:
            with self._lock:
                self._counters["deadline_expired_supervisor"] += 1
            raise
        with self._lock:
            if self._closed:
                raise ServiceError("serving front is closed")
            if op == "attach":
                self._submit_attach_locked(header, body, codec, on_done, now)
                return
            journal = self._datasets.get(name)
            replicated = journal is None or not journal.mutable
            if op == "stats" or (op == "detach" and journal is not None
                                 and replicated):
                targets = (self._router.healthy() if replicated
                           else [self._router.route(journal, now)])
                self._broadcast_locked(
                    header, body, codec, targets, on_done, now,
                    combine=self._combine_stats if op == "stats" else None)
            else:
                ticket = self._table.open(header, body, codec, on_done, now,
                                          replicated=replicated)
                self._send_locked(ticket, self._router.route(journal, now), now)
            # Only now that the detach is on its way: a refused detach must
            # leave the dataset known -- its workers still serve it.
            if op == "detach" and journal is not None:
                del self._datasets[name]

    def call(
        self,
        op: str,
        *,
        dataset: Optional[str] = None,
        value: Any = None,
        codec: int = protocol.CODEC_JSON,
        timeout: float = 60.0,
        deadline_ms: Optional[float] = None,
    ) -> Any:
        """Blocking convenience wrapper over :meth:`submit`: encode, wait,
        decode, raising remote errors as their library classes.

        ``deadline_ms`` rides the frame header end to end; the local wait
        is clamped to slightly past the budget so an expiry surfaces as
        the supervisor's typed error, not a silent stall here.
        """
        body = protocol.encode_body(value, codec) if value is not None else b""
        header: Dict[str, Any] = {"op": op, "rid": 0, "dataset": dataset}
        wait = timeout
        if deadline_ms is not None:
            header["deadline_ms"] = deadline_ms
            wait = min(timeout, deadline_ms / 1000.0 + 5.0)
        responses: "queue_mod.SimpleQueue[_Response]" = queue_mod.SimpleQueue()
        self.submit(header, body, codec, lambda *response: responses.put(response))
        try:
            rheader, rbody, rcodec = responses.get(timeout=wait)
        except queue_mod.Empty:
            raise DeadlineExceededError(
                f"no response to {op!r} within {wait}s",
                op=op, dataset=dataset,
                elapsed_ms=wait * 1000.0,
                budget_ms=deadline_ms if deadline_ms is not None
                else timeout * 1000.0,
            ) from None
        payload = protocol.decode_body(rbody, rcodec) if rbody else None
        if rheader.get("ok"):
            return payload
        protocol.raise_remote(payload)

    # -- drain -----------------------------------------------------------------

    def _set_draining(self, worker_id: int, draining: bool) -> None:
        with self._lock:
            if self._closed:
                raise ServiceError("serving front is closed")
            if not 0 <= worker_id < len(self._handles):
                raise ServiceError(f"no worker {worker_id} in the pool")
            self._router.set_draining(worker_id, draining)

    def drain(self, worker_id: int, *, timeout: float = 5.0) -> Dict[str, Any]:
        """Gracefully take ``worker_id`` out of rotation.

        Stops new dispatch immediately, waits up to ``timeout`` seconds
        for the frames it still owes, then re-homes mutable datasets homed
        there via the attach+journal replay path.  Datasets with an
        unacknowledged write still on the old home are *not* re-homed
        (replaying around an unacknowledged write could diverge from what
        the client was told); they are reported under ``"skipped"`` and
        stay routable on the draining worker until :meth:`undrain` or a
        later :meth:`drain`.
        """
        self._set_draining(worker_id, True)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._table.load(worker_id) == 0:
                    break
            time.sleep(min(self._poll_seconds, 0.01))
        rehomed: List[str] = []
        skipped: List[str] = []
        now = time.monotonic()
        with self._lock:
            self._counters["drains"] += 1
            remaining = self._table.load(worker_id)
            busy_writes = self._table.unacked_writes(worker_id)
            for name, journal in self._datasets.items():
                if not journal.mutable or journal.home != worker_id:
                    continue
                if name in busy_writes or not self._rehome_locked(journal, now):
                    skipped.append(name)
                    continue
                rehomed.append(name)
                # Free the now-stale copy on the drained worker; routing
                # already points at the new home, so this is pure cleanup.
                try:
                    self._send_internal_locked(
                        worker_id, {"op": "detach", "rid": 0, "dataset": name},
                        b"", journal.codec, self._replay_done, now)
                except OverloadedError:
                    pass
        return {
            "worker_id": worker_id,
            "drained": remaining == 0,
            "inflight": remaining,
            "rehomed": rehomed,
            "skipped": skipped,
        }

    def undrain(self, worker_id: int) -> None:
        """Return a drained worker to the dispatch rotation."""
        self._set_draining(worker_id, False)

    # -- locked dispatch helpers -----------------------------------------------

    def _send_locked(self, ticket: Ticket, worker_id: int, now: float, *,
                     is_hedge: bool = False) -> None:
        """The one place a frame enters a worker's inbox."""
        attempt = self._table.send(ticket, worker_id, now, is_hedge=is_hedge)
        try:
            self._handles[worker_id].inbox.put_nowait(
                ("req", attempt.rid, ticket.header, ticket.body, ticket.codec))
        except queue_mod.Full:
            self._table.forget(attempt)
            raise OverloadedError(f"worker {worker_id} queue is full") from None

    def _send_internal_locked(self, worker_id, header, body, codec, on_done,
                              now) -> None:
        """A supervisor-originated frame (replay, snapshot, cleanup)."""
        ticket = self._table.open(header, body, codec, on_done, now, internal=True)
        self._send_locked(ticket, worker_id, now)

    def _broadcast_locked(self, header, body, codec, targets, on_done, now,
                          combine=None) -> None:
        """All-or-nothing: every target has room before the first put, so
        no sub-request is ever left behind a broadcast that cannot finish."""
        if not targets:
            raise WorkerFailedError("no healthy workers in the pool")
        for worker_id in targets:
            self._table.check_room(worker_id)
        broadcast = _Broadcast(len(targets), on_done, combine)
        for worker_id in targets:
            ticket = self._table.open(header, body, codec, broadcast.collect, now)
            self._send_locked(ticket, worker_id, now)

    def _submit_attach_locked(self, header, body, codec, on_done, now) -> None:
        params = protocol.decode_body(body, codec)
        name = params["name"]
        mutable = bool(params.get("mutable", False))
        targets = ([self._router.pick_home(self._datasets.values())] if mutable
                   else self._router.healthy())
        journal = Journal(name, header, body, codec, mutable=mutable,
                          home=targets[0] if mutable else None,
                          checkpoint_every=self._checkpoint_batches)

        def record_then_done(rheader: Dict[str, Any], rbody: bytes, rcodec: int) -> None:
            if rheader.get("ok"):
                with self._lock:
                    self._datasets[name] = journal
            on_done(rheader, rbody, rcodec)

        self._broadcast_locked(header, body, codec, targets, record_then_done, now)

    def _replay_locked(self, journal: Journal, worker_id: int, now: float) -> None:
        """Rebuild ``journal``'s dataset on ``worker_id``: the one place
        attach + journal frames are enqueued for replay."""
        for header, body, codec in journal.frames():
            try:
                self._send_internal_locked(worker_id, header, body, codec,
                                           self._replay_done, now)
            except OverloadedError:
                self._counters["replay_errors"] += 1

    def _replay_done(self, rheader: Dict[str, Any], rbody: bytes, rcodec: int) -> None:
        if not rheader.get("ok"):
            with self._lock:
                self._counters["replay_errors"] += 1

    def _rehome_locked(self, journal: Journal, now: float) -> bool:
        """Move a mutable dataset to the least-loaded dispatchable worker;
        False when there is none.  FIFO inboxes order the replay before
        any read rerouted to the new home."""
        try:
            journal.home = self._router.pick_home(self._datasets.values())
        except WorkerFailedError:
            return False
        self._counters["rehomed_datasets"] += 1
        self._replay_locked(journal, journal.home, now)
        return True

    def _combine_stats(self, responses: List[_Response]) -> _Response:
        """Merge the workers' stats and fold in the pool's health counters,
        so one remote ``stats()`` shows engine counters *and* the
        supervision story (``worker_restarts``, retries, re-homes, breakers)."""
        header, body, codec = responses[0]
        merged = protocol.decode_body(body, codec)
        for _, other_body, other_codec in responses[1:]:
            merge_stats(merged, protocol.decode_body(other_body, other_codec))
        if isinstance(merged, dict):
            merged["frontend"] = self.health()
        return header, protocol.encode_body(merged, codec), codec

    # -- response collection ---------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            message = self._outbox.get()
            if message[0] == "stop":
                return
            if message[0] == "ready":
                self._booting -= 1
                if self._booting == 0:
                    self._all_ready.set()
                continue
            self._on_response(time.monotonic(), *message[1:])

    def _on_response(self, now, worker_id, _generation, rid, rheader, rbody,
                     rcodec) -> None:
        with self._lock:
            # Only a frame the live incarnation of its worker still owed
            # comes back non-None: a crash forgets all the dead one held.
            attempt = self._table.respond(rid)
            if attempt is None:
                return  # stale: the ticket was settled some other way
            ticket = attempt.ticket
            ok = rheader.get("ok")
            if not ok and rheader.get("etype") == "DeadlineExceededError":
                # The frame aged out in the worker's inbox: a slowness
                # signal, and an expiry the client sees.
                self._counters["deadline_expired_worker"] += 1
                self._router.failure(worker_id, now)
            else:
                self._router.success(worker_id)
            if ok and attempt.is_hedge:
                self._counters["hedge_wins"] += 1
            if ok and ticket.op == "apply_changes" and not ticket.internal:
                self._journal_locked(ticket, now)
        ticket.on_done(rheader, rbody, rcodec)

    def _journal_locked(self, ticket: Ticket, now: float) -> None:
        """A client write was acknowledged: record it, and ask the home
        (which just answered, so it is up) for a snapshot when one is due."""
        journal = self._datasets.get(ticket.dataset)
        if journal is None or not journal.mutable:
            return
        snapshot_header = journal.record(ticket.header, ticket.body, ticket.codec)
        if snapshot_header is None:
            return
        try:
            self._send_internal_locked(
                journal.home, snapshot_header, b"", journal.codec,
                partial(self._checkpoint_done, journal.name), now)
        except OverloadedError:
            journal.checkpointing = False
            self._counters["journal_checkpoint_failures"] += 1

    def _checkpoint_done(self, name: str, rheader: Dict[str, Any],
                         rbody: bytes, rcodec: int) -> None:
        """Completion of a snapshot request: let the journal swap its
        baseline and truncate, then persist the checkpoint.  Runs on the
        collector thread, the only thread that records batches -- the
        ordering :class:`~repro.service.frontend.placement.Journal` needs."""
        with self._lock:
            journal = self._datasets.get(name)
            if journal is None or not journal.mutable:
                return
            saved = journal.finish_checkpoint(rheader.get("ok"), rbody, rcodec)
            self._counters["journal_checkpoints" if saved
                           else "journal_checkpoint_failures"] += 1
        if saved is None or self._store is None:
            return
        try:
            self._store.put(*saved)
        except Exception:
            with self._lock:
                self._counters["journal_checkpoint_failures"] += 1

    # -- the monitor: crashes, deadlines, hedges, retries, restarts ------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self._poll_seconds):
            self._tick(time.monotonic())

    def _tick(self, now: float) -> None:
        failures: List[Tuple[Ticket, BaseException]] = []
        with self._lock:
            if self._closed:
                return
            for worker_id in self._router.healthy():
                if not self._handles[worker_id].process.is_alive():
                    self._on_crash_locked(worker_id, now, failures)
            for ticket, slow_workers in self._table.expire(now):
                # The workers holding it are penalised: they were too slow.
                for worker_id in slow_workers:
                    self._router.failure(worker_id, now)
                self._counters["deadline_expired_supervisor"] += 1
                failures.append((ticket, self._table.deadline_error(ticket, now)))
            for attempt in self._table.hedge_due(now):
                target = self._router.pick_hedge(exclude=attempt.worker_id)
                if target is None:
                    continue
                try:
                    self._send_locked(attempt.ticket, target, now, is_hedge=True)
                except OverloadedError:
                    continue
                self._counters["hedged_requests"] += 1
            for ticket in self._table.retries_due(now):
                try:
                    journal = self._datasets.get(ticket.dataset)
                    self._send_locked(ticket, self._router.route(journal, now), now)
                    self._counters["retried_requests"] += 1
                except (WorkerFailedError, OverloadedError) as exc:
                    self._table.settle(ticket)
                    self._counters["failed_requests"] += 1
                    failures.append((ticket, exc))
            to_restart = self._router.restartable(now)
        for ticket, error in failures:
            self._deliver_error(ticket, error)
        for worker_id in to_restart:
            self._restart(worker_id, now)

    def _on_crash_locked(self, worker_id: int, now: float,
                         failures: List[Tuple[Ticket, BaseException]]) -> None:
        self._counters["crashes_detected"] += 1
        self._router.crashed(worker_id, now)
        exitcode = self._handles[worker_id].process.exitcode
        for journal in self._datasets.values():
            if journal.mutable and journal.home == worker_id:
                journal.home_lost()
                self._rehome_locked(journal, now)  # or orphaned for now
        for ticket in self._table.crash(worker_id):
            if not self._table.retry_later(ticket, now, self._jitter.random()):
                self._counters["failed_requests"] += 1
                failures.append((ticket, WorkerFailedError(
                    f"worker {worker_id} died (exit {exitcode}) holding "
                    f"{ticket.op!r} for dataset {ticket.dataset!r}"
                )))

    def _restart(self, worker_id: int, now: float) -> None:
        # Spawn outside the lock (it forks an interpreter); adopt under it.
        generation = self._handles[worker_id].generation + 1
        try:
            replacement = self._spawn(worker_id, generation, with_plan=False)
        except Exception:
            with self._lock:
                self._router.restarted(worker_id, now, ok=False)
            return
        with self._lock:
            if self._closed:
                replacement.process.terminate()
                return
            self._handles[worker_id] = replacement
            self._router.restarted(worker_id, now, ok=True)
            self._counters["worker_restarts"] += 1
            # Replay the attach table: every immutable dataset, then find
            # any orphaned mutable dataset a home again (this worker,
            # unless an operator is draining it out of rotation).
            for journal in self._datasets.values():
                if not journal.mutable:
                    self._replay_locked(journal, worker_id, now)
                elif journal.home is None:
                    self._rehome_locked(journal, now)

    def _deliver_error(self, ticket: Ticket, error: BaseException) -> None:
        header = {"rid": ticket.header.get("rid"), "ok": False, "op": ticket.op}
        body = protocol.encode_body(protocol.error_payload(error), ticket.codec)
        ticket.on_done(header, body, ticket.codec)
