"""Supervision of the worker pool: the glue around three pure pieces.

The :class:`Supervisor` owns what only a running system has -- N worker
processes (see :mod:`repro.service.frontend.workers`), a socketpair channel
to each, one event-loop thread (``frontend-loop``), the health counters --
and leaves every *decision* to a piece testable without any of those:
:class:`~repro.service.frontend.tickets.RequestTable` (when a request is
settled), :class:`~repro.service.frontend.placement.Journal` (what
rebuilds a dataset elsewhere) and
:class:`~repro.service.frontend.placement.Router` (which worker gets a
frame).  All three are touched on the loop and nowhere else, so there is no
lock: ``submit`` (loop-only -- the gateway listens on the same loop), one
reader task per channel and one timer coroutine interleave only where they
``await``, each reading the clock once and passing ``now`` down.  Every
other thread uses ``start`` / ``call`` / ``health`` / ``drain`` /
``undrain`` / ``close``, which block while their work runs on the loop.

*The channel.*  Both directions of a worker's ``socket.socketpair()`` carry
the client's own wire format (:mod:`~repro.service.frontend.protocol`):
body bytes untouched, the small header re-packed with the attempt id as
``rid`` (the client's is restored on the way back).  "Ready" is the first
internal ``ping`` a worker answers, "stop" is a half-close, and
end-of-file (or a torn frame) is the crash signal.

*Crash recovery.*  When a worker dies: its in-flight reads enter the
table's retry path; in-flight writes surface
:class:`~repro.core.errors.WorkerFailedError`; mutable datasets homed
there are re-homed by replaying their journal onto a healthy worker (its
channel is a byte stream, and the replay is written before any rerouted
read); and the worker slot is restarted on the router's schedule.

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

import asyncio
import concurrent.futures
import multiprocessing
import random
import socket
import threading
import time
from functools import partial
from typing import (
    Any, Callable, Coroutine, Dict, List, NamedTuple, Optional, Tuple,
)

from repro.core.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ServiceError,
    WorkerFailedError,
)
from repro.service.faults import DEFAULT_POLICY, RecoveryPolicy
from repro.service.frontend import protocol
from repro.service.frontend.placement import Journal, Router
from repro.service.frontend.tickets import (
    OnDone, RequestTable, Ticket, stamp_deadline,
)
from repro.service.frontend.workers import merge_stats, worker_main

__all__ = ["Supervisor"]

#: Frames a worker may owe at once -- the request table's capacity, so also
#: the most a channel's transport buffers for a slow worker; past it new ones
#: are answered with :class:`~repro.core.errors.OverloadedError`.
MAX_QUEUE_PER_WORKER = 2048

#: How long :meth:`Supervisor.start` waits for every worker's engine.
READY_TIMEOUT_SECONDS = 120.0

_Response = Tuple[Dict[str, Any], bytes, int]


def _resolving(future: "asyncio.Future[_Response]") -> OnDone:
    """An ``on_done`` that resolves ``future``, unless its waiter gave up."""
    def on_done(*response: Any) -> None:
        if not future.done():
            future.set_result(response)
    return on_done


class _Broadcast:
    """Aggregates N sub-responses into one; first error wins."""

    def __init__(self, expected: int, on_done: OnDone,
                 combine: Optional[Callable[[List[_Response]], _Response]] = None):
        self._expected = expected
        self._on_done = on_done
        self._combine = combine
        self._responses: List[_Response] = []

    def collect(self, header: Dict[str, Any], body: bytes, codec: int) -> None:
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

    process: Any
    writer: Any  # ``StreamWriter`` over our end of the worker's socketpair
    reader: Any  # the task reading that end: done once the worker is gone


class Supervisor:
    """The multi-process worker pool behind the gateway.

    ``policy`` (a :class:`~repro.service.faults.RecoveryPolicy`) bounds
    worker restarts, read retries and circuit breakers.  Each worker
    process runs the module-level ``worker_main`` with settings
    ``{"store_root": store_root}``.

    ``hedge_delay_ms`` (None disables) is how long an immutable read may
    sit unanswered before a duplicate races on a second worker;
    ``journal_checkpoint_batches`` (None disables) bounds the mutable
    journal between checkpoints; ``poll_seconds`` paces the timer that
    sweeps deadlines, hedges, retries and restarts.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        store_root: Optional[str] = None,
        policy: Optional[RecoveryPolicy] = None,
        poll_seconds: float = 0.02,
        hedge_delay_ms: Optional[float] = 50.0,
        journal_checkpoint_batches: Optional[int] = 64,
    ):
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
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
        self._poll_seconds = poll_seconds
        self._checkpoint_batches = journal_checkpoint_batches
        # Retry jitter only perturbs *timing*, never answers; a fixed seed
        # keeps chaos runs reproducible.
        self._jitter = random.Random(0x5EED)

        self._ctx = multiprocessing.get_context("spawn")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._timer_task: Optional["asyncio.Task[None]"] = None
        self._handles: List[_WorkerHandle] = []
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

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Supervisor":
        if self._thread is not None:
            raise ServiceError("supervisor already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="frontend-loop", daemon=True)
        self._thread.start()
        try:
            self.run(self._boot())
        except BaseException:
            self.close()
            raise
        return self

    def _run_loop(self) -> None:
        loop = self._loop
        try:
            loop.run_forever()
            # What close() did not end -- the timer, the gateway's connection
            # handlers, a hop that raced it -- is cancelled while the loop
            # can still run it, so every ``finally`` does.
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
        finally:
            loop.close()

    def run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run ``coro`` on the front's event loop and block for its result:
        how every thread but the loop's own reaches the pool."""
        loop = self._loop
        if loop is None or loop.is_closed():
            coro.close()
            raise ServiceError("serving front is closed" if self._closed
                               else "supervisor is not started")
        try:
            return asyncio.run_coroutine_threadsafe(coro, loop).result()
        except concurrent.futures.CancelledError:
            raise ServiceError("serving front is closed") from None

    def _on_loop(self, function: Callable[..., Any], *args: Any) -> Any:
        """``function(*args)`` where the loop's state may be touched: inline
        on its thread or when it is not running, else by hopping onto it."""
        if (self._loop is None or not self._loop.is_running()
                or threading.current_thread() is self._thread):
            return function(*args)

        async def hop() -> Any:
            return function(*args)

        return self.run(hop())

    async def _boot(self) -> None:
        """Spawn the pool; it is ready once every worker answered a ping."""
        for _ in range(self._workers):
            worker_id = self._router.add_worker()
            self._handles.append(await self._spawn(worker_id))
        self._timer_task = asyncio.ensure_future(self._timer())
        ready = asyncio.get_running_loop().create_future()
        self._broadcast({"op": "ping", "rid": 0, "dataset": None}, b"",
                        protocol.CODEC_JSON, self._router.healthy(),
                        _resolving(ready), time.monotonic())
        try:
            await asyncio.wait_for(ready, READY_TIMEOUT_SECONDS)
        except asyncio.TimeoutError:
            raise ServiceError(
                f"worker pool not ready within {READY_TIMEOUT_SECONDS}s") from None

    async def _spawn(self, worker_id: int) -> _WorkerHandle:
        settings = {"store_root": self._store_root}
        ours, theirs = socket.socketpair()
        try:
            process = self._ctx.Process(
                target=worker_main,
                args=(theirs, settings),
                name=f"frontend-worker-{worker_id}",
                daemon=True,
            )
            process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            # The child holds its own copy now; while ours stays open,
            # end-of-file never arrives here when the worker dies.
            theirs.close()
        reader, writer = await asyncio.open_connection(sock=ours)
        return _WorkerHandle(process, writer, asyncio.ensure_future(
            self._read_channel(worker_id, reader)))

    def close(self) -> None:
        """Fail what is in flight, let the workers finish and exit, stop the loop."""
        if self._loop is None or self._loop.is_closed():
            return  # never started, or closed already
        self.run(self._shutdown())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        for handle in self._handles:
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # it ignored the half-close
                handle.process.terminate()
                handle.process.join(timeout=5)

    async def _shutdown(self) -> None:
        self._closed = True
        unanswered = self._table.close()
        self._counters["failed_requests"] += len(unanswered)
        closed = ServiceError("serving front is closed")
        for ticket in unanswered:
            self._deliver_error(ticket, closed)
        # Half-close, not close: a worker mid-frame still writes its answer,
        # then reads end-of-file and exits 0 -- which ends our reader.
        for handle in self._handles:
            handle.writer.write_eof()
        if self._handles:
            await asyncio.wait([handle.reader for handle in self._handles],
                               timeout=5)
        for handle in self._handles:
            handle.writer.close()

    # -- introspection ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._on_loop(lambda: {
            **self._counters,
            **self._router.counters,
            "workers": self._workers,
            "healthy_workers": len(self._router.healthy()),
            "breakers": self._router.breaker_states(),
        })

    # -- request submission ----------------------------------------------------

    def submit(
        self,
        header: Dict[str, Any],
        body: bytes,
        codec: int,
        on_done: OnDone,
    ) -> None:
        """Route one request; ``on_done(header, body, codec)`` fires exactly
        once.  Loop-only, ``on_done`` included: the gateway calls it on the
        front's loop, other threads go through :meth:`call` or :meth:`run`.

        A relative ``deadline_ms`` budget in the header is converted here
        to an absolute ``deadline_mono`` instant shared with the workers;
        already-expired work raises
        :class:`~repro.core.errors.DeadlineExceededError` synchronously.

        Raises synchronously on conditions the caller must answer itself:
        :class:`~repro.core.errors.OverloadedError` when a target worker
        already owes its capacity, :class:`~repro.core.errors.ServiceError`
        when closed, :class:`~repro.core.errors.WorkerFailedError` when no
        healthy worker can take the request; nothing was sent then.
        """
        op = header.get("op")
        name = header.get("dataset")
        now = time.monotonic()
        try:
            stamp_deadline(header, now)
        except DeadlineExceededError:
            self._counters["deadline_expired_supervisor"] += 1
            raise
        if self._closed:
            raise ServiceError("serving front is closed")
        if op == "attach":
            self._submit_attach(header, body, codec, on_done, now)
            return
        journal = self._datasets.get(name)
        replicated = journal is None or not journal.mutable
        if op == "stats" or (op == "detach" and journal is not None
                             and replicated):
            targets = (self._router.healthy() if replicated
                       else [self._router.route(journal, now)])
            self._broadcast(
                header, body, codec, targets, on_done, now,
                combine=self._combine_stats if op == "stats" else None)
        else:
            ticket = self._table.open(header, body, codec, on_done, now,
                                      replicated=replicated)
            self._send(ticket, self._router.route(journal, now), now)
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
        """Blocking convenience wrapper over :meth:`submit` for threads
        other than the loop's: encode, wait, decode, raising remote errors
        as their library classes.

        ``deadline_ms`` rides the frame header end to end; the local wait
        is clamped to slightly past the budget so an expiry surfaces as
        the supervisor's typed error, not a silent stall here.
        """
        body = protocol.encode_body(value, codec) if value is not None else b""
        header = protocol.request_header(op, 0, dataset, value)
        wait = timeout
        if deadline_ms is not None:
            header["deadline_ms"] = deadline_ms
            wait = min(timeout, deadline_ms / 1000.0 + 5.0)

        async def exchange() -> _Response:
            response = asyncio.get_running_loop().create_future()
            self.submit(header, body, codec, _resolving(response))
            return await asyncio.wait_for(response, wait)

        try:
            rheader, rbody, rcodec = self.run(exchange())
        except asyncio.TimeoutError:
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
        return self.run(self._drain(worker_id, timeout))

    async def _drain(self, worker_id: int, timeout: float) -> Dict[str, Any]:
        self._set_draining(worker_id, True)
        deadline = time.monotonic() + timeout
        while self._table.load(worker_id) and time.monotonic() < deadline:
            await asyncio.sleep(min(self._poll_seconds, 0.01))
        rehomed: List[str] = []
        skipped: List[str] = []
        now = time.monotonic()
        self._counters["drains"] += 1
        remaining = self._table.load(worker_id)
        busy_writes = self._table.unacked_writes(worker_id)
        for name, journal in self._datasets.items():
            if not journal.mutable or journal.home != worker_id:
                continue
            if name in busy_writes or not self._rehome(journal, now):
                skipped.append(name)
                continue
            rehomed.append(name)
            # Free the now-stale copy on the drained worker; routing
            # already points at the new home, so this is pure cleanup.
            try:
                self._send_internal(
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
        self._on_loop(self._set_draining, worker_id, False)

    # -- dispatch helpers (loop only) ------------------------------------------

    def _send(self, ticket: Ticket, worker_id: int, now: float, *,
              is_hedge: bool = False) -> None:
        """The one place a frame enters a worker's channel: body bytes
        untouched, the (deadline-stamped) header re-packed under the attempt id."""
        attempt = self._table.send(ticket, worker_id, now, is_hedge=is_hedge)
        try:
            frame = protocol.pack_frame(
                {**ticket.header, "rid": attempt.rid}, body_bytes=ticket.body,
                codec=ticket.codec, max_frame_bytes=protocol.MAX_FRAME_BYTES)
        except (ProtocolError, ValueError) as exc:
            # A header past u16 once stamped, or a NaN budget.
            self._table.forget(attempt)
            raise ProtocolError(f"cannot relay {ticket.op!r} frame: {exc}") from exc
        self._handles[worker_id].writer.write(frame)

    def _send_internal(self, worker_id, header, body, codec, on_done, now) -> None:
        """A supervisor-originated frame (ping, replay, snapshot, cleanup)."""
        ticket = self._table.open(header, body, codec, on_done, now, internal=True)
        self._send(ticket, worker_id, now)

    def _broadcast(self, header, body, codec, targets, on_done, now,
                   combine=None) -> None:
        """All-or-nothing: every target has room before the first write, so
        no sub-request is ever left behind a broadcast that cannot finish."""
        if not targets:
            raise WorkerFailedError("no healthy workers in the pool")
        for worker_id in targets:
            self._table.check_room(worker_id)
        broadcast = _Broadcast(len(targets), on_done, combine)
        for worker_id in targets:
            ticket = self._table.open(header, body, codec, broadcast.collect, now)
            self._send(ticket, worker_id, now)

    def _submit_attach(self, header, body, codec, on_done, now) -> None:
        # Routed from the header alone: the body (O(|D|) to parse) stays
        # opaque on this loop, and the worker holds the two to agree.
        name, mutable = header.get("dataset"), header.get("mutable", False)
        if not isinstance(name, str) or not name or not isinstance(mutable, bool):
            raise ProtocolError(
                "attach needs a dataset name (and a boolean mutable flag, if "
                f"any) in the frame header, got {name!r} / {mutable!r}"
            )
        targets = ([self._router.pick_home(self._datasets.values())] if mutable
                   else self._router.healthy())
        journal = Journal(name, header, body, codec, mutable=mutable,
                          home=targets[0] if mutable else None,
                          checkpoint_every=self._checkpoint_batches)

        def record_then_done(rheader: Dict[str, Any], rbody: bytes, rcodec: int) -> None:
            if rheader.get("ok"):
                self._datasets[name] = journal
            on_done(rheader, rbody, rcodec)

        self._broadcast(header, body, codec, targets, record_then_done, now)

    def _replay(self, journal: Journal, worker_id: int, now: float) -> None:
        """Rebuild ``journal``'s dataset on ``worker_id``: the one place
        attach + journal frames are written for replay."""
        for header, body, codec in journal.frames():
            try:
                self._send_internal(worker_id, header, body, codec,
                                    self._replay_done, now)
            except OverloadedError:
                self._counters["replay_errors"] += 1

    def _replay_done(self, rheader: Dict[str, Any], rbody: bytes, rcodec: int) -> None:
        if not rheader.get("ok"):
            self._counters["replay_errors"] += 1

    def _rehome(self, journal: Journal, now: float) -> bool:
        """Move a mutable dataset to the least-loaded dispatchable worker;
        False when there is none.  The replay is written to the new home's
        channel here and now, ahead of any read rerouted to it."""
        try:
            journal.home = self._router.pick_home(self._datasets.values())
        except WorkerFailedError:
            return False
        self._counters["rehomed_datasets"] += 1
        self._replay(journal, journal.home, now)
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

    # -- the channel readers: responses and crashes ----------------------------

    async def _read_channel(self, worker_id: int, reader: Any) -> None:
        """Everything one incarnation of a worker says, in the order it
        said it; the stream ending is how its death is learnt."""
        try:
            while True:
                frame = await protocol.read_frame_async(
                    reader, max_frame_bytes=protocol.MAX_FRAME_BYTES)
                if frame is None:
                    break
                self._on_response(time.monotonic(), worker_id, *frame)
        except (ProtocolError, OSError):
            pass  # a torn frame or a reset: it died mid-write
        if not self._closed:
            self._on_crash(worker_id, time.monotonic())

    def _on_response(self, now, worker_id, rheader, rbody, rcodec) -> None:
        # Only a frame the live incarnation of its worker still owed
        # comes back non-None: a crash forgets all the dead one held.
        attempt = self._table.respond(rheader.get("rid"))
        if attempt is None:
            return  # stale: the ticket was settled some other way
        ticket = attempt.ticket
        rheader["rid"] = ticket.header.get("rid")  # the caller's own id back
        ok = rheader.get("ok")
        if not ok and rheader.get("etype") == "DeadlineExceededError":
            # The frame aged out waiting its turn at the worker: a
            # slowness signal, and an expiry the client sees.
            self._counters["deadline_expired_worker"] += 1
            self._router.failure(worker_id, now)
        else:
            self._router.success(worker_id)
        if ok and attempt.is_hedge:
            self._counters["hedge_wins"] += 1
        if ok and ticket.op == "apply_changes" and not ticket.internal:
            self._journal(ticket, now)
        ticket.on_done(rheader, rbody, rcodec)

    def _journal(self, ticket: Ticket, now: float) -> None:
        """A client write was acknowledged: record it, and ask the home
        (which just answered, so it is up) for a snapshot when one is due."""
        journal = self._datasets.get(ticket.dataset)
        if journal is None or not journal.mutable:
            return
        snapshot_header = journal.record(ticket.header, ticket.body, ticket.codec)
        if snapshot_header is None:
            return
        try:
            self._send_internal(
                journal.home, snapshot_header, b"", journal.codec,
                partial(self._checkpoint_done, journal.name), now)
        except OverloadedError:
            journal.checkpointing = False
            self._counters["journal_checkpoint_failures"] += 1

    def _checkpoint_done(self, name: str, rheader: Dict[str, Any],
                         rbody: bytes, rcodec: int) -> None:
        """Completion of a snapshot request: let the journal swap its
        baseline and truncate.  Runs in the home's reader task, which also
        records its batches -- the one order the :class:`Journal` needs."""
        journal = self._datasets.get(name)
        if journal is None or not journal.mutable:
            return
        saved = journal.finish_checkpoint(rheader.get("ok"), rbody, rcodec)
        self._counters["journal_checkpoints" if saved
                       else "journal_checkpoint_failures"] += 1

    def _on_crash(self, worker_id: int, now: float) -> None:
        self._handles[worker_id].writer.close()
        self._counters["crashes_detected"] += 1
        self._router.crashed(worker_id, now)
        for journal in self._datasets.values():
            if journal.mutable and journal.home == worker_id:
                journal.home_lost()
                self._rehome(journal, now)  # or orphaned for now
        for ticket in self._table.crash(worker_id):
            if not self._table.retry_later(ticket, now, self._jitter.random()):
                self._counters["failed_requests"] += 1
                self._deliver_error(ticket, WorkerFailedError(
                    f"worker {worker_id} died holding {ticket.op!r} for "
                    f"dataset {ticket.dataset!r}"
                ))

    # -- the timer: deadlines, hedges, retries, restarts -----------------------

    async def _timer(self) -> None:
        """The one clock-driven task.  Restarts run here one after another:
        a slot stays restartable until ``restarted()`` is recorded, so a
        task per tick would spawn it twice."""
        while not self._closed:
            now = time.monotonic()
            for worker_id in self._tick(now):
                await self._restart(worker_id, now)
            await asyncio.sleep(self._poll_seconds)

    def _tick(self, now: float) -> List[int]:
        """One sweep; returns the worker slots now due a restart."""
        for ticket, slow_workers in self._table.expire(now):
            # The workers holding it are penalised: they were too slow.
            for worker_id in slow_workers:
                self._router.failure(worker_id, now)
            self._counters["deadline_expired_supervisor"] += 1
            self._deliver_error(ticket, self._table.deadline_error(ticket, now))
        for attempt in self._table.hedge_due(now):
            target = self._router.pick_hedge(exclude=attempt.worker_id)
            if target is None:
                continue
            try:
                self._send(attempt.ticket, target, now, is_hedge=True)
            except OverloadedError:
                continue
            self._counters["hedged_requests"] += 1
        for ticket in self._table.retries_due(now):
            try:
                journal = self._datasets.get(ticket.dataset)
                self._send(ticket, self._router.route(journal, now), now)
                self._counters["retried_requests"] += 1
            except (WorkerFailedError, OverloadedError) as exc:
                self._table.settle(ticket)
                self._counters["failed_requests"] += 1
                self._deliver_error(ticket, exc)
        return self._router.restartable(now)

    async def _restart(self, worker_id: int, now: float) -> None:
        try:
            replacement = await self._spawn(worker_id)
        except Exception:
            self._router.restarted(worker_id, now, ok=False)
            return
        if self._closed:  # while the channel was opening: send it home
            replacement.writer.close()
            return
        self._handles[worker_id] = replacement
        self._router.restarted(worker_id, now, ok=True)
        self._counters["worker_restarts"] += 1
        # Replay the attach table: every immutable dataset, then find
        # any orphaned mutable dataset a home again (this worker,
        # unless an operator is draining it out of rotation).
        for journal in self._datasets.values():
            if not journal.mutable:
                self._replay(journal, worker_id, now)
            elif journal.home is None:
                self._rehome(journal, now)

    def _deliver_error(self, ticket: Ticket, error: BaseException) -> None:
        header = {"rid": ticket.header.get("rid"), "ok": False, "op": ticket.op}
        body = protocol.encode_body(protocol.error_payload(error), ticket.codec)
        ticket.on_done(header, body, ticket.codec)
