"""Where a dataset lives and which worker serves: journals and the router.

Both pieces are pure bookkeeping the supervisor drives from its event
loop: no clock (callers pass ``now``), no process, no socket.

*Per-dataset placement.*  Immutable datasets are attached on **every**
worker (the content-addressed store makes the 2nd..Nth attach a cheap
load, not a rebuild) and reads round-robin across healthy workers.
Mutable datasets are **homed** on exactly one worker -- versions advance
only there, so no stale replica can ever serve a read -- and a
:class:`Journal` keeps what it takes to rebuild the dataset elsewhere:
the attach frame plus the body of every *acknowledged* change batch.
Because Pi(D) is a deterministic function of D, replaying those onto any
worker reproduces the dataset; that is the whole re-home story, after a
crash, a restart or a drain alike.  A frame here is ``(header, body)``:
the body's codec byte is read and written only by
:mod:`~repro.service.frontend.protocol`, and the supervisor's loop never
parses a body -- a checkpoint is adopted on its reply's header.

*Worker choice.*  The :class:`Router` owns everything that decides which
worker gets a frame: per-slot health and draining flags, circuit
breakers, the round-robin cursor and the restart schedule.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.errors import WorkerFailedError
from repro.service.faults import RecoveryPolicy
from repro.service.frontend import protocol

__all__ = ["Journal", "Router"]

Frame = Tuple[Dict[str, Any], bytes]


class Journal:
    """One attached dataset as the supervisor knows it: the frames that
    rebuild it on a fresh worker.

    The journal is bounded: once the body bytes of the acknowledged
    batches reach the baseline's -- from there a replay ships more than a
    snapshot would -- the supervisor snapshots the home worker's current
    content (``snapshot`` op) and :meth:`finish_checkpoint` swaps it in as
    the new attach baseline and truncates the replayed entries.  A snapshot
    then costs at most one batch body per acknowledged change, amortised,
    at any |D|; a replay stays O(|D|) bytes in two frames, however many
    batches it holds (:meth:`frames`).  The home worker's channel is a byte
    stream, which makes the truncation exact: every batch acknowledged
    before the snapshot response is *in* the snapshot, every later batch is
    recorded after the truncation -- the channel's one reader both records
    and finishes, in the order the worker answered.
    """

    __slots__ = ("name", "header", "body", "mutable", "home",
                 "batches", "checkpointing", "_batch_bytes")

    def __init__(self, name: str, header: Dict[str, Any], body: bytes, *,
                 mutable: bool, home: Optional[int]):
        self.name = name
        #: replayed arbitrarily later (re-home, restart, drain): a deadline
        #: frozen into it would make every replay arrive already expired.
        self.header = {key: value for key, value in header.items()
                       if key not in ("deadline_ms", "deadline_mono")}
        self.body = body
        self.mutable = mutable
        #: worker id homing a mutable dataset; None for immutable (served
        #: everywhere) or an orphaned mutable awaiting a healthy worker.
        self.home = home
        #: bodies of the acknowledged apply_changes since the baseline.
        self.batches: List[bytes] = []
        #: a snapshot request is outstanding; suppresses re-triggering.
        self.checkpointing = False
        #: body bytes of ``batches``, against the baseline's ``len(body)``.
        self._batch_bytes = 0

    def record(self, body: bytes) -> Optional[Dict[str, Any]]:
        """Append the body of one acknowledged change batch.  When that
        makes a checkpoint due, marks one outstanding and returns the
        ``snapshot`` request header to send to the home worker."""
        self.batches.append(body)
        self._batch_bytes += len(body)
        return None if self._batch_bytes < len(self.body) else self.checkpoint()

    def checkpoint(self) -> Optional[Dict[str, Any]]:
        """Mark a snapshot outstanding and return its request header for the
        home worker; None when one already is, or no batch is left to fold."""
        if self.checkpointing or not self.batches:
            return None
        self.checkpointing = True
        return {"op": "snapshot", "rid": 0, "dataset": self.name}

    def frames(self) -> List[Frame]:
        """The replay: the attach frame, then every recorded batch in one
        ``replay`` frame -- the worker applies them in order, each as its
        own batch -- so a journal of any length needs room for two frames."""
        if not self.batches:
            return [(self.header, self.body)]
        return [(self.header, self.body),
                ({"op": "replay", "rid": 0, "dataset": self.name},
                 protocol.join_bodies(self.batches))]

    def home_lost(self) -> None:
        """The home worker died, and any outstanding snapshot with it."""
        self.home = None
        self.checkpointing = False

    def finish_checkpoint(self, header: Dict[str, Any], body: bytes) -> bool:
        """The snapshot came back (or failed).  The worker stamps an ``ok``
        reply's header with the ``name``, ``version`` and ``mutable`` of the
        attach body it encoded; when they are this journal's and the body is
        not empty, the body becomes the attach baseline verbatim and the
        journal is truncated.  False leaves both as they were, so the next
        recorded batch asks again.  The body is never parsed here: the loop
        owning every socket pays O(1), not O(|D|), and the worker a replay
        reaches still refuses a body that disagrees with its attach header."""
        self.checkpointing = False
        version = header.get("version")
        if (not header.get("ok") or not body or header.get("name") != self.name
                or header.get("mutable") is not True
                or type(version) is not int or version < 0):
            return False
        self.body = body
        self.batches.clear()
        self._batch_bytes = 0
        return True


class _CircuitBreaker:
    """Per-worker closed -> open -> half-open -> closed state machine.

    Consecutive infrastructure failures (crashes while holding work,
    deadline expiries) open it and the slot stops receiving routed
    traffic; after ``reset_seconds`` a single half-open probe is admitted,
    and its outcome closes or re-opens the breaker.  Application errors (a
    bad query) count as *successes*: the worker answered.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("threshold", "reset_seconds", "state", "failures", "opened_at")

    def __init__(self, threshold: int, reset_seconds: float):
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0

    def allow_probe(self, now: float) -> bool:
        """True exactly once per reset window: admit a half-open probe."""
        if self.state == self.OPEN and now - self.opened_at >= self.reset_seconds:
            self.state = self.HALF_OPEN
            return True
        return False

    def record_success(self) -> bool:
        """True when this success closed the breaker."""
        self.failures = 0
        if self.state == self.CLOSED:
            return False
        self.state = self.CLOSED
        return True

    def record_failure(self, now: float) -> bool:
        """True when this failure opened (or re-opened) the breaker."""
        self.failures += 1
        if self.state == self.HALF_OPEN or (
                self.state == self.CLOSED and self.failures >= self.threshold):
            self.state = self.OPEN
            self.opened_at = now
            return True
        return False


class _Slot:
    __slots__ = ("healthy", "draining", "lost", "restart_count",
                 "next_restart_at", "breaker")

    def __init__(self, breaker: _CircuitBreaker):
        self.healthy = True
        self.draining = False
        self.lost = False
        self.restart_count = 0
        self.next_restart_at = 0.0
        #: survives restarts on purpose: a flapping worker stays isolated
        #: between crashes instead of re-entering rotation at full weight;
        #: the new process must prove itself through the half-open probe.
        self.breaker = breaker


class Router:
    """Which worker gets the next frame.  ``worker_id`` is the slot index."""

    def __init__(self, policy: RecoveryPolicy):
        self._policy = policy
        self._slots: List[_Slot] = []
        self._cursor = 0
        self.counters: Dict[str, int] = {
            "breaker_opened": 0, "breaker_closed": 0, "breaker_probes": 0,
            "workers_lost": 0,
        }

    def add_worker(self) -> int:
        self._slots.append(_Slot(_CircuitBreaker(
            self._policy.breaker_failure_threshold,
            self._policy.breaker_reset_seconds,
        )))
        return len(self._slots) - 1

    # -- picking ---------------------------------------------------------------

    def healthy(self) -> List[int]:
        """Live workers, draining or not: the targets of a broadcast."""
        return [w for w, s in enumerate(self._slots) if s.healthy]

    def _dispatchable(self) -> List[int]:
        candidates = [w for w, s in enumerate(self._slots)
                      if s.healthy and not s.draining]
        if not candidates:
            raise WorkerFailedError("no healthy workers in the pool")
        return candidates

    def _closed(self, candidates: List[int]) -> List[int]:
        return [w for w in candidates
                if self._slots[w].breaker.state == _CircuitBreaker.CLOSED]

    def _round_robin(self, pool: List[int]) -> int:
        self._cursor += 1
        return pool[self._cursor % len(pool)]

    def pick_read(self, now: float) -> int:
        """A worker for routed traffic: a due half-open probe first, then
        round-robin over closed breakers; if every breaker is open, fall
        back to all dispatchable workers rather than failing the request."""
        candidates = self._dispatchable()
        for worker_id in candidates:
            if self._slots[worker_id].breaker.allow_probe(now):
                self.counters["breaker_probes"] += 1
                return worker_id
        return self._round_robin(self._closed(candidates) or candidates)

    def route(self, journal: Optional[Journal], now: float) -> int:
        """The worker for one routed frame: a mutable dataset's home, or
        :meth:`pick_read` among the replicas of anything else."""
        if journal is None or not journal.mutable:
            return self.pick_read(now)
        if journal.home is None or not self._slots[journal.home].healthy:
            raise WorkerFailedError(
                f"dataset {journal.name!r} lost its home worker and is not "
                "yet re-homed; retry shortly"
            )
        return journal.home

    def pick_home(self, journals: Iterable[Journal]) -> int:
        """The dispatchable worker homing the fewest of the mutable
        datasets in ``journals``."""
        homed: Dict[int, int] = {}
        for journal in journals:
            if journal.mutable and journal.home is not None:
                homed[journal.home] = homed.get(journal.home, 0) + 1
        return min(self._dispatchable(), key=lambda w: (homed.get(w, 0), w))

    def pick_hedge(self, exclude: int) -> Optional[int]:
        """A *different* dispatchable worker with a closed breaker to race
        a hedged read on, or None: a hedge is optional, so it never falls
        back to a suspect worker."""
        pool = self._closed([w for w, s in enumerate(self._slots)
                             if s.healthy and not s.draining and w != exclude])
        return self._round_robin(pool) if pool else None

    # -- outcomes --------------------------------------------------------------

    def success(self, worker_id: int) -> None:
        """Any answer -- including an application error -- means the
        worker is alive and serving."""
        if self._slots[worker_id].breaker.record_success():
            self.counters["breaker_closed"] += 1

    def failure(self, worker_id: int, now: float) -> None:
        if self._slots[worker_id].breaker.record_failure(now):
            self.counters["breaker_opened"] += 1

    def breaker_states(self) -> Dict[str, str]:
        return {str(w): s.breaker.state for w, s in enumerate(self._slots)}

    # -- drain -----------------------------------------------------------------

    def set_draining(self, worker_id: int, draining: bool) -> None:
        self._slots[worker_id].draining = draining

    # -- crash and restart schedule --------------------------------------------

    def _schedule_restart(self, slot: _Slot, now: float) -> None:
        """Exponential backoff, bounded by ``worker_restart_attempts``: a
        slot that used them up is declared lost and never restarted."""
        if slot.restart_count >= self._policy.worker_restart_attempts:
            slot.lost = True
            self.counters["workers_lost"] += 1
            return
        slot.next_restart_at = now + (
            self._policy.worker_restart_backoff_seconds * 2 ** slot.restart_count
        )

    def crashed(self, worker_id: int, now: float) -> None:
        slot = self._slots[worker_id]
        slot.healthy = False
        self.failure(worker_id, now)
        self._schedule_restart(slot, now)

    def restarted(self, worker_id: int, now: float, *, ok: bool) -> None:
        """A restart attempt ended: the slot is back, or the replacement
        process could not even be spawned and the next try is scheduled."""
        slot = self._slots[worker_id]
        slot.restart_count += 1
        if ok:
            slot.healthy = True
        else:
            self._schedule_restart(slot, now)

    def restartable(self, now: float) -> List[int]:
        return [w for w, s in enumerate(self._slots)
                if not s.healthy and not s.lost and now >= s.next_restart_at]
