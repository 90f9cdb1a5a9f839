"""The request table: the one place a request is settled.

A :class:`Ticket` is one client-visible request; an :class:`Attempt` is
one copy of its frame outstanding on one worker.  A hedged read is one
ticket with two attempts, a crash-orphaned read is one ticket whose next
attempt is deferred -- so "answer the caller exactly once" is a single
flag on the ticket, flipped by :meth:`RequestTable.settle` and nowhere
else, whichever of response, deadline expiry, crash or close gets there
first.  Pure bookkeeping: no clock (callers pass ``now``), no queue, no
callback; the supervisor drives it from its event loop and nowhere else.

*Deadlines.*  Clients attach a relative ``deadline_ms`` budget to a
frame; the gateway forwards the remaining budget and the supervisor
stamps the absolute ``deadline_mono`` instant (CLOCK_MONOTONIC is
system-wide on Linux, so worker processes share it).  In-flight or
deferred work that outlives its budget is swept by :meth:`expire` and
answered with a typed :class:`~repro.core.errors.DeadlineExceededError`
-- never a silent stall.

*Hedged reads.*  Reads on immutable datasets are served identically by
every worker (the paper's determinism guarantee: answers depend only on
the dataset and the Pi-structures, which are content-addressed), so a
read still unanswered after ``hedge_delay`` is offered once by
:meth:`hedge_due` for a duplicate on a second worker; the first answer
settles the ticket.  The loser's response is dropped, its worker neither
credited nor blamed.

*Budgeted retries.*  Reads orphaned by a crash are retried up to
``retry_budget`` times with jittered exponential backoff
(``retry_backoff`` base), deferred so a crashed pool is not hammered in
lockstep.  Writes still fail loudly: they may or may not have applied,
and answers are never silently wrong.

*Capacity.*  An attempt stays in the table until its worker answers it
or dies -- even after its ticket is settled -- so :meth:`load` is exactly
the number of frames a worker still owes, and admission is a pure
comparison made before anything is written to a worker's channel.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.errors import DeadlineExceededError, OverloadedError

__all__ = ["Attempt", "OnDone", "READ_OPS", "RequestTable", "Ticket",
           "stamp_deadline"]

#: Ops safe to retry on another worker after a crash: pure reads.
READ_OPS = frozenset({"query", "query_batch", "ping"})

#: Reads whose answers are position-independent on immutable datasets --
#: the only ops eligible for hedging.
_HEDGE_OPS = frozenset({"query", "query_batch"})

OnDone = Callable[[Dict[str, Any], bytes], None]


def stamp_deadline(header: Dict[str, Any], now: float) -> None:
    """Turn a relative ``deadline_ms`` budget in ``header`` into the
    absolute ``deadline_mono`` instant workers compare against; work that
    arrives already expired is refused here, before it costs anything."""
    budget_ms = header.get("deadline_ms")
    if not isinstance(budget_ms, (int, float)):
        return
    if budget_ms <= 0:
        raise DeadlineExceededError(
            f"request {header.get('op')!r} arrived with an exhausted budget "
            f"({budget_ms} ms remaining)",
            op=header.get("op"), dataset=header.get("dataset"),
            elapsed_ms=0.0, budget_ms=float(budget_ms),
        )
    header["deadline_mono"] = now + budget_ms / 1000.0


class Ticket:
    """One client-visible request: answered exactly once."""

    __slots__ = ("header", "body", "on_done", "op", "dataset",
                 "internal", "retryable", "hedgeable", "deadline_at",
                 "opened_at", "retries", "settled", "workers")

    def __init__(self, header, body, on_done, now, *, internal, hedgeable):
        self.header = header
        self.body = body
        self.on_done = on_done
        self.op = header.get("op")
        self.dataset = header.get("dataset")
        #: supervisor-originated (replay, snapshot, cleanup): never
        #: journaled, never counted as a client's unacknowledged write.
        self.internal = internal
        self.retryable = self.op in READ_OPS
        self.hedgeable = hedgeable
        self.deadline_at: Optional[float] = header.get("deadline_mono")
        self.opened_at = now
        self.retries = 0
        self.settled = False
        #: workers holding a live attempt: two while a hedge races.
        self.workers: List[int] = []


class Attempt(NamedTuple):
    """One copy of a ticket's frame outstanding on one worker."""

    ticket: Ticket
    worker_id: int
    rid: int
    sent_at: float
    is_hedge: bool


class RequestTable:
    """Every request in flight or awaiting a retry, keyed by frame id."""

    def __init__(self, *, capacity: int, retry_budget: int,
                 retry_backoff: float, hedge_delay: Optional[float]):
        self._capacity = capacity
        self._retry_budget = retry_budget
        self._retry_backoff = retry_backoff
        self._hedge_delay = hedge_delay
        self._attempts: Dict[int, Attempt] = {}
        self._deferred: List[Tuple[float, Ticket]] = []
        self._load: Dict[int, int] = {}
        self._next_rid = 1

    # -- admission -------------------------------------------------------------

    def load(self, worker_id: int) -> int:
        """Frames sent to ``worker_id`` it has neither answered nor died
        holding -- an upper bound on what its channel buffers."""
        return self._load.get(worker_id, 0)

    def check_room(self, worker_id: int, frames: int = 1) -> None:
        if self.load(worker_id) + frames > self._capacity:
            raise OverloadedError(
                f"worker {worker_id} queue is full "
                f"({self._capacity} requests deep)"
            )

    def open(self, header: Dict[str, Any], body: bytes, on_done: OnDone,
             now: float, *, replicated: bool = False,
             internal: bool = False) -> Ticket:
        """A new ticket.  ``replicated`` says every worker serves the
        dataset identically, which is what makes a read hedgeable."""
        hedgeable = (replicated and self._hedge_delay is not None
                     and header.get("op") in _HEDGE_OPS)
        return Ticket(header, body, on_done, now,
                      internal=internal, hedgeable=hedgeable)

    def send(self, ticket: Ticket, worker_id: int, now: float, *,
             is_hedge: bool = False) -> Attempt:
        """Register one attempt; the caller then writes the frame under
        ``attempt.rid`` to the worker's channel (or calls :meth:`forget`)."""
        self.check_room(worker_id)
        attempt = Attempt(ticket, worker_id, self._next_rid, now, is_hedge)
        self._next_rid += 1
        self._attempts[attempt.rid] = attempt
        self._load[worker_id] = self.load(worker_id) + 1
        ticket.workers.append(worker_id)
        return attempt

    def forget(self, attempt: Attempt) -> None:
        """The worker no longer owes this frame: it answered, it died, or
        the frame was never written to its channel."""
        del self._attempts[attempt.rid]
        self._load[attempt.worker_id] -= 1
        attempt.ticket.workers.remove(attempt.worker_id)

    # -- settling --------------------------------------------------------------

    def settle(self, ticket: Ticket) -> bool:
        """The settle-once rule.  True for exactly one caller per ticket,
        who must then deliver the outcome through ``ticket.on_done``;
        everyone after -- the hedge sibling's answer, a late response to
        an expired request, close racing a crash -- gets False and drops
        what it holds."""
        if ticket.settled:
            return False
        ticket.settled = True
        return True

    def respond(self, rid: int) -> Optional[Attempt]:
        """A worker answered frame ``rid``.  Returns the attempt when this
        answer settles its ticket (deliver it), None when it is stale."""
        attempt = self._attempts.get(rid)
        if attempt is None:
            return None
        self.forget(attempt)
        return attempt if self.settle(attempt.ticket) else None

    def expire(self, now: float) -> List[Tuple[Ticket, List[int]]]:
        """Settle every ticket whose budget ran out, in flight or deferred.
        Each comes with the workers still holding it -- they were too
        slow, which is the caller's breaker signal."""
        tickets = chain((a.ticket for a in self._attempts.values()),
                        (t for _, t in self._deferred))
        return [(t, list(t.workers)) for t in tickets
                if t.deadline_at is not None and now >= t.deadline_at
                and self.settle(t)]

    def deadline_error(self, ticket: Ticket, now: float) -> DeadlineExceededError:
        budget_ms = ticket.header.get("deadline_ms")
        return DeadlineExceededError(
            f"no response to {ticket.op!r} for dataset {ticket.dataset!r} "
            f"within its {budget_ms} ms budget",
            op=ticket.op, dataset=ticket.dataset,
            elapsed_ms=(now - ticket.opened_at) * 1000.0,
            budget_ms=budget_ms if isinstance(budget_ms, (int, float)) else None,
        )

    def hedge_due(self, now: float) -> List[Attempt]:
        """Unanswered hedgeable reads older than the hedge delay.  Each
        ticket is offered once: if the caller finds no second worker, the
        read simply keeps waiting on its first."""
        due = []
        for attempt in self._attempts.values():
            ticket = attempt.ticket
            if (ticket.hedgeable and not ticket.settled
                    and now - attempt.sent_at >= self._hedge_delay):
                ticket.hedgeable = False
                due.append(attempt)
        return due

    # -- crashes and retries ---------------------------------------------------

    def crash(self, worker_id: int) -> List[Ticket]:
        """``worker_id`` died: forget every frame it held.  Returns the
        orphans -- unsettled tickets with no attempt left anywhere (a
        hedged read whose sibling still races is covered by it) -- each of
        which the caller passes to :meth:`retry_later`."""
        orphans = []
        dead = [a for a in self._attempts.values() if a.worker_id == worker_id]
        for attempt in dead:
            self.forget(attempt)
            if not attempt.ticket.settled and not attempt.ticket.workers:
                orphans.append(attempt.ticket)
        return orphans

    def retry_later(self, ticket: Ticket, now: float, jitter: float) -> bool:
        """Defer an orphaned read for re-dispatch after a backoff of
        ``retry_backoff * 2**(retries-1) * (0.5 + jitter)``; ``jitter`` is
        a number in [0, 1) drawn by the caller.  False when the ticket may
        not be retried (a write, or the budget is spent): it is settled
        here and the caller must fail it loudly."""
        if not ticket.retryable or ticket.retries >= self._retry_budget:
            self.settle(ticket)
            return False
        ticket.retries += 1
        backoff = self._retry_backoff * 2 ** (ticket.retries - 1) * (0.5 + jitter)
        self._deferred.append((now + backoff, ticket))
        return True

    def retries_due(self, now: float) -> List[Ticket]:
        """Pop the deferred reads whose backoff elapsed (call after
        :meth:`expire`, which settles the ones that ran out of budget)."""
        due = [t for at, t in self._deferred if at <= now and not t.settled]
        self._deferred = [(at, t) for at, t in self._deferred
                          if at > now and not t.settled]
        return due

    # -- drain and close -------------------------------------------------------

    def unacked_writes(self, worker_id: int) -> Set[Optional[str]]:
        """Datasets with a client write ``worker_id`` has not answered --
        including ones whose caller already gave up: the write may still
        apply there."""
        return {a.ticket.dataset for a in self._attempts.values()
                if a.worker_id == worker_id and not a.ticket.internal
                and not a.ticket.retryable}

    def close(self) -> List[Ticket]:
        """Settle and return everything still unanswered; empty the table."""
        tickets = [a.ticket for a in self._attempts.values()]
        tickets.extend(t for _, t in self._deferred)
        self._attempts.clear()
        self._deferred = []
        self._load.clear()
        return [t for t in tickets if self.settle(t)]
