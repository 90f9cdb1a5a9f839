"""Stateful property test of the serving front's request table.

Hypothesis drives ``RequestTable`` the way the supervisor does -- submit,
worker answers, monitor ticks (expiry, hedging, retry dispatch), worker
crashes and restarts, close -- in arbitrary interleavings on a virtual
clock, while a tiny model of "which frames sit on which worker" plays the
worker pool.  The harness delivers ``on_done`` exactly where the table
says to, so the invariants are the client-visible ones: every request is
answered at most once at any instant and exactly once by the end, never
by both hedge siblings; nothing in the table names a dead worker; retries
stay within budget and writes are never retried.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.errors import OverloadedError
from repro.service.frontend.tickets import READ_OPS, RequestTable

WORKERS = 3
CAPACITY = 6
BUDGET = 2
HEDGE_DELAY = 0.05


class RequestTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = RequestTable(capacity=CAPACITY, retry_budget=BUDGET,
                                  retry_backoff=0.01, hedge_delay=HEDGE_DELAY)
        self.now = 0.0
        self.alive = set(range(WORKERS))
        #: rid -> worker: the frames real workers would be holding.
        self.frames = {}
        self.tickets = []
        self.delivered = {}
        self.closed = False

    # -- the glue, in miniature ----------------------------------------------------

    def deliver(self, ticket):
        ticket.on_done()

    def put(self, ticket, worker, *, is_hedge=False):
        attempt = self.table.send(ticket, worker, self.now, is_hedge=is_hedge)
        self.frames[attempt.rid] = worker

    def fail(self, ticket):
        if self.table.settle(ticket):
            self.deliver(ticket)

    # -- rules ---------------------------------------------------------------------

    @precondition(lambda self: not self.closed)
    @rule(op=st.sampled_from(["query", "query_batch", "ping", "apply_changes",
                              "attach", "stats"]),
          worker=st.integers(0, WORKERS - 1),
          budget=st.one_of(st.none(), st.floats(0.001, 0.3)),
          replicated=st.booleans())
    def submit(self, op, worker, budget, replicated):
        header = {"op": op, "rid": 0, "dataset": "d"}
        if budget is not None:
            header["deadline_mono"] = self.now + budget
        index = len(self.tickets)
        self.delivered[index] = 0

        def on_done(*_response):
            self.delivered[index] += 1

        ticket = self.table.open(header, b"", on_done, self.now,
                                 replicated=replicated)
        if worker not in self.alive:
            del self.delivered[index]        # refused synchronously: no ticket
            return
        try:
            self.put(ticket, worker)
        except OverloadedError:
            del self.delivered[index]
            assert self.table.load(worker) == CAPACITY
            return
        self.tickets.append(ticket)

    @precondition(lambda self: not self.closed and self.frames)
    @rule(data=st.data())
    def respond(self, data):
        rid = data.draw(st.sampled_from(sorted(self.frames)))
        del self.frames[rid]
        attempt = self.table.respond(rid)
        if attempt is not None:
            self.deliver(attempt.ticket)

    @rule(dt=st.floats(0.0, 0.2), data=st.data())
    def tick(self, dt, data):
        # Legal after close too: a closed table has nothing left to time out.
        self.now += dt
        for ticket, slow_workers in self.table.expire(self.now):
            assert ticket.deadline_at <= self.now
            assert set(slow_workers) <= self.alive
            self.deliver(ticket)
        for attempt in self.table.hedge_due(self.now):
            assert not attempt.is_hedge and attempt.ticket.op in READ_OPS
            assert self.now - attempt.sent_at >= HEDGE_DELAY
            others = sorted(self.alive - {attempt.worker_id})
            if others:
                try:
                    self.put(attempt.ticket, data.draw(st.sampled_from(others)),
                             is_hedge=True)
                except OverloadedError:
                    pass
        for ticket in self.table.retries_due(self.now):
            assert not ticket.settled and ticket.workers == []
            try:
                if not self.alive:
                    raise OverloadedError("nowhere to go")
                self.put(ticket, data.draw(st.sampled_from(sorted(self.alive))))
            except OverloadedError:
                self.fail(ticket)

    @precondition(lambda self: not self.closed and self.alive)
    @rule(data=st.data(), jitter=st.floats(0.0, 0.999))
    def crash(self, data, jitter):
        worker = data.draw(st.sampled_from(sorted(self.alive)))
        self.alive.discard(worker)
        self.frames = {r: w for r, w in self.frames.items() if w != worker}
        for ticket in self.table.crash(worker):
            assert not ticket.settled
            if not self.table.retry_later(ticket, self.now, jitter):
                self.deliver(ticket)
        assert self.table.load(worker) == 0

    @precondition(lambda self: not self.closed and len(self.alive) < WORKERS)
    @rule(data=st.data())
    def restart(self, data):
        dead = sorted(set(range(WORKERS)) - self.alive)
        self.alive.add(data.draw(st.sampled_from(dead)))

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        self.closed = True
        for ticket in self.table.close():
            self.deliver(ticket)
        self.frames.clear()

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def answered_at_most_once_and_only_when_settled(self):
        for index, ticket in enumerate(self.tickets):
            assert self.delivered[index] == (1 if ticket.settled else 0)

    @invariant()
    def table_and_pool_agree_on_who_holds_what(self):
        for worker in range(WORKERS):
            held = sum(1 for w in self.frames.values() if w == worker)
            assert self.table.load(worker) == held
            assert worker in self.alive or held == 0
        for ticket in self.tickets:
            assert set(ticket.workers) <= self.alive
            assert len(ticket.workers) <= 2     # a primary and one hedge

    @invariant()
    def retries_are_budgeted_and_writes_never_retried(self):
        for ticket in self.tickets:
            assert ticket.retries <= BUDGET
            if ticket.op not in READ_OPS:
                assert ticket.retries == 0

    @invariant()
    def nothing_unsettled_is_ever_lost(self):
        # An unanswered request is in flight somewhere or waiting to retry.
        deferred = {id(t) for _, t in self.table._deferred}
        for ticket in self.tickets:
            if not ticket.settled:
                assert ticket.workers or id(ticket) in deferred

    def teardown(self):
        if not self.closed:
            self.close()
        assert all(count == 1 for count in self.delivered.values())
        assert len(self.delivered) == len(self.tickets)


RequestTableMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
)
TestRequestTable = RequestTableMachine.TestCase
