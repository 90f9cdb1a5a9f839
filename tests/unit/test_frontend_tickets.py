"""The request table with an explicit clock: settle-once, hedges, retries.

Deterministic companions to the state machine in
``tests/property/test_prop_frontend_tickets.py``: each test pins one rule
of ``tickets.py`` with hand-picked instants.
"""

import pytest

from repro.core.errors import DeadlineExceededError, OverloadedError
from repro.service.frontend.tickets import RequestTable, stamp_deadline

BUDGET = 2
BACKOFF = 0.01


def make_table(capacity=8, hedge_delay=0.05):
    return RequestTable(capacity=capacity, retry_budget=BUDGET,
                        retry_backoff=BACKOFF, hedge_delay=hedge_delay)


def open_ticket(table, op="query", now=0.0, deadline_mono=None, **flags):
    header = {"op": op, "rid": 1, "dataset": "d"}
    if deadline_mono is not None:
        header.update(deadline_ms=50, deadline_mono=deadline_mono)
    return table.open(header, b"", lambda *response: None, now, **flags)


# -- settle once -----------------------------------------------------------------


def test_first_outcome_settles_and_every_later_one_is_dropped():
    table = make_table()
    ticket = open_ticket(table, deadline_mono=1.0)
    attempt = table.send(ticket, 0, 0.0)
    assert table.expire(0.99) == []
    assert table.expire(1.0) == [(ticket, [0])]     # worker 0 was too slow
    assert table.expire(2.0) == []                  # not twice
    assert table.load(0) == 1                       # the frame is still owed
    assert table.respond(attempt.rid) is None       # the late answer: dropped
    assert table.load(0) == 0
    assert table.respond(attempt.rid) is None       # unknown by now
    assert table.close() == []


def test_hedge_is_offered_once_and_the_first_answer_wins():
    table = make_table(hedge_delay=0.05)
    ticket = open_ticket(table, replicated=True)
    primary = table.send(ticket, 0, 0.0)
    assert table.hedge_due(0.049) == []
    assert table.hedge_due(0.05) == [primary]
    assert table.hedge_due(9.0) == []               # offered once, ever
    hedge = table.send(ticket, 1, 0.05, is_hedge=True)
    assert ticket.workers == [0, 1]
    won = table.respond(hedge.rid)
    assert won is hedge and won.is_hedge
    assert table.respond(primary.rid) is None       # the loser, neither
    assert (table.load(0), table.load(1)) == (0, 0)  # credited nor blamed


@pytest.mark.parametrize("flags, op", [
    ({"replicated": False}, "query"),               # mutable: one home
    ({"replicated": True}, "apply_changes"),        # not a read
    ({"replicated": True, "internal": True}, "attach"),
])
def test_only_replicated_reads_are_hedgeable(flags, op):
    table = make_table()
    table.send(open_ticket(table, op=op, **flags), 0, 0.0)
    assert table.hedge_due(10.0) == []


def test_hedging_disabled_without_a_delay():
    table = make_table(hedge_delay=None)
    table.send(open_ticket(table, replicated=True), 0, 0.0)
    assert table.hedge_due(10.0) == []


def test_expiry_of_a_hedged_read_blames_both_holders():
    table = make_table()
    ticket = open_ticket(table, replicated=True, deadline_mono=0.2)
    table.send(ticket, 0, 0.0)
    table.hedge_due(0.1)
    table.send(ticket, 2, 0.1, is_hedge=True)
    assert table.expire(0.2) == [(ticket, [0, 2])]
    error = table.deadline_error(ticket, 0.2)
    assert isinstance(error, DeadlineExceededError)
    assert error.budget_ms == 50 and error.elapsed_ms == pytest.approx(200.0)


# -- crashes and retries ---------------------------------------------------------


def test_orphaned_read_is_retried_until_the_budget_is_spent():
    table = make_table()
    ticket = open_ticket(table)
    now = 100.0
    for retry in range(1, BUDGET + 1):
        table.send(ticket, 0, now)
        assert table.crash(0) == [ticket]
        assert table.load(0) == 0 and ticket.workers == []
        assert table.retry_later(ticket, now, 0.5)
        assert ticket.retries == retry
        now += 1.0
        assert table.retries_due(now) == [ticket]
        assert table.retries_due(now) == []         # popped
    table.send(ticket, 0, now)
    assert table.crash(0) == [ticket]
    assert not table.retry_later(ticket, now, 0.5)  # budget spent: fail it
    assert ticket.settled and ticket.retries == BUDGET
    assert table.close() == []


@pytest.mark.parametrize("retry", [1, 2])
@pytest.mark.parametrize("jitter, factor", [(0.0, 0.5), (0.999, 1.499)])
def test_retry_backoff_doubles_and_stays_within_its_jitter_bounds(
        retry, jitter, factor):
    table = make_table()
    ticket = open_ticket(table)
    ticket.retries = retry - 1
    assert table.retry_later(ticket, 100.0, jitter)
    due = 100.0 + BACKOFF * 2 ** (retry - 1) * factor
    assert table.retries_due(due - 1e-9) == []
    assert table.retries_due(due + 1e-9) == [ticket]


@pytest.mark.parametrize("op", ["apply_changes", "attach", "detach", "stats"])
def test_writes_are_never_retried(op):
    table = make_table()
    ticket = open_ticket(table, op=op)
    table.send(ticket, 0, 0.0)
    assert table.crash(0) == [ticket]
    assert not table.retry_later(ticket, 0.0, 0.5)
    assert ticket.settled and ticket.retries == 0
    assert table.retries_due(1e9) == []


def test_crash_spares_a_hedged_read_whose_sibling_still_races():
    table = make_table()
    ticket = open_ticket(table, replicated=True)
    table.send(ticket, 0, 0.0)
    table.hedge_due(1.0)
    hedge = table.send(ticket, 1, 1.0, is_hedge=True)
    assert table.crash(0) == []                     # worker 1 covers it
    assert ticket.workers == [1] and not ticket.settled
    assert table.respond(hedge.rid) is hedge


def test_crash_forgets_settled_frames_too_and_reports_no_orphan_for_them():
    table = make_table()
    ticket = open_ticket(table, deadline_mono=1.0)
    table.send(ticket, 0, 0.0)
    table.expire(1.0)
    assert table.load(0) == 1
    assert table.crash(0) == []
    assert table.load(0) == 0


def test_a_deferred_retry_that_runs_out_of_budget_is_expired_not_resent():
    table = make_table()
    ticket = open_ticket(table, deadline_mono=0.005)
    table.send(ticket, 0, 0.0)
    table.crash(0)
    assert table.retry_later(ticket, 0.0, 0.999)    # due at ~0.015
    assert table.expire(0.005) == [(ticket, [])]
    assert table.retries_due(1.0) == []


# -- capacity --------------------------------------------------------------------


def test_capacity_counts_every_frame_a_worker_still_owes():
    table = make_table(capacity=2)
    first = table.send(open_ticket(table, deadline_mono=1.0), 0, 0.0)
    table.send(open_ticket(table), 0, 0.0)
    table.expire(1.0)                               # settled, still queued there
    with pytest.raises(OverloadedError, match="worker 0 queue is full"):
        table.check_room(0)
    with pytest.raises(OverloadedError):
        table.send(open_ticket(table), 0, 1.0)
    assert table.load(0) == 2                       # the refused send left no trace
    table.check_room(1)
    table.forget(first)                             # e.g. the put itself failed
    table.check_room(0)


def test_unacked_writes_include_ones_whose_caller_gave_up():
    table = make_table()
    table.send(open_ticket(table, op="query"), 0, 0.0)
    table.send(open_ticket(table, op="apply_changes", internal=True), 0, 0.0)
    assert table.unacked_writes(0) == set()
    write = open_ticket(table, op="apply_changes", deadline_mono=1.0)
    table.send(write, 0, 0.0)
    assert table.unacked_writes(0) == {"d"}
    table.expire(1.0)
    assert table.unacked_writes(0) == {"d"}         # it may still apply there
    assert table.unacked_writes(1) == set()


def test_close_settles_in_flight_and_deferred_work_exactly_once():
    table = make_table()
    flying = open_ticket(table)
    table.send(flying, 0, 0.0)
    waiting = open_ticket(table)
    table.send(waiting, 1, 0.0)
    table.crash(1)
    table.retry_later(waiting, 0.0, 0.5)
    done = open_ticket(table, deadline_mono=0.5)
    table.send(done, 0, 0.0)
    table.expire(0.5)
    assert table.close() == [flying, waiting]
    assert table.close() == []
    assert table.load(0) == 0


# -- deadline admission ----------------------------------------------------------


def test_stamp_deadline_converts_a_budget_and_refuses_a_spent_one():
    header = {"op": "query", "dataset": "d", "deadline_ms": 250}
    stamp_deadline(header, 10.0)
    assert header["deadline_mono"] == pytest.approx(10.25)
    untouched = {"op": "query"}
    stamp_deadline(untouched, 10.0)
    assert untouched == {"op": "query"}
    with pytest.raises(DeadlineExceededError) as caught:
        stamp_deadline({"op": "query", "dataset": "d", "deadline_ms": 0}, 10.0)
    assert caught.value.budget_ms == 0.0 and caught.value.dataset == "d"
