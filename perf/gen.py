"""Datasets, seeded key distributions and op streams, and the oracle.

The datasets are the benchmark's fixed corpus (``DATA_SEED``): what set-up
builds and how many bytes it stores are then the same on every run, so the
stored size is a count that repeats exactly.  Everything a workload
*sends* is generated from ``--seed`` before the timed window opens,
together with the answer it must get back.  The
oracle is the benchmark's own (value sets and ``numpy.argmin`` over the
generated content; every query is built to a known answer), so it cannot drift with ``src/``;
``run.py`` cross-checks a sample of it against
``QueryClass.pair_in_language`` on every run.

An op is ``(session, method, args, expected)``: ``session`` names the
attached dataset, ``method`` is ``query`` / ``query_batch`` /
``apply_changes``.  Streams are replayed cyclically, so a stream with
writes is built to leave the content exactly as it found it.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.incremental.changes import ChangeKind, PointWrite, TupleChange

__all__ = [
    "MEMBERSHIP",
    "RMQ",
    "POINT",
    "RANGE",
    "DATA_SEED",
    "rng_for",
    "make_ints",
    "make_relation",
    "Zipf",
    "IntsOracle",
    "RelationOracle",
    "point_stream",
    "batch_stream",
    "sharded_stream",
    "mixed_streams",
]

MEMBERSHIP = "list-membership"
RMQ = "minimum-range-query"
POINT = "point-selection"
RANGE = "range-selection"

Op = Tuple[str, str, tuple, Any]

#: Longest RMQ window of the point and batch streams (Fischer--Heun answers
#: in O(1) whatever the length; the cap keeps generation cheap).
RMQ_MAX_WINDOW = 256
#: Seed of the datasets themselves; ``--seed`` draws the traffic.
DATA_SEED = 2013
ZIPF_SKEW = 1.1
HIT_FRACTION = 0.5
#: Changes per ``apply_changes`` batch in the mixed workloads.
WRITE_BATCH = 4
WRITE_SHARE = 0.10


def rng_for(seed: int, *parts: Any) -> random.Random:
    """An independent, process-stable generator per (seed, purpose)."""
    return random.Random("/".join(str(part) for part in (seed,) + parts))


def make_ints(n: int, tag: str = "ints") -> Tuple[int, ...]:
    rng = rng_for(DATA_SEED, "data", tag)
    return tuple(rng.randrange(4 * n) for _ in range(n))


def make_relation(n: int, query_class: Any) -> Any:
    """The repo's own Relation generator (``QueryClass.sample_workload``)."""
    data, _queries = query_class.sample_workload(n, DATA_SEED, 0)
    return data


class Zipf:
    """Zipf(skew) over ``universe`` keys, ranks scattered by a permutation."""

    def __init__(self, universe: int, skew: float, rng: random.Random):
        self._keys = list(range(universe))
        rng.shuffle(self._keys)
        self._cum = list(
            itertools.accumulate(1.0 / (rank**skew) for rank in range(1, universe + 1))
        )

    def draw(self, rng: random.Random, count: int) -> List[int]:
        return rng.choices(self._keys, cum_weights=self._cum, k=count)


def _absent_above(present: set, value: int) -> int:
    """The smallest value above ``value`` that is not in ``present``."""
    value += 1
    while value in present:
        value += 1
    return value


class IntsOracle:
    """Reference answers over one int sequence (membership and RMQ)."""

    def __init__(self, data: Sequence[int]):
        self.n = len(data)
        self.present = set(data)
        self.array = np.asarray(data, dtype=np.int64)

    def argmin(self, i: int, j: int) -> int:
        # numpy.argmin returns the first minimum: the leftmost-argmin rule.
        return i + int(np.argmin(self.array[i : j + 1]))

    def membership_op(self, position: int, hit: bool) -> Tuple[int, bool]:
        value = int(self.array[position])
        return (value, True) if hit else (_absent_above(self.present, value), False)

    def rmq_op(
        self, i: int, j: int, hit: bool, rng: random.Random
    ) -> Tuple[Tuple[int, int, int], bool]:
        """``(i, j, p)`` over a window of at least two positions."""
        leftmost = self.argmin(i, j)
        if hit:
            return (i, j, leftmost), True
        other = i + rng.randrange(j - i)
        if other >= leftmost:
            other += 1
        return (i, j, other), False


class RelationOracle:
    """Reference answers over a relation: one value set per attribute."""

    def __init__(self, relation: Any):
        self.attributes = list(relation.schema.attribute_names())
        self.rows = relation.rows()
        self.values: Dict[str, set] = {}
        self.position: Dict[str, int] = {}
        for attribute in self.attributes:
            position = relation.schema.position_of(attribute)
            self.position[attribute] = position
            self.values[attribute] = {row[position] for row in self.rows}

    def point_op(self, row: int, hit: bool, rng: random.Random):
        attribute = self.attributes[rng.randrange(len(self.attributes))]
        anchor = self.rows[row][self.position[attribute]]
        if hit:
            return (attribute, anchor), True
        return (attribute, _absent_above(self.values[attribute], anchor)), False

    def range_op(self, row: int, hit: bool, rng: random.Random):
        attribute = self.attributes[rng.randrange(len(self.attributes))]
        anchor = self.rows[row][self.position[attribute]]
        if hit:
            width = rng.randrange(4)
            return (attribute, anchor - width, anchor + width), True
        column = self.values[attribute]
        low = high = _absent_above(column, anchor)
        while high - low < 3 and high + 1 not in column:
            high += 1
        return (attribute, low, high), False


def _rmq_window(position: int, n: int, rng: random.Random, max_window: int):
    i = min(position, n - 2)
    j = min(n - 1, i + 1 + rng.randrange(max_window - 1))
    return i, j


def _read_op(
    kind: str,
    key: int,
    hit: bool,
    rng: random.Random,
    ints: IntsOracle,
    relation: "RelationOracle | None",
) -> Tuple[str, Any, bool]:
    """One ``(session, query, expected)`` for ``kind`` anchored on ``key``."""
    if kind == MEMBERSHIP:
        query, expected = ints.membership_op(key, hit)
        return "ints", query, expected
    if kind == RMQ:
        i, j = _rmq_window(key, ints.n, rng, RMQ_MAX_WINDOW)
        query, expected = ints.rmq_op(i, j, hit, rng)
        return "ints", query, expected
    if relation is None:
        raise ValueError(f"kind {kind!r} needs a relation oracle")
    if kind == POINT:
        query, expected = relation.point_op(key, hit, rng)
    elif kind == RANGE:
        query, expected = relation.range_op(key, hit, rng)
    else:
        raise ValueError(f"no generator for kind {kind!r}")
    return "rel", query, expected


def point_stream(
    seed: int,
    tag: str,
    kinds: Sequence[str],
    length: int,
    ints: IntsOracle,
    relation: "RelationOracle | None" = None,
) -> List[Op]:
    """Single queries, Zipf(1.1) keys, equal mix of ``kinds``, half hits."""
    rng = rng_for(seed, "stream", tag)
    keys = Zipf(ints.n, ZIPF_SKEW, rng).draw(rng, length)
    ops: List[Op] = []
    for index, key in enumerate(keys):
        kind = kinds[index % len(kinds)]
        hit = rng.random() < HIT_FRACTION
        session, query, expected = _read_op(kind, key, hit, rng, ints, relation)
        ops.append((session, "query", (kind, query), expected))
    return ops


def batch_stream(
    seed: int,
    tag: str,
    session_kinds: Dict[str, Sequence[str]],
    batches: int,
    batch_size: int,
    ints: IntsOracle,
    relation: "RelationOracle | None" = None,
) -> List[Op]:
    """``query_batch`` frames of uniform-key pairs, sessions alternating."""
    rng = rng_for(seed, "stream", tag)
    sessions = sorted(session_kinds)
    ops: List[Op] = []
    for index in range(batches):
        session = sessions[index % len(sessions)]
        kinds = session_kinds[session]
        pairs, expected = [], []
        for slot in range(batch_size):
            kind = kinds[slot % len(kinds)]
            hit = rng.random() < HIT_FRACTION
            _session, query, answer = _read_op(
                kind, rng.randrange(ints.n), hit, rng, ints, relation
            )
            pairs.append((kind, query))
            expected.append(answer)
        ops.append((session, "query_batch", (pairs,), expected))
    return ops


def sharded_stream(
    seed: int, tag: str, length: int, ints: IntsOracle
) -> List[Op]:
    """Half routed (membership: one shard), half scatter-gather (RMQ windows
    of n/8..n/2 positions, so they straddle the four range blocks)."""
    rng = rng_for(seed, "stream", tag)
    n = ints.n
    keys = Zipf(n, ZIPF_SKEW, rng).draw(rng, length)
    ops: List[Op] = []
    for index, key in enumerate(keys):
        hit = rng.random() < HIT_FRACTION
        if index % 2 == 0:
            query, expected = ints.membership_op(key, hit)
            ops.append(("ints", "query", (MEMBERSHIP, query), expected))
        else:
            span = n // 8 + rng.randrange(n // 2 - n // 8)
            i = min(key, n - 2)
            j = min(n - 1, i + span)
            query, expected = ints.rmq_op(i, j, hit, rng)
            ops.append(("ints", "query", (RMQ, query), expected))
    return ops


def mixed_streams(
    seed: int,
    tag: str,
    reader_length: int,
    writer_length: int,
    members: IntsOracle,
    array: IntsOracle,
) -> Tuple[List[Op], List[Op]]:
    """The two streams of a mixed read/write workload.

    Sessions: ``members`` (list-membership, ``TupleChange`` writes) and
    ``array`` (minimum-range-query, ``PointWrite`` writes).  The *reader*
    touches only the stable band -- the initial member values, and array
    positions below n/2 -- so its expectations hold whatever the writer
    does.  The *writer* inserts and deletes values at or above 8n and
    overwrites positions at or above n/2; it is the only writer, so its
    expectations come from replaying its own stream against a sequential
    model.  Every forward batch has an inverse later in the stream: one
    pass restores the initial content, which makes cyclic replay valid.
    """
    n = members.n
    half = n // 2
    rng = rng_for(seed, "stream", tag, "reader")
    keys = Zipf(half - RMQ_MAX_WINDOW, ZIPF_SKEW, rng).draw(rng, reader_length)
    reader: List[Op] = []
    for index, key in enumerate(keys):
        hit = rng.random() < HIT_FRACTION
        if index % 2 == 0:
            query, expected = members.membership_op(key, hit)
            reader.append(("members", "query", (MEMBERSHIP, query), expected))
        else:
            i, j = _rmq_window(key, half, rng, RMQ_MAX_WINDOW)
            query, expected = array.rmq_op(i, j, hit, rng)
            reader.append(("array", "query", (RMQ, query), expected))

    rng = rng_for(seed, "stream", tag, "writer")
    writes = max(4, int(writer_length * WRITE_SHARE) // 4 * 4)
    forward_each = writes // 4  # per session; as many inverses follow
    volatile_values = rng.sample(range(8 * n, 16 * n), forward_each * WRITE_BATCH)
    volatile_slots = rng.sample(range(half, n), forward_each * WRITE_BATCH)
    forward: List[Tuple[str, list]] = []
    inverse: List[Tuple[str, list]] = []
    for batch in range(forward_each):
        values = volatile_values[batch * WRITE_BATCH : (batch + 1) * WRITE_BATCH]
        forward.append(
            ("members", [TupleChange(ChangeKind.INSERT, (v,)) for v in values])
        )
        inverse.append(
            ("members", [TupleChange(ChangeKind.DELETE, (v,)) for v in values])
        )
        slots = volatile_slots[batch * WRITE_BATCH : (batch + 1) * WRITE_BATCH]
        forward.append(
            ("array", [PointWrite(p, rng.randrange(-n, 4 * n)) for p in slots])
        )
        inverse.append(
            ("array", [PointWrite(p, int(array.array[p])) for p in slots])
        )
    rng.shuffle(forward)
    rng.shuffle(inverse)
    schedule = forward + inverse
    write_at = set(rng.sample(range(writer_length), len(schedule)))

    live: set = set()
    model = array.array.copy()
    recent: Dict[str, list] = {"members": [], "array": []}
    must_reread: List[str] = []  # sessions written since their last read
    writer: List[Op] = []
    pending = iter(schedule)
    for index in range(writer_length):
        if index in write_at:
            session, changes = next(pending)
            for change in changes:
                if session == "members":
                    value = change.row[0]
                    if change.kind is ChangeKind.INSERT:
                        live.add(value)
                    else:
                        live.discard(value)
                    recent["members"].append(value)
                else:
                    model[change.position] = change.value
                    recent["array"].append(change.position)
            del recent[session][:-32]
            must_reread.append(session)
            writer.append((session, "apply_changes", (changes,), True))
            continue
        # Read-your-writes: the first read after a write goes to that
        # session and to a key the write just touched.
        if must_reread:
            session = must_reread.pop()
        else:
            session = "members" if rng.random() < 0.5 else "array"
        if session == "members":
            if recent["members"]:
                value = recent["members"][-1 - rng.randrange(min(8, len(recent["members"])))]
            else:
                value = volatile_values[rng.randrange(len(volatile_values))]
            writer.append(("members", "query", (MEMBERSHIP, value), value in live))
        else:
            if recent["array"]:
                anchor = recent["array"][-1 - rng.randrange(min(8, len(recent["array"])))]
            else:
                anchor = volatile_slots[rng.randrange(len(volatile_slots))]
            i = max(half, anchor - rng.randrange(RMQ_MAX_WINDOW // 2))
            i = min(i, n - 2)
            j = min(n - 1, max(i + 1, anchor + rng.randrange(RMQ_MAX_WINDOW // 2)))
            leftmost = i + int(np.argmin(model[i : j + 1]))
            if rng.random() < HIT_FRACTION:
                writer.append(("array", "query", (RMQ, (i, j, leftmost)), True))
            else:
                other = i + rng.randrange(j - i)
                if other >= leftmost:
                    other += 1
                writer.append(("array", "query", (RMQ, (i, j, other)), False))
    if live or not np.array_equal(model, array.array):
        raise AssertionError("writer stream does not restore the initial content")
    return reader, writer
