"""A flat int attach travels as one packed column, and no worker boxes it
unless it splits shards, keeps a mutable working copy or reads
``Dataset.data``.

* what packs: a tuple or list of plain ints (exact ``int``, one 64-bit word
  holds them all) round-trips with its exact type through one packed body;
  everything else -- ``bool``, ``IntEnum``, numpy ints, ints past 64 bits,
  floats, strings, nested rows -- is today's tagged JSON, byte for byte;
* the packed form a worker keeps fingerprints like the tuple or list it
  encodes, so no artifact key moves (the pinned digests of
  ``test_fingerprint.py`` included);
* a worker serving an immutable packed dataset never materializes it,
  whether it builds Pi(D) from the run's machine words or loads it from the
  store (a spy and ``tracemalloc``, in process, through
  ``workers.handle_frame``), and a 2^16-int attach body stays under
  200 000 bytes;
* a build from the run's machine words dumps the bytes of the build from
  its tuple, holds the columns a load holds, and answers like the naive
  evaluation;
* remote ``list-membership`` and ``minimum-range-query`` answers equal the
  naive evaluation after a packed attach, and after a checkpoint re-home of
  a mutable packed dataset.
"""

from __future__ import annotations

import enum
import gc
import random
import time
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.catalog import build_query_engine
from repro.core.cost import NULL_TRACKER, CostTracker
from repro.core.errors import ProtocolError
from repro.incremental.changes import ChangeKind, TupleChange
from repro.indexes import columns
from repro.queries import membership_class, rmq_class
from repro.queries.membership import sorted_run_scheme
from repro.queries.rmq import fischer_heun_scheme, sparse_table_scheme
from repro.service.artifacts import ArtifactStore
from repro.service.frontend import RemoteClient, ServingFront, protocol
from repro.service.frontend.workers import handle_frame
from repro.storage.fingerprint import dataset_fingerprint
from repro.storage.packed import PackedRun

KINDS = ["list-membership", "minimum-range-query"]


class _Small(enum.IntEnum):
    ONE = 1


def _attach(data, mutable=False):
    return {"name": "d", "data": data, "kinds": KINDS, "shards": 1, "mutable": mutable}


def _seeded(bits, seed, n=1000, signed=False):
    rng = random.Random(seed)
    low = -(1 << bits - 1) if signed else 0
    high = (1 << bits - 1) if signed else 1 << bits
    return tuple(rng.randrange(low, high) for _ in range(n))


#: Runs that pack, by the word ``columns.words`` gives them (``None``: empty).
PACKED = [
    ((), None),
    (_seeded(8, 1), "B"),
    (_seeded(16, 2), "H"),
    (_seeded(18, 42), "I"),         # at rest: two byte lanes and a 2-bit plane
    (_seeded(32, 3), "I"),
    (_seeded(64, 4), "Q"),
    (_seeded(8, 5, signed=True), "b"),
    (_seeded(16, 6, signed=True), "h"),
    (_seeded(32, 7, signed=True), "i"),
    (_seeded(64, 8, signed=True), "q"),
    ((-5, -1, -7), "b"),
    ((-(1 << 63), (1 << 63) - 1), "q"),
    ((1 << 63, 0, (1 << 64) - 1), "Q"),
    ((0,) * 300, "B"),              # at rest: a patched plane of width 0
    ((7,), "B"),
]

#: Payloads that stay today's JSON: not a run of plain ints in one word.
NOT_PACKED = [
    (True, False, True),
    (1, True),
    (_Small.ONE, 2),
    (np.int64(3), 4),
    (1 << 64, 0),
    (-(1 << 63) - 1,),
    (-1, 1 << 63),                  # each fits a word, no one word holds both
    (1.5, 2.0),
    (1, 2.0),
    ("a", "b"),
    ((1, 2), (3, 4)),
    (None, 1),
]


@pytest.mark.parametrize("container", [tuple, list])
@pytest.mark.parametrize("values, code", PACKED, ids=lambda v: str(v)[:24])
def test_a_plain_int_run_packs_round_trips_and_fingerprints_like_itself(values, code, container):
    data = container(values)
    body = protocol.encode_attach(_attach(data))
    assert body[:1] == b"\x00"                      # the packed body tag
    decoded = protocol.decode_body(body)
    assert decoded == _attach(data)
    assert type(decoded["data"]) is container
    assert {type(value) for value in decoded["data"]} <= {int}

    run = protocol.decode_body(body, keep_packed=True)["data"]
    assert isinstance(run, PackedRun) and run.kind is container
    assert dataset_fingerprint(run) == dataset_fingerprint(data)
    assert run._values is None or not data          # hashed without boxing a value
    if code is not None:
        assert run.words().typecode == columns.words(data).typecode == code
    # A worker's snapshot of a run it holds packed re-sends the same bytes.
    assert protocol.encode_attach(_attach(run)) == body


@pytest.mark.parametrize("container", [tuple, list])
@pytest.mark.parametrize("values", NOT_PACKED, ids=repr)
def test_anything_else_travels_as_todays_json(values, container):
    data = container(values)
    try:
        expected = protocol.encode_body(_attach(data))
    except ProtocolError as refused:                # numpy ints: refused as before
        with pytest.raises(ProtocolError, match=str(refused)):
            protocol.encode_attach(_attach(data))
        return
    body = protocol.encode_attach(_attach(data))
    assert body == expected
    decoded = protocol.decode_body(body, keep_packed=True)
    assert decoded == protocol.decode_body(expected)
    assert [type(value) for value in decoded["data"]] == [
        type(value) for value in protocol.decode_body(expected)["data"]]


@pytest.mark.parametrize("bits, seed, digest", [
    (18, 42, "ddfad9a8f13cdd80d1564348978cb7e95158ceb96f094576dd590a0ddab234c5"),
    (8, 43, "66dd3d1e4c945ed0e94435b4b3083a83283e8ae33b712c2378b9ae79f47c97cb"),
])
def test_a_packed_run_keeps_the_pinned_digests(bits, seed, digest):
    body = protocol.encode_attach(_attach(_seeded(bits, seed)))
    assert dataset_fingerprint(protocol.decode_body(body, keep_packed=True)["data"]) == digest


@pytest.mark.parametrize("mangle, match", [
    (lambda body: body[:4], "cut short"),
    (lambda body: body[:10], "bytes of fields"),
    (lambda body: body[:1] + b"x" + body[2:], "kind"),
    (lambda body: body[:2] + b"d" + body[3:], "typecode 'd'"),
    (lambda body: body[:-1], "typecode 'I'"),       # 11 bytes of 'I' words
], ids=["head", "fields", "kind", "code", "column"])
def test_a_malformed_packed_body_is_a_protocol_error(mangle, match):
    body = protocol.encode_attach(_attach((1 << 31, 1, 2)))
    assert body[2:3] == b"I"                        # exactly 32 bits wide: machine words
    with pytest.raises(ProtocolError, match=match):
        protocol.decode_body(mangle(body))


def _with_column(code, raw):
    """An attach body whose packed column is ``code`` and ``raw``."""
    body = protocol.encode_attach(_attach((1 << 31,)))  # 'I': the column is the last 4 bytes
    assert body[2:3] == b"I"
    return body[:2] + code + body[3:-4] + raw


_LANES_300 = protocol.encode_attach(_attach(tuple(range(300))))[-340:]  # a lane and a 1-bit plane


@pytest.mark.parametrize("body, match", [
    (_with_column(b"*", _LANES_300[:-1]), "fit no count"),
    (_with_column(b"*", b"\x07" + _LANES_300[1:]), "no lane form"),
    # A width-0 patched plane declaring 2^40 values in 15 bytes.
    (_with_column(b"*", bytes((0x80, 7, 6)) + (1 << 40).to_bytes(6, "little") + bytes(6)),
     "1099511627776 values, more than the 4194304"),
    # Columns a worker could decode, but not in the word ``words`` picks: they
    # would hash unlike the run they stand for.
    (_with_column(b"Q", columns.little_endian(array("Q", [1, 2]))), "'Q' column"),
    (_with_column(b"L", columns.little_endian(array("L", [1, 2]))), "'L' column"),
    (_with_column(b"l", columns.little_endian(array("l", [1, -2]))), "'l' column"),
    (_with_column(b"h", columns.little_endian(array("h", [1, 2]))), "'h' column"),
    (_with_column(b"*", bytes((16, 0, 1, 2, 0, 0))), "'H' column"),  # a top lane all zero
], ids=["cut", "header", "count", "Q", "L", "l", "h", "lane"])
def test_a_column_no_pack_wrote_is_refused_by_the_worker_attach(body, match):
    with build_query_engine() as engine:
        header = protocol.request_header("attach", 1, "d", {"mutable": False})
        tracemalloc.start()
        try:
            response, reply = handle_frame(engine, header, body, protocol.CODEC_JSON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not response["ok"] and response["etype"] == "ProtocolError"
        assert match in protocol.decode_body(reply)["message"]
        assert engine.datasets() == []
        assert peak < 2**20, peak               # nothing sized by the declared count


@pytest.mark.parametrize("values, form", [
    ((1 << 31, 1, 2), "I"),
    (tuple(range(300)), "lanes"),
    ((9,) * 300, "patched"),                    # width 0, no exception
    ((0, 1) * 150 + (200,), "patched"),         # a 1-bit plane and one exception
    ((-5, 3), "b"),
], ids=lambda v: str(v)[:16])
def test_a_wire_column_declaring_more_than_most_values_is_refused(values, form):
    code, raw = columns.wire_form(columns.pack(values))
    assert form == (code if code != "*" else "patched" if raw[0] & 0x80 else "lanes")
    assert list(columns.from_wire_form(code, raw, most=len(values))) == list(values)
    with pytest.raises(ValueError, match=f"{len(values)} values, more than the"):
        columns.from_wire_form(code, raw, most=len(values) - 1)
    with pytest.raises(ProtocolError, match="more than the"):
        PackedRun(tuple, code, raw, most=len(values) - 1).words()


def _frame(engine, name, op, value, body=None):
    header = protocol.request_header(op, 1, name, value)
    response, reply = handle_frame(
        engine, header, protocol.encode_body(value) if body is None else body,
        protocol.CODEC_JSON)
    assert response["ok"], protocol.decode_body(reply)
    return protocol.decode_body(reply)


def _serve(engine, name, data, probes):
    """A packed attach of ``data`` under ``name``, then one query per probe,
    each a frame through ``handle_frame`` as a worker serves it."""
    body = protocol.encode_attach({**_attach(data), "name": name})
    _frame(engine, name, "attach", {"mutable": False}, body)
    return [_frame(engine, name, "query", {"kind": kind, "query": query})
            for kind, query in probes]


def _traced(step):
    """``step()``'s result and the bytes ``tracemalloc`` still traces once
    it returns, that result held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = step()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_no_worker_boxes_the_run_whether_it_builds_or_loads(tmp_path, monkeypatch):
    rng = random.Random(7)
    data = tuple(rng.randrange(1 << 18) for _ in range(1 << 16))
    assert len(protocol.encode_attach(_attach(data))) <= 200_000  # 431 039 B as JSON
    probes = [("list-membership", data[9]), ("list-membership", -1),
              ("minimum-range-query", (0, 99, 0)), ("minimum-range-query", (5, 5, 5))]
    expected = [True, False, rmq_class().pair_in_language(data, probes[2][1]), True]
    small = (3, 1, 2)

    boxed = []
    values = PackedRun.values

    def spy(run):  # every call, whether it boxes or shares what an earlier one boxed
        boxed.append(len(run.raw))
        return values(run)

    monkeypatch.setattr(PackedRun, "values", spy)
    retained = {}
    for role, counts in [("builder", [(2, 0), (1, 0)]), ("loader", [(0, 2), (0, 1)])]:
        with build_query_engine(store=ArtifactStore(tmp_path)) as engine:
            _serve(engine, role, small, probes[:2])  # this path's code, first
            answers, retained[role] = _traced(lambda: _serve(engine, "d", data, probes))
            assert answers == expected
            assert boxed == [], role
            counters = engine.dataset("d").stats()["kinds"]
            # Engine-wide per kind: the small session resolved its membership structure only.
            assert [(counters[kind]["builds"], counters[kind]["store_hits"])
                    for kind in KINDS] == counts, role
    # The boxed tuple alone would be 2^16 * 36 B = 2.25 MiB; a builder that
    # boxed it kept that and a list per structure over its ints (~3.3 MiB).
    assert retained["loader"] < 1.25 * 2**20, retained
    assert retained["builder"] < 1.25 * 2**20, retained


#: The schemes a flat int attach builds, by the column that holds D's values.
WORD_SCHEMES = [
    (sorted_run_scheme, membership_class, lambda index: index._run),
    (fischer_heun_scheme, rmq_class, lambda index: index._array),
    (sparse_table_scheme, rmq_class, lambda index: index._array),
]


def _forms(structure):
    """Every attribute of ``structure`` and of the index objects it holds,
    by path: an ``array``'s typecode, a list of arrays' typecodes, else the
    value's type name."""
    forms, todo = {}, [("", structure)]
    while todo:
        path, held = todo.pop()
        for name, value in vars(held).items():
            if isinstance(value, array):
                forms[path + name] = value.typecode
            elif isinstance(value, list) and value and isinstance(value[0], array):
                forms[path + name] = [column.typecode for column in value]
            elif type(value).__module__.startswith("repro.indexes"):
                todo.append((f"{path}{name}.", value))
            else:
                forms[path + name] = type(value).__name__
    return forms


@pytest.mark.parametrize("make, query_class, column", WORD_SCHEMES,
                         ids=["sorted-run", "fischer-heun", "sparse-table"])
@pytest.mark.parametrize("values, code", PACKED, ids=lambda v: str(v)[:24])
def test_a_build_from_the_runs_words_is_the_build_from_its_tuple(make, query_class, column,
                                                                 values, code):
    """What a building worker hands ``preprocess`` dumps the very bytes of
    the tuple's build, holds the columns a load of them holds, and answers
    fast == tracked == naive."""
    scheme, oracle = make(), query_class()
    words = PackedRun.of(values).words()
    built = scheme.preprocess(words, NULL_TRACKER)
    blob = scheme.dump(built)
    assert blob == scheme.dump(scheme.preprocess(values, NULL_TRACKER))
    loaded = scheme.load(blob)
    assert _forms(built) == _forms(loaded)
    held = column(built)
    if code is None:
        assert held == []
    else:
        assert isinstance(held, array) and held.typecode == code
        assert held is not words                    # the structure's own copy
    rng = random.Random(len(values))
    if oracle.name == "list-membership":
        queries = list(values[:40]) + [-1, 1 << 64, -(1 << 63) - 1, 12345]
    else:
        queries = oracle.generate_queries(values, rng, 40) if values else []
    for query in queries:
        naive = oracle.pair_in_language(values, query)
        assert scheme.evaluate_fast(built, query) is naive, query
        assert scheme.evaluate(built, query, CostTracker()) is naive, query


@pytest.mark.parametrize("shards, mutable", [(1, False), (4, False), (1, True), (4, True)])
def test_every_storage_shape_serves_a_packed_attach(shards, mutable):
    """A sharded split and a mutable working copy box the run they need;
    their answers are the naive ones, before and after a write."""
    rng = random.Random(shards + 2 * mutable)
    content = [rng.randrange(-50, 1 << 12) for _ in range(500)]
    body = protocol.encode_attach({**_attach(tuple(content), mutable), "shards": shards})
    assert body[:1] == b"\x00"
    membership, rmq = membership_class(), rmq_class()
    with build_query_engine() as engine:
        _frame(engine, "d", "attach", {"mutable": mutable}, body)
        for write in (None, 77777) if mutable else (None,):
            if write is not None:
                change = TupleChange(ChangeKind.INSERT, (write,))
                _frame(engine, "d", "apply_changes", {"changes": [change]})
                content.append(write)
            probes = [("list-membership", value) for value in (content[3], 77777, -51)]
            probes += [("minimum-range-query", query)
                       for query in rmq.generate_queries(tuple(content), rng, 12)]
            answers = _frame(engine, "d", "query_batch", {"pairs": probes})
            assert answers == [
                (membership if kind == "list-membership" else rmq).pair_in_language(
                    tuple(content), query)
                for kind, query in probes]


@pytest.mark.parametrize("mutable, decodes", [(False, 2), (True, 0)])
def test_only_an_immutable_session_builds_from_the_runs_words(monkeypatch, mutable, decodes):
    """A mutable session boxed the run for its working copy at attach, so
    its builds share those ints instead of decoding the words again."""
    decoded = []
    words = PackedRun.words

    def spy(run):
        decoded.append(len(run.raw))
        return words(run)

    body = protocol.encode_attach(_attach(tuple(range(500)), mutable))
    pairs = [("list-membership", 7), ("minimum-range-query", (0, 9, 0))]
    with build_query_engine() as engine:
        _frame(engine, "d", "attach", {"mutable": mutable}, body)
        monkeypatch.setattr(PackedRun, "words", spy)
        assert _frame(engine, "d", "query_batch", {"pairs": pairs}) == [True, True]
    assert len(decoded) == decodes


def test_remote_answers_match_the_naive_ones_after_a_packed_attach_and_a_rehome(tmp_path):
    rng = random.Random(11)
    data = tuple(rng.randrange(1 << 10) for _ in range(256))
    membership, rmq = membership_class(), rmq_class()

    def check(ds, content):
        queries = [("list-membership", value) for value in rng.sample(range(-4, 1 << 11), 40)]
        queries += [("minimum-range-query", query)
                    for query in rmq.generate_queries(content, rng, 40)]
        for kind, query in queries:
            oracle = membership if kind == "list-membership" else rmq
            assert ds.query(kind, query) is oracle.pair_in_language(content, query), (kind, query)
        assert ds.query_batch(queries) == [
            (membership if kind == "list-membership" else rmq).pair_in_language(content, query)
            for kind, query in queries]

    with ServingFront(workers=2, store_root=str(tmp_path)) as serving:
        with RemoteClient(*serving.address) as remote:
            check(remote.attach("fixed", data, kinds=KINDS), data)

            content = list(data)
            ds = remote.attach("moving", data, kinds=KINDS, mutable=True)
            supervisor = serving.supervisor
            for value in range(2000, 2024):
                ds.apply_changes([TupleChange(ChangeKind.INSERT, (value,))])
                content.append(value)
            deadline = time.monotonic() + 10.0
            while supervisor.health()["journal_checkpoints"] < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert supervisor.health()["journal_checkpoints"] >= 1
            assert supervisor.health()["journal_checkpoint_failures"] == 0
            baseline = supervisor.run(_journal_body(supervisor, "moving"))
            assert baseline[:1] == b"\x00"              # the adopted snapshot is packed
            assert protocol.decode_body(baseline)["version"] >= 1

            report = supervisor.drain(0)
            if "moving" not in report["rehomed"]:
                supervisor.undrain(0)
                report = supervisor.drain(1)
            assert "moving" in report["rehomed"] and report["drained"]
            check(ds, tuple(content))
            assert remote.protocol_errors == 0


async def _journal_body(supervisor, name):
    return supervisor._datasets[name].body
