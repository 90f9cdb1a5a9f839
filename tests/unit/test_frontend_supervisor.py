"""The supervisor glue without processes, and the seams that keep it glue.

A fake ``multiprocessing`` context stands in for the pool: a "process"
keeps a ``dup()`` of the channel end it was handed (as a spawned child
holds its own copy) and answers the boot ping; from then on the test plays
the worker with ``protocol.read_frame`` / ``pack_frame`` on that real
socket.  The supervisor's own event loop, channel readers and timer run as
usual, so admission, broadcast, the attach table and crash detection are
exercised end to end -- nothing is spawned and nothing sleeps.  ``submit``
is loop-only, so the tests drive it through ``Supervisor.run``.

Also here: the AST checks that hold the design (the pure pieces import no
clock, thread, process or queue; ``supervisor.py`` reads the clock only at
its entry points; no queue, lock or liveness poll came back) and the
constructor surface after the four knobs went.
"""

import ast
import importlib
import inspect
import multiprocessing
import select
import threading
from pathlib import Path

import pytest

from repro.core.errors import OverloadedError, ProtocolError, ServiceError
from repro.service.frontend import ServingFront, Supervisor, protocol
from repro.service.frontend import supervisor as supervisor_module
from repro.service.frontend.workers import worker_main

CODEC = protocol.CODEC_JSON
FRONTEND = Path(supervisor_module.__file__).parent


class FakeProcess:
    """The worker's side of one channel, played by the test."""

    exitcode = None

    def __init__(self, target, args, name, daemon, mute=False):
        self._handed, _settings = args
        self.mute = mute

    def start(self):
        self.channel = self._handed.dup()
        self.channel.settimeout(5)
        # Unbuffered, so what select() says about the socket is the truth.
        self.stream = self.channel.makefile("rb", buffering=0)
        threading.Thread(target=self._boot, daemon=True).start()

    def _boot(self):
        """A worker's first act: answer the ping -- or, mute, sit on every
        frame until told to stop."""
        if not self.mute:
            return self.answer(self.read())
        while self.read() is not None:
            pass
        self.close()

    def read(self):
        """The next frame written to this worker; None at end-of-file."""
        return protocol.read_frame(self.stream,
                                   max_frame_bytes=protocol.MAX_FRAME_BYTES)

    def idle(self):
        return not select.select([self.channel], [], [], 0)[0]

    def take(self):
        """Every frame written to this worker so far."""
        frames = []
        while not self.idle():
            frames.append(self.read())
        return frames

    def answer(self, frame, value=True):
        header, _body, codec = frame
        self.channel.sendall(protocol.pack_frame(
            {"rid": header["rid"], "ok": True, "op": header["op"]}, value,
            codec=codec))

    def close(self):
        self.stream.close()
        self.channel.close()

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class FakeContext:
    def __init__(self, mute=False):
        self.mute = mute
        self.processes = []

    def Process(self, **kwargs):
        self.processes.append(FakeProcess(mute=self.mute, **kwargs))
        return self.processes[-1]


class Pool:
    """A started supervisor over fake workers the test answers for."""

    def __init__(self, monkeypatch, workers=2, capacity=None, **options):
        self.ctx = FakeContext()
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: self.ctx)
        if capacity is not None:
            monkeypatch.setattr(supervisor_module, "MAX_QUEUE_PER_WORKER", capacity)
        self.supervisor = Supervisor(workers, hedge_delay_ms=None, **options).start()
        self.workers = self.ctx.processes
        self.closed = False

    def submit(self, op, dataset, value=None, rid=0, on_done=None):
        """Submit one frame on the loop; returns an Event set when it is
        answered (after ``on_done``, if given, saw the response)."""
        done = threading.Event()
        body = protocol.encode_body(value, CODEC) if value is not None else b""

        def answered(*response):
            if on_done is not None:
                on_done(*response)
            done.set()

        async def on_loop():
            self.supervisor.submit(protocol.request_header(op, rid, dataset, value),
                                   body, CODEC, answered)

        self.supervisor.run(on_loop())
        return done

    def fill(self, dataset):
        """Ping ``dataset`` until admission refuses; the accepted pings."""
        pings = []
        with pytest.raises(OverloadedError):
            for _ in range(100):
                pings.append(self.submit("ping", dataset))
        return pings

    def ops(self):
        """Per worker, the ops written to it since last looked at."""
        return [[header["op"] for header, _, _ in worker.take()]
                for worker in self.workers]

    def answer_all(self):
        """Every worker answers ``ok`` to everything written to it."""
        for worker in self.workers:
            for frame in worker.take():
                worker.answer(frame)

    def attach(self, name, *, mutable):
        done = self.submit("attach", name, {"name": name, "data": (1, 2, 3),
                                            "mutable": mutable})
        self.answer_all()
        assert done.wait(5), "attach was never acknowledged"

    def close(self, last_words=lambda worker: None):
        """``Supervisor.close`` half-closes and waits for the workers to
        go, so play their part: read up to end-of-file, say any
        ``last_words``, then leave."""
        if self.closed:
            return
        self.closed = True
        closer = threading.Thread(target=self.supervisor.close)
        closer.start()
        for worker in self.workers:
            if worker.channel.fileno() != -1:
                while worker.read() is not None:
                    pass
                last_words(worker)
                worker.close()
        closer.join(10)
        assert not closer.is_alive(), "close() did not return"


@pytest.fixture
def pool(monkeypatch):
    pool = Pool(monkeypatch, capacity=4)
    yield pool
    pool.close()


# -- bugfix: a refused detach must not forget the dataset ------------------------


def test_refused_detach_of_a_replicated_dataset_keeps_it_attached(pool):
    pool.attach("d", mutable=False)
    pings = pool.fill("d")                      # round-robin: both at capacity
    with pytest.raises(OverloadedError):
        pool.submit("detach", "d")
    pool.answer_all()
    assert all(ping.wait(5) for ping in pings)
    # Still known as attached everywhere: the retried detach is broadcast
    # to both workers, not routed to one as for an unknown name.
    pool.submit("detach", "d")
    assert pool.ops() == [["detach"], ["detach"]]


def test_refused_detach_of_a_homed_dataset_keeps_its_home(pool):
    pool.attach("m", mutable=True)              # homed on worker 0
    pings = pool.fill("m")
    with pytest.raises(OverloadedError):
        pool.submit("detach", "m")
    pool.answer_all()
    assert all(ping.wait(5) for ping in pings)
    for _ in range(4):                          # still routed home, never
        pool.submit("query", "m", {"kind": "k", "query": 1})   # round-robin
    assert pool.ops() == [["query"] * 4, []]


# -- bugfix: the front routes an attach from its header, body unread -------------


def test_attach_is_routed_from_the_header_without_decoding_its_body(pool, monkeypatch):
    """The loop that owns every socket must not parse an O(|D|) payload to
    read two fields the header already carries."""
    def refuse(body, codec=CODEC):
        raise AssertionError("the front decoded a request body")

    monkeypatch.setattr(protocol, "decode_body", refuse)
    pool.attach("d", mutable=False)             # replicated: both workers
    pool.attach("m", mutable=True)              # homed: least-loaded worker
    assert sorted(pool.supervisor._datasets) == ["d", "m"]
    for _ in range(2):                          # homed, so never round-robin
        pool.submit("query", "m", {"kind": "k", "query": 1})
    assert pool.ops() == [["query", "query"], []]


@pytest.mark.parametrize("header", [
    {"op": "attach", "rid": 1},
    {"op": "attach", "rid": 1, "dataset": None},
    {"op": "attach", "rid": 1, "dataset": ""},
    {"op": "attach", "rid": 1, "dataset": "d", "mutable": "yes"},
], ids=repr)
def test_attach_without_a_routable_header_is_refused_by_the_front(pool, header):
    body = protocol.encode_body({"name": "d", "data": (1,), "mutable": False}, CODEC)

    async def attach():
        pool.supervisor.submit(header, body, CODEC, lambda *response: None)

    with pytest.raises(ProtocolError, match="frame header"):
        pool.supervisor.run(attach())
    assert all(worker.idle() for worker in pool.workers)
    assert not pool.supervisor._datasets


# -- bugfix: a broadcast is admitted everywhere or nowhere -----------------------


def test_broadcast_onto_a_full_inbox_enqueues_nothing_anywhere(pool):
    pool.attach("a", mutable=True)              # least-loaded: worker 0
    pool.attach("b", mutable=True)              # then worker 1
    pings = pool.fill("b")                      # worker 1 owes its capacity
    assert pool.workers[0].idle()
    with pytest.raises(OverloadedError):
        pool.submit("attach", "c", {"name": "c", "data": (1,), "mutable": False})
    # Worker 1 had no room, so worker 0 must not have been handed the
    # attach either -- or it would serve a dataset nobody recorded, behind
    # a broadcast that can never complete.
    assert pool.workers[0].idle()
    # Once worker 1 drains, the very same attach goes through everywhere.
    pool.answer_all()
    assert pings[-1].wait(5)    # one reader per channel, in order: backlog gone
    done = pool.submit("attach", "c", {"name": "c", "data": (1,), "mutable": False})
    written = [worker.take() for worker in pool.workers]
    assert [[header["op"] for header, _, _ in frames] for frames in written] == [
        ["attach"], ["attach"]]
    for worker, (frame,) in zip(pool.workers, written):
        worker.answer(frame)
    assert done.wait(5)


def test_a_header_that_cannot_be_relayed_is_refused_and_owed_by_nobody(pool):
    async def nan_budget():
        pool.supervisor.submit({"op": "ping", "rid": 1, "dataset": None,
                                "deadline_ms": float("nan")}, b"", CODEC,
                               lambda *response: None)

    for _ in range(8):                          # twice the capacity
        with pytest.raises(ProtocolError, match="cannot relay"):
            pool.supervisor.run(nan_budget())
    assert all(worker.idle() for worker in pool.workers)


# -- the glue delivers what the pieces decide ------------------------------------


def test_close_answers_everything_in_flight_exactly_once(pool):
    pool.attach("d", mutable=False)
    answers = []
    for query in range(5):
        pool.submit("query", "d", rid=query,
                    on_done=lambda header, body, codec: answers.append(header))
    pool.close()
    assert sorted(header["rid"] for header in answers) == [0, 1, 2, 3, 4]
    assert not any(header["ok"] for header in answers)
    assert pool.supervisor.health()["failed_requests"] == 5     # after close


def test_stats_merges_workers_and_carries_the_pool_health(pool):
    pool.attach("d", mutable=False)
    box = []
    done = pool.submit("stats", "d", rid=9, on_done=lambda *r: box.append(r))
    for worker_id, worker in enumerate(pool.workers):
        frame, = worker.take()
        worker.answer(frame, {"dataset": "d", "queries": 10 + worker_id,
                              "version": worker_id})
    assert done.wait(5)
    (header, body, codec), = box
    assert header["rid"] == 9                   # the caller's id, not the attempt's
    stats = protocol.decode_body(body, codec)
    assert stats["queries"] == 21 and stats["version"] == 1
    assert stats["frontend"]["healthy_workers"] == 2


# -- the channel is the liveness signal ------------------------------------------


def crash_holding_a_write(pool, die):
    """Worker 0 homes ``m`` and holds one unanswered write when ``die``
    ends its channel; returns the write's response header and payload."""
    pool.attach("m", mutable=True)
    box = []
    done = pool.submit("apply_changes", "m", {"changes": []},
                       on_done=lambda *r: box.append(r))
    frame, = pool.workers[0].take()
    die(pool.workers[0], frame)
    assert done.wait(5), "the dead worker's write was never answered"
    (header, body, codec), = box
    return header, protocol.decode_body(body, codec)


def test_end_of_file_on_a_channel_is_the_crash_signal(monkeypatch):
    pool = Pool(monkeypatch, poll_seconds=60)   # no tick will ever run
    try:
        header, payload = crash_holding_a_write(
            pool, lambda worker, frame: worker.close())
        assert header["ok"] is False and payload["type"] == "WorkerFailedError"
        health = pool.supervisor.health()
        assert health["crashes_detected"] == 1 and health["healthy_workers"] == 1
        assert health["failed_requests"] == 1 and health["rehomed_datasets"] == 1
        # Re-homed onto the survivor by replay, attach frame first.
        assert [h["op"] for h, _, _ in pool.workers[1].take()] == ["attach"]
    finally:
        pool.close()


def test_a_truncated_frame_is_a_crash_not_a_hang(monkeypatch):
    pool = Pool(monkeypatch, poll_seconds=60)

    def die_mid_write(worker, frame):
        answer = protocol.pack_frame({"rid": frame[0]["rid"], "ok": True}, True)
        worker.channel.sendall(answer[:-3])
        worker.close()

    try:
        header, payload = crash_holding_a_write(pool, die_mid_write)
        assert header["ok"] is False and payload["type"] == "WorkerFailedError"
        assert pool.supervisor.health()["crashes_detected"] == 1
    finally:
        pool.close()


def test_close_half_closes_so_a_worker_mid_frame_still_answers(pool):
    pool.attach("d", mutable=False)
    pool.submit("query", "d")
    (busy, frame), = [(worker, frames[0]) for worker in pool.workers
                      if (frames := worker.take())]
    said = []

    def last_words(worker):
        # Told to stop (end-of-file read), yet the answer it was working
        # on still goes out: the supervisor's end is open for reading.
        if worker is busy:
            worker.answer(frame)
            said.append(worker)

    pool.close(last_words)
    assert said == [busy]


def test_start_raises_when_a_worker_never_answers_its_ping(monkeypatch):
    ctx = FakeContext(mute=True)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: ctx)
    monkeypatch.setattr(supervisor_module, "READY_TIMEOUT_SECONDS", 0.05)
    supervisor = Supervisor(2)
    with pytest.raises(ServiceError, match="not ready within 0.05s"):
        supervisor.start()
    assert supervisor.health()["healthy_workers"] == 2          # still answers
    with pytest.raises(ServiceError, match="closed"):
        supervisor.call("ping")


def test_real_workers_exit_zero_on_close():
    supervisor = Supervisor(2).start()
    assert supervisor.call("ping") == "pong"
    processes = [handle.process for handle in supervisor._handles]
    supervisor.close()
    assert [process.exitcode for process in processes] == [0, 0]
    assert supervisor.health()["failed_requests"] == 0
    supervisor.close()                          # idempotent


# -- six knobs fewer -------------------------------------------------------------

REMOVED = {"engine_opts": {}, "start_method": "spawn",
           "max_queue_per_worker": 16, "ready_timeout": 1.0,
           "fault_plan": None, "fault_workers": (0,)}


@pytest.mark.parametrize("name", sorted(REMOVED))
@pytest.mark.parametrize("cls", [Supervisor, ServingFront])
def test_removed_constructor_options_are_rejected(cls, name):
    with pytest.raises(TypeError, match=name):
        cls(2, **{name: REMOVED[name]})


def test_constructor_parameter_counts():
    def parameters(cls):
        return [p for p in inspect.signature(cls.__init__).parameters
                if p != "self"]

    assert parameters(Supervisor) == [
        "workers", "store_root", "policy",
        "poll_seconds", "hedge_delay_ms", "journal_checkpoint_batches"]
    assert len(parameters(ServingFront)) == 8


# -- keep the split honest -------------------------------------------------------

IMPURE = {"time", "threading", "multiprocessing", "queue", "socket", "asyncio",
          "random"}


def imported_modules(name):
    module = importlib.import_module(f"repro.service.frontend.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("name", ["tickets", "placement"])
def test_pure_pieces_import_no_clock_thread_process_or_queue(name):
    assert not IMPURE & set(imported_modules(name))


def functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_supervisor_reads_the_clock_only_at_its_entry_points():
    tree = ast.parse(Path(supervisor_module.__file__).read_text())
    readers = set()
    for function in functions(tree):
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute) and node.attr == "monotonic"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "time"):
                readers.add(function.name)
    # A submitted request, a frame read off a channel, a timer tick -- plus
    # the two waits with a deadline of their own: boot and drain.
    assert readers == {"submit", "_read_channel", "_timer", "_boot", "_drain"}


def test_no_queue_lock_or_liveness_poll_came_back():
    """One loop owns the pool's state: nothing under the front needs a
    queue or a lock (the gateway's per-connection ``asyncio.Lock`` orders
    writes on one socket), and a dead worker is learnt from its channel --
    ``is_alive`` only decides, in ``close``, whether one that ignored the
    half-close must be terminated."""
    hits = []
    for name in ("supervisor", "server", "workers"):
        tree = ast.parse((FRONTEND / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names]
                           if isinstance(node, ast.Import) else [node.module])
                hits += [(name, f"import {module}") for module in modules
                         if module and module.split(".")[0] == "queue"]
            elif isinstance(node, ast.Call):
                called = ast.unparse(node.func)
                if called.split(".")[-1] in ("Queue", "SimpleQueue", "Lock", "RLock"):
                    hits.append((name, called))
        for function in functions(tree):
            hits += [(name, f"{function.name}: is_alive")
                     for node in ast.walk(function)
                     if isinstance(node, ast.Attribute) and node.attr == "is_alive"]
    assert hits == [("supervisor", "close: is_alive"), ("server", "asyncio.Lock")]


def test_worker_main_takes_a_channel_and_no_generation():
    assert list(inspect.signature(worker_main).parameters) == ["channel", "settings"]
