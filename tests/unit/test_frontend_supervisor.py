"""The supervisor glue without processes, and the seams that keep it glue.

A fake ``multiprocessing`` context stands in for the pool: inboxes are
lists with a depth limit, a "process" just announces readiness, and the
test plays the workers by pushing responses onto the (real, in-process)
outbox.  The supervisor's own collector and monitor threads run as usual,
so admission, broadcast and the attach table are exercised end to end --
nothing is spawned and nothing sleeps.

Also here: the AST checks that hold the split (the pure pieces import no
clock, thread, process or queue; ``supervisor.py`` reads the clock only at
its entry points) and the constructor surface after the four knobs went.
"""

import ast
import importlib
import inspect
import multiprocessing
import queue
import threading
from pathlib import Path

import pytest

from repro.core.errors import OverloadedError
from repro.service.frontend import ServingFront, Supervisor, protocol
from repro.service.frontend import supervisor as supervisor_module

CODEC = protocol.CODEC_JSON


class FakeInbox:
    """A worker inbox: bounded like the real queue, inspectable, jammable."""

    def __init__(self, maxsize=0):
        self.maxsize = maxsize
        self.frames = []
        self.jammed = False

    def put_nowait(self, item):
        if self.jammed or (self.maxsize and len(self.frames) >= self.maxsize):
            raise queue.Full
        self.frames.append(item)

    def ops(self):
        return [frame[2]["op"] for frame in self.frames if frame is not None]


class FakeProcess:
    exitcode = None

    def __init__(self, target, args, name, daemon):
        self.args = args

    def start(self):
        worker_id, generation, _inbox, outbox, _settings = self.args
        outbox.put(("ready", worker_id, generation))

    def is_alive(self):
        return True

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class FakeContext:
    Process = FakeProcess

    def __init__(self):
        self.outbox = None
        self.inboxes = []

    def Queue(self, maxsize=0):
        if self.outbox is None:             # the supervisor makes it first
            self.outbox = queue.Queue()
            return self.outbox
        self.inboxes.append(FakeInbox(maxsize))
        return self.inboxes[-1]


class Pool:
    """A started supervisor over fake workers the test answers for."""

    def __init__(self, monkeypatch, workers=2):
        self.ctx = FakeContext()
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: self.ctx)
        self.supervisor = Supervisor(workers, hedge_delay_ms=None).start()

    def submit(self, op, dataset, value=None):
        """Submit one frame; returns an Event set when it is answered."""
        done = threading.Event()
        body = protocol.encode_body(value, CODEC) if value is not None else b""
        self.supervisor.submit({"op": op, "rid": 0, "dataset": dataset}, body,
                               CODEC, lambda *response: done.set())
        return done

    def answer_all(self):
        """Every worker answers ``ok`` to everything in its inbox."""
        for worker_id, inbox in enumerate(self.ctx.inboxes):
            frames, inbox.frames = inbox.frames, []
            for _tag, rid, header, _body, codec in frames:
                self.ctx.outbox.put(
                    ("res", worker_id, 0, rid,
                     {"rid": header.get("rid"), "ok": True, "op": header["op"]},
                     protocol.encode_body(True, codec), codec))

    def attach(self, name, *, mutable):
        done = self.submit("attach", name, {"name": name, "data": (1, 2, 3),
                                            "mutable": mutable})
        self.answer_all()
        assert done.wait(5), "attach was never acknowledged"

    def close(self):
        self.supervisor.close()


@pytest.fixture
def pool(monkeypatch):
    pool = Pool(monkeypatch)
    yield pool
    pool.close()


# -- bugfix: a refused detach must not forget the dataset ------------------------


def test_refused_detach_of_a_replicated_dataset_keeps_it_attached(pool):
    pool.attach("d", mutable=False)
    for inbox in pool.ctx.inboxes:
        inbox.jammed = True
    with pytest.raises(OverloadedError):
        pool.submit("detach", "d")
    for inbox in pool.ctx.inboxes:
        inbox.jammed = False
    # Still known as attached everywhere: the retried detach is broadcast
    # to both workers, not routed to one as for an unknown name.
    pool.submit("detach", "d")
    assert [inbox.ops() for inbox in pool.ctx.inboxes] == [["detach"], ["detach"]]


def test_refused_detach_of_a_homed_dataset_keeps_its_home(pool):
    pool.attach("m", mutable=True)              # homed on worker 0
    pool.ctx.inboxes[0].jammed = True
    with pytest.raises(OverloadedError):
        pool.submit("detach", "m")
    pool.ctx.inboxes[0].jammed = False
    for _ in range(4):                          # still routed home, never
        pool.submit("query", "m", {"kind": "k", "query": 1})   # round-robin
    assert [inbox.ops() for inbox in pool.ctx.inboxes] == [["query"] * 4, []]


# -- bugfix: a broadcast is admitted everywhere or nowhere -----------------------


def test_broadcast_onto_a_full_inbox_enqueues_nothing_anywhere(pool):
    pool.attach("a", mutable=True)              # least-loaded: worker 0
    pool.attach("b", mutable=True)              # then worker 1
    pings = []
    with pytest.raises(OverloadedError):        # fill worker 1's inbox
        for _ in range(100_000):
            pings.append(pool.submit("ping", "b"))
    assert pool.ctx.inboxes[0].frames == []
    with pytest.raises(OverloadedError):
        pool.submit("attach", "c", {"name": "c", "data": (1,), "mutable": False})
    # Worker 1 had no room, so worker 0 must not have been handed the
    # attach either -- or it would serve a dataset nobody recorded, behind
    # a broadcast that can never complete.
    assert pool.ctx.inboxes[0].frames == []
    # Once worker 1 drains, the very same attach goes through everywhere.
    pool.answer_all()
    assert pings[-1].wait(5)    # the collector settles in order: backlog gone
    done = pool.submit("attach", "c", {"name": "c", "data": (1,), "mutable": False})
    assert [inbox.ops() for inbox in pool.ctx.inboxes] == [["attach"], ["attach"]]
    pool.answer_all()
    assert done.wait(5)


# -- the glue delivers what the pieces decide ------------------------------------


def test_close_answers_everything_in_flight_exactly_once(pool):
    pool.attach("d", mutable=False)
    answers = []
    for query in range(5):
        pool.supervisor.submit(
            {"op": "query", "rid": query, "dataset": "d"}, b"", CODEC,
            lambda header, body, codec: answers.append(header))
    pool.close()
    assert sorted(header["rid"] for header in answers) == [0, 1, 2, 3, 4]
    assert not any(header["ok"] for header in answers)
    assert pool.supervisor.health()["failed_requests"] == 5


def test_stats_merges_workers_and_carries_the_pool_health(pool):
    pool.attach("d", mutable=False)
    box, done = [], threading.Event()
    pool.supervisor.submit(
        {"op": "stats", "rid": 0, "dataset": "d"}, b"", CODEC,
        lambda *response: (box.append(response), done.set()))
    for worker_id, inbox in enumerate(pool.ctx.inboxes):
        (_tag, rid, header, _body, codec), = inbox.frames
        inbox.frames = []
        payload = {"dataset": "d", "queries": 10 + worker_id, "version": worker_id}
        pool.ctx.outbox.put(("res", worker_id, 0, rid, {"ok": True, "op": "stats"},
                             protocol.encode_body(payload, codec), codec))
    assert done.wait(5)
    (header, body, codec), = box
    stats = protocol.decode_body(body, codec)
    assert stats["queries"] == 21 and stats["version"] == 1
    assert stats["frontend"]["healthy_workers"] == 2


# -- four knobs fewer ------------------------------------------------------------

REMOVED = {"engine_opts": {}, "start_method": "spawn",
           "max_queue_per_worker": 16, "ready_timeout": 1.0}


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
        "workers", "store_root", "policy", "fault_plan", "fault_workers",
        "poll_seconds", "hedge_delay_ms", "journal_checkpoint_batches"]
    assert len(parameters(ServingFront)) == 10


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


def test_supervisor_reads_the_clock_only_at_its_entry_points():
    tree = ast.parse(Path(supervisor_module.__file__).read_text())
    readers = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute) and node.attr == "monotonic"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "time"):
                readers.add(function.name)
    assert readers == {"submit", "drain", "_collect_loop", "_monitor_loop"}
