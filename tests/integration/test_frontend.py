"""End-to-end serving-front tests (ISSUE 9): gateway + 2 worker processes.

One module-scoped :class:`ServingFront` (two spawn-start workers over a
shared on-disk store) serves every test here; each test uses its own
dataset names so order does not matter.  The headline assertions:

* the full op surface works over the wire (attach / query / query_batch /
  apply_changes / stats / detach) with answers identical to a local
  engine's,
* remote errors re-raise as their library classes,
* a reader thread and a writer thread share one mutable
  :class:`RemoteDataset` with zero errors, every write read back, and
  zero client protocol errors.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.errors import (
    DeadlineExceededError,
    DeltaError,
    OverloadedError,
    ProtocolError,
    ServiceError,
    UnknownDatasetError,
)
from repro.incremental.changes import ChangeKind, PointWrite, TupleChange
from repro.service.engine import SchemeStats
from repro.service.frontend import RemoteClient, RemoteDataset, ServingFront, protocol


@pytest.fixture(scope="module")
def front(tmp_path_factory):
    root = tmp_path_factory.mktemp("front-store")
    with ServingFront(workers=2, store_root=str(root)) as serving:
        yield serving


@pytest.fixture(scope="module")
def client(front):
    with RemoteClient(*front.address) as remote:
        yield remote


def _proc_status(pid, field):
    """One field of ``/proc/<pid>/status``; None once the process is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def test_thread_census_of_a_started_front(front):
    """First in the file on purpose: the census is of a front that has only
    started.  One loop thread owns the gateway *and* the worker channels --
    no gateway, collector or monitor thread, no queue feeder -- and a
    worker is a single thread blocking on its channel."""
    names = [thread.name for thread in threading.enumerate()]
    assert names.count("frontend-loop") == 1
    assert not [name for name in names
                if name in ("frontend-gateway", "frontend-collector",
                            "frontend-monitor")
                or name.startswith("QueueFeederThread")]
    workers = [child for child in multiprocessing.active_children()
               if child.name.startswith("frontend-worker-")]
    assert len(workers) == 2
    if sys.platform.startswith("linux"):
        assert [_proc_status(child.pid, "Threads") for child in workers] == ["1", "1"]


def _ping(remote):
    return remote.request("ping", dataset="") == "pong"


def test_ping_and_full_immutable_surface(client):
    assert _ping(client)
    data = tuple(range(128))
    with client.attach("imm", data, kinds=["list-membership", "minimum-range-query"]) as ds:
        assert ds.name == "imm"
        assert set(ds.kinds) == {"list-membership", "minimum-range-query"}
        assert ds.mutable is False
        assert ds.dataset() == data

        assert ds.query("list-membership", 7) is True
        assert ds.query("list-membership", 999) is False
        # RMQ travels as a tagged tuple and answers like the local engine.
        assert ds.query("minimum-range-query", (0, 127, 0)) is True
        answers = ds.query_batch(
            [("list-membership", q) for q in (0, 64, 127, 128, -1)]
        )
        assert answers == [True, True, True, False, False]

        stats = ds.stats()
        # Aggregated over both workers, with the supervision story injected.
        assert stats["frontend"]["workers"] == 2
        assert stats["frontend"]["healthy_workers"] == 2
        assert stats["frontend"]["worker_restarts"] == 0
        membership = stats["kinds"]["list-membership"]
        assert membership["queries"] >= 5
        # One structure, resolved once per worker: a ratio of the merged sums.
        assert membership["hit_rate"] == SchemeStats(**{
            key: value for key, value in membership.items() if key != "hit_rate"
        }).hit_rate
    # context exit detached: the name is gone on every worker
    with pytest.raises(UnknownDatasetError):
        client.request("query", dataset="imm",
                       value={"kind": "list-membership", "query": 1})


def test_mutable_dataset_is_homed_and_versioned(client):
    data = tuple(range(64))
    ds = client.attach("mut", data, kinds=["list-membership"], mutable=True)
    assert ds.mutable is True
    assert ds.query("list-membership", 99) is False
    ack = ds.apply_changes([TupleChange(ChangeKind.INSERT, (99,))])
    assert ack == {"version": 1}
    assert ds.query("list-membership", 99) is True
    ack = ds.apply_changes([TupleChange(ChangeKind.DELETE, (7,))])
    assert ack == {"version": 2}
    assert ds.query("list-membership", 7) is False
    stats = ds.stats()
    assert stats["mutable"] is True
    assert stats["version"] == 2
    assert "frontend" in stats
    ds.detach()
    ds.detach()  # idempotent client-side


def test_malformed_wire_change_is_refused_before_the_home_moves(client):
    """JSON has no int/float split a client can rely on: a float position
    reaches the home as a float and is refused whole, as a DeltaError."""
    with client.attach("refused", (1, 2, 3), kinds=["list-membership"], mutable=True) as ds:
        with pytest.raises(DeltaError):
            ds.apply_changes([PointWrite(2, 9), PointWrite(1.5, 7)])
        assert ds.dataset() == (1, 2, 3)
        assert ds.query("list-membership", 9) is False
        assert ds.apply_changes([TupleChange(ChangeKind.DELETE, (9,))])["version"] == 0


def test_remote_errors_carry_their_classes(front, client):
    with pytest.raises(UnknownDatasetError):
        client.request("stats", dataset="never-attached")
    with pytest.raises(ProtocolError, match="unknown op"):
        client.request("reboot", dataset="x")
    # A v1-stamped frame is refused by a structured frame naming the version.
    ping = protocol.pack_frame({"op": "ping", "rid": 1, "dataset": ""}, None)
    with socket.create_connection(front.address, timeout=10) as sock:
        sock.sendall(ping[:2] + bytes([1]) + ping[3:])
        with sock.makefile("rb") as stream:
            header, body, codec = protocol.read_frame(stream)
    assert header["ok"] is False
    with pytest.raises(ProtocolError, match="unsupported protocol version 1;"):
        protocol.raise_remote(protocol.decode_body(body, codec))
    # Structured errors do not poison the connection or count as
    # protocol errors client-side... except the unknown op above, which
    # is itself a ProtocolError raised from a *structured* frame.
    assert _ping(client)
    assert client.protocol_errors == 0


def test_answers_match_a_local_reference(client):
    data = tuple(range(0, 200, 3))
    reference = set(data)
    with client.attach("ref", data, kinds=["list-membership"]) as ds:
        queries = list(range(-5, 205, 7))
        answers = ds.query_batch([("list-membership", q) for q in queries])
        assert answers == [q in reference for q in queries]


def test_reader_and_writer_threads_share_a_mutable_remote_dataset(client):
    """Two caller threads, each on its own connection: one only reads, the
    other inserts and reads its own write back.  No call raises, every
    batch is acknowledged in order, and the client saw no protocol error."""
    writes = 12
    with client.attach("rw-threads", tuple(range(256)), kinds=["list-membership"],
                       mutable=True) as ds:

        def reader():
            for value in range(120):
                assert ds.query("list-membership", value % 256) is True

        def writer():
            for step in range(writes):
                ack = ds.apply_changes(
                    [TupleChange(ChangeKind.INSERT, (1000 + step,))])
                assert ack["version"] == step + 1
                assert ds.query("list-membership", 1000 + step) is True

        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(reader), pool.submit(writer)]:
                future.result(timeout=60)  # re-raises what its thread raised
        assert ds.stats()["version"] == writes
    assert client.protocol_errors == 0


def test_deadline_travels_the_wire(front, client):
    """A budget is client-wide (``RemoteClient(deadline_ms=)``), so each
    budget gets its own client over the one attached dataset.  A generous
    budget never interferes; an impossible one surfaces as a typed
    :class:`DeadlineExceededError` carrying the request identity -- from
    whichever layer (client, gateway, supervisor, worker) shed it first;
    no budget answers."""
    data = tuple(range(32))
    with client.attach("dl", data, kinds=["list-membership"]) as ds:
        with RemoteClient(*front.address, deadline_ms=10_000.0) as generous:
            session = RemoteDataset(generous, "dl", ds.kinds, False, data)
            assert session.query("list-membership", 7) is True
        # sub-microsecond: expires in flight
        with RemoteClient(*front.address, deadline_ms=0.001) as impossible:
            session = RemoteDataset(impossible, "dl", ds.kinds, False, data)
            with pytest.raises(DeadlineExceededError) as excinfo:
                session.query("list-membership", 7)
        assert excinfo.value.op == "query"
        assert excinfo.value.dataset == "dl"
        assert ds.query("list-membership", 7) is True  # no budget


def test_wire_attach_refuses_a_float_shard_count(client):
    """JSON gives a client no int/float split: ``shards=2.0`` reaches the
    workers as a float and is refused whole, so the name stays free."""
    data = tuple(range(64))
    with pytest.raises(ServiceError, match="shards must be an int"):
        client.attach("float-shards", data, kinds=["list-membership"], shards=2.0)
    with client.attach("float-shards", data, kinds=["list-membership"], shards=2) as ds:
        assert ds.query("list-membership", 7) is True


def test_finished_threads_release_their_connections(front):
    """Each calling thread gets its own connection; when the thread ends,
    the connection closes and the client forgets it."""
    with RemoteClient(*front.address) as remote:
        assert _ping(remote)
        for _ in range(8):
            worker = threading.Thread(target=_ping, args=(remote,))
            worker.start()
            worker.join()
        gc.collect()
        assert len(remote._conns) <= 1  # the calling thread's own
        assert _ping(remote)


def test_a_refused_remote_detach_can_be_retried():
    """The session counts as detached only once the front acknowledged it:
    a refused detach leaves the dataset served, so the next call resends."""

    class RefusesOnce:
        def __init__(self):
            self.sent = []

        def request(self, op, **kwargs):
            self.sent.append(op)
            if len(self.sent) == 1:
                raise OverloadedError("front is full")
            return True

    stub = RefusesOnce()
    ds = RemoteDataset(stub, "d", ["list-membership"], False, (1, 2))
    with pytest.raises(OverloadedError):
        ds.detach()
    ds.detach()
    ds.detach()  # acknowledged: idempotent from here on
    assert stub.sent == ["detach", "detach"]


def test_client_reconnects_transparently_for_idempotent_reads(front):
    """A broken socket under an idempotent read heals with one transparent
    reconnect (no error, no protocol_errors count); the same break under a
    write fails loudly -- the client cannot know whether it applied."""
    data = tuple(range(16))
    with RemoteClient(*front.address) as remote:
        with remote.attach("reconn", data, kinds=["list-membership"],
                           mutable=True) as ds:
            assert ds.query("list-membership", 3) is True
            broken = remote._local.conn.sock
            broken.shutdown(socket.SHUT_RDWR)
            assert ds.query("list-membership", 3) is True
            assert remote.reconnects == 1
            assert remote.protocol_errors == 0
            # The dead socket's fd was released, not leaked, even though
            # closing its stream (which flushes) raised first.
            assert broken.fileno() == -1

            remote._local.conn.sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(ProtocolError, match="connection"):
                ds.apply_changes([TupleChange(ChangeKind.INSERT, (99,))])
            assert remote.protocol_errors == 1
            # The next call opens a fresh connection and serves normally.
            assert ds.query("list-membership", 3) is True


def test_journal_checkpoints_and_drain_rehomes(tmp_path):
    """Satellite pair on a dedicated front: once the acked write batches'
    bytes reach the baseline's, the supervisor swaps the mutable dataset's
    snapshot in as its attach baseline and truncates its journal; ``drain``
    then re-homes the dataset onto the sibling worker with every write
    intact."""
    with ServingFront(workers=2, store_root=str(tmp_path)) as serving:
        with RemoteClient(*serving.address) as remote:
            # A baseline so small that two one-row batches outweigh it
            # (~140 B against ~119 B a batch), and the ~160 B snapshots too.
            ds = remote.attach("mutchk", tuple(range(4)),
                               kinds=["list-membership"], mutable=True)
            for value in range(100, 105):
                ds.apply_changes([TupleChange(ChangeKind.INSERT, (value,))])
            # Checkpointing is asynchronous: wait for the two swaps
            # (batches 1-2 and 3-4; batch 5 stays journaled).
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if serving.supervisor.health()["journal_checkpoints"] >= 2:
                    break
                time.sleep(0.02)
            health = serving.supervisor.health()
            assert health["journal_checkpoints"] >= 2
            assert health["journal_checkpoint_failures"] == 0

            # Drain whichever worker homes the dataset; the other drain is
            # a no-op for it.
            report = serving.supervisor.drain(0)
            if "mutchk" not in report["rehomed"]:
                serving.supervisor.undrain(0)
                report = serving.supervisor.drain(1)
            assert "mutchk" in report["rehomed"]
            assert report["drained"] is True
            assert serving.supervisor.health()["drains"] >= 1

            # Post-drain, reads see every pre-drain write and new writes
            # land on the new home, at the version the client last saw + 1.
            for value in range(100, 105):
                assert ds.query("list-membership", value) is True
            ack = ds.apply_changes([TupleChange(ChangeKind.INSERT, (200,))])
            assert ack == {"version": 6}
            assert ds.query("list-membership", 200) is True


_ORPHAN_FRONT = """
import multiprocessing, time
from repro.service.frontend import ServingFront

front = ServingFront(workers=2).start()
print(*[child.pid for child in multiprocessing.active_children()], flush=True)
time.sleep(60)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_do_not_outlive_a_killed_front():
    """``SIGKILL`` the front process: nothing runs its ``close()``, yet each
    worker reads end-of-file on its channel and exits -- quietly, and with
    nothing left behind for the resource tracker to report."""
    import repro

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]),
         *filter(None, [os.environ.get("PYTHONPATH")])]))
    front = subprocess.Popen([sys.executable, "-c", _ORPHAN_FRONT], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    try:
        pids = [int(pid) for pid in front.stdout.readline().split()]
        assert len(pids) == 2, front.stderr.read()
        front.send_signal(signal.SIGKILL)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            # Gone, or a zombie nobody has reaped yet: not running either way.
            states = [_proc_status(pid, "State") for pid in pids]
            if all(state is None or state.startswith("Z") for state in states):
                break
            time.sleep(0.02)
        assert all(state is None or state.startswith("Z") for state in states), states
        # stderr reaches end-of-file once the workers *and* the resource
        # tracker have gone; whatever they had to say is in it.
        _, stderr = front.communicate(timeout=10)
        assert "resource_tracker" not in stderr and "Traceback" not in stderr, stderr
    finally:
        front.kill()
        front.wait()
