"""Sync client for the serving front.

:class:`RemoteClient` speaks the frame protocol over TCP with one
connection *per calling thread* (thread-local sockets: N closed-loop
caller threads each get their own pipelined-free, request-response
stream, closed when its thread ends).  :meth:`RemoteClient.attach`
returns a :class:`RemoteDataset` that duck-types the local
:class:`~repro.service.dataset.Dataset` session surface -- ``kinds`` /
``name`` / ``mutable`` / ``dataset()`` / ``query`` / ``query_batch`` /
``apply_changes`` / ``stats`` / ``detach`` -- so code written against a
local session runs against the front unchanged.  A write acknowledges
what a local one does, ``{"version": n}``: the version it published,
which keeps counting across a re-home::

    client = RemoteClient(*front.address)
    ds = client.attach("events", data, kinds=["list-membership"], mutable=True)
    ds.query("list-membership", 7)

Structured error frames re-raise as their library exception classes
(:func:`~repro.service.frontend.protocol.raise_remote`); transport
failures raise :class:`~repro.core.errors.ProtocolError` and are counted
in ``client.protocol_errors``, which CI's frontend smoke asserts stays 0.

Resilience (idempotent reads only -- ``ping`` / ``query`` /
``query_batch`` / ``stats``):

* a ``deadline_ms`` budget (client-wide, ``RemoteClient(deadline_ms=)``,
  or per call, :meth:`RemoteClient.request`) rides the frame header end
  to end and bounds the local socket wait;
* ``Overloaded`` / ``WorkerFailed`` responses are retried with jittered
  exponential backoff up to ``retry_budget`` attempts (counted in
  ``client.retries``), never past the deadline;
* a broken socket (``ConnectionResetError`` / ``BrokenPipeError`` / a
  clean EOF) is transparently reconnected **once** per request (counted
  in ``client.reconnects``).

Writes (``attach`` / ``apply_changes`` / ``detach``) never retry and
never resend after a reconnect: a lost connection mid-write may or may
not have applied, and answers must never be silently wrong -- the
failure surfaces as :class:`~repro.core.errors.ProtocolError`.
"""

from __future__ import annotations

import random
import socket
import threading
import time
import weakref
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    WorkerFailedError,
)
from repro.service.frontend import protocol

__all__ = ["RemoteClient", "RemoteDataset"]

#: Ops safe to resend: reads with no server-side effects.
_IDEMPOTENT_OPS = frozenset({"ping", "query", "query_batch", "stats"})
#: The first retry's backoff; each later one doubles it, jittered.
_RETRY_BACKOFF_SECONDS = 0.01


def _close_transport(sock: socket.socket, stream: Any) -> None:
    for closable in (stream, sock):  # the stream flushes first...
        try:
            closable.close()
        except OSError:  # ...and raises on a dead socket: go on, or
            pass         # the socket's fd is never released


class _Connection:
    """One thread's socket, its stream and its request counter.

    Only the owning thread's ``threading.local`` holds it strongly, so when
    that thread ends the connection dies and :attr:`close` -- a finalizer,
    also called directly to drop or shut it -- closes the socket.
    """

    __slots__ = ("sock", "stream", "rid", "close", "__weakref__")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.stream = sock.makefile("rwb")
        self.rid = 0
        self.close = weakref.finalize(self, _close_transport, sock, self.stream)


class RemoteClient:
    """One serving-front endpoint, shared safely across threads."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        codec: Optional[int] = None,
        timeout: float = 60.0,
        deadline_ms: Optional[float] = None,
        retry_budget: int = 2,
    ):
        self._host = host
        self._port = port
        self._codec = protocol.CODEC_JSON if codec is None else codec
        self._timeout = timeout
        #: Default end-to-end budget attached to every request; None means
        #: no deadline unless the call site provides one.
        self._deadline_ms = deadline_ms
        self._retry_budget = retry_budget
        # Jitter perturbs retry *timing* only; fixed seed keeps runs
        # reproducible.
        self._rng = random.Random(0xC11E)
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        #: Every live thread's connection, for :meth:`close`.
        self._conns: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._errors_lock = threading.Lock()
        #: Transport/protocol failures observed by this client.  Zero on a
        #: healthy front: structured service errors do not count, and
        #: neither does a transparent reconnect that succeeds.
        self.protocol_errors = 0
        #: Idempotent reads resent after backoff (Overloaded/WorkerFailed).
        self.retries = 0
        #: Broken sockets transparently re-dialed for idempotent reads.
        self.reconnects = 0

    # -- transport -------------------------------------------------------------

    def _connection(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._local.conn = _Connection(sock)
            with self._conns_lock:
                self._conns.add(conn)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            conn.close()
            with self._conns_lock:
                self._conns.discard(conn)

    def _count_protocol_error(self) -> None:
        with self._errors_lock:
            self.protocol_errors += 1

    def request(self, op: str, *, dataset: Optional[str] = None,
                value: Any = None, deadline_ms: Optional[float] = None) -> Any:
        """One request-response exchange on this thread's connection.

        Idempotent reads get the resilience envelope (budgeted backoff
        retries, one transparent reconnect, deadline accounting); writes
        take exactly one shot and fail loudly.
        """
        if deadline_ms is None:
            deadline_ms = self._deadline_ms
        idempotent = op in _IDEMPOTENT_OPS
        start = time.monotonic()
        attempt = 0
        reconnected = False
        while True:
            remaining = None
            if deadline_ms is not None:
                remaining = deadline_ms - (time.monotonic() - start) * 1000.0
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"request {op!r} ran out of budget on the client "
                        f"({deadline_ms} ms, including local retries)",
                        op=op, dataset=dataset,
                        elapsed_ms=(time.monotonic() - start) * 1000.0,
                        budget_ms=float(deadline_ms),
                    )
            try:
                return self._roundtrip(op, dataset, value, remaining)
            except (ConnectionResetError, BrokenPipeError) as exc:
                # The socket died under us.  A read can safely re-dial and
                # resend once; a write may already have applied, so it
                # must fail loudly instead.
                if idempotent and not reconnected:
                    reconnected = True
                    with self._errors_lock:
                        self.reconnects += 1
                    continue
                self._count_protocol_error()
                raise ProtocolError(
                    f"connection to serving front lost: {exc}"
                ) from exc
            except (OverloadedError, WorkerFailedError):
                if not idempotent or attempt >= self._retry_budget:
                    raise
                attempt += 1
                backoff = _RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))
                backoff *= 0.5 + self._rng.random()
                if remaining is not None:
                    backoff = min(backoff, max(0.0, remaining / 1000.0))
                with self._errors_lock:
                    self.retries += 1
                time.sleep(backoff)

    def _roundtrip(self, op: str, dataset: Optional[str], value: Any,
                   deadline_ms: Optional[float]) -> Any:
        """One frame out, one frame back.  Raises ``ConnectionResetError``
        / ``BrokenPipeError`` raw (the caller decides whether a resend is
        safe); everything else surfaces as library errors."""
        conn = self._connection()
        conn.rid += 1
        rid = conn.rid
        header = protocol.request_header(op, rid, dataset, value)
        if deadline_ms is not None:
            header["deadline_ms"] = deadline_ms
        try:
            encode = protocol.encode_attach if op == "attach" else protocol.encode_body
            frame = protocol.pack_frame(header, body_bytes=encode(value, self._codec),
                                        codec=self._codec)
        except ProtocolError:
            self._count_protocol_error()
            raise
        sock, stream = conn.sock, conn.stream
        # Bound the socket wait by the budget (plus slack for the typed
        # error frame to come back) so an expiry is never a 60s stall.
        if deadline_ms is not None:
            sock.settimeout(min(self._timeout, deadline_ms / 1000.0 + 5.0))
        else:
            sock.settimeout(self._timeout)
        try:
            stream.write(frame)
            stream.flush()
            response = protocol.read_frame(stream)
        except ProtocolError:
            self._count_protocol_error()
            self._drop_connection()
            raise
        except (ConnectionResetError, BrokenPipeError):
            self._drop_connection()
            raise
        except OSError as exc:
            self._count_protocol_error()
            self._drop_connection()
            raise ProtocolError(f"connection to serving front lost: {exc}") from exc
        if response is None:
            # Clean EOF: the peer hung up between requests -- same
            # recovery story as a reset socket.
            self._drop_connection()
            raise ConnectionResetError("serving front closed the connection")
        rheader, rbody, rcodec = response
        if rheader.get("rid") not in (rid, None):
            self._count_protocol_error()
            self._drop_connection()
            raise ProtocolError(
                f"response rid {rheader.get('rid')} does not match request {rid}"
            )
        payload = protocol.decode_body(rbody, rcodec) if rbody else None
        if rheader.get("ok"):
            return payload
        protocol.raise_remote(payload)

    # -- the op surface --------------------------------------------------------

    def attach(
        self,
        name: str,
        data: Any,
        *,
        kinds: Optional[Sequence[str]] = None,
        shards: int = 1,
        mutable: bool = False,
    ) -> "RemoteDataset":
        """Attach ``data`` on the front (every worker for immutable data,
        one home worker for mutable) and return the session facade.  A
        tuple or list of plain ints travels as one packed column
        (:func:`~repro.service.frontend.protocol.encode_attach`)."""
        ack = self.request(
            "attach",
            dataset=name,
            value={
                "name": name,
                "data": data,
                "kinds": list(kinds) if kinds is not None else None,
                "shards": shards,
                "mutable": mutable,
            },
        )
        return RemoteDataset(self, ack["name"], list(ack["kinds"]),
                             bool(ack["mutable"]), data)

    def close(self) -> None:
        with self._conns_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class RemoteDataset:
    """The remote twin of a :class:`~repro.service.dataset.Dataset` session.

    ``dataset()`` returns the locally held attach payload: the content as
    of attach time, which later remote writes do not change.
    """

    def __init__(self, client: RemoteClient, name: str, kinds: List[str],
                 mutable: bool, data: Any):
        self._client = client
        self._name = name
        self._kinds = list(kinds)
        self._mutable = mutable
        self._data = data
        self._detached = False

    @property
    def name(self) -> str:
        return self._name

    @property
    def kinds(self) -> List[str]:
        return list(self._kinds)

    @property
    def mutable(self) -> bool:
        return self._mutable

    def dataset(self) -> Any:
        return self._data

    def query(self, kind: str, query: Any) -> Any:
        return self._client.request(
            "query", dataset=self._name, value={"kind": kind, "query": query},
        )

    def query_batch(self, pairs: Iterable[Tuple[str, Any]]) -> List[Any]:
        return self._client.request(
            "query_batch", dataset=self._name,
            value={"pairs": [tuple(pair) for pair in pairs]},
        )

    def apply_changes(self, changes: Iterable[Any]) -> Dict[str, Any]:
        return self._client.request(
            "apply_changes", dataset=self._name,
            value={"changes": list(changes)},
        )

    def stats(self) -> Dict[str, Any]:
        return self._client.request("stats", dataset=self._name)

    def detach(self) -> None:
        if self._detached:
            return
        # Flag only once the front said yes: a refused detach (e.g.
        # Overloaded) leaves the dataset served, so a retry must send again.
        self._client.request("detach", dataset=self._name)
        self._detached = True

    def __enter__(self) -> "RemoteDataset":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()
