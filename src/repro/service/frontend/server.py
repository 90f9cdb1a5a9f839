"""The asyncio TCP gateway and the one-call serving-front harness.

The :class:`Gateway` is deliberately thin: it reads length-prefixed
frames, admits or sheds them, and relays the *opaque* body bytes to the
backend (a :class:`~repro.service.frontend.supervisor.Supervisor`) -- it
never decodes a request body, so frame decode cost lands on the worker
processes, in parallel.

Admission control and backpressure, per dataset:

* ``max_inflight_per_dataset`` requests may be dispatched concurrently
  (an :class:`asyncio.Semaphore` per dataset name);
* up to ``queue_watermark`` more may *wait* for a permit;
* anything past the watermark is rejected immediately with a structured
  :class:`~repro.core.errors.OverloadedError` frame.  The gateway never
  buffers unboundedly -- a slow pool surfaces as explicit ``Overloaded``
  responses, not as silent queue growth and timeout collapse.

Deadline propagation: a frame may carry a relative ``deadline_ms``
budget (protocol v2).  The gateway stamps the arrival instant, rejects
already-expired work *before* admission with a typed
:class:`~repro.core.errors.DeadlineExceededError` (counter
``deadline_expired``), re-checks after the permit wait (time spent
queueing is part of the budget), and forwards only the *remaining*
budget downstream -- so the supervisor and workers each see an honest
number.

:class:`ServingFront` assembles the whole front -- supervisor + worker
pool + a gateway on the supervisor's event loop, so a request crosses no
thread between its socket and its worker's channel -- behind a context manager::

    with ServingFront(workers=2) as front:
        client = RemoteClient(*front.address)
        ...
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.service.frontend import protocol
from repro.service.frontend.supervisor import Supervisor

__all__ = ["GatewayConfig", "Gateway", "ServingFront"]


@dataclass(frozen=True)
class GatewayConfig:
    """Admission and framing knobs (see docs/architecture.md,
    "The serving front")."""

    #: Concurrent dispatches allowed per dataset.
    max_inflight_per_dataset: int = 64
    #: Requests allowed to *wait* for a permit, per dataset, before the
    #: gateway starts shedding with ``Overloaded``.
    queue_watermark: int = 128
    #: Hard frame-size ceiling, checked before the body is read.
    max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES


class _Admission:
    """Per-dataset permit state: ``pending`` counts dispatched + waiting."""

    __slots__ = ("semaphore", "pending")

    def __init__(self, permits: int):
        self.semaphore = asyncio.Semaphore(permits)
        self.pending = 0


def _header_problem(header: Dict[str, Any]) -> Optional[str]:
    """Why a request header is refused before admission, or None.

    Runs before any header value is hashed or compared, so a wire value of
    the wrong type is a :class:`~repro.core.errors.ProtocolError`, never a
    ``TypeError`` inside the gateway.
    """
    op = header.get("op")
    if not isinstance(op, str) or op not in protocol.REQUEST_OPS:
        return f"unknown op {op!r}"
    dataset = header.get("dataset")
    if dataset is not None and not isinstance(dataset, str):
        return f"dataset must be a string, got {type(dataset).__name__}"
    deadline_ms = header.get("deadline_ms")
    if deadline_ms is None:
        return None
    if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
        return f"deadline_ms must be a number, got {type(deadline_ms).__name__}"
    try:
        finite = math.isfinite(deadline_ms)
    except OverflowError:  # an int too large for a float
        finite = False
    return None if finite else "deadline_ms must be a finite number"


class Gateway:
    """Frame relay with admission control over a supervisor backend.

    The backend contract is three methods -- ``submit(header, body, codec,
    on_done)`` (called on the gateway's event loop; ``on_done`` fires on
    it, during the call or later), ``health()`` and ``close()`` -- which is
    exactly the :class:`Supervisor` surface, and small enough that
    backpressure tests plug in a stub that never answers.
    """

    def __init__(self, backend: Any, config: Optional[GatewayConfig] = None):
        self._backend = backend
        self.config = config or GatewayConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._admission: Dict[Optional[str], _Admission] = {}
        self.port: Optional[int] = None
        self.counters: Dict[str, int] = {
            "connections": 0,
            "frames": 0,
            "overloaded_rejections": 0,
            "protocol_errors": 0,
            "deadline_expired": 0,
        }

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.counters["connections"] += 1
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(
                        reader, max_frame_bytes=self.config.max_frame_bytes
                    )
                except ProtocolError as exc:
                    # A malformed or oversized frame poisons the stream
                    # position: answer structurally, then hang up.
                    self.counters["protocol_errors"] += 1
                    await self._write_error(writer, write_lock, None, None, exc)
                    break
                if frame is None:
                    break
                header, body, codec = frame
                arrival = time.monotonic()
                self.counters["frames"] += 1
                rid = header.get("rid")
                problem = _header_problem(header)
                if problem is not None:
                    # The frame itself was well formed: refuse it and keep
                    # the connection.
                    self.counters["protocol_errors"] += 1
                    await self._write_error(
                        writer, write_lock, rid, codec, ProtocolError(problem)
                    )
                    continue
                op = header["op"]
                deadline_ms = header.get("deadline_ms")
                if deadline_ms is not None and deadline_ms <= 0:
                    # Already expired on arrival: shed before admission,
                    # the cheapest point to refuse doomed work.
                    self.counters["deadline_expired"] += 1
                    await self._write_error(
                        writer, write_lock, rid, codec,
                        DeadlineExceededError(
                            f"request {op!r} arrived with an exhausted "
                            f"budget ({deadline_ms} ms remaining)",
                            op=op, dataset=header.get("dataset"),
                            elapsed_ms=0.0, budget_ms=float(deadline_ms),
                        ),
                    )
                    continue
                state = self._admission_for(header.get("dataset"))
                limit = (self.config.max_inflight_per_dataset
                         + self.config.queue_watermark)
                if state.pending >= limit:
                    self.counters["overloaded_rejections"] += 1
                    await self._write_error(
                        writer, write_lock, rid, codec,
                        OverloadedError(
                            f"dataset {header.get('dataset')!r} at admission "
                            f"limit ({limit} pending); back off and retry"
                        ),
                    )
                    continue
                state.pending += 1
                asyncio.ensure_future(
                    self._process(state, header, body, codec, writer,
                                  write_lock, arrival)
                )
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Shutdown path: the loop's owner cancels connection tasks
            # before stopping it.  Finish normally so the streams
            # machinery's done-callback does not log the cancellation as
            # an unhandled exception.
            pass
        finally:
            writer.close()

    def _admission_for(self, dataset: Optional[str]) -> _Admission:
        state = self._admission.get(dataset)
        if state is None:
            state = _Admission(self.config.max_inflight_per_dataset)
            self._admission[dataset] = state
        return state

    async def _process(self, state: _Admission, header: Dict[str, Any],
                       body: bytes, codec: int, writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock,
                       arrival: Optional[float] = None) -> None:
        deadline_ms = header.get("deadline_ms")

        async def shed_expired(waited_ms: float) -> None:
            self.counters["deadline_expired"] += 1
            await self._write_error(
                writer, write_lock, header.get("rid"), codec,
                DeadlineExceededError(
                    f"request {header.get('op')!r} expired waiting for "
                    f"an admission permit",
                    op=header.get("op"),
                    dataset=header.get("dataset"),
                    elapsed_ms=waited_ms,
                    budget_ms=float(deadline_ms),
                ),
            )

        try:
            if deadline_ms is not None:
                # The permit wait itself is bounded by the budget: a
                # request queued behind a saturated dataset is shed at
                # its deadline, never parked indefinitely.
                try:
                    await asyncio.wait_for(
                        state.semaphore.acquire(), timeout=deadline_ms / 1000.0
                    )
                except asyncio.TimeoutError:
                    await shed_expired((time.monotonic() - arrival) * 1000.0
                                       if arrival is not None else deadline_ms)
                    return
            else:
                await state.semaphore.acquire()
            try:
                if deadline_ms is not None and arrival is not None:
                    # The permit wait spent part of the budget; forward
                    # only what remains, or shed if nothing does.
                    waited_ms = (time.monotonic() - arrival) * 1000.0
                    remaining = deadline_ms - waited_ms
                    if remaining <= 0:
                        await shed_expired(waited_ms)
                        return
                    header["deadline_ms"] = remaining
                try:
                    rheader, rbody, rcodec = await self._dispatch(header, body, codec)
                except ReproError as exc:
                    await self._write_error(
                        writer, write_lock, header.get("rid"), codec, exc
                    )
                    return
            finally:
                state.semaphore.release()
            async with write_lock:
                try:
                    writer.write(protocol.pack_frame(
                        rheader, body_bytes=rbody, codec=rcodec,
                        max_frame_bytes=self.config.max_frame_bytes,
                    ))
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                    pass
        finally:
            state.pending -= 1
            # Idle: nothing holds or awaits this state's permits, so drop
            # it -- the map stays as large as the datasets in flight, not
            # every name ever sent.
            dataset = header.get("dataset")
            if state.pending == 0 and self._admission.get(dataset) is state:
                del self._admission[dataset]

    async def _dispatch(self, header: Dict[str, Any], body: bytes,
                        codec: int) -> Tuple[Dict[str, Any], bytes, int]:
        future: "asyncio.Future[Tuple[Dict[str, Any], bytes, int]]" = (
            asyncio.get_running_loop().create_future())

        def on_done(*response: Any) -> None:
            if not future.done():  # the waiter may have been cancelled
                future.set_result(response)

        self._backend.submit(header, body, codec, on_done)
        return await future

    async def _write_error(self, writer: asyncio.StreamWriter,
                           write_lock: asyncio.Lock, rid: Any,
                           codec: Optional[int], exc: BaseException) -> None:
        codec = protocol.CODEC_JSON if codec is None else codec
        header = {"rid": rid, "ok": False, "op": None}
        body = protocol.encode_body(protocol.error_payload(exc), codec)
        async with write_lock:
            try:
                writer.write(protocol.pack_frame(header, body_bytes=body, codec=codec))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    def close(self) -> None:
        """Stop listening; safe from any thread while the loop is alive."""
        if self._server is not None:
            self._server.get_loop().call_soon_threadsafe(self._server.close)


class ServingFront:
    """Gateway + supervisor + N worker processes, one context manager.

    All constructor arguments forward to :class:`Supervisor` (pool shape,
    shared ``store_root``, recovery policy) and :class:`GatewayConfig`
    (admission knobs).  ``address`` is the ``(host, port)`` the gateway
    actually bound -- port 0 picks a free one.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        store_root: Optional[str] = None,
        config: Optional[GatewayConfig] = None,
        policy: Optional[Any] = None,
        hedge_delay_ms: Optional[float] = 50.0,
        journal_checkpoint_batches: Optional[int] = 64,
    ):
        self._host = host
        self._port = port
        self.supervisor = Supervisor(
            workers,
            store_root=store_root,
            policy=policy,
            hedge_delay_ms=hedge_delay_ms,
            journal_checkpoint_batches=journal_checkpoint_batches,
        )
        self.gateway = Gateway(self.supervisor, config)
        self._running = False

    @property
    def address(self) -> Tuple[str, int]:
        if self.gateway.port is None:
            raise ServiceError("serving front is not started")
        return (self._host, self.gateway.port)

    def start(self) -> "ServingFront":
        if self._running:
            raise ServiceError("serving front already started")
        self.supervisor.start()
        try:
            self.supervisor.run(self.gateway.start(self._host, self._port))
        except OSError as exc:  # bind failures
            self.supervisor.close()
            raise ServiceError(f"gateway failed to start: {exc}") from exc
        self._running = True
        return self

    def close(self) -> None:
        if self._running:
            self._running = False
            self.gateway.close()
        # Closing the supervisor answers what is in flight, then cancels the
        # connection handlers as its loop winds down.
        self.supervisor.close()

    def __enter__(self) -> "ServingFront":
        if not self._running:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
