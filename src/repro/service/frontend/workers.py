"""Worker processes of the serving front: one ``QueryEngine`` each.

A worker is a child process running :func:`worker_main`: it builds a
catalog-aware engine that loads a kind when an attach names it, against the
*shared* on-disk :class:`~repro.service.artifacts.ArtifactStore` directory,
then serves its channel -- read a request frame, decode its body, serve it
through the dataset-first engine surface, encode the response, write the
response frame back.  An attach's packed run stays a
:class:`~repro.storage.packed.PackedRun`: a worker serving an immutable
unsharded session never boxes D, whether it loads Pi(D) from the store or
builds it from the run's machine words (a sharded split, a mutable
session and ``Dataset.data`` still do).  Because artifacts are
content-addressed, workers are cache-coherent for free: the first worker
to attach a dataset builds and
persists the Pi-structures, every later worker (and every restarted
worker) loads the same bytes by key.  Nothing is shared in memory; the
store directory *is* the coherence protocol.

The request-handling logic lives in :func:`handle_request` /
:func:`handle_frame`, plain functions over an engine -- the process loop
around them is deliberately thin, so the protocol semantics are unit
tested in-process without spawning anything.

The channel is one end of a ``socket.socketpair()`` carrying the client's
own wire format (:mod:`~repro.service.frontend.protocol`) both ways; the
``rid`` in a header is the supervisor's attempt id and the response echoes
it.  Ready is the first ``ping`` answered and stop is end-of-file -- also
what a worker reads when its supervisor dies, so none outlives it.  One
thread, blocking reads, no ``asyncio``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

from repro.core.errors import (
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.service.frontend import protocol

__all__ = ["handle_request", "handle_frame", "merge_stats", "worker_main"]

_MAX_KEYS = frozenset({"version"})
#: The per-kind counters ``SchemeStats.hit_rate`` is a ratio of (the front
#: does not import the engine, so the formula is restated over the keys).
_HIT_KEYS = ("cache_hits", "store_hits")


def merge_stats(base: Dict[str, Any], other: Dict[str, Any]) -> None:
    """Fold one worker's ``stats`` snapshot into an aggregate, in place.

    Counters add, ``version`` takes the maximum, identity (strings, bools)
    keeps the first responder's value, and a per-kind ``hit_rate`` is
    recomputed from the merged counters: a ratio of sums.
    """
    for key, value in other.items():
        if key not in base:
            base[key] = value
        elif isinstance(value, dict) and isinstance(base[key], dict):
            merge_stats(base[key], value)
        elif isinstance(value, bool):
            pass
        elif isinstance(value, (int, float)) and isinstance(base[key], (int, float)):
            if key in _MAX_KEYS:
                base[key] = max(base[key], value)
            else:
                base[key] = base[key] + value
    if "hit_rate" in base:
        hits = sum(base.get(key, 0) for key in _HIT_KEYS)
        resolutions = hits + base.get("builds", 0)
        base["hit_rate"] = hits / resolutions if resolutions else 0.0


def check_deadline(header: Dict[str, Any]) -> None:
    """Refuse work whose budget expired while the frame sat in the inbox.

    The supervisor stamps ``deadline_mono`` (an absolute
    ``time.monotonic()`` instant -- CLOCK_MONOTONIC is system-wide, so
    parent and child processes share it) next to the client's original
    ``deadline_ms`` budget.  A worker that starts an already-expired serve
    would burn CPU on an answer nobody is waiting for; shedding it here is
    the cheapest point in the pipeline.
    """
    deadline_mono = header.get("deadline_mono")
    if deadline_mono is None:
        return
    now = time.monotonic()
    if now < deadline_mono:
        return
    budget_ms = header.get("deadline_ms")
    overshoot_ms = (now - deadline_mono) * 1000.0
    elapsed_ms = (
        budget_ms + overshoot_ms if isinstance(budget_ms, (int, float)) else None
    )
    raise DeadlineExceededError(
        f"request {header.get('op')!r} expired before serving started "
        f"(budget {budget_ms} ms, {overshoot_ms:.1f} ms past deadline)",
        op=header.get("op"),
        dataset=header.get("dataset"),
        elapsed_ms=elapsed_ms,
        budget_ms=budget_ms if isinstance(budget_ms, (int, float)) else None,
    )


def handle_request(engine: Any, header: Dict[str, Any], params: Any) -> Any:
    """Serve one decoded request against ``engine``; raises on error.

    ``header`` carries routing identity (``op``, ``dataset``); ``params``
    is the decoded body.  This is the entire op surface of the protocol.
    """
    op = header.get("op")
    name = header.get("dataset")
    if op == "ping":
        return "pong"
    if op == "attach":
        # A checkpointed baseline's version (placement.Journal): validated
        # before attaching, so a refused body leaves no session behind.
        version = params.get("version", 0)
        if type(version) is not int or version < 0:
            raise ProtocolError(
                f"attach version must be a non-negative int, got {version!r}"
            )
        # The front routed (and journalled) by the header without reading
        # this body; both come from outside, so they must tell one story.
        said = (params["name"], bool(params.get("mutable", False)))
        routed = (name, header.get("mutable", False))
        if said != routed:
            raise ProtocolError(
                f"attach body says (name, mutable) = {said!r} but the frame "
                f"header says {routed!r}"
            )
        ds = engine.attach(
            params["name"],
            params["data"],
            kinds=params.get("kinds"),
            shards=params.get("shards", 1),
            mutable=params.get("mutable", False),
        )
        ds.resume_at(version)
        return {
            "name": ds.name,
            "kinds": list(ds.kinds),
            "mutable": ds.mutable,
            "version": ds.version,
        }
    if name is None:
        raise ProtocolError(f"op {op!r} requires a dataset in the frame header")
    ds = engine.dataset(name)
    if op == "query":
        return ds.query(params["kind"], params["query"])
    if op == "query_batch":
        pairs = [(kind, query) for kind, query in params["pairs"]]
        return ds.query_batch(pairs)
    if op == "apply_changes":
        return ds.apply_changes(params["changes"])
    if op == "replay":
        # A re-home's journal in one frame (placement.Journal.frames): each
        # acknowledged batch applied as its own, so versions count as they did.
        ack = {"version": ds.version}
        for batch in params:
            ack = ds.apply_changes(batch["changes"])
        return ack
    if op == "stats":
        return ds.stats()
    if op == "snapshot":
        # A whole attach body: the front adopts it verbatim as a new baseline
        # (by the name / version / mutable handle_frame copies to the header).
        # An immutable session's payload is as attached: a packed run stays so.
        return {"name": ds.name, "data": ds.dataset(), "kinds": ds.kinds,
                "shards": ds.shards, "mutable": ds.mutable, "version": ds.version}
    if op == "detach":
        ds.detach()
        return True
    raise ProtocolError(f"unknown op {op!r}; one of {sorted(protocol.REQUEST_OPS)}")


def handle_frame(
    engine: Any, header: Dict[str, Any], body: bytes, codec: int
) -> Tuple[Dict[str, Any], bytes]:
    """Decode, serve, encode: one request frame -> one response frame.

    Library errors (and worker bugs) become structured error frames -- the
    loop around this never dies on a bad request.
    """
    rid = header.get("rid")
    try:
        check_deadline(header)
        # A packed run stays packed: loading or building Pi(D) boxes no value of D.
        params = protocol.decode_body(body, codec, keep_packed=True) if body else None
        value = handle_request(engine, header, params)
        response_header = {"rid": rid, "ok": True, "op": header.get("op")}
        if response_header["op"] == "snapshot":
            # The front adopts the body by these fields, never parsing it.
            response_header.update(name=value["name"], version=value["version"],
                                   mutable=value["mutable"])
            return response_header, protocol.encode_attach(value, codec)
        return response_header, protocol.encode_body(value, codec)
    except ReproError as exc:
        payload = protocol.error_payload(exc)
    except Exception as exc:
        # A worker bug must surface as a structured error, not a hung
        # request; raise_remote maps unknown names to ServiceError.
        payload = protocol.error_payload(exc)
    # ``etype`` lets the supervisor classify failures (deadline expiries
    # feed circuit breakers and counters) without decoding the body.
    response_header = {"rid": rid, "ok": False, "op": header.get("op"),
                       "etype": payload["type"]}
    return response_header, protocol.encode_body(payload, codec)


def _build_engine(settings: Dict[str, Any]) -> Any:
    from repro.catalog import build_query_engine
    from repro.service.artifacts import ArtifactStore

    store_root = settings.get("store_root")
    store = ArtifactStore(store_root) if store_root is not None else None
    return build_query_engine(store=store)


def worker_main(channel: Any, settings: Dict[str, Any]) -> None:  # pragma: no cover
    """Process entry point: build the engine, then serve ``channel`` (this
    worker's end of the supervisor's socketpair) until end-of-file.

    ``settings`` is a picklable dict, ``{"store_root": ...}``.  Each
    request frame goes through the module-level :func:`handle_frame`,
    looked up per frame.
    """
    engine = _build_engine(settings)
    try:
        with channel, channel.makefile("rb") as frames:
            while True:
                frame = protocol.read_frame(
                    frames, max_frame_bytes=protocol.MAX_FRAME_BYTES)
                if frame is None:
                    break  # half-closed by close(), or the supervisor died
                header, body, codec = frame
                response_header, response_body = handle_frame(
                    engine, header, body, codec)
                channel.sendall(protocol.pack_frame(
                    response_header, body_bytes=response_body, codec=codec,
                    max_frame_bytes=protocol.MAX_FRAME_BYTES))
    except (OSError, ProtocolError):
        pass  # the supervisor died mid-frame: nobody is left to answer
    finally:
        try:
            engine.close()
        except ServiceError:
            pass
