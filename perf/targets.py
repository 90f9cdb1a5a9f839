"""The two ways a workload reaches the program: in-process and over the wire.

Both targets expose the same small surface -- ``bind(session, method)``
returns the callable an op stream is replayed through -- and both are
built from public API only: ``build_query_engine`` / ``engine.attach`` /
``Dataset`` in-process, ``ServingFront`` (in a child process) /
``RemoteClient`` / ``RemoteDataset`` over loopback.  Configuration is the
default everywhere except ``workers=2``, a fresh ``store_root`` and the
JSON codec (always installed).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.catalog import build_query_engine
from repro.service.artifacts import ArtifactStore
from repro.service.frontend import RemoteClient, protocol

from perf.front_proc import rss_bytes

__all__ = ["SessionSpec", "LocalTarget", "WireTarget", "WORKERS"]

WORKERS = 2
CODEC = protocol.CODEC_JSON
CODEC_NAME = "json"
_FRONT_PROC = Path(__file__).resolve().parent / "front_proc.py"


@dataclass(frozen=True)
class SessionSpec:
    """One dataset a workload attaches."""

    data: Any
    kinds: Sequence[str]
    shards: int = 1
    mutable: bool = False


def _versioned_writer(apply: Callable[[list], int], version: int) -> Callable[[list], bool]:
    """Wrap an ``apply_changes`` so it answers "did the version advance by
    exactly one?" -- the single writer's read-your-writes precondition."""
    last = [version]

    def write(changes: list) -> bool:
        new = apply(changes)
        advanced = new == last[0] + 1
        last[0] = new
        return advanced

    return write


class _Target:
    """What both targets share: named sessions over one artifact store."""

    store: ArtifactStore
    sessions: Dict[str, Any]

    def stats(self) -> Dict[str, Dict[str, Any]]:
        return {name: ds.stats() for name, ds in self.sessions.items()}

    def store_bytes(self) -> int:
        return self.store.size_bytes()


class LocalTarget(_Target):
    """One engine over ``store_root``, sessions attached by name."""

    wire = False

    def __init__(self, store_root: str, sessions: Dict[str, SessionSpec]):
        self.store = ArtifactStore(store_root)
        self.engine = build_query_engine(store=self.store)
        begin = time.perf_counter()
        self.sessions = {
            name: self.engine.attach(
                name, spec.data, kinds=list(spec.kinds),
                shards=spec.shards, mutable=spec.mutable,
            )
            for name, spec in sessions.items()
        }
        self.attach_s = time.perf_counter() - begin
        # Build (or load) every structure now, shards included, so that
        # set-up means the same thing whatever the first queries touch.
        for dataset in self.sessions.values():
            dataset.warm()

    def bind(self, session: str, method: str) -> Callable:
        dataset = self.sessions[session]
        if method == "apply_changes":
            def apply(changes: list) -> int:
                dataset.apply_changes(changes)
                return dataset.version

            return _versioned_writer(apply, dataset.version)
        return getattr(dataset, method)

    def rss_bytes(self) -> List[int]:
        return [rss_bytes()]

    def health(self) -> Dict[str, Any]:
        return {"cache": self.engine.stats().stats_snapshot()["cache"]}

    def close(self) -> None:
        self.engine.close()


class WireTarget(_Target):
    """A front child process plus one ``RemoteClient`` (one connection per
    calling thread)."""

    wire = True

    def __init__(self, store_root: str, sessions: Dict[str, SessionSpec]):
        self.store = ArtifactStore(store_root)
        self._child = subprocess.Popen(
            [sys.executable, str(_FRONT_PROC), "--workers", str(WORKERS),
             "--store-root", store_root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        self.client: Optional[RemoteClient] = None
        try:
            ready = self._read()
            self.spawn_s = float(ready["spawn_s"])
            self.client = RemoteClient(ready["host"], ready["port"], codec=CODEC)
            begin = time.perf_counter()
            self.sessions = {
                name: self.client.attach(
                    name, spec.data, kinds=list(spec.kinds),
                    shards=spec.shards, mutable=spec.mutable,
                )
                for name, spec in sessions.items()
            }
            self.attach_s = time.perf_counter() - begin
        except BaseException:
            self.close()
            raise

    def _read(self) -> Dict[str, Any]:
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(
                f"front process exited early (code {self._child.poll()})"
            )
        return protocol.decode_body(line)

    def control(self, command: str, **fields: Any) -> Dict[str, Any]:
        request = dict(fields, cmd=command)
        self._child.stdin.write(protocol.encode_body(request) + b"\n")
        self._child.stdin.flush()
        return self._read()

    def bind(self, session: str, method: str) -> Callable:
        dataset = self.sessions[session]
        if method == "apply_changes":
            def apply(changes: list) -> int:
                return dataset.apply_changes(changes)["version"]

            return _versioned_writer(apply, dataset.stats()["version"])
        return getattr(dataset, method)

    def rss_bytes(self) -> List[int]:
        """Front process first, then each worker."""
        reply = self.control("rss")
        return [reply["front"]] + list(reply["workers"])

    def health(self) -> Dict[str, Any]:
        reply = self.control("health")
        counters = {
            "client.retries": self.client.retries,
            "client.reconnects": self.client.reconnects,
            "client.protocol_errors": self.client.protocol_errors,
        }
        return {"supervisor": reply["supervisor"], "gateway": reply["gateway"],
                "client": counters}

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        child = self._child
        if child.poll() is None:
            try:
                child.stdin.write(protocol.encode_body({"cmd": "stop"}) + b"\n")
                child.stdin.flush()
                child.stdin.close()
            except OSError:
                pass
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        # Whatever is left of the front's process group (the front itself if
        # it did not stop on request, a worker that outlived it) goes now,
        # so nothing outlives the run.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait(timeout=30)
        child.stdout.close()
