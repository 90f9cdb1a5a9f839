"""The worker row's seam: slot 0 of the pool crashes or stalls on cue.

``Supervisor._spawn`` starts every worker process with the module-level
``supervisor.worker_main`` as its target.  :func:`crash_slot_zero` and
:func:`stall_slot_zero` monkeypatch that global with a ``functools.partial``
of :func:`faulty_worker_main`, which pickles by reference into the spawned
child (the child inherits this directory on ``sys.path``).  In the child it
patches ``workers.handle_frame`` -- which the real ``workers.worker_main``
looks up per frame -- and then runs the real loop.  Only the process named
``frontend-worker-0`` misbehaves, and only on read frames (``query`` /
``query_batch``), counted per process.

A crash is ``os._exit``: no exception, no cleanup, no response frame.  It
first writes a marker file, and a slot that finds the marker serves
normally, so the restarted slot models one crash event, not a crashing
binary.  A stall sleeps before serving the frame: the worker stays alive
while its callers wait.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from functools import partial
from typing import Any, Dict, Optional

from repro.service.frontend import workers

SLOT = "frontend-worker-0"
READ_OPS = frozenset({"query", "query_batch"})
#: Exit status of a crashed slot, so it is not mistaken for another failure.
CRASH_EXIT = 113


def faulty_worker_main(channel: Any, settings: Dict[str, Any], *, marker: Optional[str],
                       after: int, times: Optional[int], stall_seconds: float) -> None:
    """``workers.worker_main``, with slot 0's read frames faulted: skip
    ``after`` of them, then crash (``marker`` given) or stall
    ``stall_seconds`` on the next ``times`` (None: every one)."""
    crashed_before = marker is not None and os.path.exists(marker)
    if multiprocessing.current_process().name == SLOT and not crashed_before:
        serve = workers.handle_frame
        seen = fired = 0

        def faulty_handle_frame(engine, header, body, codec):
            nonlocal seen, fired
            if header.get("op") in READ_OPS:
                seen += 1
                if seen > after and (times is None or fired < times):
                    fired += 1
                    if marker is not None:
                        open(marker, "w").close()
                        os._exit(CRASH_EXIT)
                    time.sleep(stall_seconds)
            return serve(engine, header, body, codec)

        workers.handle_frame = faulty_handle_frame
    workers.worker_main(channel, settings)


def crash_slot_zero(monkeypatch: Any, marker: os.PathLike, *, after: int = 0) -> None:
    """Slot 0 dies on its ``after + 1``-th read frame, once."""
    from repro.service.frontend import supervisor

    monkeypatch.setattr(supervisor, "worker_main", partial(
        faulty_worker_main, marker=str(marker), after=after, times=1, stall_seconds=0.0))


def stall_slot_zero(monkeypatch: Any, seconds: float, *, times: Optional[int] = None) -> None:
    """Slot 0 sleeps ``seconds`` before each of its next ``times`` read frames."""
    from repro.service.frontend import supervisor

    monkeypatch.setattr(supervisor, "worker_main", partial(
        faulty_worker_main, marker=None, after=0, times=times, stall_seconds=seconds))
