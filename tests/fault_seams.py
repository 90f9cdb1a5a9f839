"""Test-side seams for the failure model, and the registry of its scenarios.

The product holds no fault injector: each row of the failure model
(``docs/architecture.md``) is made to fail from the test side, through
objects the serving stack already takes or attributes it already reads.

* **store** -- :class:`FaultyStore`, an ``ArtifactStore`` passed as
  ``store=``: a damaged read rewrites the real ``.pia`` file and restores it
  after that one read; a slow read sleeps before reading; a full disk makes
  ``put`` raise ``OSError(ENOSPC)``.
* **cache** -- :func:`storm`: a wrapped ``put`` on the engine's cache
  instance that invalidates earlier keys.
* **delta** -- :func:`failing`: a wrapped ``apply_delta`` set on the
  session's scheme (``PiScheme`` is a plain dataclass).
* **shard** -- :func:`lose_shards`: a wrapped per-shard evaluator that
  raises :class:`InjectedFault` (or stalls).
* **worker** -- ``tests/chaos/worker_seam.py``: a wrapped
  ``supervisor.worker_main`` that patches ``workers.handle_frame`` in the
  child.

Every seam fires on a :class:`Shots` schedule, so the same seed replays the
same faults.  Importable from any test module: ``tests/`` holds the root
``conftest.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.artifacts import ArtifactStore

#: scenario -> (where it fails, the seam that makes it fail).  Adding a row
#: without a pinning test fails ``test_every_registered_scenario_is_pinned``.
SCENARIOS: Dict[str, Tuple[str, str]] = {
    "corrupt-artifact": ("ArtifactStore.get", "FaultyStore.corrupt"),
    "truncate-artifact": ("ArtifactStore.get", "FaultyStore.truncate"),
    "slow-artifact-read": ("ArtifactStore.get", "FaultyStore.slow"),
    "disk-full": ("ArtifactStore.put", "FaultyStore.full"),
    "dead-shard": ("scatter-gather shard", "lose_shards"),
    "slow-shard": ("scatter-gather shard", "lose_shards(seconds=...)"),
    "eviction-storm": ("LRUArtifactCache.put", "storm"),
    "failed-delta-apply": ("PiScheme.apply_delta", "failing"),
    "dead-worker": ("worker process", "worker_seam.crash_slot_zero"),
    "crash-before-checkpoint": ("worker process", "worker_seam.crash_slot_zero"),
    "slow-worker": ("worker process", "worker_seam.stall_slot_zero"),
}


class InjectedFault(Exception):
    """What a fired seam raises: deliberately no ``ReproError``, so the
    product handles it exactly like any other exception a kernel or hook
    raises."""


class Shots:
    """When a seam fires: skip ``after`` calls, then fire on ``times`` calls
    (None: no limit), each kept with ``probability`` by an RNG seeded with
    ``seed``.  ``Shots()`` never fires until :meth:`arm` reconfigures it.
    Thread-safe: serving threads see one schedule."""

    def __init__(self, times: Optional[int] = 0, **schedule: Any):
        self._lock = threading.Lock()
        self.arm(times, **schedule)

    def arm(self, times: Optional[int] = 1, *, after: int = 0,
            probability: float = 1.0, seed: int = 0) -> None:
        with self._lock:
            self.times = times
            self.after = after
            self.probability = probability
            self.seen = self.fired = 0
            self._rng = random.Random(seed)

    def __call__(self) -> bool:
        with self._lock:
            self.seen += 1
            if self.seen <= self.after:
                return False
            if self.times is not None and self.fired >= self.times:
                return False
            if self.probability < 1.0 and self._rng.random() >= self.probability:
                return False
            self.fired += 1
            return True


def _flip_last_byte(blob: bytes) -> bytes:
    # The header still parses; the payload's SHA-256 check fails.
    return blob[:-1] + bytes([blob[-1] ^ 0xFF])


def _halve(blob: bytes) -> bytes:
    return blob[: len(blob) // 2]


class FaultyStore(ArtifactStore):
    """The store row's seam: arm ``corrupt``, ``truncate``, ``slow`` (sleeps
    ``slow_seconds``) or ``full``, four :class:`Shots`."""

    slow_seconds = 0.01

    def __init__(self, root: Any):
        super().__init__(root)
        self.corrupt, self.truncate, self.slow, self.full = (Shots() for _ in range(4))

    def get(self, key):
        if self.slow():
            time.sleep(self.slow_seconds)
        damage = _flip_last_byte if self.corrupt() else _halve if self.truncate() else None
        path = self._path(key)
        if damage is None or not path.is_file():
            return super().get(key)
        intact = path.read_bytes()
        damaged = damage(intact)
        path.write_bytes(damaged)
        try:
            return super().get(key)
        finally:
            # One damaged read, not a damaged file -- unless another thread
            # replaced or deleted it meanwhile.
            if path.is_file() and path.read_bytes() == damaged:
                path.write_bytes(intact)

    def put(self, key, payload):
        if self.full():
            raise OSError(errno.ENOSPC, f"disk full writing {key!r}")
        return super().put(key, payload)


def storm(cache: Any, shots: Shots, *, size: int = 4) -> None:
    """Wrap ``cache.put`` (on the instance): after each fired insert, the
    ``size`` earliest other keys still cached are invalidated, the way
    capacity evictions drop entries under live serve plans."""
    put = cache.put
    inserted: List[Any] = []

    def stormy_put(key: Any, value: Any) -> None:
        put(key, value)
        inserted.append(key)
        if shots():
            victims = [other for other in inserted if other != key and other in cache]
            for victim in victims[:size]:
                cache.invalidate(victim)

    cache.put = stormy_put


def failing(function: Callable[..., Any], shots: Shots, label: str) -> Callable[..., Any]:
    """``function``, raising :class:`InjectedFault` on fired calls."""

    def wrapped(*args: Any) -> Any:
        if shots():
            raise InjectedFault(f"{label} failed on cue")
        return function(*args)

    return wrapped


def _stalling(function: Callable[..., Any], shots: Shots, seconds: float) -> Callable[..., Any]:
    def wrapped(*args: Any) -> Any:
        if shots():
            time.sleep(seconds)
        return function(*args)

    return wrapped


def lose_shards(monkeypatch: Any, scheme: Any, shots: Shots, *,
                seconds: Optional[float] = None) -> None:
    """Wrap the per-shard evaluator the scatter loop calls for ``scheme``:
    a fired call raises :class:`InjectedFault` (a lost shard) or, with
    ``seconds``, sleeps before answering (a slow one).

    Union kinds evaluate each shard with the scheme's own evaluators;
    monoid and k-way kinds with their merge operator's ``partial``, which a
    sharded kernel reads from ``scheme.sharding`` when the kind's serve plan
    is first built -- so install before the kind's first query.
    """
    def wrap(function: Callable[..., Any]) -> Callable[..., Any]:
        if seconds is None:
            return failing(function, shots, f"{scheme.name} shard")
        return _stalling(function, shots, seconds)

    merge = scheme.sharding.merge
    if merge.partial is not None:
        monkeypatch.setattr(scheme, "sharding", replace(
            scheme.sharding, merge=replace(merge, partial=wrap(merge.partial))))
        return
    monkeypatch.setattr(scheme, "evaluate", wrap(scheme.evaluate))
    if scheme.evaluate_fast is not None:
        monkeypatch.setattr(scheme, "evaluate_fast", wrap(scheme.evaluate_fast))
