"""Fault injection for the serving stack: named, composable, deterministic.

The paper's economics say preprocessing makes queries *dependably* cheap;
this module makes "dependably" checkable.  A :class:`FaultPlan` is a list
of :class:`FaultSpec` entries -- each names an injection *site* threaded
through the serving stack and a failure *mode* -- plus a seeded
:class:`FaultClock` that decides deterministically which invocations fire.
Arm a plan with :func:`install_fault_plan` (or ``plan.armed()``), and the
module-level hooks called from the hot paths start injecting; with no plan
installed every hook is a constant-time no-op guarded by one global
``None`` check, so the unfaulted serving stack pays nothing.

Injection sites and their recovery policies (see ``docs/architecture.md``,
"Failure model"):

``store.read``
    :meth:`ArtifactStore.get <repro.service.artifacts.ArtifactStore.get>`
    -- corrupt the payload (checksum mismatch), truncate the file, or
    delay the read.  Recovery: the engine deletes the bad artifact and
    retries the load up to ``RecoveryPolicy.load_retries`` times before
    rebuilding from source (always safe: artifacts are pure caches of
    PTIME-recomputable state).
``store.write``
    :meth:`ArtifactStore.put` -- fail with ``ENOSPC`` (disk full).
    Recovery: builds still serve from memory; write-behind retries with
    backoff and ``flush()`` surfaces the terminal error.
``shard.partial``
    One shard of a scatter-gather raises (dead) or sleeps (slow).
    Recovery: union-merge kinds degrade to an explicit
    :class:`DegradedAnswer`; monoid/k-way kinds fail fast with
    :class:`~repro.core.errors.ShardFailedError`.
``cache.put``
    An eviction storm: every cache insert force-evicts ``storm_size``
    entries, racing the serve-plan invalidation watchers.
``mutable.delta``
    ``apply_delta`` raises mid-batch.  Recovery: the session commits the
    batch to content and repairs the structure by rebuild, so no torn
    snapshot is ever published.
``worker.serve``
    A serving-front worker process dies mid-serve (the hook calls
    ``os._exit``, so no cleanup runs -- a hard crash, not an exception).
    Recovery: the supervisor detects the dead process, retries that
    worker's in-flight reads once on a healthy worker (writes surface
    :class:`~repro.core.errors.WorkerFailedError` -- they may or may not
    have applied), re-homes mutable datasets by replaying their
    acknowledged change journal, and restarts the worker with backoff
    bounded by ``RecoveryPolicy.worker_restart_attempts`` /
    ``worker_restart_backoff_seconds``.  Restarted workers are *not*
    re-armed: the scenario models one crash event, not a crashing binary.

Every scenario in :data:`SCENARIOS` is pinned by a test in
``tests/chaos/`` asserting both the recovery behavior and the health
counters it must move (``stats_snapshot()["health"]``).

    >>> from repro.service.faults import scenario, active_plan
    >>> plan = scenario("dead-shard", kind="list-membership", times=1)
    >>> [spec.site for spec in plan.specs]
    ['shard.partial']
    >>> with plan.armed():
    ...     active_plan() is plan
    True
    >>> active_plan() is None
    True
"""

from __future__ import annotations

import errno
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.errors import InjectedFaultError

__all__ = [
    "FaultSpec",
    "FaultClock",
    "FaultPlan",
    "RecoveryPolicy",
    "DegradedAnswer",
    "SCENARIOS",
    "scenario",
    "install_fault_plan",
    "clear_fault_plan",
    "active_plan",
    "policy",
]

#: site -> the failure modes that make sense there.
SITES: Dict[str, Tuple[str, ...]] = {
    "store.read": ("corrupt", "truncate", "slow"),
    "store.write": ("disk-full",),
    "shard.partial": ("raise", "slow"),
    "cache.put": ("evict-storm",),
    "mutable.delta": ("raise",),
    "worker.serve": ("crash", "slow"),
}


@dataclass(frozen=True)
class RecoveryPolicy:
    """Tunables for the recovery side: how hard the stack tries before
    giving up, and how slow "slow" is."""

    #: Extra store reads after a corrupt one before rebuilding from source.
    load_retries: int = 1
    #: Total write-behind persistence attempts per dirty artifact.
    writebehind_attempts: int = 3
    #: Backoff between write-behind attempts (doubles each retry).
    writebehind_backoff_seconds: float = 0.02
    #: Injected delay for a "slow" shard partial.
    slow_shard_seconds: float = 0.05
    #: Injected delay for a "slow" artifact read.
    slow_load_seconds: float = 0.05
    #: Restart attempts for a crashed serving-front worker before the
    #: supervisor gives the slot up as lost.
    worker_restart_attempts: int = 3
    #: Backoff before the first restart attempt (doubles each retry).
    worker_restart_backoff_seconds: float = 0.05
    #: Injected delay for a "slow" (alive but stalled) worker serve.
    slow_worker_seconds: float = 0.05
    #: Cross-worker retries the supervisor may spend on one read whose
    #: worker died or timed out (writes never retry: they may have applied).
    read_retry_budget: int = 2
    #: Base backoff before a supervisor read retry; doubles each attempt
    #: and is jittered to avoid retry synchronization.
    retry_backoff_seconds: float = 0.01
    #: Consecutive failures (crashes, deadline expiries) on one worker
    #: before its circuit breaker opens and routing stops sending it reads.
    breaker_failure_threshold: int = 5
    #: Seconds an open breaker waits before letting one half-open probe
    #: through; the probe's outcome closes or re-opens the breaker.
    breaker_reset_seconds: float = 0.25


DEFAULT_POLICY = RecoveryPolicy()


@dataclass(frozen=True)
class FaultSpec:
    """One injection: *where* (site), *how* (mode), and *when* (clock).

    ``kind`` filters to one query kind (matched against the artifact key's
    scheme name or the serving kind; None matches all).  ``shard`` filters
    ``shard.partial`` to one shard position.  The clock fires the spec on
    invocations ``after < seen`` and stops after ``times`` firings
    (``times=None`` never stops); ``probability`` thins firings with the
    plan's seeded RNG, so the same seed replays the same fault schedule.
    """

    site: str
    mode: str
    kind: Optional[str] = None
    times: Optional[int] = 1
    after: int = 0
    probability: float = 1.0
    delay_seconds: float = 0.0
    storm_size: int = 4
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; one of {sorted(SITES)}"
            )
        if self.mode not in SITES[self.site]:
            raise ValueError(
                f"mode {self.mode!r} is not valid at site {self.site!r}; "
                f"one of {SITES[self.site]}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")

    def matches(self, kind: Optional[str], shard: Optional[int]) -> bool:
        if self.kind is not None and kind is not None and self.kind != kind:
            return False
        if self.shard is not None and shard is not None and self.shard != shard:
            return False
        return True


class FaultClock:
    """Deterministic firing decisions: same seed, same schedule.

    One clock serves a whole plan; per-spec ``seen``/``fired`` counters and
    a seeded RNG live behind one lock, so concurrent serving threads
    observe one global fault schedule rather than per-thread ones.
    """

    def __init__(self, seed: int = 0):
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._seen: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}

    def decide(self, spec_index: int, spec: FaultSpec) -> bool:
        with self._lock:
            seen = self._seen.get(spec_index, 0) + 1
            self._seen[spec_index] = seen
            if seen <= spec.after:
                return False
            fired = self._fired.get(spec_index, 0)
            if spec.times is not None and fired >= spec.times:
                return False
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                return False
            self._fired[spec_index] = fired + 1
            return True

    def fired(self, spec_index: int) -> int:
        with self._lock:
            return self._fired.get(spec_index, 0)


class FaultPlan:
    """A set of specs plus the clock that schedules them.

    Compose plans by concatenating spec lists; arm one at a time (the
    module keeps a single global slot -- nested arming raises, because two
    overlapping schedules would not be deterministic).
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        *,
        seed: int = 0,
        policy: Optional[RecoveryPolicy] = None,
        name: Optional[str] = None,
    ):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.policy = policy or DEFAULT_POLICY
        self.name = name
        self.clock = FaultClock(seed)

    def first_firing(
        self, site: str, *, kind: Optional[str] = None, shard: Optional[int] = None
    ) -> Optional[FaultSpec]:
        """The first spec at ``site`` that matches and fires now, if any."""
        for index, spec in enumerate(self.specs):
            if spec.site != site or not spec.matches(kind, shard):
                continue
            if self.clock.decide(index, spec):
                return spec
        return None

    def fired_count(self, site: Optional[str] = None) -> int:
        """Total firings so far, optionally restricted to one site."""
        return sum(
            self.clock.fired(index)
            for index, spec in enumerate(self.specs)
            if site is None or spec.site == site
        )

    @contextmanager
    def armed(self) -> Iterator["FaultPlan"]:
        """Install this plan for the ``with`` body, then clear it."""
        install_fault_plan(self)
        try:
            yield self
        finally:
            clear_fault_plan()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"{len(self.specs)} specs"
        return f"FaultPlan({label}, seed={self.seed})"


class DegradedAnswer(int):
    """A boolean answer explicitly marked partial.

    Subclasses ``int`` so it compares equal to the plain ``True``/``False``
    every caller already handles (``DegradedAnswer(False, ...) == False``),
    while carrying ``partial=True`` plus the failed shards for callers that
    check.  Answers are *never* silently wrong: a degraded union answer of
    ``False`` means "not found in the shards that responded".
    """

    partial = True

    def __new__(
        cls,
        value: bool,
        *,
        reason: str = "shard failure",
        failed_shards: Sequence[int] = (),
    ) -> "DegradedAnswer":
        answer = super().__new__(cls, bool(value))
        answer.reason = reason
        answer.failed_shards = tuple(failed_shards)
        return answer

    def __repr__(self) -> str:
        return (
            f"DegradedAnswer({bool(self)}, reason={self.reason!r}, "
            f"failed_shards={self.failed_shards})"
        )


# -- the global slot + hooks ---------------------------------------------------
#
# Every hook below returns at once when no plan is armed, so call sites call
# them unconditionally -- they sit on cold paths (store I/O, cache inserts,
# delta folds, one worker request).  The one exception is the scatter loop
# in ``sharding.ShardedKernel.scatter``, which runs per shard per query: it
# hoists a single ``armed = faults._PLAN is not None`` out of the loop, which
# also gates its slow-shard timer.

_PLAN: Optional[FaultPlan] = None
_PLAN_LOCK = threading.Lock()


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` globally.  Raises if another plan is already armed."""
    global _PLAN
    with _PLAN_LOCK:
        if _PLAN is not None:
            raise RuntimeError(
                f"a fault plan is already armed ({_PLAN!r}); clear it first"
            )
        _PLAN = plan
    return plan


def clear_fault_plan() -> None:
    """Disarm whatever plan is installed (idempotent)."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = None


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def policy() -> RecoveryPolicy:
    """The armed plan's recovery policy, or the defaults."""
    plan = _PLAN
    return plan.policy if plan is not None else DEFAULT_POLICY


def on_store_read(key, blob: bytes) -> bytes:
    """Hook in :meth:`ArtifactStore.get`, after the raw file read."""
    plan = _PLAN
    if plan is None:
        return blob
    spec = plan.first_firing("store.read", kind=getattr(key, "scheme", None))
    if spec is None:
        return blob
    if spec.mode == "corrupt":
        # Flip the last payload byte: the header still parses, the SHA-256
        # check fails -- exactly the bit-rot case the store must detect.
        return blob[:-1] + bytes([blob[-1] ^ 0xFF])
    if spec.mode == "truncate":
        return blob[: len(blob) // 2]
    time.sleep(spec.delay_seconds or plan.policy.slow_load_seconds)
    return blob


def on_store_write(key) -> None:
    """Hook in :meth:`ArtifactStore.put`, before any bytes hit disk."""
    plan = _PLAN
    if plan is None:
        return
    spec = plan.first_firing("store.write", kind=getattr(key, "scheme", None))
    if spec is not None:
        raise OSError(errno.ENOSPC, f"injected disk-full writing {key!r}")


def on_shard_partial(kind: str, position: int) -> None:
    """Hook in scatter-gather, before evaluating one shard's partial."""
    plan = _PLAN
    if plan is None:
        return
    spec = plan.first_firing("shard.partial", kind=kind, shard=position)
    if spec is None:
        return
    if spec.mode == "raise":
        raise InjectedFaultError(
            f"injected dead shard {position} serving {kind!r}"
        )
    time.sleep(spec.delay_seconds or plan.policy.slow_shard_seconds)


def on_cache_put(cache, key) -> None:
    """Hook in :meth:`LRUArtifactCache.put`, after the insert."""
    plan = _PLAN
    if plan is None:
        return
    spec = plan.first_firing("cache.put")
    if spec is not None:
        cache.force_evict(spec.storm_size)


def on_delta_apply(kind: str) -> None:
    """Hook in ``apply_changes``, before a scheme's ``apply_delta`` runs."""
    plan = _PLAN
    if plan is None:
        return
    spec = plan.first_firing("mutable.delta", kind=kind)
    if spec is not None:
        raise InjectedFaultError(f"injected apply_delta failure for {kind!r}")


#: Exit status a crashed worker dies with, so the supervisor (and tests)
#: can tell an injected crash from an ordinary worker failure.
WORKER_CRASH_EXIT = 113


def on_worker_serve(kind: Optional[str]) -> None:
    """Hook in the worker process serve loop, before evaluating a request.

    Mode ``"crash"`` hard-kills the *current process* with ``os._exit`` --
    no exception, no cleanup, no response frame -- which is exactly what
    the supervisor's crash detection must cope with.  Mode ``"slow"``
    sleeps instead: the worker stays alive but stalls, which is the harder
    failure -- liveness polling sees a healthy process while every caller
    waits -- and exactly what deadlines, hedged reads and circuit breakers
    exist to absorb.  Only ever fires inside a worker process whose pool
    shipped it a plan; the gateway process never installs ``worker.serve``
    specs.
    """
    plan = _PLAN
    if plan is None:
        return
    spec = plan.first_firing("worker.serve", kind=kind)
    if spec is None:
        return
    if spec.mode == "crash":
        import os

        os._exit(WORKER_CRASH_EXIT)
    time.sleep(spec.delay_seconds or plan.policy.slow_worker_seconds)


# -- the scenario registry -----------------------------------------------------

#: name -> base specs.  ``scenario()`` turns a name into an armed-ready plan;
#: every name here is pinned by a test in ``tests/chaos/``.
SCENARIOS: Dict[str, Tuple[FaultSpec, ...]] = {
    "corrupt-artifact": (FaultSpec("store.read", "corrupt"),),
    "truncate-artifact": (FaultSpec("store.read", "truncate"),),
    "slow-artifact-read": (FaultSpec("store.read", "slow"),),
    "dead-shard": (FaultSpec("shard.partial", "raise"),),
    "slow-shard": (FaultSpec("shard.partial", "slow"),),
    "eviction-storm": (FaultSpec("cache.put", "evict-storm", times=None),),
    "failed-delta-apply": (FaultSpec("mutable.delta", "raise"),),
    "disk-full-writebehind": (FaultSpec("store.write", "disk-full"),),
    "dead-worker": (FaultSpec("worker.serve", "crash"),),
    "slow-worker": (FaultSpec("worker.serve", "slow", times=None),),
}


def scenario(
    name: str,
    *,
    seed: int = 0,
    policy: Optional[RecoveryPolicy] = None,
    **overrides,
) -> FaultPlan:
    """A ready-to-arm plan for one registered scenario.

    ``overrides`` replace :class:`FaultSpec` fields on every spec in the
    scenario (commonly ``kind=...`` to scope the fault, ``times=...`` /
    ``probability=...`` to reshape the schedule).
    """
    try:
        specs = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault scenario {name!r}; one of {sorted(SCENARIOS)}"
        ) from None
    if overrides:
        specs = tuple(replace(spec, **overrides) for spec in specs)
    return FaultPlan(specs, seed=seed, policy=policy, name=name)
