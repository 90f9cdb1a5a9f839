"""The failure model's product side: the serving front's recovery policy.

Π(D) is a deterministic PTIME function of D, so a stored artifact is a pure
cache and every recovery is ordinary serving behaviour -- retry the read,
rebuild, or re-home by replay (see ``docs/architecture.md``, "Failure
model").  An answer is exactly the naive one or an exception: nothing here
marks an answer partial.

:class:`RecoveryPolicy`
    The serving front's recovery budget: worker restarts, read retries and
    circuit breakers.

The engine's own retry values are constants next to the code that uses
them (``engine.LOAD_RETRIES``, ``engine.SLOW_LOAD_SECONDS``).
Nothing here causes a failure: the chaos suites drive every row of the
failure model through test-side seams.  :class:`DegradedAnswer` is not
part of the serving surface; nothing under ``src/`` constructs it.

    >>> from repro.service.faults import DegradedAnswer
    >>> answer = DegradedAnswer(False, failed_shards=(2,))
    >>> answer == False, type(answer) is bool
    (True, False)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["RecoveryPolicy", "DEFAULT_POLICY", "DegradedAnswer"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """How hard the serving front tries before giving up on a worker or a read."""

    #: Restart attempts for a crashed serving-front worker before the
    #: supervisor gives the slot up as lost.
    worker_restart_attempts: int = 3
    #: Backoff before the first restart attempt (doubles each retry).
    worker_restart_backoff_seconds: float = 0.05
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


class DegradedAnswer(int):
    """An answer that equals a bool but is not one.

    Nothing under ``src/`` constructs it: a served answer is always a plain
    ``bool``.  It stays only because the yardstick's own tests import it as
    the value a load driver must count as a failed op -- it compares equal
    to ``True``/``False`` (``DegradedAnswer(False, ...) == False``) while
    its type, ``partial`` flag and ``failed_shards`` say otherwise.
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
