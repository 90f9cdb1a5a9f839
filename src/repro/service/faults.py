"""The failure model's product side: the recovery policy and the degraded answer.

Π(D) is a deterministic PTIME function of D, so a stored artifact is a pure
cache and every recovery is ordinary serving behaviour -- retry the read,
rebuild, degrade loudly, or re-home by replay (see ``docs/architecture.md``,
"Failure model").  Two of its pieces are types a caller can meet:

:class:`RecoveryPolicy`
    The serving front's recovery budget: worker restarts, read retries and
    circuit breakers.
:class:`DegradedAnswer`
    A scatter-gather answer served from the shards that responded, marked
    ``partial`` instead of being silently wrong.

The engine's own retry values are constants next to the code that uses
them (``engine.LOAD_RETRIES``, ``engine.SLOW_LOAD_SECONDS``,
``dataset.WRITEBEHIND_ATTEMPTS``, ``dataset.WRITEBEHIND_BACKOFF_SECONDS``).
Nothing here causes a failure: the chaos suites drive every row of the
failure model through test-side seams.

    >>> from repro.service.faults import DegradedAnswer
    >>> answer = DegradedAnswer(False, failed_shards=(2,))
    >>> answer == False, answer.partial, answer.failed_shards
    (True, True, (2,))
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
