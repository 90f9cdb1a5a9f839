"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause without
swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EncodingError(ReproError):
    """Raised when a string in Sigma* cannot be decoded, or an object cannot
    be encoded (Section 3 'Notations' of the paper)."""


class FactorizationError(ReproError):
    """Raised when a factorization violates its contract, e.g. the round-trip
    law rho(pi1(x), pi2(x)) == x fails for some instance x."""


class ReductionError(ReproError):
    """Raised when a reduction is malformed or its factorizations are
    incompatible (e.g. transferring a Pi-scheme across a reduction whose
    target factorization differs from the scheme's factorization)."""


class CertificationError(ReproError):
    """Raised when the empirical Pi-tractability certifier cannot run, e.g.
    not enough sizes to fit a scaling curve."""


class SchemaError(ReproError):
    """Raised on relational schema violations (unknown attribute, arity
    mismatch, type mismatch)."""


class IndexError_(ReproError):
    """Raised on index misuse (e.g. querying an unbuilt index).

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``.
    """


class GraphError(ReproError):
    """Raised on malformed graph input (unknown vertex, bad numbering)."""


class CircuitError(ReproError):
    """Raised on malformed Boolean circuits (cycles, bad fan-in, unknown
    gate references)."""


class ViewError(ReproError):
    """Raised when a query cannot be answered from the available views."""


class ArtifactError(ReproError):
    """Base class for preprocessing-artifact store failures."""


class ArtifactCorruptionError(ArtifactError):
    """Raised when a stored artifact fails its integrity checks (bad magic,
    truncated header, checksum mismatch, or key mismatch)."""


class ArtifactVersionError(ArtifactError):
    """Raised when a stored artifact was written under an incompatible store
    format or scheme artifact version."""


class ServiceError(ReproError):
    """Raised on query-engine misuse (unknown query kind, closed engine)."""


class UnknownDatasetError(ServiceError):
    """Raised when a request names a dataset the engine does not serve: the
    name was never attached, or the :class:`repro.service.dataset.Dataset`
    session was detached.  A subclass of :class:`ServiceError`, so existing
    ``except ServiceError`` handlers keep catching it."""


class ProtocolError(ServiceError):
    """Raised by the serving front's wire protocol
    (:mod:`repro.service.frontend.protocol`) on malformed, oversized,
    version-mismatched or unencodable frames.  A subclass of
    :class:`ServiceError`: a protocol failure is a serving failure, and
    clients catching the service hierarchy keep catching it."""


class OverloadedError(ServiceError):
    """Raised (and sent as a structured error frame) when the gateway's
    admission control rejects a request: the dataset's in-flight permits
    are exhausted and the waiting queue is at its watermark.  Explicit
    load shedding -- the gateway never buffers unboundedly; back off and
    retry."""


class DeadlineExceededError(ServiceError):
    """Raised when a request's end-to-end deadline budget expires before an
    answer is produced: at the gateway (already expired on arrival or while
    waiting for an admission permit), in the supervisor (no worker response
    within the remaining budget), or in a worker (the frame aged out in the
    inbox before serving started).  Carries the request identity and the
    budget arithmetic so operators can see *where* the time went; the
    serving front's wire protocol preserves these fields across the wire.
    """

    def __init__(
        self,
        message: str,
        *,
        op: "str | None" = None,
        dataset: "str | None" = None,
        elapsed_ms: "float | None" = None,
        budget_ms: "float | None" = None,
    ):
        super().__init__(message)
        self.op = op
        self.dataset = dataset
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms

    def wire_details(self) -> dict:
        """Structured fields for the error frame (see
        :func:`repro.service.frontend.protocol.error_payload`)."""
        details = {
            "op": self.op,
            "dataset": self.dataset,
            "elapsed_ms": self.elapsed_ms,
            "budget_ms": self.budget_ms,
        }
        return {key: value for key, value in details.items() if value is not None}


class WorkerFailedError(ServiceError):
    """Raised when a serving-front worker process died while holding a
    request and the request could not be transparently retried: a write
    that may or may not have applied, a read whose one retry also failed,
    or a dataset whose home worker is gone and not yet re-homed.  Answers
    are never silently wrong -- the failure is structured and loud."""


class DeltaError(ReproError):
    """Raised by a scheme's ``apply_delta`` hook when a change batch cannot
    be applied incrementally (unsupported change kind, out-of-range target,
    or a batch that would leave the structure unbuildable).

    The hook must raise *before* mutating the structure, so the caller --
    a mutable :class:`repro.service.dataset.Dataset` session -- can fall
    back to a rebuild of the whole batch without observing a half-applied
    structure.
    """
