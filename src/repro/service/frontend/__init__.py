"""The serving front: escape the single process.

One Python process serves at most one GIL's worth of queries; the front
splits the stack into an asyncio gateway and N worker processes that
share nothing in memory but everything on disk:

* :mod:`~repro.service.frontend.protocol` -- versioned, length-prefixed
  frames whose routing header the gateway reads and whose body only the
  workers decode; structured errors map back onto the
  :class:`~repro.core.errors.ServiceError` hierarchy.
* :mod:`~repro.service.frontend.server` -- :class:`Gateway` (admission
  permits per dataset, watermark backpressure, explicit ``Overloaded``
  shedding) and :class:`ServingFront`, the one-call harness.
* :mod:`~repro.service.frontend.supervisor` -- :class:`Supervisor`: the
  processes, their channels and the one event loop around two pure modules:
  :mod:`~repro.service.frontend.tickets` (when a request is settled --
  response, deadline, crash or close -- plus hedges and retries) and
  :mod:`~repro.service.frontend.placement` (journals that rebuild a
  dataset elsewhere; the router and its breakers that pick a worker).
* :mod:`~repro.service.frontend.workers` -- the worker process: one
  catalog-aware :class:`~repro.service.engine.QueryEngine` per process,
  which loads a kind when an attach names it, over the *shared*
  :class:`~repro.service.artifacts.ArtifactStore` directory.  Content
  addressing is the coherence protocol: the first worker to attach a
  dataset builds and persists its Pi-structures, the rest load the same
  bytes by key.
* :mod:`~repro.service.frontend.client` -- :class:`RemoteClient` /
  :class:`RemoteDataset`, the sync client whose sessions duck-type
  :class:`~repro.service.dataset.Dataset` so code written against a local
  session runs against the front unchanged.

Names are resolved on first access (:mod:`repro._lazy`), which is what keeps
the three process roles apart: a worker importing
:mod:`~repro.service.frontend.workers` loads neither the gateway nor the
client, and a client loads neither ``asyncio`` nor ``multiprocessing``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.frontend.server": ("Gateway", "GatewayConfig", "ServingFront"),
    "repro.service.frontend.client": ("RemoteClient", "RemoteDataset"),
    "repro.service.frontend.supervisor": ("Supervisor",),
})
