"""Boolean query classes and Pi-schemes (paper, Definition 1).

A *query class* Q is, in the paper, a language of pairs ``S = {<D, Q>}``
with ``<D, Q> in S`` iff ``Q(D)`` is true.  This module gives the practical,
object-level counterpart used throughout the reproduction:

:class:`QueryClass`
    bundles the reference (naive, PTIME) semantics ``evaluate(D, Q)`` with
    deterministic generators for data and queries, and codecs to Sigma*.

:class:`PiScheme`
    a candidate witness of Pi-tractability: a PTIME ``preprocess`` function
    Pi and an NC ``evaluate`` over the preprocessed structure.  Whether a
    scheme really is such a witness is decided empirically by
    :func:`repro.core.tractability.certify`.

Both are plain data records of callables so that each case-study module
(:mod:`repro.queries`) can define its classes declaratively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.core import alphabet
from repro.core.cost import CostTracker

__all__ = ["QueryClass", "PiScheme", "stable_seed", "state_codec"]


def stable_seed(*parts: Any) -> int:
    """A run-independent seed from arbitrary parts (zlib.crc32, not hash)."""
    import zlib

    text = "\x1f".join(repr(part) for part in parts)
    return zlib.crc32(text.encode("utf-8"))

#: Evaluator signature: (data, query, tracker) -> bool
Evaluator = Callable[[Any, Any, CostTracker], bool]
#: Preprocessor signature: (data, tracker) -> preprocessed structure
Preprocessor = Callable[[Any, CostTracker], Any]


@dataclass
class QueryClass:
    """A class of Boolean queries with reference semantics and generators.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"point-selection"``.
    evaluate:
        The reference semantics ``Q(D)`` -- the naive PTIME evaluation used
        both as the membership test of the language of pairs and as the
        no-preprocessing baseline in experiments.
    generate_data:
        ``(size, rng) -> D``; deterministic given the rng.
    generate_queries:
        ``(D, rng, count) -> [Q]``; queries *defined on* D (the set Q_D of
        the paper), mixing positive and negative answers.
    encode_data / encode_query:
        Sigma* codecs; default to :func:`repro.core.alphabet.encode`.
    data_size:
        ``|D|``; defaults to the length of the Sigma* encoding.
    """

    name: str
    evaluate: Evaluator
    generate_data: Callable[[int, random.Random], Any]
    generate_queries: Callable[[Any, random.Random, int], List[Any]]
    encode_data: Callable[[Any], str] = alphabet.encode
    encode_query: Callable[[Any], str] = alphabet.encode
    data_size: Optional[Callable[[Any], int]] = None
    description: str = ""

    def size_of_data(self, data: Any) -> int:
        if self.data_size is not None:
            return self.data_size(data)
        return len(self.encode_data(data))

    def pair_in_language(self, data: Any, query: Any, tracker: Optional[CostTracker] = None) -> bool:
        """Membership of ``<D, Q>`` in the language of pairs S for this class."""
        from repro.core.cost import ensure_tracker

        return bool(self.evaluate(data, query, ensure_tracker(tracker)))

    def sample_workload(
        self, size: int, seed: int, query_count: int
    ) -> tuple[Any, List[Any]]:
        """Deterministic (data, queries) workload for experiments.

        The per-size seed is derived with a *stable* hash (not Python's
        per-process-salted ``hash``) so workloads are identical across runs.
        """
        rng = random.Random(stable_seed(seed, size, self.name))
        data = self.generate_data(size, rng)
        queries = self.generate_queries(data, rng, query_count)
        return data, queries


@dataclass
class PiScheme:
    """A preprocessing scheme: candidate witness that a class is in PiT0Q.

    ``preprocess`` must run in PTIME in ``|D|`` and produce a structure of
    polynomial size; ``evaluate`` must answer any query of the class over the
    preprocessed structure in NC (polylog depth, polynomial work).  Both
    requirements are checked empirically by the certifier rather than
    trusted.

    ``factorization_name`` records which factorization of the underlying
    decision problem this scheme answers (needed by Lemma 3 transfer, see
    :func:`repro.core.reductions.transfer_scheme`); ``None`` means the
    canonical factorization of the query class itself.

    ``dump``/``load`` make the scheme *servable*: they round-trip the
    preprocessed structure through bytes so the artifact store
    (:mod:`repro.service.artifacts`) can persist Pi(D) once and every later
    process can serve queries without re-running ``preprocess``.  A scheme
    without a codec is certified, not served: the engine's ``register``
    refuses it, and it stays in the Figure 2 registry (the right place for
    schemes whose Pi is the identity).  ``artifact_version`` must be bumped
    whenever the byte layout changes, so stale artifacts are rejected
    instead of mis-loaded.

    ``structure`` names *what ``preprocess`` builds* -- the scheme part of
    the artifact identity (content fingerprint x structure x params) --
    and defaults to ``name``.  Schemes evaluating different classes over
    one Pi(D) (the paper's "same B+-trees", Section 4(1)) declare one value
    and share ``preprocess``, codec and ``artifact_version`` (the engine
    refuses otherwise), so the structure is built, stored and cached once.

    ``sharding`` makes the scheme *partitionable*: a
    :class:`repro.service.merge.ShardSpec` declaring how datasets split into
    shards and how per-shard answers merge (union / k-way merge / monoid
    combine).  ``engine.attach(..., shards=K)`` shards the kinds that have
    one; schemes without a spec keep the monolithic path.  Typed ``Any`` to keep
    :mod:`repro.core` free of service-layer imports.

    ``apply_delta`` makes the scheme *delta-maintainable* (paper, Section
    4(7)): ``apply_delta(structure, changes, tracker) -> structure`` folds a
    batch of :mod:`repro.incremental.changes` records into an already-built
    structure in O(|CHANGED| * polylog) instead of re-running ``preprocess``
    over the whole dataset.  The hook owns the structure it is handed (the
    serving layer gives every mutable dataset a private copy) and must be
    batch-atomic: raise :class:`repro.core.errors.DeltaError` *before*
    mutating anything when the batch contains a change it cannot apply, so
    the caller can fall back to a rebuild without ever observing a
    half-applied structure.

    ``evaluate_fast``/``evaluate_many`` make the scheme *fast-servable*:
    untracked production kernels behind :meth:`answer_fast` /
    :meth:`answer_many`.  ``evaluate`` is the *analytic* evaluator -- every
    comparison charges the :class:`~repro.core.cost.CostTracker`, which is
    what certification fits -- and it stays the source of truth for answers.
    ``evaluate_fast(structure, query) -> bool`` answers the same query with
    zero instrumentation (C ``bisect``, plain dict probes, tracker-free
    walks), and ``evaluate_many(structure, queries) -> [bool]`` amortizes
    per-call overhead across a batch.  Both MUST be answer-identical to
    ``evaluate`` (the hot-path property suite pins this); they exist only to
    shrink the *constant* of the polylog query step, never its answers.
    """

    name: str
    preprocess: Preprocessor
    evaluate: Evaluator
    factorization_name: Optional[str] = None
    description: str = ""
    #: Optional PTIME query rewriting lambda: Q -> Q' (paper, remark under
    #: Definition 1); identity when absent.
    rewrite_query: Optional[Callable[[Any], Any]] = None
    #: Optional artifact codec: preprocessed structure <-> bytes.
    dump: Optional[Callable[[Any], bytes]] = None
    load: Optional[Callable[[bytes], Any]] = None
    #: Version of the dumped byte layout (part of the artifact identity).
    artifact_version: int = 1
    #: Optional ShardSpec (see :mod:`repro.service.merge`) enabling sharded
    #: scatter-gather serving of this scheme.
    sharding: Optional[Any] = None
    #: Optional delta-maintenance hook: ``(structure, changes, tracker) ->
    #: structure``, batch-atomic (raise DeltaError before mutating).
    apply_delta: Optional[Callable[[Any, Sequence[Any], CostTracker], Any]] = None
    #: Optional untracked production kernel ``(structure, query) -> bool``;
    #: must agree with ``evaluate`` on every query.
    evaluate_fast: Optional[Callable[[Any, Any], bool]] = None
    #: Optional untracked batch kernel ``(structure, queries) -> [bool]``;
    #: must agree with ``evaluate`` element-wise.
    evaluate_many: Optional[Callable[[Any, Sequence[Any]], List[bool]]] = None
    #: Name of the structure ``preprocess`` builds; defaults to ``name``.
    structure: str = ""

    def __post_init__(self) -> None:
        self.structure = self.structure or self.name

    @property
    def serializable(self) -> bool:
        """True when the preprocessed structure can round-trip through bytes."""
        return self.dump is not None and self.load is not None

    def answer(
        self,
        preprocessed: Any,
        query: Any,
        tracker: Optional[CostTracker] = None,
    ) -> bool:
        """Evaluate one query over the preprocessed structure."""
        from repro.core.cost import ensure_tracker

        effective_query = query if self.rewrite_query is None else self.rewrite_query(query)
        return bool(self.evaluate(preprocessed, effective_query, ensure_tracker(tracker)))

    def answer_fast(self, preprocessed: Any, query: Any) -> bool:
        """Answer one query through the untracked production kernel.

        Falls back to the analytic ``evaluate`` under the shared no-op
        tracker when the scheme declares no ``evaluate_fast`` -- always
        answer-identical to :meth:`answer`, only the instrumentation differs.
        """
        effective_query = query if self.rewrite_query is None else self.rewrite_query(query)
        if self.evaluate_fast is not None:
            return bool(self.evaluate_fast(preprocessed, effective_query))
        from repro.core.cost import NULL_TRACKER

        return bool(self.evaluate(preprocessed, effective_query, NULL_TRACKER))

    def answer_many(self, preprocessed: Any, queries: Sequence[Any]) -> List[bool]:
        """Answer a batch of queries, amortizing dispatch across the batch.

        Uses ``evaluate_many`` when the scheme declares one, otherwise loops
        the per-query fast kernel; answers are position-stable and identical
        to calling :meth:`answer` per query.
        """
        if self.rewrite_query is not None:
            queries = [self.rewrite_query(query) for query in queries]
        if self.evaluate_many is not None:
            return [bool(answer) for answer in self.evaluate_many(preprocessed, queries)]
        if self.evaluate_fast is not None:
            evaluate_fast = self.evaluate_fast
            return [bool(evaluate_fast(preprocessed, query)) for query in queries]
        from repro.core.cost import NULL_TRACKER

        evaluate = self.evaluate
        return [bool(evaluate(preprocessed, query, NULL_TRACKER)) for query in queries]


def state_codec(
    from_state: Callable[[Any], Any],
    to_state: Optional[Callable[[Any], Any]] = None,
) -> tuple[Callable[[Any], bytes], Callable[[bytes], Any]]:
    """Build a ``(dump, load)`` pair from plain-state converters.

    ``to_state`` maps the preprocessed structure to plain picklable data
    (defaults to calling the structure's own ``to_state()``); ``from_state``
    rebuilds the structure.  The byte layer is pickle of the *plain state*,
    never of the live object graph -- linked structures like the B+-tree leaf
    chain would otherwise exceed the recursion limit, and plain state keeps
    the layout stable across refactors of the in-memory classes.

    Artifacts are trusted local files (the store detects corruption, not
    malice); do not load artifacts from untrusted sources.
    """
    import pickle

    def dump(structure: Any) -> bytes:
        state = structure.to_state() if to_state is None else to_state(structure)
        return pickle.dumps(state, protocol=4)

    def load(blob: bytes) -> Any:
        return from_state(pickle.loads(blob))

    return dump, load


@dataclass
class Workload:
    """A concrete (data, queries) pair plus bookkeeping, used by benchmarks."""

    query_class: QueryClass
    data: Any
    queries: Sequence[Any]
    seed: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.query_class.size_of_data(self.data)
