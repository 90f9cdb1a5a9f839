"""Languages of pairs and decision problems (paper, Section 3).

The paper moves between three views of the same object:

* a **query class** Q, practically a :class:`~repro.core.query.QueryClass`;
* its **language of pairs** ``S_Q = {<D, Q> | Q(D) true}``; and
* its **decision problem** ``L_Q = {D#Q | <D, Q> in S_Q}``, a plain language
  over Sigma* whose instances concatenate data and query with the ``#``
  delimiter.

This module implements all three and the conversions between them, plus the
generic :class:`DecisionProblem` record used for problems that are *not* born
from a query class (BDS, CVP, Vertex Cover, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.core import alphabet
from repro.core.cost import CostTracker, ensure_tracker
from repro.core.query import QueryClass

__all__ = [
    "PairLanguage",
    "DecisionProblem",
    "pair_language_of",
    "decision_problem_of",
]


@dataclass
class PairLanguage:
    """A language S of pairs ``<D, Q>`` with a decidable membership test.

    ``contains`` is the reference membership procedure; for a language born
    from a query class it is the naive evaluator, for one born from a
    factorized decision problem it is "reassemble with rho, then decide"
    (Proposition 1 of the paper guarantees this is sound).
    """

    name: str
    contains: Callable[[Any, Any, CostTracker], bool]
    encode_data: Callable[[Any], str] = alphabet.encode
    encode_query: Callable[[Any], str] = alphabet.encode

    def member(self, data: Any, query: Any, tracker: Optional[CostTracker] = None) -> bool:
        return bool(self.contains(data, query, ensure_tracker(tracker)))


@dataclass
class DecisionProblem:
    """A decision problem L, i.e. a language over Sigma* with typed instances.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"BDS"``.
    contains:
        Reference (PTIME) decision procedure on decoded instances.
    generate:
        ``(size, rng) -> instance``: deterministic generator producing a mix
        of yes- and no-instances, used by reduction verification and
        certification sweeps.
    encode_instance / decode_instance:
        The Sigma* codec for instances; ``|x|`` is the encoded length.
    """

    name: str
    contains: Callable[[Any, CostTracker], bool]
    generate: Callable[[int, random.Random], Any]
    encode_instance: Callable[[Any], str] = alphabet.encode
    decode_instance: Callable[[str], Any] = alphabet.decode
    description: str = ""

    def member(self, instance: Any, tracker: Optional[CostTracker] = None) -> bool:
        return bool(self.contains(instance, ensure_tracker(tracker)))

    def sample_instances(self, size: int, seed: int, count: int) -> List[Any]:
        from repro.core.query import stable_seed

        rng = random.Random(stable_seed(seed, size, self.name))
        return [self.generate(size, rng) for _ in range(count)]


def pair_language_of(query_class: QueryClass) -> PairLanguage:
    """The language of pairs S_Q of a query class (Section 3)."""

    def contains(data: Any, query: Any, tracker: CostTracker) -> bool:
        return query_class.pair_in_language(data, query, tracker)

    return PairLanguage(
        name=f"S[{query_class.name}]",
        contains=contains,
        encode_data=query_class.encode_data,
        encode_query=query_class.encode_query,
    )


def decision_problem_of(
    query_class: QueryClass,
    *,
    query_count_per_instance: int = 1,
) -> DecisionProblem:
    """The decision problem ``L_Q = {D#Q}`` of a query class (Section 3).

    Instances are ``(data, query)`` tuples at the object level; their Sigma*
    encoding is exactly the paper's ``D#Q`` string via
    :func:`repro.core.alphabet.encode_pair`-style concatenation.
    """

    def contains(instance: Tuple[Any, Any], tracker: CostTracker) -> bool:
        data, query = instance
        return query_class.pair_in_language(data, query, tracker)

    def generate(size: int, rng: random.Random) -> Tuple[Any, Any]:
        data = query_class.generate_data(size, rng)
        queries = query_class.generate_queries(data, rng, query_count_per_instance)
        return data, queries[0]

    def encode_instance(instance: Tuple[Any, Any]) -> str:
        data, query = instance
        return (
            query_class.encode_data(data)
            + alphabet.PAIR_DELIMITER
            + query_class.encode_query(query)
        )

    def decode_instance(text: str) -> Tuple[Any, Any]:
        return alphabet.decode_pair(text)

    return DecisionProblem(
        name=f"L[{query_class.name}]",
        contains=contains,
        generate=generate,
        encode_instance=encode_instance,
        decode_instance=decode_instance,
        description=f"decision problem of query class {query_class.name}",
    )
