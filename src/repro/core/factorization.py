"""Factorizations of decision problems (paper, Section 3).

A language L *can be factored* when there are three NC-computable functions
``pi1``, ``pi2`` and ``rho`` with ``rho(pi1(x), pi2(x)) == x`` for all
instances x.  A factorization ``Upsilon = (pi1, pi2, rho)`` splits every
instance into a **data part** (eligible for preprocessing) and a **query
part** (answered online), and induces

* the language of pairs  ``S(L, Upsilon) = {<pi1(x), pi2(x)> | x in L}``,
* the data set           ``L(D, Upsilon) = {pi1(x)}``, and
* the query class        ``L(Q, Upsilon) = {pi2(x)}``.

Proposition 1 of the paper makes membership of factored pairs decidable via
``rho``: ``x in L  iff  <pi1(x), pi2(x)> in S(L, Upsilon)``, which is how
:meth:`Factorization.pair_language` implements ``contains``.

Three stock factorizations recur throughout the paper and are provided here:

``canonical``  (for L_Q = {D#Q})  pi1 = D, pi2 = Q             -- recovers S_Q
``trivial``    (Figure 1 right, Theorem 9's Upsilon_0)
               pi1 = epsilon, pi2 = x                           -- nothing to preprocess
``identity``   (Theorem 5 proof)  pi1 = pi2 = x                 -- everything in both parts
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Tuple

from repro.core import alphabet
from repro.core.cost import CostTracker
from repro.core.errors import FactorizationError
from repro.core.language import DecisionProblem, PairLanguage
from repro.core.query import QueryClass

__all__ = [
    "Factorization",
    "EMPTY_DATA",
    "canonical_factorization",
    "trivial_factorization",
    "identity_factorization",
]

#: The object-level stand-in for the empty string epsilon as a data part.
EMPTY_DATA: str = ""


@dataclass
class Factorization:
    """``Upsilon = (pi1, pi2, rho)`` with the round-trip law.

    ``pi1``/``pi2``/``rho`` operate on decoded (object-level) instances; all
    three are required to be NC-computable, which for every factorization in
    this library is a constant-depth projection or pairing.
    """

    name: str
    pi1: Callable[[Any], Any]
    pi2: Callable[[Any], Any]
    rho: Callable[[Any, Any], Any]
    encode_data: Callable[[Any], str] = alphabet.encode
    encode_query: Callable[[Any], str] = alphabet.encode
    description: str = ""

    def split(self, instance: Any) -> Tuple[Any, Any]:
        """``(pi1(x), pi2(x))`` -- the data and query parts of an instance."""
        return self.pi1(instance), self.pi2(instance)

    def check_round_trip(self, instance: Any) -> None:
        """Assert ``rho(pi1(x), pi2(x)) == x``; raises FactorizationError."""
        data, query = self.split(instance)
        restored = self.rho(data, query)
        if restored != instance:
            raise FactorizationError(
                f"factorization {self.name!r} violates the round-trip law: "
                f"rho(pi1(x), pi2(x)) != x for instance {instance!r}"
            )

    def check_round_trips(self, instances: Iterable[Any]) -> None:
        for instance in instances:
            self.check_round_trip(instance)

    def pair_language(self, problem: DecisionProblem) -> PairLanguage:
        """``S(L, Upsilon)`` with membership via Proposition 1."""

        def contains(data: Any, query: Any, tracker: CostTracker) -> bool:
            return problem.member(self.rho(data, query), tracker)

        return PairLanguage(
            name=f"S[{problem.name},{self.name}]",
            contains=contains,
            encode_data=self.encode_data,
            encode_query=self.encode_query,
        )


def canonical_factorization(
    query_class: Optional[QueryClass] = None,
    *,
    name: Optional[str] = None,
) -> Factorization:
    """The factorization of ``L_Q = {D#Q}`` that recovers S_Q (Section 3).

    Instances are ``(data, query)`` tuples (the object form of ``D#Q``);
    ``pi1`` projects the data, ``pi2`` the query, ``rho`` re-pairs them.
    """
    label = name or (f"canonical[{query_class.name}]" if query_class else "canonical")
    encode_data = query_class.encode_data if query_class else alphabet.encode
    encode_query = query_class.encode_query if query_class else alphabet.encode
    return Factorization(
        name=label,
        pi1=lambda instance: instance[0],
        pi2=lambda instance: instance[1],
        rho=lambda data, query: (data, query),
        encode_data=encode_data,
        encode_query=encode_query,
        description="pi1 = D, pi2 = Q over instances D#Q",
    )


def trivial_factorization(name: str = "trivial") -> Factorization:
    """Everything in the query part; nothing to preprocess.

    This is Figure 1's ``Upsilon'`` for BDS and the ``Upsilon_0`` used in the
    Theorem 9 separation: ``pi1(x) = epsilon``, ``pi2(x) = x``.  Preprocessing
    is applied to the constant ``epsilon`` and thus cannot help.
    """
    return Factorization(
        name=name,
        pi1=lambda instance: EMPTY_DATA,
        pi2=lambda instance: instance,
        rho=lambda data, query: query,
        description="pi1 = epsilon, pi2 = x (no data part)",
    )


def identity_factorization(name: str = "identity") -> Factorization:
    """Both parts are the whole instance: ``pi1(x) = pi2(x) = x``.

    Used in the Theorem 5 proof to reduce an arbitrary problem in P to BDS:
    the NC functions alpha/beta each see the complete instance.
    ``rho(x, x) = x``; rho raises if the two copies disagree.
    """

    def rho(data: Any, query: Any) -> Any:
        if data != query:
            raise FactorizationError(
                "identity factorization requires both parts to be equal"
            )
        return data

    return Factorization(
        name=name,
        pi1=lambda instance: instance,
        pi2=lambda instance: instance,
        rho=rho,
        description="pi1 = pi2 = x (Theorem 5 proof device)",
    )
