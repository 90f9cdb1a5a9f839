"""Unit tests for factorizations and languages of pairs (Section 3)."""

import random

import pytest

from repro.core import (
    EMPTY_DATA,
    CostTracker,
    canonical_factorization,
    decision_problem_of,
    identity_factorization,
    pair_language_of,
    trivial_factorization,
)
from repro.core.errors import FactorizationError
from repro.queries.bds import bds_problem, upsilon_bds, upsilon_prime
from repro.queries.membership import (
    membership_class,
    membership_factorization,
    membership_problem,
)


class TestRoundTripLaw:
    def test_membership_factorization(self):
        problem = membership_problem()
        factorization = membership_factorization()
        instances = problem.sample_instances(64, seed=1, count=10)
        factorization.check_round_trips(instances)

    def test_bds_factorizations(self):
        problem = bds_problem()
        instances = problem.sample_instances(32, seed=2, count=5)
        upsilon_bds().check_round_trips(instances)
        upsilon_prime().check_round_trips(instances)

    def test_violation_detected(self):
        broken = trivial_factorization()
        # Force a violation by mangling rho.
        broken.rho = lambda data, query: ("mangled", query)
        with pytest.raises(FactorizationError):
            broken.check_round_trip(("x", "y"))


class TestStockFactorizations:
    def test_trivial_puts_everything_in_query(self):
        factorization = trivial_factorization()
        data, query = factorization.split(("G", (1, 2)))
        assert data == EMPTY_DATA
        assert query == ("G", (1, 2))
        assert factorization.rho(data, query) == ("G", (1, 2))

    def test_identity_duplicates(self):
        factorization = identity_factorization()
        data, query = factorization.split("whole")
        assert data == query == "whole"
        assert factorization.rho("whole", "whole") == "whole"
        with pytest.raises(FactorizationError):
            factorization.rho("a", "b")

    def test_canonical_splits_pairs(self):
        factorization = canonical_factorization()
        assert factorization.split(("D", "Q")) == ("D", "Q")
        assert factorization.rho("D", "Q") == ("D", "Q")


class TestPairLanguages:
    def test_proposition_1_membership(self):
        # x in L iff <pi1(x), pi2(x)> in S(L, Upsilon)  (Proposition 1).
        problem = membership_problem()
        language = membership_factorization().pair_language(problem)
        for instance in problem.sample_instances(64, seed=3, count=20):
            data, query = instance
            assert language.member(data, query) == problem.member(instance)

    def test_pair_language_of_query_class(self):
        query_class = membership_class()
        language = pair_language_of(query_class)
        data = (5, 7, 9)
        assert language.member(data, 7)
        assert not language.member(data, 8)

    def test_encoded_pair_has_single_delimiter(self):
        language = pair_language_of(membership_class())
        text = language.encode_data((1, 2)) + "#" + language.encode_query(1)
        assert text.count("#") == 1


class TestDecisionProblemOf:
    def test_membership_round_trip_through_encoding(self):
        problem = decision_problem_of(membership_class())
        instance = problem.generate(32, random.Random(4))
        encoded = problem.encode_instance(instance)
        assert problem.decode_instance(encoded) == instance

    def test_membership_agrees_with_query_class(self):
        query_class = membership_class()
        problem = decision_problem_of(query_class)
        rng = random.Random(5)
        for _ in range(20):
            instance = problem.generate(48, rng)
            data, query = instance
            tracker = CostTracker()
            assert problem.member(instance, tracker) == query_class.pair_in_language(
                data, query
            )

    def test_instance_size_is_encoded_length(self):
        query_class = membership_class()
        problem = decision_problem_of(query_class)
        data, query = instance = problem.generate(16, random.Random(6))
        # |x| for x = D#Q: the data's encoding, the delimiter, the query's.
        assert len(problem.encode_instance(instance)) == (
            len(query_class.encode_data(data)) + 1
            + len(query_class.encode_query(query)))
