"""Unit tests for 3SAT and the 3SAT -> VC reduction (Corollary 7 support)."""

import itertools
import random

import pytest

from repro.core import CostTracker
from repro.kernelization import vc_brute_force, vc_decide
from repro.queries.sat import (
    Formula,
    sat_decide,
    three_sat_problem,
    three_sat_to_vertex_cover,
)


def brute_force_sat(formula: Formula) -> bool:
    for bits in itertools.product([False, True], repeat=formula.n_variables):
        if formula.evaluate(bits):
            return True
    return False


def random_formula(rng: random.Random, max_vars: int = 6, max_clauses: int = 14) -> Formula:
    n = rng.randint(3, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(n), 3)
        clauses.append(tuple((v, rng.random() < 0.5) for v in variables))
    return Formula(n, clauses)


class TestFormula:
    def test_evaluate(self):
        # (x0 or x1 or x2) and (not x0 or not x1 or x2)
        formula = Formula(
            3,
            [
                ((0, True), (1, True), (2, True)),
                ((0, False), (1, False), (2, True)),
            ],
        )
        assert formula.evaluate([True, False, False])
        assert not formula.evaluate([False, False, False]) or True  # first clause fails
        assert formula.evaluate([True, True, True])
        assert not formula.evaluate((False, False, False))

    def test_validation(self):
        with pytest.raises(ValueError):
            Formula(2, [((0, True), (1, True))])  # not 3 literals
        with pytest.raises(ValueError):
            Formula(1, [((0, True), (1, True), (0, False))])  # var out of range


class TestDecider:
    def test_trivially_satisfiable(self):
        formula = Formula(3, [((0, True), (1, True), (2, True))])
        assert sat_decide(formula)

    def test_unsatisfiable_core(self):
        # All 8 polarity combinations over 3 variables: unsatisfiable.
        clauses = [
            tuple((v, bool(bits >> v & 1)) for v in range(3))
            for bits in range(8)
        ]
        assert not sat_decide(Formula(3, clauses))

    def test_matches_brute_force_on_random_formulas(self):
        rng = random.Random(300)
        for _ in range(120):
            formula = random_formula(rng)
            assert sat_decide(formula) == brute_force_sat(formula)

    def test_problem_generator_mixes_answers(self):
        problem = three_sat_problem()
        answers = {
            problem.member(instance)
            for instance in problem.sample_instances(64, seed=3, count=25)
        }
        assert answers == {True, False}

    def test_encoding_roundtrip_size(self):
        problem = three_sat_problem()
        instance = problem.sample_instances(48, seed=4, count=1)[0]
        assert len(problem.encode_instance(instance)) > 0


class TestSatToVertexCover:
    def test_structure(self):
        formula = Formula(3, [((0, True), (1, False), (2, True))])
        instance = three_sat_to_vertex_cover(formula)
        # 2 vertices per variable + 3 per clause; K = n + 2m.
        assert instance.graph.n == 2 * 3 + 3 * 1
        assert instance.k == 3 + 2
        # variable edges + 3 triangle edges + 3 wires
        assert instance.graph.edge_count == 3 + 3 + 3

    def test_reduction_preserves_answers(self):
        rng = random.Random(301)
        for _ in range(60):
            formula = random_formula(rng, max_vars=4, max_clauses=5)
            expected = brute_force_sat(formula)
            instance = three_sat_to_vertex_cover(formula)
            assert vc_decide(instance) == expected, formula.clauses

    def test_reduction_agrees_with_vc_brute_force_on_tiny_instances(self):
        rng = random.Random(302)
        for _ in range(15):
            formula = random_formula(rng, max_vars=3, max_clauses=3)
            instance = three_sat_to_vertex_cover(formula)
            assert vc_brute_force(instance) == brute_force_sat(formula)

    def test_cover_size_is_tight(self):
        # The bound n + 2m is exact: K - 1 never suffices for a satisfiable
        # formula with at least one clause (each triangle needs 2, each
        # variable edge needs 1).
        formula = Formula(3, [((0, True), (1, True), (2, True))])
        instance = three_sat_to_vertex_cover(formula)
        assert vc_decide(instance)
        smaller = type(instance)(instance.graph, instance.k - 1)
        assert not vc_decide(smaller)
