"""Unit tests for materialized views and rewriting (Section 4(6))."""

import random

import pytest

from repro.core.cost import CostTracker
from repro.core.errors import ViewError
from repro.storage.relation import uniform_int_relation
from repro.views import (
    MaterializedView,
    ViewDefinition,
    ViewSet,
    answer_with_views,
    rewrite_point,
    rewrite_range,
)


@pytest.fixture
def relation():
    return uniform_int_relation(800, random.Random(60), value_range=(0, 499))


class TestViewDefinition:
    def test_coverage_predicates(self):
        definition = ViewDefinition("v", "a", 10, 19)
        # A point is covered when the one-point range [c, c] overlaps.
        assert definition.overlaps_range(10, 10) and definition.overlaps_range(19, 19)
        assert not definition.overlaps_range(20, 20)
        assert definition.overlaps_range(15, 30)
        assert not definition.overlaps_range(20, 30)


class TestMaterializedView:
    def test_holds_only_matching_rows(self, relation):
        definition = ViewDefinition("v", "a", 0, 99)
        view = MaterializedView(definition, relation)
        expected = sum(1 for row in relation.rows() if 0 <= row[0] <= 99)
        assert len(view) == expected

    def test_point_probe(self, relation):
        view = MaterializedView(ViewDefinition("v", "a", 0, 499), relation)
        present = set(relation.column("a"))
        constant = next(iter(present))
        assert view.range_nonempty(constant, constant)
        assert not view.range_nonempty(9999, 9999)


class TestViewSet:
    def test_partition_covers_whole_range(self, relation):
        views = ViewSet.partition(relation, "a", (0, 499), 7)
        assert views.views[0].definition.low == 0
        assert views.views[-1].definition.high == 499
        # Buckets tile without gaps.
        for left, right in zip(views.views, views.views[1:]):
            assert right.definition.low == left.definition.high + 1

    def test_covering_views_rejects_gaps(self, relation):
        views = ViewSet.partition(relation, "a", (0, 499), 4)
        with pytest.raises(ViewError):
            views.covering_views(400, 600)  # beyond materialized range

    def test_mixed_attributes_rejected(self, relation):
        a_view = MaterializedView(ViewDefinition("v1", "a", 0, 499), relation)
        b_view = MaterializedView(ViewDefinition("v2", "b", 0, 499), relation)
        with pytest.raises(ViewError):
            ViewSet([a_view, b_view])

    def test_empty_viewset_rejected(self):
        with pytest.raises(ViewError):
            ViewSet([])

    def test_bad_partition_parameters(self, relation):
        with pytest.raises(ViewError):
            ViewSet.partition(relation, "a", (10, 5), 3)


class TestRewriting:
    def test_point_rewrite_touches_one_view(self, relation):
        views = ViewSet.partition(relation, "a", (0, 499), 10)
        rewritten = rewrite_point(views, 123)
        assert len(rewritten.probes) == 1
        view, low, high = rewritten.probes[0]
        assert low == high == 123
        assert view.definition.overlaps_range(123, 123)

    def test_range_rewrite_clips_probes(self, relation):
        views = ViewSet.partition(relation, "a", (0, 499), 10)
        rewritten = rewrite_range(views, 95, 155)
        for view, low, high in rewritten.probes:
            assert view.definition.low <= low <= high <= view.definition.high
        covered = sorted((low, high) for _, low, high in rewritten.probes)
        assert covered[0][0] == 95 and covered[-1][1] == 155

    def test_answers_match_scan(self, relation):
        views = ViewSet.partition(relation, "a", (0, 499), 10)
        column = set(relation.column("a"))
        rng = random.Random(61)
        for _ in range(150):
            low = rng.randrange(0, 500)
            high = min(499, low + rng.randrange(0, 30))
            expected = any(low <= value <= high for value in column)
            assert answer_with_views(views, low, high) == expected

    def test_view_answering_is_sublinear(self, relation):
        views = ViewSet.partition(relation, "a", (0, 499), 10)
        tracker = CostTracker()
        answer_with_views(views, 100, 103, tracker)
        assert tracker.work < len(relation) // 4
