"""Materialized selection views (paper, Section 4(6)).

Query answering using views [1, 23, 30], instantiated for the selection
query classes: a view is a materialized range selection
``V = sigma_{A in [low, high]}(R)``, indexed on A.  The Pi-scheme for
"answering selections using views" materializes a partition of the key
space into such views (PTIME), after which a point or range query touches
only the views that cover it -- never the base relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import ViewError
from repro.indexes.btree import BPlusTree
from repro.storage.relation import Relation

__all__ = ["ViewDefinition", "MaterializedView", "ViewSet"]


@dataclass(frozen=True)
class ViewDefinition:
    """``sigma_{attribute in [low, high]}(relation)`` -- a range-slice view."""

    name: str
    attribute: str
    low: Any
    high: Any

    def overlaps_range(self, low: Any, high: Any) -> bool:
        return not (high < self.low or low > self.high)


class MaterializedView:
    """A view extension V(D), stored with a B+-tree on the view attribute."""

    def __init__(
        self,
        definition: ViewDefinition,
        base: Relation,
        tracker: Optional[CostTracker] = None,
    ):
        tracker = ensure_tracker(tracker)
        self.definition = definition
        position = base.schema.position_of(definition.attribute)
        keys = [
            row[position]
            for _, row in base.scan(tracker)
            if definition.low <= row[position] <= definition.high
        ]
        self._index = BPlusTree.from_keys(keys, tracker=tracker)

    def __len__(self) -> int:
        return len(self._index)

    def range_nonempty(self, low: Any, high: Any, tracker: Optional[CostTracker] = None) -> bool:
        return self._index.range_nonempty(low, high, ensure_tracker(tracker))


class ViewSet:
    """A collection of materialized views over one relation attribute."""

    def __init__(self, views: List[MaterializedView]):
        if not views:
            raise ViewError("a view set needs at least one view")
        attributes = {view.definition.attribute for view in views}
        if len(attributes) != 1:
            raise ViewError("all views in a set must select on the same attribute")
        self.attribute = attributes.pop()
        self.views = sorted(views, key=lambda view: view.definition.low)

    @classmethod
    def partition(
        cls,
        base: Relation,
        attribute: str,
        key_range: Tuple[Any, Any],
        bucket_count: int,
        tracker: Optional[CostTracker] = None,
    ) -> "ViewSet":
        """Materialize ``bucket_count`` contiguous range views covering
        ``key_range`` -- the PTIME preprocessing of strategy (6)."""
        low, high = key_range
        if bucket_count < 1 or high < low:
            raise ViewError("bad partition parameters")
        span = high - low + 1
        width = max(1, span // bucket_count)
        views = []
        start = low
        index = 0
        while start <= high:
            end = high if index == bucket_count - 1 else min(high, start + width - 1)
            definition = ViewDefinition(
                name=f"{base.schema.name}_{attribute}_{index}",
                attribute=attribute,
                low=start,
                high=end,
            )
            views.append(MaterializedView(definition, base, tracker))
            start = end + 1
            index += 1
        return cls(views)

    def covering_views(self, low: Any, high: Any) -> List[MaterializedView]:
        """Views overlapping [low, high]; raises ViewError if they do not
        jointly cover the whole range (the query is not answerable)."""
        overlapping = [
            view for view in self.views if view.definition.overlaps_range(low, high)
        ]
        if not overlapping:
            raise ViewError(f"no view covers [{low}, {high}]")
        # Contiguity check: the union of view ranges must contain [low, high].
        cursor = low
        for view in overlapping:
            if view.definition.low > cursor:
                raise ViewError(f"coverage gap at {cursor} for [{low}, {high}]")
            cursor = max(cursor, view.definition.high + 1)
        if cursor <= high:
            raise ViewError(f"coverage gap at {cursor} for [{low}, {high}]")
        return overlapping
