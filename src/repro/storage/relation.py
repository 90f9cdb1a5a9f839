"""Relations: in-memory tuple stores with cost-charged scans.

A :class:`Relation` is the paper's database ``D`` for the selection case
studies.  Scans charge one cost unit per tuple inspected, which is what makes
the naive-evaluation baseline measurably linear.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core import alphabet
from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import SchemaError
from repro.storage.schema import AttributeType, Schema

__all__ = ["Relation", "Row"]

Row = Tuple[Any, ...]


class Relation:
    """A bag of rows under a schema, supporting scans and point lookups.

    Rows are stored in insertion order with stable integer row ids; deleted
    slots are tombstoned so row ids stay valid (the incremental-maintenance
    case study depends on that).
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._rows: List[Optional[Row]] = []
        self._live = 0

    # -- mutation -------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> int:
        """Validate and append; returns the new row id."""
        as_tuple = tuple(row)
        self.schema.validate_row(as_tuple)
        self._rows.append(as_tuple)
        self._live += 1
        return len(self._rows) - 1

    def delete(self, row_id: int) -> Row:
        """Tombstone a row; returns the removed row."""
        row = self.fetch(row_id)
        self._rows[row_id] = None
        self._live -= 1
        return row

    # -- access ---------------------------------------------------------------

    def fetch(self, row_id: int) -> Row:
        if not 0 <= row_id < len(self._rows):
            raise SchemaError(f"row id {row_id} out of range")
        row = self._rows[row_id]
        if row is None:
            raise SchemaError(f"row id {row_id} is deleted")
        return row

    def scan(self, tracker: Optional[CostTracker] = None) -> Iterator[Tuple[int, Row]]:
        """Full scan, charging one unit per slot inspected."""
        tracker = ensure_tracker(tracker)
        for row_id, row in enumerate(self._rows):
            tracker.tick(1)
            if row is not None:
                yield row_id, row

    def exists(
        self,
        predicate: Callable[[Row], bool],
        tracker: Optional[CostTracker] = None,
    ) -> bool:
        """Boolean selection: does any tuple satisfy the predicate?

        This is the paper's Boolean point/range selection semantics; the
        scan stops at the first witness (still linear in the worst case and
        on negative answers).
        """
        for _, row in self.scan(tracker):
            if predicate(row):
                return True
        return False

    def column(self, attribute: str, tracker: Optional[CostTracker] = None) -> List[Any]:
        position = self.schema.position_of(attribute)
        return [row[position] for _, row in self.scan(tracker)]

    def columns(self, tracker: Optional[CostTracker] = None) -> List[List[Any]]:
        """The live rows as columns, from one read: one value list per
        attribute in schema order.

        Charges one unit per slot inspected, like :meth:`scan`, in a single
        tick: the bulk path of set-up (fingerprint, per-attribute builds).
        """
        ensure_tracker(tracker).tick(len(self._rows))
        rows = self._rows if self._live == len(self._rows) else self.rows()
        return [[row[p] for row in rows] for p in range(self.schema.arity)]

    def value(self, row: Row, attribute: str) -> Any:
        """``t[A]`` -- the attribute value of a row."""
        return row[self.schema.position_of(attribute)]

    def rows(self) -> List[Row]:
        """All live rows (no cost charged; testing/utility accessor)."""
        return [row for row in self._rows if row is not None]

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    # -- Sigma* view ------------------------------------------------------------

    def encode(self) -> str:
        """Deterministic Sigma* encoding: schema header then live rows."""
        header = (
            self.schema.name,
            tuple((a.name, a.type.value) for a in self.schema.attributes),
        )
        return alphabet.encode((header, tuple(self.rows())))

    @staticmethod
    def decode(text: str) -> "Relation":
        (name, columns), rows = alphabet.decode(text)
        schema = Schema(name, [(n, AttributeType(t)) for n, t in columns])
        relation = Relation(schema)
        for row in rows:
            relation.insert(row)
        return relation

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, rows={self._live})"


def uniform_int_relation(
    size: int,
    rng: random.Random,
    *,
    name: str = "R",
    attributes: Sequence[str] = ("a", "b"),
    value_range: Optional[Tuple[int, int]] = None,
) -> Relation:
    """A synthetic relation with uniformly random integer columns.

    ``value_range`` defaults to ``(0, 4 * size)`` so that roughly a quarter
    of random point probes hit -- workloads mix positive and negative
    answers.
    """
    lo, hi = value_range if value_range is not None else (0, 4 * size)
    schema = Schema(name, [(a, AttributeType.INT) for a in attributes])
    relation = Relation(schema)
    for _ in range(size):
        relation.insert(tuple(rng.randint(lo, hi) for _ in attributes))
    return relation
