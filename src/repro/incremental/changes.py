"""Change representations for incremental evaluation (paper, Section 4(7)).

Incremental algorithms are analysed against |CHANGED| = |dD| + |dO| [35]:
the size of the input change plus the size of the output change.  The
:class:`ChangeLog` accumulates both so experiments can test *boundedness* --
cost a function of |CHANGED| alone, independent of |D|.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Tuple

__all__ = ["ChangeKind", "TupleChange", "EdgeChange", "PointWrite", "ChangeLog", "MAX_DETAILS"]

#: How many recent notes a :class:`ChangeLog` keeps: a session's log lives as
#: long as the session (on the wire, the worker), so older notes are dropped.
MAX_DETAILS = 64


class ChangeKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class TupleChange:
    """One row inserted into / deleted from a relation."""

    kind: ChangeKind
    row: Tuple[Any, ...]


@dataclass(frozen=True)
class EdgeChange:
    """One edge inserted into / deleted from a graph."""

    kind: ChangeKind
    source: int
    target: int


@dataclass(frozen=True)
class PointWrite:
    """One in-place overwrite of a positional dataset: ``A[position] = value``.

    The natural update for array-shaped data (the RMQ case study): the
    dataset keeps its length, exactly one slot changes, so |dD| = 1 and the
    delta-maintenance hooks can localize the repair to the touched block.
    """

    position: int
    value: Any


@dataclass
class ChangeLog:
    """Accounting of |dD| and |dO| across a batch of updates; the counts
    cover every change, ``details`` only the last :data:`MAX_DETAILS` notes."""

    input_changes: int = 0
    output_changes: int = 0
    details: Deque[str] = field(default_factory=lambda: deque(maxlen=MAX_DETAILS))

    def record(self, input_delta: int, output_delta: int, note: str = "") -> None:
        self.input_changes += input_delta
        self.output_changes += output_delta
        if note:
            self.details.append(note)

    @property
    def changed(self) -> int:
        """|CHANGED| = |dD| + |dO| (Ramalingam & Reps [35])."""
        return self.input_changes + self.output_changes
