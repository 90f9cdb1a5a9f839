"""Change representations for incremental evaluation (paper, Section 4(7)).

Incremental algorithms are analysed against |CHANGED| = |dD| + |dO| [35]:
the size of the input change plus the size of the output change.  These
records are dD; a scheme's ``apply_delta`` hook folds them into its
structure.  Case study C7 (``benchmarks/bench_case7_incremental.py``) is
what charges those hooks against |CHANGED| to test *boundedness* -- cost a
function of |CHANGED| alone, independent of |D|.  A served write
acknowledges only the version it published.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Tuple

__all__ = ["ChangeKind", "TupleChange", "EdgeChange", "PointWrite"]


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
