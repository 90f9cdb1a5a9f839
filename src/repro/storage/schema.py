"""Relational schemas: typed attribute lists with validation.

The selection case studies (paper, Example 1 and Section 4(1)) operate on a
relation ``D`` of schema ``R``.  A :class:`Schema` names the attributes and
their types; :class:`repro.storage.relation.Relation` enforces it on insert.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Sequence, Tuple

from repro.core.errors import SchemaError

__all__ = ["AttributeType", "Attribute", "Schema"]


class AttributeType(enum.Enum):
    """Supported attribute domains."""

    INT = "int"
    STR = "str"
    BOOL = "bool"

    def validate(self, value: Any) -> None:
        if self is AttributeType.INT:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif self is AttributeType.STR:
            ok = isinstance(value, str)
        else:
            ok = isinstance(value, bool)
        if not ok:
            raise SchemaError(
                f"value {value!r} does not inhabit domain {self.value}"
            )


@dataclass(frozen=True)
class Attribute:
    """One named, typed column."""

    name: str
    type: AttributeType


class Schema:
    """An ordered list of uniquely-named attributes."""

    def __init__(self, name: str, attributes: Sequence[Tuple[str, AttributeType]]):
        self.name = name
        self.attributes = tuple(Attribute(n, t) for n, t in attributes)
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"schema {name!r} has duplicate attribute names")
        if not names:
            raise SchemaError(f"schema {name!r} has no attributes")
        self._positions = {a.name: i for i, a in enumerate(self.attributes)}

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position_of(self, attribute: str) -> int:
        """Column index of ``attribute``; raises SchemaError when unknown."""
        try:
            return self._positions[attribute]
        except KeyError as exc:
            raise SchemaError(
                f"schema {self.name!r} has no attribute {attribute!r}"
            ) from exc

    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def validate_row(self, row: Sequence[Any]) -> None:
        """Check arity and per-column domains; raises SchemaError."""
        if len(row) != self.arity:
            raise SchemaError(
                f"row arity {len(row)} does not match schema "
                f"{self.name!r} arity {self.arity}"
            )
        for attribute, value in zip(self.attributes, row):
            attribute.type.validate(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.type.value}" for a in self.attributes)
        return f"Schema({self.name!r}, [{cols}])"
