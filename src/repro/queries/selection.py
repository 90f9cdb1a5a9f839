"""Point- and range-selection query classes (paper, Example 1, Section 4(1)).

The motivating case study: the class Q1 of Boolean point selections
"exists t in D with t[A] = c" and its range extension
"exists t with c1 <= t[A] <= c2".  Naive evaluation scans D (Theta(n));
the Pi-schemes build a B+-tree (or hash index) per attribute in PTIME and
answer any query in O(log n) (or O(1) expected) afterwards.

Queries are (attribute, constant) pairs -- point -- or
(attribute, low, high) triples -- range; data is a
:class:`~repro.storage.relation.Relation`.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

from repro.core.cost import CostTracker
from repro.core.errors import DeltaError
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.incremental.changes import ChangeKind, TupleChange
from repro.indexes.btree import BPlusTree
from repro.indexes.hash_index import HashIndex
from repro.service.merge import (
    ShardPiece,
    ShardSpec,
    stable_buckets,
    union_merge,
)
from repro.storage.relation import Relation, uniform_int_relation

__all__ = [
    "point_selection_class",
    "range_selection_class",
    "btree_point_scheme",
    "hash_point_scheme",
    "btree_range_scheme",
    "selection_shard_spec",
]

PointQuery = Tuple[str, int]  # (A, c)
RangeQuery = Tuple[str, int, int]  # (A, c1, c2)


def _point_queries(relation: Relation, rng: random.Random, count: int) -> List[PointQuery]:
    attributes = relation.schema.attribute_names()
    # Half the probes hit existing values, half are uniform (mostly misses).
    rows = relation.rows()
    queries: List[PointQuery] = []
    for index in range(count):
        attribute = attributes[rng.randrange(len(attributes))]
        if rows and index % 2 == 0:
            row = rows[rng.randrange(len(rows))]
            constant = row[relation.schema.position_of(attribute)]
        else:
            constant = rng.randint(0, 4 * max(len(rows), 1))
        queries.append((attribute, constant))
    return queries


def _range_queries(relation: Relation, rng: random.Random, count: int) -> List[RangeQuery]:
    attributes = relation.schema.attribute_names()
    domain_high = 4 * max(len(relation), 1)
    queries: List[RangeQuery] = []
    for index in range(count):
        attribute = attributes[rng.randrange(len(attributes))]
        if index % 2 == 0:
            # Narrow window (often empty).
            low = rng.randint(0, domain_high)
            high = low + rng.randint(0, 3)
        else:
            low = rng.randint(0, domain_high)
            high = min(domain_high, low + rng.randint(0, domain_high // 4))
        queries.append((attribute, low, high))
    return queries


def _naive_point(relation: Relation, query: PointQuery, tracker: CostTracker) -> bool:
    attribute, constant = query
    position = relation.schema.position_of(attribute)
    return relation.exists(lambda row: row[position] == constant, tracker)


def _naive_range(relation: Relation, query: RangeQuery, tracker: CostTracker) -> bool:
    attribute, low, high = query
    position = relation.schema.position_of(attribute)
    return relation.exists(lambda row: low <= row[position] <= high, tracker)


def point_selection_class() -> QueryClass:
    """Q1 of Example 1: Boolean point selections over a relation."""
    return QueryClass(
        name="point-selection",
        evaluate=_naive_point,
        generate_data=uniform_int_relation,
        generate_queries=_point_queries,
        encode_data=Relation.encode,
        data_size=len,
        description="exists t in D with t[A] = c (paper, Example 1)",
    )


def range_selection_class() -> QueryClass:
    """Range selections of Section 4(1): exists t with c1 <= t[A] <= c2."""
    return QueryClass(
        name="range-selection",
        evaluate=_naive_range,
        generate_data=uniform_int_relation,
        generate_queries=_range_queries,
        encode_data=Relation.encode,
        data_size=len,
        description="exists t in D with c1 <= t[A] <= c2 (paper, Section 4(1))",
    )


def _split_relation(relation: Relation, shards: int) -> List[ShardPiece]:
    """Hash-partition rows into ``shards`` sub-relations under the same schema.

    Partitioning by row *content* (not row id) means an inserted or deleted
    tuple changes exactly one shard's fingerprint, so change batches rebuild
    one shard.  Queries probe by attribute value, which the row hash cannot
    route, so selection scatters to every shard.
    """
    buckets = [Relation(relation.schema) for _ in range(shards)]
    rows = relation.rows()
    for row, bucket in zip(rows, stable_buckets(rows, shards)):
        buckets[bucket].insert(row)
    return [
        ShardPiece(index=i, count=shards, data=bucket)
        for i, bucket in enumerate(buckets)
    ]


def selection_shard_spec() -> ShardSpec:
    """Union sharding for Example 1 / Section 4(1): exists-queries disjoin."""
    return ShardSpec(
        split=_split_relation,
        merge=union_merge(),
    )


def _per_attribute(index_class) -> tuple:
    """``(preprocess, dump, load)`` of one ``index_class`` per attribute."""

    def preprocess(relation: Relation, tracker: CostTracker) -> dict:
        """One index per attribute over its value column: the queries are
        Boolean, so the value multiset is all an index needs -- no row ids.

        The relation is read once as columns; the tracker is still charged
        one scan per attribute, as the per-attribute scans this replaces
        were, so certification fits do not move.
        """
        attributes = relation.schema.attribute_names()
        with tracker.measure() as scan:
            columns = relation.columns(tracker)
        for _ in attributes[1:]:
            tracker.charge(scan.cost)
        return {
            attribute: index_class.from_keys(column, tracker=tracker)
            for attribute, column in zip(attributes, columns)
        }

    dump, load = state_codec(
        lambda state: {a: index_class.from_state(s) for a, s in state.items()},
        lambda indexes: {a: index.to_state() for a, index in indexes.items()},
    )
    return preprocess, dump, load


#: What both B+-tree schemes declare -- the paper's "same B+-trees" (Section
#: 4(1)): one structure name, builder, codec and layout version, so one
#: artifact per relation serves point and range selection.
_BTREES = _per_attribute(BPlusTree)
_SHARED_BTREES = dict(structure="btree-per-attribute", artifact_version=7)  # v7: patched byte columns


def _apply_relation_delta(indexes: dict, changes, tracker: CostTracker) -> dict:
    """Fold a TupleChange batch into the per-attribute indexes (Section 4(7)).

    One O(log n) (B+-tree) or O(1) expected (hash) update per attribute per
    change -- textbook index maintenance, bounded by |dD| up to the index's
    logarithmic factor where a rebuild costs Theta(|D| log |D|): an insert
    adds one to its value's count, a delete takes one off.  The
    per-attribute indexes count every row occurrence of a value, so the
    caller must only send DELETE changes for rows that are actually live
    (:class:`~repro.service.mutable.MutableContent` screens deletes
    against its working dataset); a delete of a phantom row would lower a
    count that another live row still accounts for.
    """
    arity = len(indexes)
    for change in changes:
        if not isinstance(change, TupleChange):
            raise DeltaError(
                f"selection indexes maintain TupleChange batches only, "
                f"got {type(change).__name__}"
            )
        if len(change.row) != arity:
            raise DeltaError(f"row arity {len(change.row)} != schema arity {arity}")
    for change in changes:
        for position, index in enumerate(indexes.values()):
            key = change.row[position]
            if change.kind is ChangeKind.INSERT:
                index.insert(key, tracker)
            else:
                index.delete(key, tracker)
    return indexes


def _point(indexes: dict, query: PointQuery, tracker: CostTracker) -> bool:
    attribute, constant = query
    return indexes[attribute].contains(constant, tracker)


def _point_fast(indexes: dict, query: PointQuery) -> bool:
    attribute, constant = query
    return indexes[attribute].contains_fast(constant)


def _range(indexes: dict, query: RangeQuery, tracker: CostTracker) -> bool:
    attribute, low, high = query
    return indexes[attribute].range_nonempty(low, high, tracker)


def _range_fast(indexes: dict, query: RangeQuery) -> bool:
    attribute, low, high = query
    return indexes[attribute].range_nonempty_fast(low, high)


def _selection_scheme(name, description, family, evaluate, evaluate_fast, **declared):
    preprocess, dump, load = family
    return PiScheme(
        name=name,
        preprocess=preprocess,
        evaluate=evaluate,
        description=description,
        dump=dump,
        load=load,
        sharding=selection_shard_spec(),
        apply_delta=_apply_relation_delta,
        evaluate_fast=evaluate_fast,
        **declared,
    )


def btree_point_scheme() -> PiScheme:
    """Example 1's scheme: B+-trees on every attribute; O(log n) probes."""
    return _selection_scheme(
        "btree-point", "B+-tree per attribute (paper, Example 1)",
        _BTREES, _point, _point_fast, **_SHARED_BTREES,
    )


def btree_range_scheme() -> PiScheme:
    """Section 4(1)'s scheme: the same B+-trees answer range queries."""
    return _selection_scheme(
        "btree-range", "B+-tree range probe (paper, Section 4(1))",
        _BTREES, _range, _range_fast, **_SHARED_BTREES,
    )


def hash_point_scheme() -> PiScheme:
    """Hash-index alternative: O(1) expected point probes."""
    return _selection_scheme(
        "hash-point", "hash index per attribute; O(1) expected probes",
        _per_attribute(HashIndex), _point, _point_fast, artifact_version=6,  # v6: patched byte columns
    )
