"""Property tests: a deep copy of a delta-maintained structure is private.

A mutable session privatises its two left-right instances of a kind that
folds change batches in place by ``copy.deepcopy``: every container is new,
the values in them are shared.  For every catalog scheme with an
``apply_delta`` hook, a copy of ``preprocess(D)`` must

* answer like the original (and like the naive evaluator) on sampled queries;
* share no mutable object with it -- walking ``gc.get_referents`` from both,
  the only objects reached from both are ints, floats, strings, bytes,
  bools, ``None`` and tuples or frozensets of those;
* take a change batch through ``apply_delta`` while the original keeps
  answering its old content.
"""

from __future__ import annotations

import copy
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import CATALOG
from repro.core.cost import NULL_TRACKER
from repro.graphs.graph import Digraph
from repro.incremental.changes import ChangeKind, EdgeChange, PointWrite, TupleChange
from repro.indexes import FischerHeunRMQ, SortedRunIndex
from repro.storage.relation import Relation

DELTA_SCHEMES = [
    (row, factory)
    for row in CATALOG
    for factory in row.schemes
    if row.make(factory).apply_delta is not None
]

_ATOMS = (int, float, str, bytes, bool, type(None))


def _immutable(value) -> bool:
    if isinstance(value, _ATOMS):
        return True
    return isinstance(value, (tuple, frozenset)) and all(map(_immutable, value))


def _reachable(structure) -> dict:
    """``id -> object`` for everything reachable from ``structure`` through
    ``gc.get_referents``, classes left out (every instance reaches its own)."""
    seen, stack = {}, [structure]
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, type):
            continue
        seen[id(node)] = node
        stack.extend(gc.get_referents(node))
    return seen


def _rows(data):
    return list(data.rows()) if isinstance(data, Relation) else list(data)


def _change_batch(row_name, data, rng):
    """A batch ``apply_delta`` takes for the row's data shape."""
    if row_name == "minimum-range-query":
        return [PointWrite(rng.randrange(len(data)), rng.randint(-100, 100)) for _ in range(3)]
    if isinstance(data, Digraph):
        return [
            EdgeChange(ChangeKind.INSERT, rng.randrange(data.n), rng.randrange(data.n))
            for _ in range(3)
        ]
    rows = _rows(data)
    if row_name == "list-membership":
        rows = [(value,) for value in rows]
    present = rng.choice(rows)
    fresh = tuple(value + 1 for value in rng.choice(rows))
    return [TupleChange(ChangeKind.INSERT, fresh), TupleChange(ChangeKind.DELETE, present)]


def _check_private_copy(row, scheme, seed, size):
    rng = random.Random(seed)
    query_class = row.make(row.query_class)
    data = query_class.generate_data(size, rng)
    queries = query_class.generate_queries(data, rng, 24)
    original = scheme.preprocess(data, NULL_TRACKER)
    twin = copy.deepcopy(original)

    for query in queries:
        expected = query_class.pair_in_language(data, query)
        assert scheme.evaluate(twin, query, NULL_TRACKER) == expected, query
        assert scheme.evaluate(original, query, NULL_TRACKER) == expected, query
        if scheme.evaluate_fast is not None:
            assert scheme.evaluate_fast(twin, query) == expected, query

    theirs = _reachable(original)
    shared = [theirs[key] for key in _reachable(twin).keys() & theirs.keys()]
    assert all(map(_immutable, shared)), [type(value).__name__ for value in shared]

    scheme.apply_delta(twin, _change_batch(row.name, data, rng), NULL_TRACKER)
    for query in queries:
        expected = query_class.pair_in_language(data, query)
        assert scheme.evaluate(original, query, NULL_TRACKER) == expected, query
        if scheme.evaluate_fast is not None:
            assert scheme.evaluate_fast(original, query) == expected, query


@pytest.mark.parametrize(
    "row, factory", DELTA_SCHEMES, ids=[f"{row.name}:{factory}" for row, factory in DELTA_SCHEMES]
)
@given(seed=st.integers(0, 2**16), size=st.integers(1, 96))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_a_deep_copy_is_private_and_answers_alike(row, factory, seed, size):
    _check_private_copy(row, row.make(factory), seed, size)


def test_every_delta_scheme_of_the_catalog_is_covered():
    """Membership, RMQ (both schemes), selection (B+-tree and hash),
    reachability and top-k: the structures a mutable session privatises."""
    assert {row.name for row, _ in DELTA_SCHEMES} >= {
        "list-membership", "minimum-range-query", "point-selection",
        "range-selection", "reachability", "topk-threshold",
    }


@pytest.mark.parametrize(
    "index_class, column, row_name",
    [(SortedRunIndex, "_run", "list-membership"), (FischerHeunRMQ, "_array", "minimum-range-query")],
)
def test_a_copy_that_shares_a_column_fails_the_property(monkeypatch, index_class, column, row_name):
    """A mutant ``__deepcopy__`` that hands the copy the original's value
    column is caught."""
    real = index_class.__deepcopy__

    def leaky(self, memo):
        twin = real(self, memo)
        setattr(twin, column, getattr(self, column))
        return twin

    monkeypatch.setattr(index_class, "__deepcopy__", leaky)
    row, factory = next((row, f) for row, f in DELTA_SCHEMES if row.name == row_name)
    with pytest.raises(AssertionError):
        _check_private_copy(row, row.make(factory), seed=0, size=64)
