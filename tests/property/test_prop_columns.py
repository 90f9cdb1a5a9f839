"""Property tests for the at-rest state layout (ISSUE 21).

* the sorted-run form (``columns.pack_sorted``): first value plus gaps in
  the narrowest unsigned typecode, taken exactly when the run is plain-int,
  non-decreasing and the gaps are strictly narrower than ``pack``'s answer,
  otherwise ``pack``'s answer itself -- so it is never wider than ``pack``;
* every kind the catalog engine serves (each has ``dump``/``load``): the
  state is a fixed point of the round trip, and tracked == fast == batched
  == naive afterwards.

No clocks: widths are item sizes, answers are Booleans.
"""

from __future__ import annotations

import pickle
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import build_query_engine
from repro.core.cost import CostTracker
from repro.indexes import columns

WORD = st.integers(-(1 << 63), (1 << 63) - 1)
GAP = st.one_of(
    st.sampled_from([0, 1, 255, 256, 65_535, 65_536, (1 << 32) - 1, 1 << 32]),
    st.integers(0, 1 << 20),
)


@st.composite
def sorted_runs(draw):
    """Non-decreasing runs that stay inside a signed machine word."""
    first = draw(st.integers(-(1 << 63), 1 << 40))
    gaps = draw(st.lists(GAP, max_size=40))
    return list(accumulate(gaps, initial=first))


def _check_form(values):
    plain = columns.pack(values)
    stored = columns.pack_sorted(values)
    restored = columns.unpack(stored)
    assert restored == values and list(map(type, restored)) == list(map(type, values))
    gaps = [after - before for before, after in zip(values, values[1:])]
    narrowest = columns.pack(gaps)  # signed or a list when a gap is negative / too wide
    taken = (
        isinstance(plain, array) and isinstance(narrowest, array)
        and narrowest.typecode.isupper() and narrowest.itemsize < plain.itemsize
    )
    if taken:
        first, column = stored
        assert (first, column) == (values[0], narrowest) and type(first) is int
    else:
        assert type(stored) is type(plain) and stored == plain
        assert getattr(stored, "typecode", None) == getattr(plain, "typecode", None)
    return taken


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(sorted_runs(), st.lists(WORD, max_size=40)))
def test_sorted_run_form_round_trips_and_is_never_wider_than_pack(values):
    _check_form(values)


@pytest.mark.parametrize(
    "gap,code", [(0, "B"), (255, "B"), (256, "H"), (65_535, "H"), (65_536, "I")]
)
@pytest.mark.parametrize("first", [-(1 << 40), 1 << 40])
def test_gap_typecode_boundaries(first, gap, code):
    """A 41-bit first value makes ``pack`` answer 8 bytes: the gap decides."""
    values = [first, first + gap, first + 2 * gap]
    assert _check_form(values)
    assert columns.pack_sorted(values)[1].typecode == code


@pytest.mark.parametrize(
    "values",
    [
        [], [1 << 40], [3, 2, 1 << 20], [1 << 20, 1 << 20, 5],  # empty, one, unsorted
        [0, 100, 200], [-5, -3, 300],  # gaps no narrower than the values
        [(1 << 63) - 1, -(1 << 63)],  # a gap no machine word holds
        [True, True], [1, True, 70_000], [1.0, 70_000.0], [0, 1 << 64],
    ],
    ids=repr,
)
def test_everything_else_is_exactly_packs_answer(values):
    assert not _check_form(values)


def test_a_negative_first_value_keeps_the_gap_form():
    assert columns.pack_sorted([-70_000, -69_999, -69_990]) == (-70_000, array("B", [1, 9]))


# -- every served kind is a persisted kind -------------------------------------

with build_query_engine() as _engine:
    PERSISTED = {kind: _engine.registration(kind) for kind in _engine.kinds()}


def test_the_catalog_persists_every_served_kind():
    assert sorted(PERSISTED) == [
        "alternating-reachability", "bds-order", "cvp-factorized", "dag-lca",
        "list-membership", "minimum-range-query", "point-selection",
        "range-selection", "reachability", "topk-threshold", "tree-lca",
        "vertex-cover-fixed-k",
    ]
    assert all(scheme.serializable for _, scheme in PERSISTED.values())


@pytest.mark.parametrize("kind", sorted(PERSISTED))
@settings(max_examples=12, deadline=None)
@given(size=st.integers(4, 96), seed=st.integers(0, 1 << 20))
def test_state_is_a_fixed_point_and_answers_survive_the_round_trip(kind, size, seed):
    query_class, scheme = PERSISTED[kind]
    data, queries = query_class.sample_workload(size, seed, 12)
    dumped = scheme.dump(scheme.preprocess(data, CostTracker()))
    loaded = scheme.load(dumped)
    # from_state(to_state(x)).to_state() == x.to_state(), through the codec.
    assert pickle.loads(scheme.dump(loaded)) == pickle.loads(dumped)
    naive = [query_class.pair_in_language(data, query) for query in queries]
    assert [scheme.answer(loaded, query, CostTracker()) for query in queries] == naive
    assert [scheme.answer_fast(loaded, query) for query in queries] == naive
    assert scheme.answer_many(loaded, queries) == naive
