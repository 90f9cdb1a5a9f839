"""Property tests: RMQ structures and LCA indexes against their definitions."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostTracker
from repro.graphs import Digraph, Graph
from repro.indexes import rmq as rmq_module
from repro.indexes import (
    DagLCAIndex,
    EulerTourLCA,
    FischerHeunRMQ,
    SortedRunIndex,
    SparseTable,
    columns,
    naive_dag_lca,
    naive_range_min,
    naive_tree_lca,
)

arrays = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=200)


@given(arrays, st.data())
@settings(max_examples=80)
def test_rmq_structures_agree_with_naive(array, data):
    sparse = SparseTable(array)
    fischer = FischerHeunRMQ(array)
    i = data.draw(st.integers(min_value=0, max_value=len(array) - 1))
    j = data.draw(st.integers(min_value=i, max_value=len(array) - 1))
    expected = naive_range_min(array, i, j)
    assert sparse.argmin(i, j) == expected
    assert fischer.argmin(i, j) == expected


@st.composite
def random_trees(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    rng = random.Random(seed)
    tree = Graph(n)
    for v in range(1, n):
        tree.add_edge(rng.randrange(v), v)
    return tree


@given(random_trees(), st.data())
@settings(max_examples=60)
def test_euler_lca_matches_definition(tree, data):
    index = EulerTourLCA(tree, 0)
    u = data.draw(st.integers(min_value=0, max_value=tree.n - 1))
    v = data.draw(st.integers(min_value=0, max_value=tree.n - 1))
    w = index.lca(u, v)
    assert w == naive_tree_lca(tree, 0, u, v)
    # Definitional check: w is an ancestor of both...
    assert index.is_ancestor(w, u)
    assert index.is_ancestor(w, v)


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    rng = random.Random(seed)
    dag = Digraph(n)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u < v:
            dag.add_edge(u, v)
    return dag


@given(random_dags(), st.data())
@settings(max_examples=60)
def test_dag_lca_satisfies_paper_definition(dag, data):
    index = DagLCAIndex(dag)
    u = data.draw(st.integers(min_value=0, max_value=dag.n - 1))
    v = data.draw(st.integers(min_value=0, max_value=dag.n - 1))
    w = index.lca(u, v)
    assert w == naive_dag_lca(dag, u, v)
    if w == -1:
        assert index.all_lcas(u, v) == []
        return
    # The paper's definition: w is a common (reflexive) ancestor with no
    # descendant that is also a common ancestor.
    assert index.is_ancestor(w, u) and index.is_ancestor(w, v)
    for other in index.all_lcas(u, v):
        if other != w:
            assert not index.is_ancestor(w, other) or other == w
    assert w in index.all_lcas(u, v)


# -- typed-column state (ISSUE 17) ---------------------------------------------

#: Every signed/unsigned width boundary of the eight typecodes, and beyond.
_EDGES = [
    sign * (1 << bits) + nudge
    for bits in (7, 8, 15, 16, 31, 32, 63, 64, 70)
    for sign in (1, -1)
    for nudge in (-1, 0, 1)
]
boundary_ints = st.lists(st.sampled_from(_EDGES) | st.integers(-300, 300), max_size=12)
anything = st.lists(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.floats(allow_nan=False),
        st.text(max_size=3),
        st.none(),
    ),
    max_size=12,
)


def _narrowest_width(values):
    """Reference for pack's choice: bytes per item, None for a list."""
    for width in (1, 2, 4, 8):
        top = 1 << 8 * width
        if all(0 <= v < top for v in values) or all(-top // 2 <= v < top // 2 for v in values):
            return width
    return None


@given(boundary_ints | anything)
@settings(max_examples=300)
def test_pack_unpack_is_the_identity_with_types(values):
    packed = columns.pack(values)
    restored = columns.unpack(packed)
    assert restored == values and restored is not values
    assert list(map(type, restored)) == list(map(type, values))
    plain = bool(values) and all(type(v) is int for v in values)
    width = _narrowest_width(values) if plain else None
    if width is None:
        assert type(packed) is list
    else:
        # At rest: w // 8 byte lanes of the largest value's w bits, plus a
        # 1/2/4-bit plane for w % 8 of 1/2/3-4 (5-7: one more lane) --
        # unless the run is signed or that is no narrower than the word --
        # or, for a byte run, a patched plane when that is smaller still.
        lanes, rest = divmod(max(values).bit_length(), 8)
        bits = 8 * lanes + next(b for b in (0, 1, 2, 4, 8) if rest <= b)
        lane_form = columns._lanes(columns.words(values))
        if isinstance(packed, bytes) and packed[0] & 0x80:
            assert width == 1 and min(values) >= 0
            assert len(packed) < (len(lane_form) if isinstance(lane_form, bytes) else width * len(values))
        elif min(values) < 0 or not 0 < bits < 8 * width:
            assert packed.itemsize == width
        else:
            assert packed[0] == bits


def _assert_same_state(index, cls):
    state = index.to_state()
    clone = cls.from_state(state)
    assert clone.to_state() == state == index.to_state()
    return clone


@given(arrays | st.lists(st.sampled_from(_EDGES), min_size=1, max_size=40), st.data())
@settings(max_examples=80)
def test_rmq_state_round_trip_keeps_tracked_fast_and_naive_equal(array, data):
    for cls in (SparseTable, FischerHeunRMQ):
        clone = _assert_same_state(cls(array), cls)
        for _ in range(4):
            i = data.draw(st.integers(min_value=0, max_value=len(array) - 1))
            j = data.draw(st.integers(min_value=i, max_value=len(array) - 1))
            expected = naive_range_min(array, i, j)
            assert clone.argmin(i, j) == clone.argmin_fast(i, j) == expected
            assert clone.value_at(expected) == array[expected]
            assert type(clone.value_at(expected)) is type(array[expected])


@given(boundary_ints | st.lists(st.integers() | st.booleans() | st.floats(allow_nan=False), max_size=12))
@settings(max_examples=80)
def test_sorted_run_state_round_trip(values):
    clone = _assert_same_state(SortedRunIndex(values), SortedRunIndex)
    assert clone.values() == sorted(values)
    assert list(map(type, clone.values())) == list(map(type, sorted(values)))
    for key in values[:4] + [0, 1]:
        assert clone.contains(key) == clone.contains_fast(key) == (key in values)


@given(random_trees(), st.data())
@settings(max_examples=40)
def test_euler_lca_state_round_trip(tree, data):
    index = EulerTourLCA(tree, 0)
    clone = _assert_same_state(index, EulerTourLCA)
    assert clone.parent == index.parent and clone.root == index.root
    u = data.draw(st.integers(min_value=0, max_value=tree.n - 1))
    v = data.draw(st.integers(min_value=0, max_value=tree.n - 1))
    assert clone.lca(u, v) == index.lca(u, v) == naive_tree_lca(tree, 0, u, v)


@pytest.mark.parametrize("n,code", [(1 << 16, "H"), ((1 << 16) + 1, "I")])
def test_position_columns_widen_past_65536(n, code):
    """A descending array makes every window's argmin its right end, so the
    last position (n - 1 = 65 536 at the wider size) must be representable.
    Each column is typed by its own bound: positions by n, table ids by the
    block shapes (at most 14 + 5 at b = 4: a byte), masks by their 16 bits."""
    descending = range(n, 0, -1)
    table = SparseTable(descending)
    assert {level.typecode for level in table._levels} == {code}
    assert table.argmin_fast(0, n - 1) == table.argmin(n - 2, n - 1) == n - 1
    fischer = FischerHeunRMQ(descending)
    summary = fischer._summary
    assert summary._word_argmin.typecode == code
    assert (fischer._block_table.typecode, summary._masks.typecode) == ("B", "H")
    assert fischer.argmin_fast(0, n - 1) == fischer.argmin(n - 5, n - 1) == n - 1
    clone = FischerHeunRMQ.from_state(pickle.loads(pickle.dumps(fischer.to_state())))
    assert clone._summary._word_argmin.typecode == code
    assert (clone._block_table.typecode, clone._summary._masks.typecode) == ("B", "H")
    assert clone._summary._word_argmin == summary._word_argmin
    assert clone.argmin_fast(1, n - 1) == n - 1
    # Table ids widen past 255 with b, not n: Catalan(6) + Catalan(5) = 174
    # ids fit a byte, Catalan(7) + Catalan(6) = 561 do not.
    for b, ids in ((6, "B"), (7, "H")):
        fischer = _signed(range(4 * b - 1, 0, -1), b)  # a tail of b - 1
        clone = FischerHeunRMQ.from_state(pickle.loads(pickle.dumps(fischer.to_state())))
        assert fischer._block_table.typecode == clone._block_table.typecode == ids


@pytest.mark.parametrize("vertices,code", [(1 << 15, "H"), ((1 << 15) + 1, "I")])
def test_first_occurrence_column_widens_with_the_tour(vertices, code):
    """A tree on m vertices has a tour of 2m - 1 slots: 65 535, then 65 537."""
    chain = Graph(vertices)
    for v in range(1, vertices):
        chain.add_edge(v - 1, v)
    index = EulerTourLCA(chain, 0)
    assert len(index._tour) == 2 * vertices - 1
    assert index._tour.typecode == "H" and index._first.typecode == code
    clone = EulerTourLCA.from_state(pickle.loads(pickle.dumps(index.to_state())))
    assert clone._first.typecode == code and clone.to_state() == index.to_state()
    assert clone.lca(vertices - 1, vertices - 2) == vertices - 2


def _assert_summary_rebuilt(fischer, rebuilt):
    """The repaired summary is the one a build derives: the stored masks,
    each block's minimum position and, in memory only, each word's argmin
    and the word table's levels (table ids may differ: they number
    signatures in the order they were first seen)."""
    summary, expected = fischer._summary, rebuilt._summary
    assert pickle.dumps(summary.to_state()) == pickle.dumps(expected.to_state())
    blocks = range(len(fischer._block_table))
    assert list(map(summary._position, blocks)) == list(map(expected._position, blocks))
    assert summary._word_argmin == expected._word_argmin
    assert summary._words.to_state() == expected._words.to_state()


updates = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(min_value=-4, max_value=4)), max_size=25
)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=70), updates)
@settings(max_examples=150)
def test_early_exit_point_update_equals_rebuild(array, writes):
    """Heavy ties (values in [-4, 4]), every size from n = 1, and a new
    global minimum after the random writes: after *every* update the
    repaired levels are the levels a rebuild derives, and the tracker was
    charged at most the windows covering the position."""
    array = list(array)
    n = len(array)
    sparse, fischer = SparseTable(array), FischerHeunRMQ(array)
    writes = [(position % n, value) for position, value in writes]
    writes.append((n // 2, min(array) - 1))  # a new global minimum ...
    writes.append((n // 2, max(array) + 1))  # ... then taken away again
    for position, value in writes:
        array[position] = value
        tracker = CostTracker()
        sparse.point_update(position, value, tracker)
        fischer.point_update(position, value)
        rebuilt = FischerHeunRMQ(array)
        assert sparse.to_state() == SparseTable(array).to_state()
        _assert_summary_rebuilt(fischer, rebuilt)
        assert tracker.work <= sum(
            min(position, n - (1 << k)) - max(0, position - (1 << k) + 1) + 1
            for k in range(1, len(sparse._levels))
        )
        for low in range(n):
            assert fischer.argmin_fast(low, n - 1) == naive_range_min(array, low, n - 1)


# -- column-at-a-time block signing ----------------------------------------------


def _signed(array, b, tracker=None):
    """A Fischer--Heun structure over ``array`` with blocks of ``b``, a size
    the constructor picks only for some n (b = 3 needs n >= 4 096)."""
    fischer = FischerHeunRMQ.__new__(FischerHeunRMQ)
    fischer._array = list(array)
    fischer._sign_blocks(b, tracker or CostTracker())
    return fischer


def _masks_by_definition(minima):
    """Bit i of block k's mask: minimum i of k's word is <= every later
    minimum of the word up to k."""
    masks = []
    for k in range(len(minima)):
        base = k - k % 16
        bits = [i - base for i in range(base, k + 1) if minima[i] <= min(minima[i : k + 1])]
        masks.append(sum(1 << bit for bit in bits))
    return masks


def _signed_block_at_a_time(array, b, tracker):
    """The reference signer: one ``_sign_block`` call per block, each mask
    from its definition, the same charge for the summary."""
    rmq = FischerHeunRMQ.__new__(FischerHeunRMQ)
    rmq._array, rmq._block_size = list(array), b
    rmq._tables, rmq._last, rmq._table_ids = [], [], {}
    signed = [rmq._sign_block(start, tracker) for start in range(0, len(array), b)]
    rmq._block_table = columns.ids(signed, rmq_module._table_bound(b, len(array)))
    minima = [min(array[start : start + b]) for start in range(0, len(array), b)]
    tracker.tick(2 * len(minima))
    masks = columns.positions(_masks_by_definition(minima), 1 << 16)
    rmq._summary = rmq_module._MaskedMinima(rmq, masks, tracker)
    return rmq


@st.composite
def tied_arrays(draw):
    """0-600 values, nearly all in-block pairs tied ({0, 1, 2}) or wide."""
    alphabet = draw(st.sampled_from([(0, 1, 2), tuple(_EDGES)]))
    rng = random.Random(draw(st.integers(0, 2**30)))
    return [rng.choice(alphabet) for _ in range(draw(st.integers(0, 600)))]


@given(tied_arrays(), st.integers(1, 6), st.sampled_from([1, 3, 64]), st.data())
@settings(max_examples=200, deadline=None)
def test_column_signing_equals_block_at_a_time(array, b, chunk, data):
    """Same state bytes, charges and signatures as the per-block loop, for
    block sizes the constructor reaches only at n >= 2^20 (b = 5, 6) and
    across chunk boundaries; then point writes keep argmins leftmost."""
    expected_tracker, tracker = CostTracker(), CostTracker()
    expected = _signed_block_at_a_time(array, b, expected_tracker)
    default, rmq_module._SIGN_CHUNK = rmq_module._SIGN_CHUNK, chunk
    try:
        fischer = _signed(array, b, tracker)
    finally:
        rmq_module._SIGN_CHUNK = default
    assert pickle.dumps(fischer.to_state()) == pickle.dumps(expected.to_state())
    assert tracker.snapshot() == expected_tracker.snapshot()
    assert fischer.distinct_signatures == expected.distinct_signatures
    for _ in range(3 if array else 0):
        position = data.draw(st.integers(0, len(array) - 1))
        array[position] = data.draw(st.integers(-1, 3))
        fischer.point_update(position, array[position])
        low = data.draw(st.integers(0, len(array) - 1))
        high = data.draw(st.integers(low, len(array) - 1))
        assert fischer.argmin_fast(low, high) == naive_range_min(array, low, high)


# -- stack-masked words of block minima -------------------------------------------


@st.composite
def word_spanning_arrays(draw):
    """(b, array) for b in {1, 2, 3}: 1-43 full words of 16 block minima
    and a partial last word (n up to 2 109), values from {0, 1, 2} (ties
    in nearly every window) or from [-n, n]."""
    b = draw(st.integers(1, 3))
    n = 16 * b * draw(st.integers(1, 43)) + draw(st.integers(1, 15 * b))
    alphabet = draw(st.sampled_from([(0, 1, 2), tuple(range(-n, n + 1))]))
    rng = random.Random(draw(st.integers(0, 2**30)))
    return b, [rng.choice(alphabet) for _ in range(n)]


@given(word_spanning_arrays())
@settings(max_examples=60, deadline=None)
def test_stack_masks_match_their_definition(case):
    """Every block's mask is its word's stack by definition; each word's
    argmin is the leftmost minimum of its blocks' minima, and the word
    table is a sparse table over those minima."""
    b, array = case
    fischer = _signed(array, b)
    summary = fischer._summary
    starts = range(0, len(array), b)
    block_argmin = [naive_range_min(array, start, min(start + b, len(array)) - 1) for start in starts]
    assert [summary._position(k) for k in range(len(starts))] == block_argmin
    minima = [array[p] for p in block_argmin]
    assert list(summary._masks) == _masks_by_definition(minima)
    bases = range(0, len(minima), 16)
    assert list(summary._word_argmin) == [
        block_argmin[naive_range_min(minima, base, min(base + 16, len(minima)) - 1)]
        for base in bases
    ]
    words = [min(minima[base : base + 16]) for base in bases]
    assert summary._words.to_state() == SparseTable(words).to_state()


def _assert_answers(fischer, array, rng):
    """fast == tracked == naive on random windows, the whole array and
    windows that cross a word of block minima or end at its edge."""
    n, span = len(array), 16 * fischer.block_size
    windows = [(0, n - 1)]
    for _ in range(40):
        low = rng.randrange(n)
        windows.append((low, rng.randrange(low, n)))
        edge = rng.randrange(span, n, span) if n > span else n - 1
        windows.append((max(0, edge - rng.randrange(1, 2 * span)), edge - 1))
        windows.append((max(0, edge - rng.randrange(1, 2 * span)), min(n - 1, edge + rng.randrange(span))))
    for low, high in windows:
        expected = naive_range_min(array, low, high)
        assert fischer.argmin_fast(low, high) == fischer.argmin(low, high) == expected, (low, high)


@given(word_spanning_arrays(), st.data())
@settings(max_examples=60, deadline=None)
def test_masked_words_answer_leftmost_through_point_writes(case, data):
    """Point writes -- random ones, then a tie and a move of the minimum
    across a word boundary -- keep every answer leftmost, the summary's
    state bytes those of a rebuild and the table ids inside their bound."""
    b, array = case
    n, span = len(array), 16 * b
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    fischer = _signed(array, b)
    _assert_answers(fischer, array, rng)
    low, high = min(array) - 1, max(array) + 1
    edge = span * data.draw(st.integers(1, (n - 1) // span))  # a word's first position
    writes = [(rng.randrange(n), rng.choice(array)) for _ in range(3)]
    writes += [(edge - 1, low), (edge, low), (edge - 1, high), (edge, high)]
    for position, value in writes:
        array[position] = value
        fischer.point_update(position, value)
        rebuilt = _signed(array, b)
        _assert_summary_rebuilt(fischer, rebuilt)
        assert fischer.distinct_signatures <= rmq_module._table_bound(b, n)
        _assert_answers(fischer, array, rng)


# -- stack masks at rest: one cut per block ---------------------------------------

SHAPES = {
    "ascending": lambda n, rng: list(range(n)),
    "descending": lambda n, rng: list(range(n, 0, -1)),
    "constant": lambda n, rng: [7] * n,
    "alternating": lambda n, rng: [i % 2 for i in range(n)],
    "random": lambda n, rng: [rng.randint(-n, n) for _ in range(n)],
}


def _loaded(fischer):
    """``fischer`` through its state's bytes, as a store hands it back."""
    return FischerHeunRMQ.from_state(pickle.loads(pickle.dumps(fischer.to_state())))


def _assert_loads_as_built(array, b, rng):
    """The loaded masks are the build's, and point writes on the loaded
    structure repair it to what a rebuild derives."""
    fischer = _signed(array, b)
    loaded = _loaded(fischer)
    assert loaded._summary._masks.typecode == "H"
    assert loaded._summary._masks == fischer._summary._masks
    _assert_summary_rebuilt(loaded, fischer)
    array = list(array)
    for _ in range(4):
        position = rng.randrange(len(array))
        array[position] = rng.randint(-len(array) - 1, len(array) + 1)
        loaded.point_update(position, array[position])
        _assert_summary_rebuilt(loaded, _signed(array, b))
    for low in range(0, len(array), max(1, len(array) // 8)):
        high = len(array) - 1
        assert loaded.argmin_fast(low, high) == naive_range_min(array, low, high)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("b", [1, 2, 3])
def test_loaded_masks_equal_a_fresh_build(shape, b):
    """Ascending, descending, constant, alternating and random data, for
    n of 1 and 2, fewer than 16 blocks, whole words and a partial last
    word (n mod 16b != 0)."""
    rng = random.Random(b)
    for n in (1, 2, 15 * b - 1, 16 * b, 48 * b, 80 * b + 7, 640 * b + b + 1):
        _assert_loads_as_built(SHAPES[shape](n, rng), b, rng)


@given(word_spanning_arrays(), st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_cut_round_trip_keeps_every_mask(case, seed):
    """Random and heavily tied words: the cut column decodes to the very
    masks the build made, and writes on the loaded structure repair it to
    a rebuild's summary."""
    b, array = case
    _assert_loads_as_built(array, b, random.Random(seed))


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_arrays_load_as_built(n):
    """The constructor's own block size for n of 1 and 2, descending: the
    second block pops the first, a cut of its whole slot."""
    fischer = FischerHeunRMQ(list(range(n, 0, -1)))
    loaded = _loaded(fischer)
    assert list(loaded._summary._masks) == list(fischer._summary._masks) == [1, 2][:n]
    assert columns.unpack(fischer.to_state()["cuts"]) == [0, 1][:n]
    assert loaded.argmin_fast(0, n - 1) == n - 1
