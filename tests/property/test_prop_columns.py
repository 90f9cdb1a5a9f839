"""Property tests for the at-rest state layout (ISSUE 21).

* the lane form (``columns.pack``): a non-negative plain-int run comes
  back type-exact from the bits its largest value needs -- whole byte lanes
  plus one 1-, 2- or 4-bit plane -- for every width 1-64 and lengths on
  both sides of the plane's padding; it is never wider than the machine
  word ``columns.words`` picks, and negative, bool and float runs keep
  exactly that word (or list) form; a typed integer column packs byte
  for byte as the list of its values does;
* the patched form: a run whose word is a byte may instead be a 0/1/2/4-bit
  plane around its minimum plus an exception list -- only when that is
  strictly smaller than the lane form, so ``pack`` is never wider than
  it; every candidate width round-trips type-exact, and so do the
  adversarial runs (every value an exception, none, one huge outlier, all
  equal);
* the sorted-run form (``columns.pack_sorted``): first value plus gaps,
  taken exactly when the run is plain-int, non-decreasing and the gaps at
  rest plus a word for the first value are strictly smaller than ``pack``'s
  answer, the gaps then in ``pack``'s form; otherwise ``pack``'s answer
  itself -- so it is never wider than ``pack``;
* every kind the catalog engine serves (each has ``dump``/``load``): the
  state is a fixed point of the round trip, and tracked == fast == batched
  == naive afterwards.

No clocks: widths are item sizes, answers are Booleans.
"""

from __future__ import annotations

import pickle
import random
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


def _bits(column):
    """Bits per value of an at-rest column that is not patched: the lane
    form's header byte, else the machine word's."""
    assert not _patched(column)
    return column[0] if isinstance(column, bytes) else 8 * column.itemsize


def _patched(column):
    return isinstance(column, bytes) and column[0] >= 0x80


def _nbytes(column):
    """Payload bytes of an at-rest column."""
    return len(column) if isinstance(column, bytes) else len(column) * column.itemsize


def _lane_form(values):
    """The form a non-negative run took before patching existed: its word,
    shrunk to byte lanes and one plane when that is narrower."""
    return columns._lanes(columns.words(values))


def _expected_bits(values):
    """The format's promise for a non-negative int run, from its largest
    value alone: ``w // 8`` lanes plus a 1/2/4-bit plane for ``w % 8`` of
    1/2/3-4 (5-7: one more lane); the word when that is no narrower, or
    when every value is zero."""
    word = columns.words(values)
    w = max(values).bit_length()
    lanes, rest = divmod(w, 8)
    bits = 8 * lanes + next(b for b in (0, 1, 2, 4, 8) if rest <= b)
    return bits if 0 < bits < 8 * word.itemsize else 8 * word.itemsize


def _same(stored, expected):
    """Equal, and of one form: ``array == array`` ignores the typecode."""
    assert type(stored) is type(expected) and stored == expected
    assert getattr(stored, "typecode", None) == getattr(expected, "typecode", None)


def _check_form(values):
    plain = columns.words(values)
    stored = columns.pack_sorted(values)
    restored = columns.unpack(stored)
    assert restored == values and list(map(type, restored)) == list(map(type, values))
    gaps = [after - before for before, after in zip(values, values[1:])]
    narrowest = columns.words(gaps)  # signed or a list when a gap is negative / too wide
    ends = columns.words([values[0], values[-1]]) if values else None
    taken = (
        isinstance(plain, array) and isinstance(narrowest, array)
        and narrowest.typecode.isupper()
        and _nbytes(columns.pack(gaps)) + ends.itemsize < _nbytes(columns.pack(values))
    )
    if taken:
        first, column = stored
        assert first == values[0] and type(first) is int
        _same(column, columns.pack(gaps))
    else:
        _same(stored, columns.pack(values))
    return taken


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(sorted_runs(), st.lists(WORD, max_size=40)))
def test_sorted_run_form_round_trips_and_is_never_wider_than_pack(values):
    _check_form(values)


#: Bits per gap at rest: an all-zero run and a run exactly a word wide keep
#: the word; 9 and 17 bits are one and two lanes plus a 1-bit plane.
GAP_BITS = {0: 8, 255: 8, 256: 9, 65_535: 16, 65_536: 17}


@pytest.mark.parametrize(
    "gap,code", [(0, "B"), (255, "B"), (256, "H"), (65_535, "H"), (65_536, "I")]
)
@pytest.mark.parametrize("first", [-(1 << 40), 1 << 40])
def test_gap_typecode_boundaries(first, gap, code):
    """A 41-bit first value makes ``words`` answer 8 bytes: the gap's word
    decides the form, and its largest value the bits it takes at rest."""
    values = [first, first + gap, first + 2 * gap]
    assert _check_form(values)
    assert columns.words([gap, gap]).typecode == code
    assert _bits(columns.pack_sorted(values)[1]) == GAP_BITS[gap]


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
    """Gaps 1 and 9 need 4 bits: no lane, one 4-bit plane byte ``0x91``
    (slot 0 in the low nibble), after the header ``(4 bits, 0 padding)``."""
    assert columns.pack_sorted([-70_000, -69_999, -69_990]) == (-70_000, b"\x04\x00\x91")


# -- the lane form -------------------------------------------------------------


@st.composite
def runs_of_width(draw):
    """A non-negative run whose largest value is exactly ``w`` bits wide, at
    a length on either side of every plane's padding (a multiple of 8 and
    its neighbours included)."""
    w = draw(st.integers(1, 64))
    count = draw(st.one_of(st.integers(1, 17), st.sampled_from([31, 32, 33, 255, 256, 257])))
    values = draw(st.lists(st.integers(0, (1 << w) - 1), min_size=count, max_size=count))
    values[draw(st.integers(0, count - 1))] = (1 << w) - 1
    return values


@settings(max_examples=300, deadline=None)
@given(values=runs_of_width())
def test_the_sub_word_form_round_trips_type_exact_and_takes_the_promised_bits(values):
    stored = columns.pack(values)
    restored = columns.unpack(stored)
    assert restored == values and all(type(value) is int for value in restored)
    if _patched(stored):  # a byte run, strictly smaller than its lane form
        assert columns.words(values).typecode == "B"
        assert _nbytes(stored) < _nbytes(_lane_form(values))
        stored = _lane_form(values)
        assert columns.unpack(stored) == values
    assert _bits(stored) == _expected_bits(values)
    word = columns.words(values)
    if _bits(stored) == 8 * word.itemsize:
        _same(stored, word)  # no narrower: the word itself
    else:
        # Two header bytes, a byte per value per lane, then the plane: the
        # last plane byte is padded when the count is not a multiple of
        # the values one byte holds.
        lanes, plane_bits = divmod(stored[0], 8)
        per_byte = 8 // plane_bits if plane_bits else 0
        plane_bytes = -(-len(values) // per_byte) if per_byte else 0
        assert len(stored) == 2 + lanes * len(values) + plane_bytes


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(runs_of_width(), st.lists(WORD, min_size=1, max_size=40)))
def test_the_packed_form_is_never_wider_than_the_word_column(values):
    stored, word = columns.pack(values), columns.words(values)
    if not _patched(stored):
        assert _bits(stored) <= 8 * word.itemsize
    assert (len(stored) if isinstance(stored, bytes) else len(stored) * stored.itemsize) <= (
        2 + len(word) * word.itemsize
    )


@pytest.mark.parametrize("code", "bBhHiIlLqQ")
def test_a_typed_column_packs_byte_for_byte_as_its_value_list(code):
    """``words`` narrows a typed integer column without boxing it, to the
    very column -- typecode and entries, a fresh one -- that the list of
    its values gets, so ``pack`` writes the same bytes: every width, runs
    with and without negatives, lengths across the planes' padding."""
    rng, bits = random.Random(code), 8 * array(code).itemsize
    for w in range(bits + 1):
        for count in (1, 7, 8, 33, 257):
            for low in ((0, -(1 << w)) if code.islower() and w < bits else (0,)):
                high = (1 << min(w, bits - code.islower())) - 1
                values = [rng.randint(low, high) for _ in range(count)]
                values[rng.randrange(count)] = high
                values[rng.randrange(count)] = low
                column = array(code, values)
                word = columns.words(column)
                _same(word, columns.words(values))
                assert word is not column
                assert pickle.dumps(columns.pack(column)) == pickle.dumps(columns.pack(values))
    _same(columns.words(array(code)), [])


@settings(max_examples=200, deadline=None)
@given(
    values=st.one_of(
        st.lists(WORD, min_size=1, max_size=40).filter(lambda run: min(run) < 0),
        st.lists(st.booleans(), max_size=40),
        st.lists(st.floats(allow_nan=False), max_size=40),
        st.lists(st.integers(0, 3) | st.booleans(), max_size=40).filter(
            lambda run: bool in set(map(type, run))
        ),
    )
)
def test_negative_bool_and_float_runs_keep_their_word_form(values):
    _same(columns.pack(values), columns.words(values))
    sorted_values = sorted(values)
    expected = columns.words(sorted_values)
    stored = columns.pack_sorted(sorted_values)
    if not isinstance(stored, tuple):
        _same(stored, expected)


# -- the patched form ----------------------------------------------------------


@st.composite
def byte_runs(draw):
    """Byte-valued runs packed around a floor, plus a few outliers anywhere
    in [0, 256): the shapes of gaps, counts and ids."""
    count = draw(st.one_of(st.integers(1, 40), st.sampled_from([255, 256, 257, 1000])))
    floor = draw(st.integers(0, 255))
    spread = draw(st.sampled_from([1, 2, 3, 4, 16, 17, 256]))
    body = st.integers(floor, min(255, floor + spread - 1))
    values = draw(st.lists(body, min_size=count, max_size=count))
    for _ in range(draw(st.integers(0, 5))):
        values[draw(st.integers(0, count - 1))] = draw(st.integers(0, 255))
    return values


@settings(max_examples=300, deadline=None)
@given(values=byte_runs())
def test_the_patched_form_round_trips_type_exact_and_is_never_wider(values):
    """``pack`` keeps the strictly smallest form, so it is never wider than
    the lane form the run took before; a patched run comes back exactly."""
    stored = columns.pack(values)
    restored = columns.unpack(stored)
    assert restored == values and all(type(value) is int for value in restored)
    assert _nbytes(stored) <= _nbytes(_lane_form(values))
    if _patched(stored):
        assert _nbytes(stored) < _nbytes(_lane_form(values))
        assert stored[0] in (0x80, 0x81, 0x82, 0x84) and stored[1] == min(values)
    else:
        _same(stored, _lane_form(values))


@settings(max_examples=200, deadline=None)
@given(values=byte_runs(), w=st.sampled_from([0, 1, 2, 4]))
def test_every_candidate_width_round_trips(values, w):
    """Each plane width ``pack`` weighs decodes to the run it encoded,
    whichever of them wins -- the exception list runs from empty to every
    value but the minimum."""
    raw = bytes(values)
    patched = columns._patch(raw, min(values), w)
    assert patched[0] == 0x80 | w
    assert columns.unpack(patched) == values


ADVERSARIAL = {
    "all equal": [7] * 300,
    "all zero": [0] * 300,
    "no exception": [200 + i % 16 for i in range(300)],
    "one huge outlier": [1] * 150 + [255] + [1] * 149,
    "every value an exception": [0, *([255] * 299)],
    "alternating extremes": [0, 255] * 150,
    "outliers at both ends": [255, *([3] * 298), 254],
}


@pytest.mark.parametrize("values", ADVERSARIAL.values(), ids=ADVERSARIAL.keys())
def test_adversarial_runs_round_trip(values):
    stored = columns.pack(values)
    assert columns.unpack(stored) == values
    assert _nbytes(stored) <= _nbytes(_lane_form(values))
    for w in (0, 1, 2, 4):
        assert columns.unpack(columns._patch(bytes(values), min(values), w)) == values


def test_an_all_equal_run_is_a_header():
    """``w = 0``: no plane, no exception -- five bytes for any count below
    256, and a zero run no longer keeps its 'B' word."""
    assert columns.pack([7] * 200) == bytes((0x80, 7, 1, 200, 0))
    assert columns.pack([0] * 200) == bytes((0x80, 0, 1, 200, 0))


def test_one_outlier_no_longer_widens_a_run():
    """299 ones and one 255: the lane form needs a whole byte per value;
    patched it is a 0-bit plane around 1 -- two-byte counts of 300 values
    and 1 exception -- then the exception's position gap and high part."""
    values = ADVERSARIAL["one huge outlier"]
    assert _nbytes(_lane_form(values)) == 300
    stored = columns.pack(values)
    assert stored[:7] == bytes((0x80, 1, 2, 44, 1, 1, 0))  # 300 = 0x012c
    assert stored[7:] == bytes((8, 0, 151, 8, 0, 254))  # gap 151, high part 254: a lane each


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
