"""Property tests: the column fingerprint identifies exactly what the Sigma*
fingerprint identified (ISSUE 19).

``dataset_fingerprint`` hashes packed machine words where it can and falls
back to the Sigma* rendering per column; ``canonical_bytes`` stays exported as
the reference.  The differential property: two datasets share a fingerprint
**iff** their type names and reference renderings agree.  No clocks.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import alphabet
from repro.storage.fingerprint import canonical_bytes, dataset_fingerprint
from repro.storage.relation import Relation
from repro.storage.schema import AttributeType, Schema

#: Every width boundary ``columns.pack`` steps over, and one past 64 bits.
BOUNDARIES = [
    sign * (1 << bits) + delta
    for bits in (7, 8, 15, 16, 31, 32, 63, 64, 70)
    for sign in (1, -1)
    for delta in (-1, 0, 1)
]
ints = st.one_of(st.sampled_from(BOUNDARIES), st.integers(-2, 2))
scalars = st.one_of(ints, st.booleans(), st.text("ab;#", max_size=2), st.none())
elements = st.one_of(scalars, st.lists(scalars, max_size=2).map(tuple))
flat = st.one_of(st.lists(ints, max_size=6), st.lists(elements, max_size=4))
sequences = st.one_of(flat, flat.map(tuple))

_DOMAINS = {
    AttributeType.INT: ints,
    AttributeType.STR: st.text("ab;", max_size=2),
    AttributeType.BOOL: st.booleans(),
}


@st.composite
def relations(draw):
    types = draw(st.lists(st.sampled_from(list(_DOMAINS)), min_size=1, max_size=2))
    names = draw(st.permutations(["a", "b"]))
    schema = Schema(draw(st.sampled_from(["R", "S"])), list(zip(names, types)))
    relation = Relation(schema)
    row = st.tuples(*(_DOMAINS[kind] for kind in types))
    inserted = [relation.insert(r) for r in draw(st.lists(row, max_size=5))]
    for row_id in draw(st.sets(st.sampled_from(inserted))) if inserted else ():
        relation.delete(row_id)
    return relation


def _compacted(relation, schema=None, skip=0):
    copy = Relation(schema or relation.schema)
    for row in relation.rows()[skip:]:
        copy.insert(row)
    return copy


def _variants(dataset):
    """Near misses and exact re-renderings of ``dataset``: where a collision
    or a spurious difference would hide."""
    if isinstance(dataset, Relation):
        renamed = Schema("T", [(a.name, a.type) for a in dataset.schema.attributes])
        return st.sampled_from([
            _compacted(dataset), Relation.decode(dataset.encode()),
            _compacted(dataset, schema=renamed), _compacted(dataset, skip=1),
        ])
    items = list(dataset)
    swaps = {1: True, True: 1, 0: False, False: 0}
    return st.sampled_from([
        list(items), tuple(items), [tuple(items)], items + [0], items[:-1],
        [swaps.get(item, item) if type(item) in (int, bool) else item for item in items],
        [(item,) for item in items],
    ])


datasets = st.one_of(sequences, relations())


def _reference(dataset):
    return type(dataset).__name__, canonical_bytes(dataset)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fingerprints_agree_exactly_when_the_sigma_star_renderings_do(data):
    first = data.draw(datasets)
    second = data.draw(st.one_of(_variants(first), datasets))
    same = dataset_fingerprint(first) == dataset_fingerprint(second)
    assert same == (_reference(first) == _reference(second)), (first, second)


@settings(max_examples=200, deadline=None)
@given(st.lists(ints, min_size=1, max_size=3), st.sampled_from([8, 16, 32, 64]))
def test_the_same_words_under_another_typecode_are_another_dataset(items, bits):
    """``[255]`` and ``[-1]`` are both the byte ``ff``: typecode and count
    are hashed with the words, so reading a run as the signed type of its
    width never collides with it."""
    half = 1 << bits - 1
    reread = [item - 2 * half if half <= item < 2 * half else item for item in items]
    same = dataset_fingerprint(items) == dataset_fingerprint(reread)
    assert same == (items == reread) == (_reference(items) == _reference(reread))


def test_near_misses_differ():
    assert dataset_fingerprint([1]) != dataset_fingerprint([True])
    assert dataset_fingerprint((1, 2)) != dataset_fingerprint(((1, 2),))
    assert dataset_fingerprint([1, 2]) != dataset_fingerprint((1, 2))  # type name
    assert dataset_fingerprint([]) != dataset_fingerprint([[]])
    assert dataset_fingerprint([255]) != dataset_fingerprint([255, 0])
    assert dataset_fingerprint([1 << 64]) != dataset_fingerprint([(1 << 64) - 1])


def test_deleted_rows_do_not_count():
    schema = Schema("R", [("a", AttributeType.INT), ("b", AttributeType.STR)])
    relation = Relation(schema)
    for row in [(1, "x"), (2, "y"), (3, "z")]:
        relation.insert(row)
    before = dataset_fingerprint(relation)
    relation.delete(1)
    assert dataset_fingerprint(relation) == dataset_fingerprint(_compacted(relation)) != before


def test_the_canonical_form_is_the_documented_one():
    """Type name, NUL, then frames (tag, u64-LE length, body): ``P`` + typecode
    over the words or ``S`` over the column's Sigma*; a relation is ``R`` over
    the schema name, a ``T`` per attribute name and type, then its columns."""
    def u64(value):
        return value.to_bytes(8, "little")

    def digest(*parts):
        return hashlib.sha256(b"".join(parts)).hexdigest()

    assert dataset_fingerprint((1, 2, 300)) == digest(
        b"tuple\x00", b"PH", u64(3), b"\x01\x00\x02\x00\x2c\x01")
    assert dataset_fingerprint([-1]) == digest(b"list\x00", b"Pb", u64(1), b"\xff")
    assert dataset_fingerprint([]) == digest(b"list\x00", b"S", u64(3), b"l0:")
    assert dataset_fingerprint(["a", None]) == digest(b"list\x00", b"S", u64(8), b"l2:sa;n;")
    relation = Relation(Schema("R", [("a", AttributeType.INT), ("b", AttributeType.BOOL)]))
    for row in [(7, True), (9, False)]:
        relation.insert(row)
    assert dataset_fingerprint(relation) == digest(
        b"Relation\x00", b"R", u64(1), b"R",
        *(b"T" + u64(len(text)) + text for text in (b"a", b"int", b"b", b"bool")),
        b"PB", u64(2), b"\x07\x09",
        b"S", u64(9), b"l2:b1;b0;",
    )


def test_machine_word_datasets_never_reach_the_sigma_star_renderer(monkeypatch):
    """What the yardstick attaches -- an int tuple, an int relation -- is
    hashed as columns; the Sigma* codec is off the attach path."""
    relation = Relation(Schema("R", [("a", AttributeType.INT), ("b", AttributeType.INT)]))
    for i in range(100):
        relation.insert((i, 4 * i))
    expected = dataset_fingerprint(relation), dataset_fingerprint(tuple(range(100)))

    def refuse(value):
        raise AssertionError("Sigma* rendering on the attach path")

    monkeypatch.setattr(alphabet, "encode", refuse)
    assert (dataset_fingerprint(relation), dataset_fingerprint(tuple(range(100)))) == expected


_PROBE = """
from repro.storage.fingerprint import dataset_fingerprint
from repro.storage.relation import Relation
from repro.storage.schema import AttributeType, Schema
relation = Relation(Schema("R", [("a", AttributeType.INT), ("b", AttributeType.STR)]))
for row in [(1, "x"), (1 << 40, "y;"), (-3, "")]:
    relation.insert(row)
relation.delete(1)
digests = [
    dataset_fingerprint(dataset)
    for dataset in ((3, 1, 2), [1 << 70, -1], ["b", "a", None, (1, True)], [], relation)
]
"""


@pytest.mark.parametrize("hash_seed", ["1", "4242"])
def test_digest_does_not_depend_on_the_hash_seed(hash_seed):
    here: dict = {}
    exec(_PROBE, here)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": str(Path(repro.__file__).parent.parent)}
    there = subprocess.run(
        [sys.executable, "-c", _PROBE + "print(*digests)"], env=env,
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert len(there) == 5 and there == here["digests"]
