"""Stateful oracle tests for mutable datasets (ISSUE 3).

The headline trust argument of the write path: a Hypothesis
:class:`~hypothesis.stateful.RuleBasedStateMachine` per delta-capable kind
interleaves inserts, deletes, point writes and queries against a mutable
:class:`~repro.service.dataset.Dataset` session
(``engine.attach(..., mutable=True)``), and after *every* step the
session's answers -- through the untracked kernels (``query``) **and** the
analytic evaluator (``query_tracked``) -- must equal a brute-force Python
oracle over the shadow dataset.  Machines run with ``derandomize=True`` so
failures reproduce (and shrink) deterministically across runs.

The ``test_soak_*`` functions complement the machines with deterministic
500+-step random walks per kind (seeded through
:func:`repro.core.query.stable_seed`), guaranteeing the step volume the
acceptance bar asks for regardless of how Hypothesis budgets its examples.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.errors import DeltaError
from repro.core.query import stable_seed
from repro.graphs.graph import Digraph
from repro.graphs.traversal import is_reachable
from repro.incremental.changes import ChangeKind, EdgeChange, PointWrite, TupleChange
from repro.queries import (
    btree_point_scheme,
    btree_range_scheme,
    closure_scheme,
    fischer_heun_scheme,
    membership_class,
    point_selection_class,
    range_selection_class,
    reachability_class,
    rmq_class,
    sorted_run_scheme,
    threshold_algorithm_scheme,
    topk_class,
)
from repro.service.engine import QueryEngine
from repro.service.mutable import MutableContent
from repro.storage.relation import Relation
from repro.storage.schema import AttributeType, Schema

MACHINE_SETTINGS = settings(
    max_examples=15,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Deterministic soak length per kind (the "500+ steps" acceptance bar).
SOAK_STEPS = 520


def _insert(*row):
    return TupleChange(ChangeKind.INSERT, tuple(row))


def _delete(*row):
    return TupleChange(ChangeKind.DELETE, tuple(row))


def _open(engine, data, *kinds):
    """A warmed mutable session serving ``kinds``: structures materialize
    up front, so the first batch already folds through the delta hooks."""
    return engine.attach("live", data, kinds=list(kinds), mutable=True).warm()


def _ask(ds, kind, query):
    """One read through both evaluators; they must agree."""
    answer = ds.query(kind, query)
    assert ds.query_tracked(kind, query) == answer, (kind, query)
    return answer


# -- oracles -------------------------------------------------------------------


def _rmq_oracle(array, i, j, p):
    return min(range(i, j + 1), key=lambda k: (array[k], k)) == p


def _topk_oracle(rows, weights, k, theta):
    aggregates = sorted(
        (sum(w * v for w, v in zip(weights, row)) for row in rows), reverse=True
    )
    return aggregates[min(k, len(aggregates)) - 1] >= theta


def _selection_schema():
    return Schema("R", [("a", AttributeType.INT), ("b", AttributeType.INT)])


def _relation_of(rows):
    relation = Relation(_selection_schema())
    for row in rows:
        relation.insert(row)
    return relation


# -- stateful machines ---------------------------------------------------------


class MembershipMachine(RuleBasedStateMachine):
    """L1 under churn: bag of ints, sorted-run delta maintenance."""

    values = st.integers(min_value=-8, max_value=24)  # small domain: collisions

    def __init__(self):
        super().__init__()
        self.engine = QueryEngine()
        self.engine.register("membership", membership_class(), sorted_run_scheme())
        self.oracle = [3, 1, 4, 1, 5]
        self.ds = _open(self.engine, tuple(self.oracle), "membership")

    @rule(value=values)
    def insert(self, value):
        self.ds.apply_changes([_insert(value)])
        self.oracle.append(value)

    @rule(value=values)
    def delete(self, value):
        self.ds.apply_changes([_delete(value)])
        if value in self.oracle:
            self.oracle.remove(value)

    @rule(value=values)
    def probe(self, value):
        assert _ask(self.ds, "membership", value) == (value in self.oracle)

    @invariant()
    def answers_match_oracle(self):
        for value in (self.oracle[:2] if self.oracle else []) + [-99, 7]:
            assert _ask(self.ds, "membership", value) == (value in self.oracle)

    def teardown(self):
        self.engine.close()


class SelectionMachine(RuleBasedStateMachine):
    """Example 1 under churn: one relation, point and range kinds in step."""

    cell = st.integers(min_value=0, max_value=12)

    def __init__(self):
        super().__init__()
        self.engine = QueryEngine()
        self.engine.register("point", point_selection_class(), btree_point_scheme())
        self.engine.register("range", range_selection_class(), btree_range_scheme())
        self.rows = [(1, 2), (3, 4), (3, 9)]
        self.ds = _open(self.engine, _relation_of(self.rows), "point", "range")

    def _apply(self, change):
        self.ds.apply_changes([change])

    @rule(a=cell, b=cell)
    def insert(self, a, b):
        self._apply(_insert(a, b))
        self.rows.append((a, b))

    @rule(a=cell, b=cell)
    def delete(self, a, b):
        self._apply(_delete(a, b))
        if (a, b) in self.rows:
            self.rows.remove((a, b))

    @rule(attribute=st.sampled_from(["a", "b"]), constant=cell)
    def point_probe(self, attribute, constant):
        position = 0 if attribute == "a" else 1
        expected = any(row[position] == constant for row in self.rows)
        assert _ask(self.ds, "point", (attribute, constant)) == expected

    @rule(attribute=st.sampled_from(["a", "b"]), low=cell, span=st.integers(0, 5))
    def range_probe(self, attribute, low, span):
        position = 0 if attribute == "a" else 1
        expected = any(low <= row[position] <= low + span for row in self.rows)
        assert _ask(self.ds, "range", (attribute, low, low + span)) == expected

    def teardown(self):
        self.engine.close()


class RMQMachine(RuleBasedStateMachine):
    """L2 under churn: point writes repair in place, appends force a rebuild."""

    def __init__(self):
        super().__init__()
        self.engine = QueryEngine()
        self.engine.register("rmq", rmq_class(), fischer_heun_scheme())
        self.oracle = [5, -2, 8, 1, 9, 3, 3, -4, 0, 6, 2, 7]
        self.ds = _open(self.engine, tuple(self.oracle), "rmq")

    @rule(slot=st.integers(0, 10**6), value=st.integers(-20, 20))
    def write(self, slot, value):
        position = slot % len(self.oracle)
        self.ds.apply_changes([PointWrite(position, value)])
        self.oracle[position] = value

    @rule(value=st.integers(-20, 20))
    def append(self, value):
        # Length changes are outside the PointWrite vocabulary: this batch
        # must fall back to a rebuild and still agree with the oracle.
        self.ds.apply_changes([_insert(value)])
        self.oracle.append(value)

    @rule(data=st.data())
    def probe(self, data):
        n = len(self.oracle)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i, n - 1))
        p = data.draw(st.integers(i, j))
        assert _ask(self.ds, "rmq", (i, j, p)) == _rmq_oracle(self.oracle, i, j, p)

    @invariant()
    def global_minimum_matches(self):
        n = len(self.oracle)
        p = min(range(n), key=lambda k: (self.oracle[k], k))
        assert _ask(self.ds, "rmq", (0, n - 1, p)) is True

    def teardown(self):
        self.engine.close()


class TopKMachine(RuleBasedStateMachine):
    """Section 8(5) under churn: TA index maintained under row inserts/deletes."""

    score = st.integers(min_value=0, max_value=10)

    def __init__(self):
        super().__init__()
        self.engine = QueryEngine()
        self.engine.register("topk", topk_class(), threshold_algorithm_scheme())
        self.rows = [(5, 5), (1, 9), (9, 1)]
        self.ds = _open(self.engine, tuple(self.rows), "topk")

    @rule(a=score, b=score)
    def insert(self, a, b):
        self.ds.apply_changes([_insert(a, b)])
        self.rows.append((a, b))

    @rule(data=st.data())
    def delete(self, data):
        if len(self.rows) <= 1:
            return  # an empty table cannot be served; keep one row
        row = data.draw(st.sampled_from(self.rows))
        self.ds.apply_changes([_delete(*row)])
        self.rows.remove(row)

    @rule(
        w1=st.integers(1, 3),
        w2=st.integers(1, 3),
        k=st.integers(1, 6),
        theta=st.integers(0, 60),
    )
    def probe(self, w1, w2, k, theta):
        expected = _topk_oracle(self.rows, (w1, w2), k, theta)
        assert _ask(self.ds, "topk", ((w1, w2), k, theta)) == expected

    @invariant()
    def best_row_matches(self):
        assert _ask(self.ds, "topk", ((1, 1), 1, max(a + b for a, b in self.rows))) is True

    def teardown(self):
        self.engine.close()


class ReachabilityMachine(RuleBasedStateMachine):
    """Example 3 under churn: closure maintained under inserts, rebuilt on
    deletes, always equal to BFS over the shadow graph."""

    vertex = st.integers(min_value=0, max_value=9)

    def __init__(self):
        super().__init__()
        self.engine = QueryEngine()
        self.engine.register("reach", reachability_class(), closure_scheme())
        self.oracle = Digraph(10, [(0, 1), (1, 2), (4, 5)])
        # A mutable attach copies; mutate our shadow independently.
        self.ds = _open(self.engine, self.oracle, "reach")

    @rule(u=vertex, v=vertex)
    def add_edge(self, u, v):
        self.ds.apply_changes([EdgeChange(ChangeKind.INSERT, u, v)])
        self.oracle.add_edge(u, v)

    @rule(u=vertex, v=vertex)
    def remove_edge(self, u, v):
        self.ds.apply_changes([EdgeChange(ChangeKind.DELETE, u, v)])
        self.oracle.remove_edge(u, v)

    @rule(s=vertex, t=vertex)
    def probe(self, s, t):
        assert _ask(self.ds, "reach", (s, t)) == is_reachable(self.oracle, s, t)

    @invariant()
    def reflexive_and_spot_checked(self):
        assert _ask(self.ds, "reach", (3, 3)) is True
        assert _ask(self.ds, "reach", (0, 2)) == is_reachable(self.oracle, 0, 2)

    def teardown(self):
        self.engine.close()


for _machine in (
    MembershipMachine,
    SelectionMachine,
    RMQMachine,
    TopKMachine,
    ReachabilityMachine,
):
    _machine.TestCase.settings = MACHINE_SETTINGS

TestMembershipMachine = MembershipMachine.TestCase
TestSelectionMachine = SelectionMachine.TestCase
TestRMQMachine = RMQMachine.TestCase
TestTopKMachine = TopKMachine.TestCase
TestReachabilityMachine = ReachabilityMachine.TestCase


# -- shared structure, private copies (ISSUE 15) --------------------------------


def _trees(ds, kind):
    """Every B+-tree ``kind`` holds on either left-right side."""
    versions = ds._mutable._versions
    return [
        tree
        for side in (versions.current.plans, versions.offline)
        for tree in side[kind].resolve().values()
    ]


selection_cell = st.integers(min_value=0, max_value=9)
selection_batches = st.lists(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), selection_cell, selection_cell),
        min_size=1,
        max_size=6,
    ),
    max_size=12,
)


@given(selection_batches)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mutable_selection_kinds_fold_into_private_structures(batches):
    """Point and range selection share one immutable artifact, so a mutable
    session must privatise per kind: were any tree aliased across kinds (or
    sides), one batch would fold into it twice and the answers would drift
    from the naive evaluation -- the double-fold hazard.  The second kind
    loads its sides from one dump of the first one's published trees: one
    build, and no cache entry for either."""
    with QueryEngine() as engine:
        point_class, range_class = point_selection_class(), range_selection_class()
        engine.register("point", point_class, btree_point_scheme())
        engine.register("range", range_class, btree_range_scheme())
        ds = _open(engine, _relation_of([(1, 2), (3, 4), (3, 9), (3, 9)]), "point", "range")
        key = ds.registration_for("point").key(ds.fingerprint)
        assert key == ds.registration_for("range").key(ds.fingerprint)
        stats = engine.stats().per_kind
        assert stats["point"].builds + stats["range"].builds == 1
        assert engine._cache.get(key, record=False) is None
        for batch in [[]] + batches:
            if batch:
                ds.apply_changes(
                    [(_insert if op == "insert" else _delete)(a, b) for op, a, b in batch]
                )
            trees = _trees(ds, "point") + _trees(ds, "range")
            assert len({id(tree) for tree in trees}) == len(trees) == 8
            content = ds.dataset()
            for attribute in ("a", "b"):
                for constant in range(0, 10):
                    expected = point_class.pair_in_language(content, (attribute, constant))
                    assert _ask(ds, "point", (attribute, constant)) == expected
                    window = (attribute, constant, constant + 2)
                    expected = range_class.pair_in_language(content, window)
                    assert _ask(ds, "range", window) == expected
        assert len(engine._cache) == 0



def test_a_kind_first_touched_after_a_batch_copies_the_structure_it_shares():
    """A selection kind first touched after a batch loads both sides from
    one dump of the other selection kind's published trees: still one build
    for the session, no artifact for the batch's version, and answers over
    the post-batch content."""
    with QueryEngine() as engine:
        point_class, range_class = point_selection_class(), range_selection_class()
        engine.register("point", point_class, btree_point_scheme())
        engine.register("range", range_class, btree_range_scheme())
        ds = engine.attach(
            "live", _relation_of([(1, 2), (3, 4)]), kinds=["point", "range"], mutable=True
        )
        assert _ask(ds, "point", ("a", 1)) is True
        ds.apply_changes([_insert(5, 6), _delete(1, 2)])
        content = ds.dataset()
        for constant in range(8):
            window = ("a", constant, constant + 1)
            assert _ask(ds, "range", window) == range_class.pair_in_language(content, window)
        stats = engine.stats().per_kind
        assert stats["point"].builds + stats["range"].builds == 1
        trees = _trees(ds, "point") + _trees(ds, "range")
        assert len({id(tree) for tree in trees}) == len(trees) == 8

def _containers(structure):
    """``id`` of every list, dict and typed column reachable from a structure."""
    seen, stack = set(), [structure]
    while stack:
        node = stack.pop()
        if isinstance(node, (list, dict, array)):
            if id(node) in seen:
                continue
            seen.add(id(node))
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(item for item in node if not isinstance(item, (int, str)))
        elif hasattr(node, "__dict__"):
            stack.extend(vars(node).values())
    return seen


@given(st.lists(st.tuples(st.integers(0, 39), st.integers(-5, 5)), max_size=8))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mutable_array_kinds_share_no_column_across_sides_or_cache(writes):
    """The same hazard one layer down: first touch (``_private_pair``)
    publishes its build and deep-copies the offline twin from it, and a
    rebuild is twinned by deep copy too (``_twin``), so no list or typed
    column may be shared between the published structure and its offline
    twin -- an aliased sparse-table level would be repaired twice, or under
    a pinned reader -- and neither kind has a cache entry.  Fischer--Heun
    folds each write in place; the sorted run refuses a PointWrite and takes
    the rebuild path (``_rebuild``, then ``_twin``)."""
    with QueryEngine() as engine:
        engine.register("rmq", rmq_class(), fischer_heun_scheme())
        engine.register("members", membership_class(), sorted_run_scheme())
        array_data = list(range(40, 0, -1))
        ds = _open(engine, tuple(array_data), "rmq", "members")
        assert len(engine._cache) == 0
        for write in [None] + writes:
            if write is not None:
                ds.apply_changes([PointWrite(*write)])
                array_data[write[0]] = write[1]
            versions = ds._mutable._versions
            held = [
                side[kind].resolve()
                for side in (versions.current.plans, versions.offline)
                for kind in ("rmq", "members")
            ]
            owned = [_containers(structure) for structure in held]
            assert all(owned) and sum(map(len, owned)) == len(set().union(*owned))
            for low in range(0, 40, 7):
                leftmost = min(range(low, 40), key=lambda k: (array_data[k], k))
                assert _ask(ds, "rmq", (low, 39, leftmost)) is True
            assert _ask(ds, "members", array_data[3]) is True
        assert len(engine._cache) == 0
        stats = engine.stats().per_kind
        assert stats["rmq"].fallback_rebuilds == 0
        assert stats["members"].fallback_rebuilds == stats["rmq"].delta_batches


# -- the working copy screens its own no-op deletes ----------------------------

small = st.integers(0, 3)
contents = {
    "flat": st.lists(small, max_size=6),
    "rows": st.lists(st.tuples(small, small), min_size=1, max_size=6).flatmap(
        lambda rows: st.sampled_from([rows, [list(row) for row in rows]])
    ),
    "relation": st.lists(st.tuples(small, small), max_size=6).map(_relation_of),
    "graph": st.lists(st.tuples(small, small), max_size=6).map(lambda es: Digraph(4, es)),
}


def _changes(shape):
    """Inserts, deletes (phantom and repeated ones among them: the values
    are few) and, on sequences, point writes -- in range or not."""
    kind = st.sampled_from([ChangeKind.INSERT, ChangeKind.DELETE])
    if shape == "graph":
        return st.builds(EdgeChange, kind, small, small)
    row = st.tuples(small) if shape == "flat" else st.tuples(small, small)
    change = st.builds(TupleChange, kind, row)
    if shape == "relation":
        return change
    value = small if shape == "flat" else st.tuples(small, small)
    return st.one_of(change, st.builds(PointWrite, st.integers(0, 4), value))


def _bag(working):
    if isinstance(working, Relation):
        return Counter(working.rows())
    if isinstance(working, Digraph):
        return Counter(working.edges())
    return Counter(working)


def _counter_takes(bag, shadow, change):
    """The bag-counter model of one change: does it take effect?  ``bag``
    counts elements (a graph holds an edge at most once); ``shadow`` is the
    sequence a point write reads its old value from (IndexError: the write
    falls past its end)."""
    if isinstance(change, PointWrite):
        bag[shadow[change.position]] -= 1
        bag[change.value] += 1
        shadow[change.position] = change.value
        return True
    if isinstance(change, EdgeChange):
        element = (change.source, change.target)
    else:
        element = change.row[0] if len(change.row) == 1 else change.row
    if change.kind is ChangeKind.INSERT:
        if isinstance(change, EdgeChange) and bag[element]:
            return False  # a graph holds an edge at most once
        bag[element] += 1
        if shadow is not None:
            shadow.append(element)
        return True
    if not bag[element]:
        return False
    bag[element] -= 1
    if shadow is not None:
        shadow.remove(element)
    return True


@pytest.mark.parametrize("shape", sorted(contents))
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_one_pass_apply_matches_a_bag_counter(shape, data):
    """``MutableContent.apply`` screens and applies in one pass against the
    working copy; a bag counter kept beside it decides the same: the same
    changes take effect, the same bag remains, ``validate`` refuses exactly
    the batches with a point write past the end the model reaches, and a
    refused batch moves nothing."""
    initial = data.draw(contents[shape])
    content = MutableContent(initial)
    bag = _bag(content.working)
    shadow = list(content.working) if isinstance(content.working, list) else None
    for batch in data.draw(st.lists(st.lists(_changes(shape), max_size=6), max_size=6)):
        before = _bag(content.working)
        trial = Counter(bag), None if shadow is None else list(shadow)
        try:
            expected = [change for change in batch if _counter_takes(*trial, change)]
        except IndexError:
            expected = None
        try:
            content.validate(batch)
        except DeltaError:
            assert expected is None
            assert _bag(content.working) == before
            continue
        assert expected is not None
        bag, shadow = trial
        assert content.apply(batch) == expected
        assert _bag(content.working) == +bag
        if shadow is not None:
            assert content.working == shadow


# -- deterministic 500+-step soaks ---------------------------------------------


def test_soak_membership():
    rng = random.Random(stable_seed("soak", "membership"))
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        oracle = [rng.randint(0, 30) for _ in range(16)]
        ds = _open(engine, tuple(oracle), "membership")
        for _ in range(SOAK_STEPS):
            value = rng.randint(-5, 30)
            roll = rng.random()
            if roll < 0.3:
                ds.apply_changes([_insert(value)])
                oracle.append(value)
            elif roll < 0.5:
                ds.apply_changes([_delete(value)])
                if value in oracle:
                    oracle.remove(value)
            assert _ask(ds, "membership", value) == (value in oracle)
        assert engine.stats().per_kind["membership"].delta_batches > 50


def test_soak_selection():
    rng = random.Random(stable_seed("soak", "selection"))
    with QueryEngine() as engine:
        engine.register("point", point_selection_class(), btree_point_scheme())
        rows = [(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(12)]
        ds = _open(engine, _relation_of(rows), "point")
        for _ in range(SOAK_STEPS):
            row = (rng.randint(0, 15), rng.randint(0, 15))
            roll = rng.random()
            if roll < 0.3:
                ds.apply_changes([_insert(*row)])
                rows.append(row)
            elif roll < 0.5 and rows:
                victim = rng.choice(rows) if rng.random() < 0.7 else row
                ds.apply_changes([_delete(*victim)])
                if victim in rows:
                    rows.remove(victim)
            attribute, position = rng.choice([("a", 0), ("b", 1)])
            constant = rng.randint(0, 15)
            expected = any(r[position] == constant for r in rows)
            assert _ask(ds, "point", (attribute, constant)) == expected
        assert engine.stats().per_kind["point"].delta_batches > 50


def test_soak_rmq():
    rng = random.Random(stable_seed("soak", "rmq"))
    with QueryEngine() as engine:
        engine.register("rmq", rmq_class(), fischer_heun_scheme())
        oracle = [rng.randint(-50, 50) for _ in range(24)]
        ds = _open(engine, tuple(oracle), "rmq")
        for _ in range(SOAK_STEPS):
            if rng.random() < 0.5:
                position = rng.randrange(len(oracle))
                value = rng.randint(-50, 50)
                ds.apply_changes([PointWrite(position, value)])
                oracle[position] = value
            i = rng.randrange(len(oracle))
            j = rng.randrange(i, len(oracle))
            p = rng.randrange(i, j + 1)
            assert _ask(ds, "rmq", (i, j, p)) == _rmq_oracle(oracle, i, j, p)
        assert engine.stats().per_kind["rmq"].delta_batches > 50
        assert engine.stats().per_kind["rmq"].fallback_rebuilds == 0


def test_soak_topk():
    rng = random.Random(stable_seed("soak", "topk"))
    with QueryEngine() as engine:
        engine.register("topk", topk_class(), threshold_algorithm_scheme())
        rows = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(10)]
        ds = _open(engine, tuple(rows), "topk")
        for _ in range(SOAK_STEPS):
            roll = rng.random()
            if roll < 0.3:
                row = (rng.randint(0, 20), rng.randint(0, 20))
                ds.apply_changes([_insert(*row)])
                rows.append(row)
            elif roll < 0.5 and len(rows) > 1:
                victim = rng.choice(rows)
                ds.apply_changes([_delete(*victim)])
                rows.remove(victim)
            weights = (rng.randint(1, 3), rng.randint(1, 3))
            k = rng.randint(1, 8)
            theta = rng.randint(0, 120)
            expected = _topk_oracle(rows, weights, k, theta)
            assert _ask(ds, "topk", (weights, k, theta)) == expected
        assert engine.stats().per_kind["topk"].delta_batches > 50


def test_soak_reachability():
    rng = random.Random(stable_seed("soak", "reachability"))
    with QueryEngine() as engine:
        engine.register("reach", reachability_class(), closure_scheme())
        n = 12
        oracle = Digraph(n, [(0, 1), (1, 2)])
        ds = _open(engine, oracle, "reach")
        for _ in range(SOAK_STEPS):
            u, v = rng.randrange(n), rng.randrange(n)
            roll = rng.random()
            if roll < 0.35:
                ds.apply_changes([EdgeChange(ChangeKind.INSERT, u, v)])
                oracle.add_edge(u, v)
            elif roll < 0.45:
                ds.apply_changes([EdgeChange(ChangeKind.DELETE, u, v)])
                oracle.remove_edge(u, v)
            s, t = rng.randrange(n), rng.randrange(n)
            assert _ask(ds, "reach", (s, t)) == is_reachable(oracle, s, t)
        stats = engine.stats().per_kind["reach"]
        assert stats.delta_batches > 20  # inserts maintained in place
        assert stats.fallback_rebuilds > 5  # real deletes rebuilt


@pytest.mark.parametrize(
    "soak",
    [
        test_soak_membership,
        test_soak_selection,
        test_soak_rmq,
        test_soak_topk,
        test_soak_reachability,
    ],
    ids=lambda f: f.__name__.replace("test_soak_", ""),
)
def test_soak_step_budget_documented(soak):
    """Each soak drives SOAK_STEPS (>500) oracle-checked steps per kind."""
    assert SOAK_STEPS > 500
