"""Chaos soaks: seam-driven faults interleaved with the stateful oracles.

The trust argument of the failure model: with the in-process seams of
``tests/fault_seams.py`` firing on probability-thinned schedules -- corrupt
reads, full disks, crashing ``apply_delta``, eviction storms -- every
answer a mutable session gives over a 520-step random walk -- through
the untracked kernels (``query``) and the analytic evaluator
(``query_tracked``) alike -- must still be **correct against a brute-force
oracle**, explicitly marked degraded, or a loud
:class:`~repro.core.errors.ReproError`.  Never silently wrong.

Two layers, mirroring ``tests/property/test_prop_mutable.py``:

* deterministic 520-step soaks per delta-capable kind (seeded through
  ``stable_seed`` + ``CHAOS_SEED``, so the CI chaos job replays three
  distinct fault schedules), and
* a Hypothesis :class:`RuleBasedStateMachine` whose rules *arm and disarm
  random seams mid-walk*, checking the oracle after every step.
"""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from fault_seams import FaultyStore, Shots, failing, storm
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core.errors import ReproError
from repro.core.query import stable_seed
from repro.graphs.graph import Digraph
from repro.graphs.traversal import is_reachable
from repro.incremental.changes import ChangeKind, EdgeChange, PointWrite, TupleChange
from repro.queries import (
    btree_point_scheme,
    closure_scheme,
    fischer_heun_scheme,
    membership_class,
    point_selection_class,
    rmq_class,
    reachability_class,
    sorted_run_scheme,
    threshold_algorithm_scheme,
    topk_class,
)
from repro.service.engine import QueryEngine
from repro.storage.relation import Relation
from repro.storage.schema import AttributeType, Schema

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Matches the PR 3 acceptance bar: 500+ steps per kind, under faults.
SOAK_STEPS = 520


MACHINE_SETTINGS = settings(
    max_examples=10,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _insert(*row):
    return TupleChange(ChangeKind.INSERT, tuple(row))


def _delete(*row):
    return TupleChange(ChangeKind.DELETE, tuple(row))


def _relation_of(rows):
    relation = Relation(Schema("R", [("a", AttributeType.INT), ("b", AttributeType.INT)]))
    for row in rows:
        relation.insert(row)
    return relation


def _rmq_oracle(array, i, j, p):
    return min(range(i, j + 1), key=lambda k: (array[k], k)) == p


def _topk_oracle(rows, weights, k, theta):
    aggregates = sorted(
        (sum(w * v for w, v in zip(weights, row)) for row in rows), reverse=True
    )
    return aggregates[min(k, len(aggregates)) - 1] >= theta


def _seams(engine, ds, kind):
    """Fit every in-process seam a monolithic mutable session meets, all
    disarmed: scenario name -> its :class:`Shots`."""
    scheme = ds.registration_for(kind).scheme
    deltas, evictions = Shots(), Shots()
    scheme.apply_delta = failing(scheme.apply_delta, deltas, "apply_delta")
    storm(engine._cache, evictions, size=2)
    store = engine._store
    return {
        "corrupt-artifact": store.corrupt,
        "disk-full": store.full,
        "failed-delta-apply": deltas,
        "eviction-storm": evictions,
    }


#: The standard soak storm: every seam, thinned so most steps are clean and
#: recovery interleaves with normal serving.
SOAK_PROBABILITIES = {
    "corrupt-artifact": 0.05,
    "disk-full": 0.05,
    "failed-delta-apply": 0.08,
    "eviction-storm": 0.25,
}


def _open(engine, kind, data):
    """A warmed single-kind mutable session with the soak storm armed
    (materialized first, so the first batch already folds through the
    delta hook): ``(session, the armed shots)``."""
    ds = engine.attach("live", data, kinds=[kind], mutable=True).warm()
    shots = _seams(engine, ds, kind)
    for name, probability in SOAK_PROBABILITIES.items():
        shots[name].arm(None, probability=probability,
                        seed=stable_seed("chaos-soak", kind, name) + CHAOS_SEED)
    return ds, list(shots.values())


def _check(ds, kind, query, expected) -> None:
    """Correct, explicitly degraded, or loudly raised -- never silently wrong.

    Each evaluator is judged on its own: under faults one may raise while
    the other answers."""
    for ask in (ds.query, ds.query_tracked):
        try:
            answer = ask(kind, query)
        except ReproError:
            continue  # a loud failure is an allowed outcome under faults
        if getattr(answer, "partial", False):
            continue  # explicitly marked degraded
        assert bool(answer) == bool(expected), (ask.__name__, kind, query)


def _finish(engine, shots) -> None:
    """Disarm, then prove the walk met the storm and the stack closes."""
    assert sum(shot.fired for shot in shots) > 0  # the walk met the storm
    for shot in shots:
        shot.arm(0)
    engine.close()


def test_chaos_soak_membership(tmp_path):
    rng = random.Random(stable_seed("chaos-soak", "membership") + CHAOS_SEED)
    engine = QueryEngine(store=FaultyStore(tmp_path))
    engine.register("membership", membership_class(), sorted_run_scheme())
    oracle = [rng.randint(0, 30) for _ in range(16)]
    ds, shots = _open(engine, "membership", tuple(oracle))
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
        _check(ds, "membership", value, value in oracle)
    _finish(engine, shots)


def test_chaos_soak_selection(tmp_path):
    rng = random.Random(stable_seed("chaos-soak", "selection") + CHAOS_SEED)
    engine = QueryEngine(store=FaultyStore(tmp_path))
    engine.register("point", point_selection_class(), btree_point_scheme())
    rows = [(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(12)]
    ds, shots = _open(engine, "point", _relation_of(rows))
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
        _check(
            ds,
            "point",
            (attribute, constant),
            any(r[position] == constant for r in rows),
        )
    _finish(engine, shots)


def test_chaos_soak_rmq(tmp_path):
    rng = random.Random(stable_seed("chaos-soak", "rmq") + CHAOS_SEED)
    engine = QueryEngine(store=FaultyStore(tmp_path))
    engine.register("rmq", rmq_class(), fischer_heun_scheme())
    oracle = [rng.randint(-50, 50) for _ in range(24)]
    ds, shots = _open(engine, "rmq", tuple(oracle))
    for _ in range(SOAK_STEPS):
        if rng.random() < 0.5:
            position = rng.randrange(len(oracle))
            value = rng.randint(-50, 50)
            ds.apply_changes([PointWrite(position, value)])
            oracle[position] = value
        i = rng.randrange(len(oracle))
        j = rng.randrange(i, len(oracle))
        p = rng.randrange(i, j + 1)
        _check(ds, "rmq", (i, j, p), _rmq_oracle(oracle, i, j, p))
    _finish(engine, shots)


def test_chaos_soak_topk(tmp_path):
    rng = random.Random(stable_seed("chaos-soak", "topk") + CHAOS_SEED)
    engine = QueryEngine(store=FaultyStore(tmp_path))
    engine.register("topk", topk_class(), threshold_algorithm_scheme())
    rows = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(10)]
    ds, shots = _open(engine, "topk", tuple(rows))
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
        _check(ds, "topk", (weights, k, theta), _topk_oracle(rows, weights, k, theta))
    _finish(engine, shots)


def test_chaos_soak_reachability(tmp_path):
    rng = random.Random(stable_seed("chaos-soak", "reachability") + CHAOS_SEED)
    engine = QueryEngine(store=FaultyStore(tmp_path))
    engine.register("reach", reachability_class(), closure_scheme())
    n = 12
    oracle = Digraph(n, [(0, 1), (1, 2)])
    ds, shots = _open(engine, "reach", oracle)
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
        _check(ds, "reach", (s, t), is_reachable(oracle, s, t))
    _finish(engine, shots)


# -- random seams interleaved with a stateful oracle ---------------------------


class ChaosMembershipMachine(RuleBasedStateMachine):
    """The membership oracle machine, with arm/disarm as *rules*.

    Hypothesis interleaves inserts, deletes, probes and arming of one seam
    in arbitrary orders; after every probe the answer must be correct
    against the shadow bag, explicitly degraded, or loudly raised.
    """

    values = st.integers(min_value=-8, max_value=24)

    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.engine = QueryEngine(store=FaultyStore(self._tmp.name))
        self.engine.register("membership", membership_class(), sorted_run_scheme())
        self.oracle = [3, 1, 4, 1, 5]
        self.ds = self.engine.attach(
            "live", tuple(self.oracle), kinds=["membership"], mutable=True).warm()
        self.shots = _seams(self.engine, self.ds, "membership")
        self.armed = None

    @rule(name=st.sampled_from(sorted(SOAK_PROBABILITIES)), seed=st.integers(0, 999))
    def arm(self, name, seed):
        if self.armed is None:
            self.shots[name].arm(None, probability=0.5, seed=seed)
            self.armed = name

    @rule()
    def disarm(self):
        for shot in self.shots.values():
            shot.arm(0)
        self.armed = None

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
        _check(self.ds, "membership", value, value in self.oracle)

    def teardown(self):
        self.disarm()
        try:
            self.ds.detach()
            self.engine.close()
        finally:
            self._tmp.cleanup()


ChaosMembershipMachine.TestCase.settings = MACHINE_SETTINGS
TestChaosMembershipMachine = ChaosMembershipMachine.TestCase
