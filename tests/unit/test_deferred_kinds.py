"""A kind is promised by name and paid for on first use.

``build_query_engine()`` hands the engine one deferred registration per served
catalog row; these tests hold that the deferral changes *when* a kind is
registered and nothing about *what* is registered -- same scheme, same checks,
exactly once -- and that the name list deciding what gets imported is
validated before anything is.  The import-closure counts this buys are in
``test_process_roles.py`` (fresh interpreters).
"""

from __future__ import annotations

import dataclasses
import logging
import sys
import threading

import pytest

from repro.catalog import CATALOG, build_query_engine, build_registry
from repro.core.errors import ServiceError
from repro.core.query import state_codec
from repro.queries import membership_class, sorted_run_scheme
from repro.service.engine import QueryEngine

NEGATIVE_CONTROLS = {"bds-order-trivial", "cvp-trivial"}


def test_every_row_defers_to_what_the_registry_would_serve():
    """One list read two ways: the served set and the certified set cannot
    drift.  Also the tier-1 resolution of all twelve kinds, so a structure
    conflict between two rows never waits for the attach that names both."""
    registry = build_registry()
    assert {row.name for row in CATALOG} == {entry.name for entry in registry.entries()}
    with build_query_engine() as engine:
        served = {row.name for row in CATALOG if row.served}
        assert sorted(served) == engine.kinds() and len(served) == 12
        assert engine.stats().per_kind == {}        # listing resolved nothing
        for row in CATALOG:
            entry = registry.get(row.name)
            # The engine serves an entry's first serializable scheme.
            expected = next(
                (scheme for scheme in entry.schemes if scheme.serializable), None
            ) if entry.query_class is not None else None
            assert row.served == (expected is not None), row.name
            if not row.served:
                assert row.name in NEGATIVE_CONTROLS or entry.query_class is None
                with pytest.raises(ServiceError, match="no scheme registered"):
                    engine.registration(row.name)
                continue
            query_class, scheme = engine.registration(row.name)
            assert query_class.name == entry.query_class.name
            assert (scheme.name, scheme.structure, scheme.artifact_version) == (
                expected.name, expected.structure, expected.artifact_version)
            assert (scheme.sharding is None) == (expected.sharding is None)
            assert engine.registration(row.name) == (query_class, scheme)  # once
        assert sorted(engine.stats().per_kind) == engine.kinds()


def _counting_engine(kinds):
    """An engine promising ``kinds``, and the per-kind count of resolutions."""
    calls = dict.fromkeys(kinds, 0)
    engine = QueryEngine()

    def promise(kind):
        def resolve():
            calls[kind] += 1
            scheme = dataclasses.replace(sorted_run_scheme(), structure=f"run-{kind}")
            return membership_class(), scheme
        return resolve

    for kind in kinds:
        engine.register_deferred(kind, __name__, promise(kind))
    return engine, calls


def test_racing_attaches_resolve_each_kind_exactly_once():
    kinds = [f"k{i}" for i in range(6)]
    engine, calls = _counting_engine(kinds)
    errors = []
    barrier = threading.Barrier(16)

    def attach(worker):
        subset = [kinds[(worker + step) % len(kinds)] for step in range(3)]
        try:
            barrier.wait(10)
            ds = engine.attach(f"d{worker}", (worker, 1, 2), kinds=subset)
            assert all(ds.query(kind, worker) is True for kind in subset)
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=attach, args=(n,)) for n in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    with engine:
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert calls == dict.fromkeys(kinds, 1)
        assert engine.kinds() == kinds and len(engine.datasets()) == 16


def test_a_promised_name_is_taken_and_a_conflict_raises_at_resolution():
    engine, calls = _counting_engine(["a"])
    with pytest.raises(ServiceError, match="already registered"):
        engine.register("a", membership_class(), sorted_run_scheme())
    with pytest.raises(ServiceError, match="already registered"):
        engine.register_deferred("a", __name__, lambda: None)
    # Same structure name, different codec: the check register() makes runs
    # when the promise is resolved, every time until the catalog is fixed.
    clash = dataclasses.replace(
        sorted_run_scheme(), structure="run-a",
        **dict(zip(("dump", "load"), state_codec(list, tuple))))
    engine.register_deferred("b", __name__, lambda: (membership_class(), clash))
    for _ in range(2):
        with pytest.raises(ServiceError, match="both claim structure 'run-a'"):
            engine.attach("d", (1, 2))          # kinds=None still means all
    assert engine.datasets() == [] and engine.kinds() == ["a", "b"]
    assert engine.attach("d", (1, 2), kinds=["a"]).query("a", 2) is True
    assert calls == {"a": 1}
    engine.close()


@pytest.mark.parametrize("kinds, named", [
    ("list-membership", "got 'list-membership'"),       # a str is not a list of one
    (("list-membership", "nope"), "kind 'nope'"),
    ([None], "kind None"),
    (7, "got 7"),
    ({"list-membership"}, "got {'list-membership'}"),
], ids=repr)
def test_attach_validates_kinds_before_resolving_any(kinds, named):
    with build_query_engine() as engine:
        with pytest.raises(ServiceError, match="known kinds: .*'list-membership'") as refusal:
            engine.attach("d", (1, 2, 3), kinds=kinds)
        assert named in str(refusal.value)
        assert engine.datasets() == [] and engine.stats().per_kind == {}
        assert engine.attach("d", (1, 2, 3), kinds=["list-membership"]).kinds == [
            "list-membership"]


def test_resolving_a_kind_is_logged_once(caplog):
    caplog.set_level(logging.DEBUG, logger="repro.service.engine")
    with build_query_engine() as engine:
        engine.attach("a", (1, 2), kinds=["list-membership"])
        engine.attach("b", (3, 4), kinds=["list-membership"])
        served = engine.registration("list-membership")[1]
    records = [r for r in caplog.records if r.name == "repro.service.engine"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    kind, module, scheme, structure, millis = records[0].args
    assert (kind, module) == ("list-membership", "repro.queries.membership")
    assert (scheme, structure) == (served.name, served.structure)
    assert millis >= 0 and "list-membership" in records[0].getMessage()
