"""Unit tests for :mod:`repro.service.faults`: product behaviour only.

The module keeps the recovery policy the serving front reads and the
:class:`DegradedAnswer` type the yardstick's tests import; no fault
injector, and no reaction to an injected fault, lives under ``src/``.
The failure model's rows are driven through test-side seams
(``tests/fault_seams.py``, ``tests/unit/test_failure_model.py`` and
``tests/chaos/``).
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.service.faults import DegradedAnswer, RecoveryPolicy

SRC = Path(repro.__file__).parent
FRONTEND = SRC / "service" / "frontend"

#: Fields the policy once accepted but only an armed fault plan ever read.
GONE_FIELDS = ("load_retries", "writebehind_attempts", "writebehind_backoff_seconds",
               "slow_shard_seconds", "slow_load_seconds", "slow_worker_seconds")
FAULT_HOOKS = {"on_store_read", "on_store_write", "on_shard_partial", "on_cache_put",
               "on_delta_apply", "on_worker_serve"}
PLAN_SLOT = {"_PLAN", "active_plan", "install_fault_plan", "clear_fault_plan",
             "FaultPlan", "FaultSpec", "FaultClock"}
#: The product's old reaction to a lost shard: its signal, its error, its
#: policy and the worker's coercion of the degraded answer it produced.
LOST_SHARD = {"InjectedFaultError", "ShardFailedError", "_lost_shard_outcome",
              "_coerce_answer"}


def test_degraded_answer_compares_like_bool_but_is_marked():
    hit = DegradedAnswer(True, reason="shard 1 lost", failed_shards=(1,))
    miss = DegradedAnswer(False, reason="shard 2 lost", failed_shards=(2,))
    assert hit == True and miss == False  # noqa: E712 - the compat contract
    assert bool(hit) is True and bool(miss) is False
    assert hit.partial and miss.partial
    assert hit.failed_shards == (1,)
    assert "shard 1 lost" in repr(hit)
    # A plain bool carries no marker -- the attribute is the discriminator.
    assert not getattr(True, "partial", False)


@pytest.mark.parametrize("name", GONE_FIELDS)
def test_policy_refuses_the_fields_nothing_read(name):
    """``Supervisor(policy=RecoveryPolicy(load_retries=...))`` used to
    accept these and ignore them; now the policy itself refuses them."""
    with pytest.raises(TypeError, match=name):
        RecoveryPolicy(**{name: 1})


def test_every_policy_field_is_read_by_the_front():
    read = {
        node.attr
        for name in ("placement.py", "supervisor.py")
        for node in ast.walk(ast.parse((FRONTEND / name).read_text()))
        if isinstance(node, ast.Attribute)
    }
    fields = [field.name for field in dataclasses.fields(RecoveryPolicy)]
    assert len(fields) == 6
    assert [name for name in fields if name not in read] == []


def test_no_fault_hook_or_plan_slot_in_the_product():
    """Nothing under ``src/repro`` defines or calls a fault hook, names a
    plan slot or the lost-shard policy, reads from ``faults`` more than the
    product types, or names ``DegradedAnswer`` outside ``faults.py``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Attribute):
                name = node.attr
                if (isinstance(node.value, ast.Name) and node.value.id == "faults"
                        and name not in {"DegradedAnswer", "RecoveryPolicy",
                                         "DEFAULT_POLICY"}):
                    offenders.append((path.name, f"faults.{name}"))
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in FAULT_HOOKS | PLAN_SLOT | LOST_SHARD or (
                    name == "DegradedAnswer" and path.name != "faults.py"):
                offenders.append((path.name, name))
    assert offenders == []


def test_spawned_workers_receive_only_the_store_root():
    tree = ast.parse((FRONTEND / "supervisor.py").read_text())
    spawn = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.AsyncFunctionDef) and node.name == "_spawn")
    settings = [node.value for node in ast.walk(spawn)
                if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["settings"]]
    assert len(settings) == 1 and isinstance(settings[0], ast.Dict)
    assert [key.value for key in settings[0].keys] == ["store_root"]
