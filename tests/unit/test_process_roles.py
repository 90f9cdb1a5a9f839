"""A process pays only for the role it plays: import boundaries as properties.

Each role runs in a fresh interpreter (``python -c``) and the assertions are
on ``sys.modules`` -- no clocks, no spawned front.  The three roles:

* **front** (gateway + supervisor) relays opaque frames: no engine, dataset,
  index, query, catalog, workloads or numpy;
* **client** additionally loads neither ``asyncio`` nor ``multiprocessing``;
* **worker** knows the whole catalog by name but imports a kind's modules
  when an attach first names it: a counted ``repro.*`` closure at ready and
  after serving two kinds, numpy only when a Boolean-matrix reachability
  helper first runs, and never ``asyncio`` or the gateway / client modules.

The second half pins the mechanism (``repro._lazy``): for every package whose
re-exports are resolved on first access, the public surface is what an eager
``__init__`` would have offered.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

#: What a process that only moves frames must never load.
ENGINE_SIDE = (
    "numpy",
    "repro.indexes",
    "repro.queries",
    "repro.catalog",
    "repro.service.engine",
    "repro.service.dataset",
    "repro.service.mutable",
    "repro.service.sharding",
    "repro.service.cache",
    "repro.core.classes",
    "repro.core.fitting",
    "repro.core.tractability",
)


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def _loaded(code: str, names) -> set:
    """Which of ``names`` are in ``sys.modules`` after ``code`` ran."""
    out = _fresh(f"{code}\nimport sys\nprint(*[m for m in {tuple(names)!r} "
                 f"if m in sys.modules])")
    return set(out.split())


def test_front_role_loads_no_engine_side_module():
    assert _loaded("import repro.service.frontend.server", ENGINE_SIDE) == set()
    # ...and the curated spelling the examples and perf/ use is the same role.
    assert _loaded("from repro.service.frontend import ServingFront",
                   ENGINE_SIDE) == set()


def test_client_role_loads_no_engine_asyncio_or_multiprocessing():
    forbidden = ENGINE_SIDE + (
        "asyncio", "multiprocessing", "repro.service.frontend.server",
        "repro.service.frontend.supervisor")
    assert _loaded("import repro.service.frontend.client", forbidden) == set()
    assert _loaded("from repro.service.frontend import RemoteClient",
                   forbidden) == set()


#: What a worker serving ``list-membership`` and ``minimum-range-query`` must
#: not have paid for: the other kinds, their substrates, the certifier.
UNSERVED = (
    *(f"repro.queries.{module}" for module in (
        "selection", "topk", "cvp", "bds", "agap", "lca", "reachability",
        "vertex_cover", "sat", "strategies")),
    "repro.graphs", "repro.circuits", "repro.views", "repro.kernelization",
    "repro.compression", "repro.reductions_zoo",
    "repro.core.classes", "repro.core.tractability", "repro.core.fitting",
    "repro.core.reductions",
)


def test_worker_role_pays_only_for_the_kinds_it_serves():
    out = _fresh(f"""
import sys
import repro.service.frontend.workers
from repro.catalog import build_query_engine

def closure():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

engine = build_query_engine()
print(len(engine.kinds()), len(closure()),
      *[m for m in closure() if m.startswith("repro.queries")])
try:
    engine.attach("bad", (1, 2), kinds=["list-membership", "nope"])
except Exception as exc:
    print(type(exc).__name__, len(closure()), engine.datasets())
ints = engine.attach("ints", tuple(range(0, 128, 2)),
                     kinds=["list-membership", "minimum-range-query"])
print(ints.query("list-membership", 6), ints.query("list-membership", 7),
      ints.query("minimum-range-query", (3, 9, 3)))
print(len(closure()), *[m for m in {UNSERVED!r} if m in sys.modules])
print(*[m for m in ("numpy", "asyncio", "concurrent.futures",
                    "repro.service.frontend.server",
                    "repro.service.frontend.client") if m in sys.modules])
engine.close()
""")
    ready, refused, answers, served, early = out.splitlines()
    kinds, at_ready, *kind_modules = ready.split()
    assert int(kinds) == 12 and kind_modules == []  # all promised, none imported
    assert int(at_ready) <= 30                      # 84 before kinds were deferred
    assert refused == f"ServiceError {at_ready} []"  # a refused list imports nothing
    assert answers == "True False True"
    after_two_kinds, *unserved = served.split()
    assert int(at_ready) < int(after_two_kinds) <= 45 and unserved == []
    assert early == ""


def test_worker_role_loads_numpy_only_for_matrix_reachability():
    out = _fresh("""
import sys
import repro.service.frontend.workers
from repro.queries import nc_squaring_scheme, reachability_class
from repro.core.cost import CostTracker

print("numpy" in sys.modules, "asyncio" in sys.modules)
query_class, scheme = reachability_class(), nc_squaring_scheme()
graph, queries = query_class.sample_workload(24, 5, 12)
matrix = scheme.preprocess(graph, CostTracker())
print(all(scheme.answer(matrix, q, CostTracker()) == query_class.pair_in_language(graph, q)
          for q in queries))
print("numpy" in sys.modules, "asyncio" in sys.modules)
""")
    assert out.splitlines() == ["False False", "True", "True False"]


def test_importing_the_catalog_imports_no_kind():
    assert _loaded("import repro.catalog", (
        "repro.queries", "repro.reductions_zoo", "repro.core.classes",
        "repro.core.tractability", "repro.core.query", "repro.service.engine")) == set()
    assert _loaded("import repro.indexes.columns", (
        "repro.indexes.btree", "repro.indexes.rmq", "repro.graphs", "repro.parallel",
        "repro.core.cost")) == set()


def test_reductions_zoo_stays_eager_because_a_name_shadows_its_submodule():
    """``refactorize_cvp`` is both a submodule and the function it defines.
    Under a PEP 562 hook, importing the submodule first binds the *module* on
    the package and the hook never fires; the eager ``__init__`` rebinds the
    name to the function.  It is off the serving path, so it stays eager."""
    out = _fresh("import repro.reductions_zoo.refactorize_cvp\n"
                 "from repro.reductions_zoo import refactorize_cvp\n"
                 "import repro.reductions_zoo as zoo\n"
                 "print(callable(refactorize_cvp), '__getattr__' in vars(zoo))")
    assert out.split() == ["True", "False"]


# -- the lazy packages offer the surface an eager __init__ would ---------------

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.service",
    "repro.incremental",
    "repro.service.frontend",
    "repro.queries",
    "repro.indexes",
    "repro.storage",
    "repro.graphs",
    "repro.parallel",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_surface(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(set(exported)) == len(exported) > 0
    assert set(exported) <= set(dir(package))
    for attribute in exported:
        assert getattr(package, attribute) is not None, attribute
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_has_one_mechanism(name):
    """No package keeps an eager re-export block next to the hook: importing
    the package alone binds none of its exported names."""
    out = _fresh(f"import {name} as p\n"
                 f"print(*[n for n in p.__all__ if n in vars(p)])")
    assert out.split() in ([], ["__version__"])


def test_version_is_one_value():
    declared = re.search(r'^version = "([^"]+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert declared is not None
    assert repro.__version__ == declared.group(1)
