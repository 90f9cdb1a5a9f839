"""Work--depth PRAM simulation: the NC substrate of the reproduction.

See :mod:`repro.parallel.pram` for the machine model and
:mod:`repro.parallel.primitives` for executed/charged primitives.

Names are resolved on first access (:mod:`repro._lazy`): importing one
submodule loads that submodule, not its siblings.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.parallel.bsp": (
        "BSPMachine", "bsp_reachability_frontier", "bsp_reachability_squaring",
    ),
    "repro.parallel.pram": ("ParallelMachine",),
    "repro.parallel.primitives": (
        "parallel_any", "parallel_binary_search", "parallel_max", "parallel_sort",
        "parallel_sum", "reachability_query_squaring", "transitive_closure_squaring",
    ),
})
