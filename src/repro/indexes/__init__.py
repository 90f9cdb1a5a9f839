"""Index substrate: the preprocessing structures of the case studies.

=====================  ======================================================
``btree``              B+-tree (Example 1; point & range selection)
``hash_index``         hash index (O(1) point probes)
``sorted_run``         sort + binary search (Section 4(2), Example 5)
``sparse_table``       RMQ sparse table (O(n log n) / O(1))
``rmq``                Fischer--Heun RMQ (Section 4(3), [18])
``euler_lca``          tree LCA via Euler tour + RMQ (Section 4(4), [5])
``dag_lca``            DAG LCA via topological-rank bitsets (Section 4(4))
``reachability``       transitive-closure index (Example 3)
``columns``            typed columns: the state layout of the array indexes
=====================  ======================================================

Names are resolved on first access (:mod:`repro._lazy`): importing one
submodule loads that submodule, not its siblings.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.indexes.btree": ("BPlusTree",),
    "repro.indexes.dag_lca": ("DagLCAIndex", "naive_dag_lca"),
    "repro.indexes.euler_lca": ("EulerTourLCA", "naive_tree_lca", "tree_parents"),
    "repro.indexes.hash_index": ("HashIndex",),
    "repro.indexes.reachability": ("TransitiveClosureIndex",),
    "repro.indexes.rmq": ("FischerHeunRMQ",),
    "repro.indexes.sorted_run": ("KeyedRunIndex", "SortedRunIndex"),
    "repro.indexes.sparse_table": ("SparseTable", "naive_range_min"),
})
