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
"""

from repro.indexes.btree import BPlusTree
from repro.indexes.dag_lca import DagLCAIndex, naive_dag_lca
from repro.indexes.euler_lca import EulerTourLCA, naive_tree_lca, tree_parents
from repro.indexes.hash_index import HashIndex
from repro.indexes.reachability import TransitiveClosureIndex
from repro.indexes.rmq import FischerHeunRMQ
from repro.indexes.sorted_run import KeyedRunIndex, SortedRunIndex
from repro.indexes.sparse_table import SparseTable, naive_range_min

__all__ = [
    "BPlusTree",
    "DagLCAIndex",
    "naive_dag_lca",
    "EulerTourLCA",
    "naive_tree_lca",
    "tree_parents",
    "HashIndex",
    "TransitiveClosureIndex",
    "FischerHeunRMQ",
    "KeyedRunIndex",
    "SortedRunIndex",
    "SparseTable",
    "naive_range_min",
]
