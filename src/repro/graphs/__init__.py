"""Graph substrate: numbered graphs, traversals (incl. BDS), SCC, generators.

Names are resolved on first access (:mod:`repro._lazy`): importing one
submodule loads that submodule, not its siblings.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graphs.alternating": (
        "AlternatingDigraph", "AlternatingReachabilityIndex",
        "alternating_reachable", "random_alternating_digraph",
    ),
    "repro.graphs.generators": (
        "gnm_digraph", "gnm_graph", "random_connected_graph",
        "random_dag", "random_tree", "random_vertex_pairs", "social_digraph",
    ),
    "repro.graphs.graph": ("Digraph", "Graph"),
    "repro.graphs.scc": (
        "condensation", "is_dag", "strongly_connected_components",
        "topological_order",
    ),
    "repro.graphs.traversal": (
        "bfs_order", "breadth_depth_search", "breadth_depth_search_reference",
        "is_reachable", "reachable_from", "visit_position",
    ),
})
