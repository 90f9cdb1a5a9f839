"""The paper's case-study query classes, wired into the core framework.

=====================  =====================================================
``selection``          Example 1 / Section 4(1): point & range selection
``membership``         Section 4(2): searching in a list (L1)
``rmq``                Section 4(3): minimum range queries (L2)
``lca``                Section 4(4): LCA in trees and DAGs (L3)
``reachability``       Example 3: GAP / Q2
``bds``                Examples 2/4/5, Figure 1, Theorem 5: BDS and Q_BDS
``cvp``                Section 4(8) and Theorem 9: CVP factorizations
``vertex_cover``       Section 4(9) and Corollary 7: VC and VC_K
``strategies``         Section 4(5)-(6) as Pi-schemes (compression, views)
``sat``                Corollary 7: 3SAT and the classic 3SAT -> VC reduction
``agap``               extension: alternating reachability (P-complete)
``topk``               extension: Section 8(5), top-k via Fagin's TA [14]
=====================  =====================================================

Names are resolved on first access (:mod:`repro._lazy`): importing one
submodule loads that submodule, not its siblings.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.queries.agap": ("agap_class", "agap_problem", "winning_set_scheme"),
    "repro.queries.bds": (
        "bds_problem", "bds_query_class", "bds_trivial_query_class",
        "no_preprocessing_scheme", "position_dict_scheme", "position_index_scheme",
        "upsilon_bds", "upsilon_prime",
    ),
    "repro.queries.cvp": (
        "cvp_factorized_class", "cvp_problem", "cvp_trivial_class",
        "gate_table_scheme", "reevaluate_scheme", "upsilon_cvp",
    ),
    "repro.queries.lca": (
        "dag_bitset_scheme", "dag_lca_class", "euler_tour_scheme", "tree_lca_class",
    ),
    "repro.queries.membership": (
        "membership_class", "membership_factorization", "membership_problem",
        "membership_shard_spec", "sorted_run_scheme",
    ),
    "repro.queries.reachability": (
        "closure_scheme", "nc_squaring_scheme", "reachability_class",
    ),
    "repro.queries.rmq": (
        "fischer_heun_scheme", "rmq_class", "rmq_shard_spec", "sparse_table_scheme",
    ),
    "repro.queries.sat": (
        "Formula", "sat_decide", "three_sat_problem", "three_sat_to_vertex_cover",
    ),
    "repro.queries.selection": (
        "btree_point_scheme", "btree_range_scheme", "hash_point_scheme",
        "point_selection_class", "range_selection_class", "selection_shard_spec",
    ),
    "repro.queries.strategies": ("compression_scheme", "views_scheme"),
    "repro.queries.topk": (
        "TopKIndex", "threshold_algorithm_scheme", "topk_class", "topk_shard_spec",
    ),
    "repro.queries.vertex_cover": (
        "K_MAX", "kernel_scheme", "vc_fixed_k_class", "vc_problem",
    ),
})
