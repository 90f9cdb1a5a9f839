"""The catalog: every reproduced problem/class, assembled into the Figure 2
registry with its claims and evidence.

``build_registry`` is the one-stop entry point used by tests, benchmarks and
the quickstart example:

* with ``certify_all=False`` (default) entries carry claims, schemes and
  reductions but no measurements;
* with ``certify_all=True`` every (class, scheme) pair is run through the
  empirical certifier over a small size sweep, so the Figure 2 consistency
  check validates claims against actual measurements.  Classes whose claims
  *should* fail certification (the Figure 1 right-hand side, the Theorem 9
  class) are certified too -- their certificates are attached with the
  expectation recorded in ``notes``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.classes import Membership, Registry, RegistryEntry
from repro.core.query import PiScheme, QueryClass
from repro.core.tractability import Certificate, certify
from repro.queries import (
    bds_problem,
    bds_query_class,
    bds_trivial_query_class,
    btree_point_scheme,
    btree_range_scheme,
    closure_scheme,
    compression_scheme,
    cvp_factorized_class,
    cvp_problem,
    cvp_trivial_class,
    dag_bitset_scheme,
    dag_lca_class,
    euler_tour_scheme,
    fischer_heun_scheme,
    gate_table_scheme,
    hash_point_scheme,
    kernel_scheme,
    membership_class,
    nc_squaring_scheme,
    no_preprocessing_scheme,
    point_selection_class,
    position_dict_scheme,
    position_index_scheme,
    range_selection_class,
    reachability_class,
    reevaluate_scheme,
    rmq_class,
    sorted_run_scheme,
    sparse_table_scheme,
    tree_lca_class,
    vc_fixed_k_class,
    vc_problem,
    views_scheme,
)
from repro.core.language import decision_problem_of
from repro.queries import (
    agap_class,
    agap_problem,
    threshold_algorithm_scheme,
    topk_class,
    winning_set_scheme,
)
from repro.queries.sat import three_sat_problem
from repro.reductions_zoo import refactorize_cvp, refactorize_to_bds, solve_and_emit_bds

__all__ = ["build_registry", "build_query_engine", "CERTIFICATION_SIZES"]

#: Size sweep used when ``certify_all=True``; small enough for CI, large
#: enough for the scaling classifier to separate polylog from polynomial.
CERTIFICATION_SIZES: List[int] = [2**k for k in range(7, 12)]

#: Sweeps for classes whose naive evaluation or preprocessing is expensive
#: (quadratic-ish); kept smaller so certification stays fast.
SMALL_SIZES: List[int] = [2**k for k in range(5, 10)]


def _certify_all(
    query_class: QueryClass,
    schemes: Sequence[PiScheme],
    sizes: Sequence[int],
    queries_per_size: int,
) -> List[Certificate]:
    return [
        certify(
            query_class,
            scheme,
            sizes=sizes,
            queries_per_size=queries_per_size,
        )
        for scheme in schemes
    ]


def build_registry(
    *,
    certify_all: bool = False,
    queries_per_size: int = 12,
) -> Registry:
    """Assemble (and optionally measure) the full catalog."""
    registry = Registry()

    def add(
        name: str,
        claims: set,
        *,
        query_class: Optional[QueryClass] = None,
        schemes: Sequence[PiScheme] = (),
        sizes: Sequence[int] = CERTIFICATION_SIZES,
        paper_reference: str = "",
        notes: str = "",
        problem=None,
        reduction=None,
    ) -> RegistryEntry:
        certificates: List[Certificate] = []
        if certify_all and query_class is not None and schemes:
            certificates = _certify_all(query_class, schemes, sizes, queries_per_size)
        return registry.add(
            RegistryEntry(
                name=name,
                claims=claims,
                query_class=query_class,
                problem=problem,
                schemes=list(schemes),
                certificates=certificates,
                reduction_to_complete=reduction,
                paper_reference=paper_reference,
                notes=notes,
            )
        )

    in_pit0q = {Membership.P, Membership.PI_T0Q, Membership.PI_TQ}

    add(
        "point-selection",
        set(in_pit0q),
        query_class=point_selection_class(),
        schemes=[btree_point_scheme(), hash_point_scheme()],
        paper_reference="Example 1; Section 4(1)",
    )
    add(
        "range-selection",
        set(in_pit0q),
        query_class=range_selection_class(),
        schemes=[btree_range_scheme(), views_scheme()],
        paper_reference="Section 4(1); views: Section 4(6)",
    )
    add(
        "list-membership",
        set(in_pit0q),
        query_class=membership_class(),
        schemes=[sorted_run_scheme()],
        paper_reference="Section 4(2), problem L1",
    )
    add(
        "minimum-range-query",
        set(in_pit0q),
        query_class=rmq_class(),
        schemes=[fischer_heun_scheme(), sparse_table_scheme()],
        paper_reference="Section 4(3), problem L2 [18]",
    )
    add(
        "tree-lca",
        set(in_pit0q),
        query_class=tree_lca_class(),
        schemes=[euler_tour_scheme()],
        sizes=SMALL_SIZES,
        paper_reference="Section 4(4), problem L3 [5]",
        notes="naive baseline is Theta(n) per query; small sweep",
    )
    add(
        "dag-lca",
        set(in_pit0q),
        query_class=dag_lca_class(),
        schemes=[dag_bitset_scheme()],
        sizes=SMALL_SIZES,
        paper_reference="Section 4(4), problem L3 [5]",
    )
    add(
        "reachability",
        set(in_pit0q) | {Membership.NC},
        query_class=reachability_class(),
        schemes=[closure_scheme(), compression_scheme(), nc_squaring_scheme()],
        sizes=SMALL_SIZES,
        paper_reference="Example 3 (GAP, NL-complete); compression: 4(5)",
        notes="NC claim: GAP is NL-complete and NL is contained in NC",
    )
    add(
        "bds-order",
        set(in_pit0q) | {Membership.PI_TP},
        query_class=bds_query_class(),
        problem=bds_problem(),
        schemes=[position_index_scheme(), position_dict_scheme()],
        sizes=SMALL_SIZES,
        paper_reference="Examples 2/4/5; Theorem 5 (PiTP/PiTQ-complete)",
        notes="BDS is P-complete [21]; Pi-tractable under Upsilon_BDS",
    )
    add(
        "bds-order-trivial",
        {Membership.P, Membership.PI_TQ},
        query_class=bds_trivial_query_class(),
        schemes=[no_preprocessing_scheme()],
        sizes=SMALL_SIZES,
        reduction=refactorize_to_bds(bds_trivial_query_class()),
        paper_reference="Figure 1, right factorization Upsilon'",
        notes="expected NOT Pi-tractable: certificate should fail; made "
        "tractable only via the registered re-factorization",
    )
    add(
        "cvp-factorized",
        set(in_pit0q) | {Membership.PI_TP},
        query_class=cvp_factorized_class(),
        problem=cvp_problem(),
        schemes=[gate_table_scheme()],
        paper_reference="Section 4(8)",
        notes="CVP is P-complete [21]; Pi-tractable under Upsilon_CVP",
    )
    add(
        "cvp-trivial",
        {Membership.P, Membership.PI_TQ},
        query_class=cvp_trivial_class(),
        schemes=[reevaluate_scheme()],
        sizes=SMALL_SIZES,
        reduction=refactorize_cvp(),
        paper_reference="Theorem 9, factorization Upsilon_0",
        notes="expected NOT Pi-tractable unless P = NC: certificate should "
        "fail; the separation witness",
    )
    add(
        "vertex-cover-fixed-k",
        set(in_pit0q),
        query_class=vc_fixed_k_class(),
        schemes=[kernel_scheme()],
        sizes=SMALL_SIZES,
        paper_reference="Section 4(9), Buss kernelization [19]",
    )
    add(
        "alternating-reachability",
        set(in_pit0q) | {Membership.PI_TP},
        query_class=agap_class(),
        problem=agap_problem(),
        schemes=[winning_set_scheme()],
        sizes=SMALL_SIZES,
        paper_reference="extension: AGAP, a second P-complete problem [21] "
        "made Pi-tractable by the graph-as-data factorization",
        notes="P-complete like BDS/CVP; preprocessing computes all "
        "alternating winning sets in PTIME",
    )
    add(
        "topk-threshold",
        {Membership.P, Membership.PI_TQ},
        query_class=topk_class(),
        schemes=[threshold_algorithm_scheme()],
        sizes=SMALL_SIZES,
        reduction=solve_and_emit_bds(decision_problem_of(topk_class())),
        paper_reference="Section 8, open issue (5): top-k with early "
        "termination [14]",
        notes="Fagin's TA is instance-optimal but not worst-case polylog, "
        "so no PiT0Q claim; measured in the EXT-TOPK experiment",
    )
    add(
        "vertex-cover",
        {Membership.NP_COMPLETE},
        problem=vc_problem(),
        paper_reference="Section 4(9); Corollary 7",
        notes="NP-complete: not in PiTP unless P = NP; no scheme registered",
    )
    add(
        "3SAT",
        {Membership.NP_COMPLETE},
        problem=three_sat_problem(),
        paper_reference="Corollary 7",
        notes="NP-complete: the paper's other Corollary 7 example; the "
        "classic reduction to vertex-cover is implemented and tested "
        "(repro.queries.sat.three_sat_to_vertex_cover)",
    )
    return registry


def build_query_engine(**engine_kwargs):
    """A :class:`~repro.service.engine.QueryEngine` serving the catalog.

    Every registry entry with a query class and a scheme whose Pi(D) can be
    kept (``dump``/``load``) becomes a query kind of the engine, keyed by the
    entry's name (``"point-selection"``, ``"bds-order"``, ...); the negative
    controls ``bds-order-trivial`` and ``cvp-trivial``, whose Pi is the
    identity, stay certified in :func:`build_registry` and are not served.
    Attach a payload once under a stable name and ask the returned
    :class:`~repro.service.dataset.Dataset` session (``engine.dataset(name)``
    hands out the same one); ``shards=K`` is said at attach:

        >>> engine = build_query_engine()
        >>> len(engine.kinds())
        12
        >>> ds = engine.attach("events", (3, 1, 4), kinds=["list-membership"], shards=2)
        >>> ds.query("list-membership", 4)             # fingerprinted once, at attach
        True
        >>> engine.dataset("events").query_batch([("list-membership", 1), ("list-membership", 9)])
        [True, False]
        >>> engine.close()

    Keyword arguments are forwarded to the engine constructor -- pass
    ``store=ArtifactStore(path)`` to persist artifacts across processes.
    """
    from repro.service.engine import QueryEngine

    return QueryEngine.from_registry(build_registry(), **engine_kwargs)
