"""The catalog: every reproduced problem/class, assembled into the Figure 2
registry with its claims and evidence.

:data:`CATALOG` is one table of rows that *name* their module and factories,
so importing this module imports no query kind.  It is read two ways:
``build_query_engine`` promises the served rows to an engine, which imports
a kind when an attach first names it; ``build_registry`` resolves every row
and is the one-stop entry point used by tests, benchmarks and the
quickstart example:

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

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.classes import Registry
    from repro.core.query import PiScheme, QueryClass

__all__ = ["build_registry", "build_query_engine", "CATALOG", "CERTIFICATION_SIZES"]

#: Size sweep used when ``certify_all=True``; small enough for CI, large
#: enough for the scaling classifier to separate polylog from polynomial.
CERTIFICATION_SIZES: Tuple[int, ...] = tuple(2**k for k in range(7, 12))

#: Sweeps for classes whose naive evaluation or preprocessing is expensive
#: (quadratic-ish); kept smaller so certification stays fast.
SMALL_SIZES: Tuple[int, ...] = tuple(2**k for k in range(5, 10))


@dataclass(frozen=True)
class CatalogRow:
    """One entry as data: reading a row imports nothing it names.

    ``query_class``, ``schemes`` and ``problem`` are names of zero-argument
    factories in ``module`` (``"other.module:name"`` for one defined
    elsewhere); ``claims`` are :class:`~repro.core.classes.Membership`
    values; ``reduction`` builds the entry's reduction to the complete
    problem.  ``control`` marks the Figure 1 / Theorem 9 negative controls:
    their Pi is the identity, so they are certified and never served.
    """

    name: str
    claims: Tuple[str, ...]
    module: str
    query_class: Optional[str] = None
    schemes: Tuple[str, ...] = ()
    problem: Optional[str] = None
    reduction: Optional[Callable[[], Any]] = None
    sizes: Tuple[int, ...] = CERTIFICATION_SIZES
    control: bool = False
    paper_reference: str = ""
    notes: str = ""

    @property
    def served(self) -> bool:
        """Whether :func:`build_query_engine` offers this row as a kind."""
        return self.query_class is not None and not self.control

    def make(self, factory: str) -> Any:
        """Import the module that defines ``factory`` and call it."""
        module, _, name = factory.rpartition(":")
        return getattr(import_module(module or self.module), name)()

    def serving(self) -> Tuple["QueryClass", "PiScheme"]:
        """``(query class, scheme)`` as the engine serves them: the row's
        first serializable scheme, constructing no scheme past it."""
        scheme = None
        for factory in self.schemes:
            scheme = self.make(factory)
            if scheme.serializable:
                break
        return self.make(self.query_class), scheme


def _refactorized_bds_trivial() -> Any:
    from repro.queries.bds import bds_trivial_query_class
    from repro.reductions_zoo import refactorize_to_bds

    return refactorize_to_bds(bds_trivial_query_class())


def _refactorized_cvp() -> Any:
    from repro.reductions_zoo import refactorize_cvp

    return refactorize_cvp()


def _topk_emitted_to_bds() -> Any:
    from repro.core.language import decision_problem_of
    from repro.queries.topk import topk_class
    from repro.reductions_zoo import solve_and_emit_bds

    return solve_and_emit_bds(decision_problem_of(topk_class()))


_IN_PIT0Q = ("P", "PiT0Q", "PiTQ")

#: The one list: :func:`build_registry` resolves every row (Figure 2 and
#: certification), :func:`build_query_engine` defers the ``served`` ones.
CATALOG: Tuple[CatalogRow, ...] = (
    CatalogRow(
        "point-selection", _IN_PIT0Q, "repro.queries.selection",
        query_class="point_selection_class",
        schemes=("btree_point_scheme", "hash_point_scheme"),
        paper_reference="Example 1; Section 4(1)",
    ),
    CatalogRow(
        "range-selection", _IN_PIT0Q, "repro.queries.selection",
        query_class="range_selection_class",
        schemes=("btree_range_scheme", "repro.queries.strategies:views_scheme"),
        paper_reference="Section 4(1); views: Section 4(6)",
    ),
    CatalogRow(
        "list-membership", _IN_PIT0Q, "repro.queries.membership",
        query_class="membership_class",
        schemes=("sorted_run_scheme",),
        paper_reference="Section 4(2), problem L1",
    ),
    CatalogRow(
        "minimum-range-query", _IN_PIT0Q, "repro.queries.rmq",
        query_class="rmq_class",
        schemes=("fischer_heun_scheme", "sparse_table_scheme"),
        paper_reference="Section 4(3), problem L2 [18]",
    ),
    CatalogRow(
        "tree-lca", _IN_PIT0Q, "repro.queries.lca",
        query_class="tree_lca_class",
        schemes=("euler_tour_scheme",),
        sizes=SMALL_SIZES,
        paper_reference="Section 4(4), problem L3 [5]",
        notes="naive baseline is Theta(n) per query; small sweep",
    ),
    CatalogRow(
        "dag-lca", _IN_PIT0Q, "repro.queries.lca",
        query_class="dag_lca_class",
        schemes=("dag_bitset_scheme",),
        sizes=SMALL_SIZES,
        paper_reference="Section 4(4), problem L3 [5]",
    ),
    CatalogRow(
        "reachability", _IN_PIT0Q + ("NC",), "repro.queries.reachability",
        query_class="reachability_class",
        schemes=(
            "closure_scheme",
            "repro.queries.strategies:compression_scheme",
            "nc_squaring_scheme",
        ),
        sizes=SMALL_SIZES,
        paper_reference="Example 3 (GAP, NL-complete); compression: 4(5)",
        notes="NC claim: GAP is NL-complete and NL is contained in NC",
    ),
    CatalogRow(
        "bds-order", _IN_PIT0Q + ("PiTP",), "repro.queries.bds",
        query_class="bds_query_class",
        problem="bds_problem",
        schemes=("position_index_scheme", "position_dict_scheme"),
        sizes=SMALL_SIZES,
        paper_reference="Examples 2/4/5; Theorem 5 (PiTP/PiTQ-complete)",
        notes="BDS is P-complete [21]; Pi-tractable under Upsilon_BDS",
    ),
    CatalogRow(
        "bds-order-trivial", ("P", "PiTQ"), "repro.queries.bds",
        query_class="bds_trivial_query_class",
        schemes=("no_preprocessing_scheme",),
        sizes=SMALL_SIZES,
        control=True,
        reduction=_refactorized_bds_trivial,
        paper_reference="Figure 1, right factorization Upsilon'",
        notes="expected NOT Pi-tractable: certificate should fail; made "
        "tractable only via the registered re-factorization",
    ),
    CatalogRow(
        "cvp-factorized", _IN_PIT0Q + ("PiTP",), "repro.queries.cvp",
        query_class="cvp_factorized_class",
        problem="cvp_problem",
        schemes=("gate_table_scheme",),
        paper_reference="Section 4(8)",
        notes="CVP is P-complete [21]; Pi-tractable under Upsilon_CVP",
    ),
    CatalogRow(
        "cvp-trivial", ("P", "PiTQ"), "repro.queries.cvp",
        query_class="cvp_trivial_class",
        schemes=("reevaluate_scheme",),
        sizes=SMALL_SIZES,
        control=True,
        reduction=_refactorized_cvp,
        paper_reference="Theorem 9, factorization Upsilon_0",
        notes="expected NOT Pi-tractable unless P = NC: certificate should "
        "fail; the separation witness",
    ),
    CatalogRow(
        "vertex-cover-fixed-k", _IN_PIT0Q, "repro.queries.vertex_cover",
        query_class="vc_fixed_k_class",
        schemes=("kernel_scheme",),
        sizes=SMALL_SIZES,
        paper_reference="Section 4(9), Buss kernelization [19]",
    ),
    CatalogRow(
        "alternating-reachability", _IN_PIT0Q + ("PiTP",), "repro.queries.agap",
        query_class="agap_class",
        problem="agap_problem",
        schemes=("winning_set_scheme",),
        sizes=SMALL_SIZES,
        paper_reference="extension: AGAP, a second P-complete problem [21] "
        "made Pi-tractable by the graph-as-data factorization",
        notes="P-complete like BDS/CVP; preprocessing computes all "
        "alternating winning sets in PTIME",
    ),
    CatalogRow(
        "topk-threshold", ("P", "PiTQ"), "repro.queries.topk",
        query_class="topk_class",
        schemes=("threshold_algorithm_scheme",),
        sizes=SMALL_SIZES,
        reduction=_topk_emitted_to_bds,
        paper_reference="Section 8, open issue (5): top-k with early "
        "termination [14]",
        notes="Fagin's TA is instance-optimal but not worst-case polylog, "
        "so no PiT0Q claim; measured in the EXT-TOPK experiment",
    ),
    CatalogRow(
        "vertex-cover", ("NP-complete",), "repro.queries.vertex_cover",
        problem="vc_problem",
        paper_reference="Section 4(9); Corollary 7",
        notes="NP-complete: not in PiTP unless P = NP; no scheme registered",
    ),
    CatalogRow(
        "3SAT", ("NP-complete",), "repro.queries.sat",
        problem="three_sat_problem",
        paper_reference="Corollary 7",
        notes="NP-complete: the paper's other Corollary 7 example; the "
        "classic reduction to vertex-cover is implemented and tested "
        "(repro.queries.sat.three_sat_to_vertex_cover)",
    ),
)


def build_registry(
    *,
    certify_all: bool = False,
    queries_per_size: int = 12,
) -> "Registry":
    """Assemble (and optionally measure) the full catalog."""
    from repro.core.classes import Membership, Registry, RegistryEntry

    registry = Registry()
    for row in CATALOG:
        query_class = row.make(row.query_class) if row.query_class else None
        schemes = [row.make(factory) for factory in row.schemes]
        certificates = []
        if certify_all and query_class is not None and schemes:
            from repro.core.tractability import certify

            certificates = [
                certify(
                    query_class,
                    scheme,
                    sizes=row.sizes,
                    queries_per_size=queries_per_size,
                )
                for scheme in schemes
            ]
        registry.add(
            RegistryEntry(
                name=row.name,
                claims={Membership(claim) for claim in row.claims},
                query_class=query_class,
                problem=row.make(row.problem) if row.problem else None,
                schemes=schemes,
                certificates=certificates,
                reduction_to_complete=row.reduction() if row.reduction else None,
                paper_reference=row.paper_reference,
                notes=row.notes,
            )
        )
    return registry


def build_query_engine(**engine_kwargs):
    """A :class:`~repro.service.engine.QueryEngine` serving the catalog.

    Every :data:`CATALOG` row with a query class and a scheme whose Pi(D) can
    be kept (``dump``/``load``) is a query kind of the engine, keyed by the
    row's name (``"point-selection"``, ``"bds-order"``, ...) and *promised*:
    ``engine.kinds()`` lists all of them, and the first attach naming a kind
    imports its module and registers it
    (:meth:`~repro.service.engine.QueryEngine.register_deferred`).  The
    negative controls ``bds-order-trivial`` and ``cvp-trivial``, whose Pi is
    the identity, stay certified in :func:`build_registry` and are not served.
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

    engine = QueryEngine(**engine_kwargs)
    for row in CATALOG:
        if row.served:
            engine.register_deferred(row.name, row.module, row.serving)
    return engine
