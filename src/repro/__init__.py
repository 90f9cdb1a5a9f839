"""repro: a reproduction of "Making Queries Tractable on Big Data with
Preprocessing" (Fan, Geerts, Neven; PVLDB 6(9), 2013).

The package turns the paper's complexity-theoretic framework into an
executable library:

* :mod:`repro.core` -- Pi-tractability, factorizations, NC-factor and
  F-reductions, the certification harness, the Figure 2 registry;
* :mod:`repro.parallel` -- the work--depth PRAM cost model standing in for NC;
* :mod:`repro.storage`, :mod:`repro.indexes`, :mod:`repro.graphs`,
  :mod:`repro.circuits` -- the substrates (relations, B+-trees, RMQ/LCA
  structures, graphs with breadth-depth search, Boolean circuits);
* :mod:`repro.queries` -- the paper's case studies wired into the framework
  (selection, list membership, RMQ, LCA, reachability, BDS, CVP, vertex
  cover);
* :mod:`repro.compression`, :mod:`repro.views`, :mod:`repro.kernelization`
  -- the preprocessing strategies of Section 4; strategy (7) is the
  ``apply_delta`` hook of each delta-capable scheme (for instance
  ``selection._apply_relation_delta`` and
  ``TransitiveClosureIndex.insert_edge``) over the change records of
  :mod:`repro.incremental`;
* :mod:`repro.reductions_zoo` -- concrete reductions, including every
  registered problem to BDS (Theorem 5 / Corollary 6);
* :mod:`repro.catalog` -- builds the default registry of everything above.

Quickstart::

    from repro.catalog import build_registry
    from repro.core import figure2_report

    registry = build_registry(certify_all=False)
    print(figure2_report(registry))

The framework names below are re-exported from :mod:`repro.core` and resolved
on first access (:mod:`repro._lazy`): ``import repro`` itself loads nothing.
"""

from repro._lazy import lazy_exports

#: The one version literal; a test compares it with ``pyproject.toml``.
__version__ = "0.2.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": (
        "Certificate",
        "Cost",
        "CostTracker",
        "Factorization",
        "FReduction",
        "Membership",
        "NCFactorReduction",
        "PairLanguage",
        "PiScheme",
        "QueryClass",
        "Registry",
        "ScalingKind",
        "certify",
        "compose",
        "figure2_report",
        "transfer_scheme",
        "verify_reduction",
    ),
})
__all__.append("__version__")
