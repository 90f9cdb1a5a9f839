"""Core framework: the paper's primary contribution, as executable objects.

Layout (one concept per module):

========================  ====================================================
``alphabet``              Sigma* encodings, the ``D#Q`` form (Section 3)
``cost``                  work--depth cost accounting (the PRAM yardstick)
``fitting``               polylog-vs-polynomial scaling classification
``query``                 :class:`QueryClass` and :class:`PiScheme`
``language``              languages of pairs, decision problems, L_Q
``factorization``         ``Upsilon = (pi1, pi2, rho)`` (Definitions 2-3)
``tractability``          empirical certification of Definition 1
``reductions``            ``<=NC_fa`` and ``<=NC_F`` (Definitions 4 and 7),
                          Lemma 2/3/8 as executable constructions
``classes``               the Figure 2 registry and containment checker
========================  ====================================================

Every name in ``__all__`` is resolved on first access (:mod:`repro._lazy`), so
``from repro.core.errors import ...`` loads :mod:`~repro.core.errors` alone.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.alphabet": (
        "encode", "decode", "encode_pair", "decode_pair",
    ),
    "repro.core.cost": (
        "Cost", "CostTracker", "NullTracker", "NULL_TRACKER", "ensure_tracker",
    ),
    "repro.core.fitting": (
        "Fit", "ScalingKind", "ScalingVerdict", "classify_scaling", "fit_power",
        "fit_polylog",
    ),
    "repro.core.query": ("QueryClass", "PiScheme"),
    "repro.core.language": (
        "PairLanguage", "DecisionProblem", "pair_language_of", "decision_problem_of",
    ),
    "repro.core.factorization": (
        "Factorization", "EMPTY_DATA", "canonical_factorization",
        "trivial_factorization", "identity_factorization",
    ),
    "repro.core.tractability": ("Certificate", "SizeSample", "certify"),
    "repro.core.reductions": (
        "NCFactorReduction", "FReduction", "compose", "compose_f",
        "padded_factorization", "transfer_scheme", "transfer_scheme_f",
        "verify_reduction", "verify_f_reduction",
    ),
    "repro.core.classes": ("Membership", "Registry", "RegistryEntry", "figure2_report"),
    "repro.core.errors": (
        "ReproError", "EncodingError", "FactorizationError", "ReductionError",
        "CertificationError", "SchemaError", "GraphError", "CircuitError", "ViewError",
    ),
})
