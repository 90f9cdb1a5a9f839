"""The complexity-class registry: Figure 2, machine-checked.

Figure 2 of the paper relates three sets: PiT0Q (Pi-tractable query classes,
Definition 1), PiTP (decision problems that can be made Pi-tractable,
Definition 2) and PiTQ (query classes that can be made Pi-tractable,
Definition 3), against the ambient classes NC and P.  The paper proves

* ``NC <= PiT0Q <= P``  and  ``PiT0Q != P`` unless P = NC   (Theorem 9),
* ``PiTP = P``  and  ``PiTQ = P``                            (Corollary 6),
* no NP-complete problem is in PiTP unless P = NP            (Corollary 7).

This module keeps a registry of every problem and query class implemented in
the reproduction together with the *evidence* for its claimed memberships:
certificates (for PiT0Q claims), reductions to BDS (for PiTP/PiTQ claims),
and hardness markers.  :func:`figure2_report` renders the figure as a
containment table and cross-checks each claim against its evidence, so the
"reproduction" of Figure 2 is an executable consistency check rather than a
drawing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import ReproError
from repro.core.language import DecisionProblem
from repro.core.query import PiScheme, QueryClass
from repro.core.reductions import NCFactorReduction
from repro.core.tractability import Certificate

__all__ = ["Membership", "RegistryEntry", "Registry", "figure2_report"]


class Membership(enum.Enum):
    """Class memberships a registry entry may claim."""

    NC = "NC"
    P = "P"
    PI_T0Q = "PiT0Q"  # Pi-tractable with its native factorization
    PI_TP = "PiTP"  # can be made Pi-tractable (decision problem)
    PI_TQ = "PiTQ"  # can be made Pi-tractable (query class)
    NP_COMPLETE = "NP-complete"


@dataclass
class RegistryEntry:
    """One problem/query class with claims and supporting evidence."""

    name: str
    claims: set
    query_class: Optional[QueryClass] = None
    problem: Optional[DecisionProblem] = None
    schemes: List[PiScheme] = field(default_factory=list)
    certificates: List[Certificate] = field(default_factory=list)
    reduction_to_complete: Optional[NCFactorReduction] = None
    paper_reference: str = ""
    notes: str = ""

    def evidence_gaps(self) -> List[str]:
        """Claims whose supporting evidence is *failing* or contradictory.

        Entries without measurements are reported as "uncertified" by
        :func:`figure2_report` rather than flagged here; a gap means the
        evidence that exists contradicts the claim.
        """
        gaps: List[str] = []
        if Membership.PI_T0Q in self.claims and self.certificates:
            if not any(c.is_pi_tractable for c in self.certificates):
                gaps.append(
                    f"{self.name}: claims PiT0Q but every certificate failed"
                )
        made_tractable = {Membership.PI_TP, Membership.PI_TQ} & self.claims
        if made_tractable and Membership.PI_T0Q not in self.claims:
            # A "can be made" claim needs either a direct scheme under some
            # factorization or a reduction to the complete problem (Thm 5).
            if not self.certificates and self.reduction_to_complete is None:
                gaps.append(
                    f"{self.name}: claims {sorted(m.value for m in made_tractable)}"
                    " but has neither a certificate nor a reduction to BDS"
                )
        if Membership.NP_COMPLETE in self.claims and (
            Membership.PI_TP in self.claims or Membership.PI_T0Q in self.claims
        ):
            gaps.append(
                f"{self.name}: claims NP-completeness together with "
                "Pi-tractability, contradicting Corollary 7 (unless P = NP)"
            )
        return gaps


class Registry:
    """All problems and query classes of the reproduction, with evidence."""

    def __init__(self) -> None:
        self._entries: Dict[str, RegistryEntry] = {}

    def add(self, entry: RegistryEntry) -> RegistryEntry:
        if entry.name in self._entries:
            raise ReproError(f"duplicate registry entry {entry.name!r}")
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError as exc:
            raise ReproError(f"no registry entry named {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def entries(self) -> List[RegistryEntry]:
        return sorted(self._entries.values(), key=lambda entry: entry.name)

    def with_claim(self, membership: Membership) -> List[RegistryEntry]:
        return [e for e in self.entries() if membership in e.claims]

    # -- Figure 2 ------------------------------------------------------------

    def check_containments(self) -> List[str]:
        """Violations of the paper's containments among *registered* claims.

        * NC claims must co-claim PiT0Q (NC <= PiT0Q: preprocessing may be the
          identity) and P (NC <= P).
        * PiT0Q claims must co-claim P (PiT0Q <= P) and PiTQ/PiTP.
        * P-claimed entries must co-claim PiTP or PiTQ (Corollary 6: all of
          P can be made Pi-tractable).
        * Every entry's evidence must support its claims.
        """
        violations: List[str] = []
        for entry in self.entries():
            claims = entry.claims
            if Membership.NC in claims:
                if Membership.PI_T0Q not in claims:
                    violations.append(f"{entry.name}: NC but not PiT0Q (NC <= PiT0Q)")
                if Membership.P not in claims:
                    violations.append(f"{entry.name}: NC but not P (NC <= P)")
            if Membership.PI_T0Q in claims:
                if Membership.P not in claims:
                    violations.append(f"{entry.name}: PiT0Q but not P (PiT0Q <= P)")
                if (
                    Membership.PI_TQ not in claims
                    and Membership.PI_TP not in claims
                ):
                    violations.append(
                        f"{entry.name}: PiT0Q but no made-tractable claim"
                        " (PiT0Q <= PiTQ)"
                    )
            if Membership.P in claims and Membership.NP_COMPLETE not in claims:
                if (
                    Membership.PI_TP not in claims
                    and Membership.PI_TQ not in claims
                ):
                    violations.append(
                        f"{entry.name}: in P but no made-tractable claim"
                        " (Corollary 6: PiTP = P)"
                    )
            violations.extend(entry.evidence_gaps())
        return violations


def figure2_report(registry: Registry) -> str:
    """Render Figure 2 as a containment table over the registry."""
    lines = [
        "Figure 2 (executable): PiT0Q <= PiTQ = P (query classes);"
        " PiTP = P (decision problems)",
        "",
        f"{'entry':34s} {'NC':>3s} {'PiT0Q':>6s} {'PiTP/PiTQ':>10s} {'P':>3s} {'NPC':>4s}"
        f"  {'Pi size':17s} evidence",
        "-" * 118,
    ]

    def mark(entry: RegistryEntry, membership: Membership) -> str:
        return "yes" if membership in entry.claims else "."

    for entry in registry.entries():
        made = (
            "yes"
            if (
                Membership.PI_TP in entry.claims or Membership.PI_TQ in entry.claims
            )
            else "."
        )
        evidence_bits = []
        if any(c.is_pi_tractable for c in entry.certificates):
            evidence_bits.append("certified")
        elif entry.certificates:
            evidence_bits.append("certificates failed")
        elif Membership.PI_T0Q in entry.claims:
            evidence_bits.append("uncertified")
        if entry.reduction_to_complete is not None:
            evidence_bits.append(
                f"reduces to {entry.reduction_to_complete.target.name}"
            )
        if Membership.NP_COMPLETE in entry.claims:
            evidence_bits.append("hardness marker")
        # The size of Pi(D) at rest, from the first certificate with a codec.
        size = next(filter(None, (c.describe_size() for c in entry.certificates)), "-")
        lines.append(
            f"{entry.name:34s} {mark(entry, Membership.NC):>3s} "
            f"{mark(entry, Membership.PI_T0Q):>6s} {made:>10s} "
            f"{mark(entry, Membership.P):>3s} "
            f"{mark(entry, Membership.NP_COMPLETE):>4s}  {size:17s} "
            f"{', '.join(evidence_bits) or '-'}"
        )

    violations = registry.check_containments()
    lines.append("-" * 118)
    if violations:
        lines.append("CONTAINMENT VIOLATIONS:")
        lines.extend(f"  - {violation}" for violation in violations)
    else:
        lines.append("All registered claims consistent with Figure 2 containments.")
    return "\n".join(lines)
