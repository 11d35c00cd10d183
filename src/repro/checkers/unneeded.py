"""§5.1 — unneeded barriers.

"We consider that a barrier is unneeded when it is immediately followed by
another barrier or by a function that offers barrier semantics."  Typical
instance (Patch 4): ``smp_wmb()`` directly before ``wake_up_process``,
which already implies a full barrier.

Subsumption matters for barrier-before-barrier: a full barrier subsumes
anything; a write barrier only subsumes a preceding write barrier, etc.
"""

from __future__ import annotations

from repro.analysis.barrier_scan import BarrierSite
from repro.checkers.model import DeviationKind, Finding, FixAction
from repro.kernel.barriers import BARRIER_PRIMITIVES, BarrierKind
from repro.kernel.semantics import has_barrier_semantics


class UnneededBarrierChecker:
    """Checks unpaired barriers for redundancy with their successor."""

    def check(self, unpaired: list[BarrierSite], memo=None) -> list[Finding]:
        """``memo`` (a :class:`repro.checkers.runner.ByObject`) keeps
        each site's outcome for the next run."""
        findings: list[Finding] = []
        for site in unpaired:
            finding = (
                self._check_site(site) if memo is None
                else memo.get(site, self._check_site)
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def _check_site(self, site: BarrierSite) -> Finding | None:
        if site.is_seqcount_helper:
            return None  # seqcount helpers embed their barrier by design
        if site.redundant_with is None:
            return None
        successor, distance = site.redundant_with
        if distance != 1:
            return None
        if not self._subsumes(successor, site.kind):
            return None
        explanation = (
            f"{site.primitive} is immediately followed by {successor}, "
            f"which already provides the required barrier semantics; the "
            f"explicit barrier is unneeded and can be removed."
        )
        return Finding(
            kind=DeviationKind.UNNEEDED_BARRIER,
            filename=site.filename,
            function=site.function,
            line=site.line,
            explanation=explanation,
            fix_action=FixAction.REMOVE_BARRIER,
            barrier=site,
            details={"subsumed_by": successor},
        )

    def _subsumes(self, successor: str, kind: BarrierKind) -> bool:
        spec = BARRIER_PRIMITIVES.get(successor)
        if spec is not None:
            if spec.atomic_modifier:
                return False
            if spec.kind is BarrierKind.FULL:
                return True
            return spec.kind is kind
        # Non-primitive helpers with barrier semantics imply full barriers.
        return has_barrier_semantics(successor)
