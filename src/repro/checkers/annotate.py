"""§7 extension — missing READ_ONCE / WRITE_ONCE annotations.

"First, we find barriers that correctly order reads and writes to shared
variables.  Then, we annotate the reads and writes performed to the
shared objects that are accessed concurrently."

Only *correct* pairings are annotated (Patch 5): accesses to the common
objects of a pairing that produced no ordering finding, performed plainly
(no READ_ONCE/WRITE_ONCE, no atomic helper), get an annotation finding.
"""

from __future__ import annotations

from repro.analysis.barrier_scan import BarrierSite, ObjectUse
from repro.checkers.model import DeviationKind, Finding, FixAction
from repro.pairing.model import Pairing


class AnnotationChecker:
    """Proposes READ_ONCE/WRITE_ONCE annotations on correct pairings."""

    def check(
        self, pairings: list[Pairing], buggy_pairings: set[int], memo=None
    ) -> list[Finding]:
        """``buggy_pairings`` holds ``id(pairing)`` for pairings with
        ordering findings — those are fixed first, not annotated.
        ``memo`` (a :class:`repro.checkers.runner.ByObject`) keeps each
        annotated pairing's proposals for the next run."""
        findings: list[Finding] = []
        seen: set[tuple[str, str, int, str]] = set()
        for pairing in pairings:
            if id(pairing) in buggy_pairings:
                continue
            proposals = (
                self._proposals(pairing) if memo is None
                else memo.get(pairing, self._proposals)
            )
            for dedup, finding in proposals:
                if dedup not in seen:
                    seen.add(dedup)
                    findings.append(finding)
        return findings

    def _proposals(self, pairing: Pairing) -> list[tuple[tuple, Finding]]:
        """``(dedupe key, finding)`` per annotatable access of one
        pairing, first occurrence per key."""
        out: list[tuple[tuple, Finding]] = []
        seen: set[tuple[str, str, int, str]] = set()
        common = set(pairing.common_objects)
        for barrier in pairing.barriers:
            for use in barrier.uses:
                if use.key not in common or use.inlined_from is not None:
                    continue
                if use.access.via != "plain":
                    continue
                if use.kind.reads and use.kind.writes:
                    # Compound RMW (x++, x += n) needs an atomic, not
                    # a READ_ONCE/WRITE_ONCE annotation.
                    continue
                dedup = (
                    barrier.filename, barrier.function,
                    use.access.line, str(use.key),
                )
                if dedup in seen:
                    continue
                seen.add(dedup)
                out.append((dedup, self._make_finding(pairing, barrier, use)))
        return out

    def _make_finding(
        self, pairing: Pairing, barrier: BarrierSite, use: ObjectUse
    ) -> Finding:
        macro = "WRITE_ONCE" if use.kind.writes else "READ_ONCE"
        explanation = (
            f"{use.key} is accessed concurrently (ordered by the "
            f"{barrier.primitive} pairing) but without {macro}; the "
            f"compiler may tear, fuse or re-materialize the access. "
            f"Annotate it with {macro}."
        )
        return Finding(
            kind=DeviationKind.MISSING_ANNOTATION,
            filename=barrier.filename,
            function=barrier.function,
            line=use.access.line,
            explanation=explanation,
            fix_action=FixAction.ADD_ANNOTATION,
            object_key=use.key,
            barrier=barrier,
            pairing=pairing,
            use=use,
            details={"macro": macro},
        )
