"""Finding model shared by all checkers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.accesses import ObjectKey
from repro.analysis.barrier_scan import BarrierSite, ObjectUse
from repro.pairing.model import Pairing


class DeviationKind(enum.Enum):
    """The deviation taxonomy of §5 (+ the §7 annotation extension)."""

    MISPLACED_ACCESS = "misplaced-memory-access"
    WRONG_BARRIER_TYPE = "wrong-barrier-type"
    REPEATED_READ = "repeated-read"
    UNNEEDED_BARRIER = "unneeded-barrier"
    MISSING_ANNOTATION = "missing-annotation"
    #: A payload write placed after its ``smp_store_release`` publish:
    #: the one-sided barrier orders only the writes before it, so a
    #: reader passing the paired ``smp_load_acquire`` check may observe
    #: uninitialized payload.
    PUBLISH_BEFORE_INIT = "publish-before-init"

    @property
    def table3_bucket(self) -> str | None:
        """Bucket name in Table 3 (None for non-bug findings)."""
        return {
            DeviationKind.MISPLACED_ACCESS: "Misplaced memory access",
            DeviationKind.REPEATED_READ:
                "Racy variable re-read after the read barrier",
            DeviationKind.WRONG_BARRIER_TYPE:
                "Read barrier used instead of a write barrier",
        }.get(self)


class FixAction(enum.Enum):
    """What the generated patch does."""

    MOVE_READ = "move-read"
    MOVE_WRITE = "move-write"
    REPLACE_BARRIER = "replace-barrier"
    REUSE_VALUE = "reuse-value"
    REMOVE_BARRIER = "remove-barrier"
    ADD_ANNOTATION = "add-annotation"


@dataclass(slots=True)
class Finding:
    """One detected deviation, carrying enough context to patch it."""

    kind: DeviationKind
    filename: str
    function: str
    line: int
    explanation: str
    fix_action: FixAction
    object_key: ObjectKey | None = None
    barrier: BarrierSite | None = None
    pairing: Pairing | None = None
    #: The offending access (read to move / re-read / access to annotate).
    use: ObjectUse | None = None
    #: The prior correct access a fix may reuse (deviation #3).
    reference_use: ObjectUse | None = None
    #: Extra per-fix data (e.g. replacement primitive name).
    details: dict[str, str] = field(default_factory=dict)
    #: Stable cross-revision identity (see ``repro.store.fingerprint``),
    #: attached by the engine after the check stage.  Excluded from
    #: comparison: two findings are the same deviation regardless of
    #: whether a fingerprint was computed yet.
    fingerprint: str | None = field(default=None, compare=False)

    @property
    def finding_id(self) -> str:
        """``kind@file:function:line``, plus the object key when there is
        one: one line can hold two findings on different objects."""
        base = f"{self.kind.value}@{self.filename}:{self.function}:{self.line}"
        return base if self.object_key is None else f"{base}:{self.object_key}"

    def describe(self) -> str:
        return (
            f"{self.kind.value} in {self.function} "
            f"({self.filename}:{self.line}): {self.explanation}"
        )
