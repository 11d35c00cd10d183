"""Runs the registered checkers in the order the deviations compose (§5).

Composition and ordering are registry-driven (see
:mod:`repro.checkers.registry`): ordering-bucket checkers run first with
claims threaded between them (a re-read or publish-before-init object is
patched at its own deviation, so the misplaced checker must not also
move it), unneeded-barrier detection runs on the barriers pairing left
alone, and annotation proposals (§7) run last, only on pairings with no
ordering findings.

Ordering checkers are per-entry: their output on one check-list entry (a
pairing or a broadcast slice) depends on that entry alone.  The unneeded
checker looks at one barrier at a time, and the annotation checker at
one correct pairing at a time before its cross-pairing dedupe.  The
pairing stage returns the same :class:`Pairing` object for an unchanged
pairing, so a :class:`CheckMemo` kept across runs holds each of these
outcomes by object and lets an incremental run re-check only what an
edit touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checkers import registry
from repro.checkers.annotate import AnnotationChecker
from repro.checkers.misplaced import MisplacedAccessChecker
from repro.checkers.model import Finding
from repro.checkers.reread import RepeatedReadChecker
from repro.checkers.seqcount import SeqcountChecker
from repro.checkers.unneeded import UnneededBarrierChecker
from repro.checkers.wrong_type import WrongBarrierTypeChecker
from repro.pairing.model import PairingResult

__all__ = [
    "ALL_CHECKS", "CheckerFailure", "CheckerSuite", "CheckMemo",
    "CheckReport", "AnnotationChecker", "MisplacedAccessChecker",
    "RepeatedReadChecker", "SeqcountChecker", "UnneededBarrierChecker",
    "WrongBarrierTypeChecker",
]


@dataclass
class CheckerFailure:
    """One checker that raised; surfaced instead of crashing the run."""

    checker: str
    error: str

    def describe(self) -> str:
        return f"checker {self.checker} failed: {self.error}"


@dataclass
class CheckReport:
    """All findings of one analysis run, bucketed."""

    ordering_findings: list[Finding] = field(default_factory=list)
    unneeded_findings: list[Finding] = field(default_factory=list)
    annotation_findings: list[Finding] = field(default_factory=list)
    #: Checkers that raised on this input (never-raise guarantee: a
    #: crashing checker degrades to a structured entry, not an abort).
    checker_failures: list[CheckerFailure] = field(default_factory=list)

    @property
    def all_findings(self) -> list[Finding]:
        return (
            self.ordering_findings
            + self.unneeded_findings
            + self.annotation_findings
        )

    def table3_breakdown(self) -> dict[str, int]:
        """Counts per Table 3 bucket (derived from the registry)."""
        buckets: dict[str, int] = {
            name: 0 for name in registry.table3_buckets()
        }
        for finding in self.ordering_findings:
            bucket = finding.kind.table3_bucket
            if bucket is not None:
                buckets[bucket] += 1
        return buckets


#: Names accepted by ``CheckerSuite(checks=...)`` — every registered
#: checker.
ALL_CHECKS = registry.all_names()

#: Bucket of :class:`CheckReport` each registry bucket fills.
_BUCKET_FIELDS = {
    registry.ORDERING: "ordering_findings",
    registry.UNNEEDED: "unneeded_findings",
    registry.ANNOTATION: "annotation_findings",
}


class CheckerSuite:
    """Composes the registered checkers over a pairing result.

    ``checks`` selects the enabled checkers by name (see
    :data:`ALL_CHECKS`); unknown names raise ``ValueError``.  The
    ``annotate`` flag is kept for backwards compatibility and maps to
    the "annotate" check.
    """

    def __init__(self, cfg_lookup=None, annotate: bool = True,
                 checks: set[str] | frozenset[str] | None = None,
                 shard_runner=None, memo: "CheckMemo | None" = None):
        self._cfg_lookup = cfg_lookup
        if checks is None:
            checks = set(registry.all_names())
            if not annotate:
                checks.discard("annotate")
        self._checks = registry.validate_checks(checks)
        #: ``shard_runner(check_list, wanted) -> {checker: ("ok",
        #: findings, claimed) | ("err", message)} | None`` — the
        #: engine's executor hook.  A checker absent from the dict (or a
        #: ``None`` return) falls back to the inline path below; "err"
        #: reproduces the serial ``_guarded`` outcome for a checker that
        #: raised.
        self._shard_runner = shard_runner
        #: Checker outcomes of the previous run; without one passed in,
        #: every run checks everything.
        self._memo = memo if memo is not None else CheckMemo()
        #: This run's memo counts: check-list entries, unneeded sites
        #: and annotated pairings reused or checked.
        self.stats: dict[str, int] = {"reused": 0, "rechecked": 0}

    def enabled(self, name: str) -> bool:
        return name in self._checks

    def run(self, result: PairingResult) -> CheckReport:
        report = CheckReport()

        # Broadcast-shaped multi pairings are also checked as their
        # writer×reader slices, so the single-pair checkers apply.
        check_list = list(result.pairings)
        for pairing in result.pairings:
            check_list.extend(pairing.slices)

        ctx = registry.CheckContext(
            pairings=list(result.pairings),
            check_list=check_list,
            unpaired=result.unpaired + result.implicit_ipc,
            cfg_lookup=self._cfg_lookup,
            memo=self._memo,
        )
        for findings, claimed in self._ordering(check_list, report):
            report.ordering_findings.extend(findings)
            ctx.claimed |= claimed

        report.ordering_findings = _dedupe_findings(
            report.ordering_findings
        )

        for spec in registry.bucket_specs(registry.UNNEEDED):
            if not self.enabled(spec.name):
                continue
            ran = self._guarded(
                report, spec.name, lambda spec=spec: spec.run(ctx)
            )
            if ran is not None:
                report.unneeded_findings.extend(ran[0])

        for finding in report.ordering_findings:
            if finding.pairing is None:
                continue
            ctx.buggy_pairings.add(id(finding.pairing))
            if finding.pairing.parent is not None:
                ctx.buggy_pairings.add(id(finding.pairing.parent))
        for spec in registry.bucket_specs(registry.ANNOTATION):
            if not self.enabled(spec.name):
                continue
            ran = self._guarded(
                report, spec.name, lambda spec=spec: spec.run(ctx)
            )
            if ran is not None:
                report.annotation_findings.extend(ran[0])

        report.ordering_findings.sort(
            key=lambda f: (f.filename, f.function, f.line)
        )
        self.stats.update(self._memo.rotate())
        return report

    def _ordering_specs(self) -> list:
        return [
            spec for spec in registry.bucket_specs(registry.ORDERING)
            if self.enabled(spec.name)
        ]

    def _ordering(self, check_list: list, report: CheckReport) -> list:
        """``(findings, claimed)`` of each enabled ordering checker that
        ran, in run order, over the whole check list.

        With a memo, only entries without a valid memoized outcome are
        checked.  Each checker's findings are then concatenated per
        entry in check-list order, which is its output over the whole
        list, because every memoized checker is per-entry.
        """
        memo = self._memo
        outcomes = memo.lookup(check_list, self._checks)
        dirty = [idx for idx, out in enumerate(outcomes) if out is None]
        self.stats = {
            "reused": len(check_list) - len(dirty), "rechecked": len(dirty),
        }
        if dirty:
            entries = [check_list[idx] for idx in dirty]
            everything = len(entries) == len(check_list)
            run_report = report if everything else CheckReport()
            fresh = self._check_entries(entries, run_report)
            split = None
            if not run_report.checker_failures:
                split = _split_by_entry(fresh, entries)
            if split is None:
                # A checker raised (so its claims never reached later
                # checkers) or emitted output not owned by one entry:
                # check the whole list, as a fresh engine would.
                memo.clear()
                if not everything:
                    self.stats = {"reused": 0, "rechecked": len(check_list)}
                    fresh = self._check_entries(check_list, report)
                return list(fresh.values())
            for idx, out in zip(dirty, split):
                outcomes[idx] = out
        memo.store(check_list, outcomes)

        merged = []
        for spec in self._ordering_specs():
            findings: list[Finding] = []
            claimed: set = set()
            for entry, out in zip(check_list, outcomes):
                entry_findings, keys = out.get(spec.name, _NOTHING)
                findings.extend(entry_findings)
                claimed.update((id(entry), key) for key in keys)
            merged.append((findings, claimed))
        return merged

    def _check_entries(self, entries: list, report: CheckReport) -> dict:
        """``{checker: (findings, claimed)}`` of the enabled ordering
        checkers over ``entries``, through the shard runner when it
        takes them.  A checker that raised is recorded in ``report``
        and left out."""
        shard: dict = {}
        if self._shard_runner is not None:
            wanted = tuple(
                spec.name for spec in registry.shardable_specs()
                if self.enabled(spec.name)
            )
            if wanted:
                shard = self._shard_runner(entries, wanted) or {}

        ctx = registry.CheckContext(
            pairings=[entry for entry in entries if entry.parent is None],
            check_list=entries,
            cfg_lookup=self._cfg_lookup,
        )
        outcomes: dict = {}
        for spec in self._ordering_specs():
            outcome = shard.get(spec.name)
            if outcome is not None and outcome[0] == "ok":
                findings, claimed = outcome[1], outcome[2]
            elif outcome is not None:
                report.checker_failures.append(
                    CheckerFailure(spec.name, outcome[1])
                )
                continue
            else:
                ran = self._guarded(
                    report, spec.name, lambda spec=spec: spec.run(ctx)
                )
                if ran is None:
                    continue
                findings, claimed = ran
            outcomes[spec.name] = (findings, claimed)
            ctx.claimed |= claimed
        return outcomes

    @staticmethod
    def _guarded(report: CheckReport, name: str, run):
        """Run one checker; a raise becomes a :class:`CheckerFailure`."""
        try:
            return run()
        except Exception as exc:
            report.checker_failures.append(
                CheckerFailure(name, f"{type(exc).__name__}: {exc}")
            )
            return None


#: The outcome of a checker with no findings or claims on an entry.
_NOTHING: tuple = ((), frozenset())


class ByObject:
    """Values computed from one object, valid while it is that object.

    :meth:`get` returns the last run's value for the same object or
    computes it.  :meth:`rotate` ends a run: it keeps exactly the
    objects asked for in that run and returns the run's (hits, misses).
    """

    def __init__(self):
        self._last: dict[int, tuple] = {}
        self._now: dict[int, tuple] = {}
        self._hits = 0

    def get(self, obj, compute):
        held = self._last.get(id(obj))
        if held is not None and held[0] is obj:
            self._hits += 1
        else:
            held = (obj, compute(obj))
        self._now[id(obj)] = held
        return held[1]

    def rotate(self) -> tuple[int, int]:
        counts = (self._hits, len(self._now) - self._hits)
        self._last, self._now, self._hits = self._now, {}, 0
        return counts

    def clear(self) -> None:
        self._last, self._now, self._hits = {}, {}, 0


class CheckMemo:
    """Checker outcomes kept across runs, by object.

    * Ordering: per check-list entry, every ordering checker's findings
      and claims.  Valid while the entry is the same :class:`Pairing`
      object: the pairing stage reuses a pairing only when its barrier
      sites, common objects and weight are unchanged, and a pairing's
      slices are built once per pairing.  Each :meth:`store` keeps
      exactly the current check list.
    * ``unneeded``: per unpaired barrier site, its finding or None.
    * ``annotations``: per pairing that had no ordering finding this
      run, its annotation findings with their dedupe keys.  A buggy
      pairing is skipped before the lookup, so it is never reused.
    """

    def __init__(self):
        self._checks: frozenset[str] | None = None
        self._entries: dict[int, tuple] = {}
        self.unneeded = ByObject()
        self.annotations = ByObject()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.unneeded.clear()
        self.annotations.clear()

    def lookup(self, check_list: list, checks: frozenset[str]) -> list:
        """Per entry: its ordering outcome, or None when it must be
        re-checked."""
        if checks != self._checks:
            self.clear()
            self._checks = checks
        out: list = []
        for entry in check_list:
            held = self._entries.get(id(entry))
            out.append(held[1] if held is not None and held[0] is entry
                       else None)
        return out

    def store(self, check_list: list, outcomes: list) -> None:
        self._entries = {
            id(entry): (entry, outcome)
            for entry, outcome in zip(check_list, outcomes)
        }

    def rotate(self) -> dict[str, int]:
        """End a run; the hit/miss counts of the per-object memos."""
        stats: dict[str, int] = {}
        for name, part in (("unneeded", self.unneeded),
                           ("annotations", self.annotations)):
            stats[f"{name}_reused"], stats[f"{name}_rechecked"] = \
                part.rotate()
        return stats


def _split_by_entry(outcomes: dict, entries: list) -> list | None:
    """``outcomes`` over ``entries`` as one outcome per entry, or None
    when a finding or claim is not owned by an entry, or a checker's
    findings are not grouped in entry order."""
    position = {id(entry): idx for idx, entry in enumerate(entries)}
    split: list[dict] = [{} for _ in entries]
    for name, (findings, claimed) in outcomes.items():
        last = 0
        for finding in findings:
            idx = position.get(id(finding.pairing))
            if idx is None or idx < last:
                return None
            last = idx
            split[idx].setdefault(name, ([], set()))[0].append(finding)
        for pairing_id, key in claimed:
            idx = position.get(pairing_id)
            if idx is None:
                return None
            split[idx].setdefault(name, ([], set()))[1].add(key)
    return split


def _dedupe_findings(findings: list[Finding]) -> list[Finding]:
    """Drop duplicate findings produced by overlapping slices."""
    seen: set[tuple] = set()
    out: list[Finding] = []
    for finding in findings:
        key = (
            finding.kind, finding.filename, finding.function,
            finding.line,
            str(finding.object_key) if finding.object_key else "",
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(finding)
    return out
