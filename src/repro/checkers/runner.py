"""Runs the registered checkers in the order the deviations compose (§5).

Composition and ordering are registry-driven (see
:mod:`repro.checkers.registry`): ordering-bucket checkers run first with
claims threaded between them (a re-read or publish-before-init object is
patched at its own deviation, so the misplaced checker must not also
move it), unneeded-barrier detection runs on the barriers pairing left
alone, and annotation proposals (§7) run last, only on pairings with no
ordering findings.

Ordering checkers are per-entry: their output on one check-list entry (a
pairing or a broadcast slice) depends on that entry alone.  A
:class:`CheckMemo` kept across runs therefore lets an incremental run
re-check only the entries an edit touched and reuse the rest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

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
    #: Cluster node label the failing shard ran on ("" when local).
    #: Excluded from :meth:`describe` so run signatures stay mode-
    #: independent — the label is context, not part of the outcome.
    node: str = ""

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
        #: findings, claimed) | ("err", message, node)} | None`` — the
        #: engine's executor hook.  A checker absent from the dict (or a
        #: ``None`` return) falls back to the inline path below; "err"
        #: reproduces the serial ``_guarded`` outcome for a checker that
        #: raised, tagged with the node label the shard ran on.
        self._shard_runner = shard_runner
        #: Per-entry ordering outcomes of the previous run; without one
        #: passed in, every run checks every entry.
        self._memo = memo if memo is not None else CheckMemo()
        #: Check-list entries reused from the memo / checked this run.
        self.stats: dict[str, int] = {"reused": 0, "rechecked": 0}

    def enabled(self, name: str) -> bool:
        return name in self._checks

    def run(self, result: PairingResult) -> CheckReport:
        report = CheckReport()

        # Multi pairings where every function holds exactly one barrier
        # are overlapping simple pairs ("broadcast" shape: one protocol,
        # several writers/readers); slice them into writer×reader duos
        # so the single-pair checkers apply.  Figure 5-style pairings
        # (two barriers in one function) stay whole for the seqcount
        # checker.
        check_list = list(result.pairings)
        for pairing in result.pairings:
            check_list.extend(_broadcast_slices(pairing))

        ctx = registry.CheckContext(
            pairings=list(result.pairings),
            check_list=check_list,
            unpaired=result.unpaired + result.implicit_ipc,
            cfg_lookup=self._cfg_lookup,
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
                node = outcome[2] if len(outcome) > 2 else ""
                report.checker_failures.append(
                    CheckerFailure(spec.name, outcome[1], node=node)
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


@dataclass
class _Memoized:
    """One entry's ordering outcomes and the shape they were checked on."""

    #: The entry's barrier sites, and its parent's for a broadcast
    #: slice: compared by identity, since a re-scan replaces every site
    #: of the file it re-scans.
    barriers: tuple
    parent: tuple | None
    common_objects: tuple
    weight: float
    #: checker -> (findings, object keys it claimed on this entry),
    #: for the checkers with any output on it.
    outcome: dict

    def valid_for(self, entry) -> bool:
        return (
            _same_sites(self.barriers, entry.barriers)
            and _same_sites(self.parent, _parent_sites(entry))
            and self.common_objects == tuple(entry.common_objects)
            and self.weight == entry.weight
        )

    def bound_to(self, entry) -> dict:
        """The outcome with every finding re-bound to ``entry``."""
        return {
            name: (
                [
                    finding if finding.pairing is entry
                    else replace(finding, pairing=entry)
                    for finding in findings
                ],
                keys,
            )
            for name, (findings, keys) in self.outcome.items()
        }


class CheckMemo:
    """Per-entry ordering-checker outcomes, kept across runs.

    An entry's outcome stays valid while its barriers are the same
    :class:`BarrierSite` objects, with the same common objects, weight
    and slice/parent shape.  Each :meth:`store` keeps exactly the current
    check list, so entries that left the pairing set are evicted.
    """

    def __init__(self):
        self._checks: frozenset[str] | None = None
        self._entries: dict[tuple, _Memoized] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def lookup(self, check_list: list, checks: frozenset[str]) -> list:
        """Per entry: its re-bound outcome, or None when it must be
        re-checked."""
        if checks != self._checks:
            self._entries.clear()
            self._checks = checks
        out: list = []
        for key, entry in zip(_entry_keys(check_list), check_list):
            memoized = self._entries.get(key)
            if memoized is None or not memoized.valid_for(entry):
                out.append(None)
            else:
                out.append(memoized.bound_to(entry))
        return out

    def store(self, check_list: list, outcomes: list) -> None:
        self._entries = {
            key: _Memoized(
                barriers=tuple(entry.barriers),
                parent=_parent_sites(entry),
                common_objects=tuple(entry.common_objects),
                weight=entry.weight,
                outcome=outcome,
            )
            for key, entry, outcome in zip(
                _entry_keys(check_list), check_list, outcomes
            )
        }


def _parent_sites(entry) -> tuple | None:
    return None if entry.parent is None else tuple(entry.parent.barriers)


def _same_sites(left: tuple | None, right: tuple | None) -> bool:
    if left is None or right is None:
        return left is right
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right)
    )


def _entry_keys(check_list: list):
    """A run-independent key per entry: barrier ids, the parent's for a
    slice, and an occurrence count for repeated shapes."""
    seen: Counter = Counter()
    for entry in check_list:
        parent = _parent_sites(entry)
        shape = (
            tuple(site.barrier_id for site in entry.barriers),
            None if parent is None
            else tuple(site.barrier_id for site in parent),
        )
        yield shape, seen[shape]
        seen[shape] += 1


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


def _broadcast_slices(pairing) -> list:
    """Writer×reader sub-pairings of a broadcast-shaped multi pairing."""
    from collections import Counter

    from repro.pairing.model import Pairing

    if not pairing.is_multi:
        return []
    per_function = Counter(
        (b.filename, b.function) for b in pairing.barriers
    )
    if any(count > 1 for count in per_function.values()):
        return []  # Figure 5 shape: the seqcount checker owns it
    writers = [b for b in pairing.barriers if b.is_write_barrier]
    readers = [b for b in pairing.barriers if b.is_read_barrier]
    slices = []
    for writer in writers:
        for reader in readers:
            if writer.barrier_id == reader.barrier_id:
                continue
            common = sorted(
                writer.keys() & reader.keys()
                & set(pairing.common_objects),
                key=lambda k: (k.struct, k.field),
            )
            if len(common) < 2:
                continue
            slices.append(
                Pairing(
                    barriers=[writer, reader],
                    common_objects=common,
                    weight=pairing.weight,
                    parent=pairing,
                )
            )
    return slices


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
