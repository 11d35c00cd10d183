"""Cross-revision diff classification.

Given the findings of two recorded runs (keyed by fingerprint) plus
the store's memory of everything sighted *before* the older run, every
fingerprint falls into exactly one class:

* ``persistent`` — in both runs;
* ``resolved``   — in the older run only;
* ``new``        — in the newer run only, never sighted before;
* ``reappeared`` — in the newer run only, but known from history
  (it was sighted in some run recorded before the older run — a fix
  that regressed, or a finding that flickers with configuration).

The classification is a pure function of its inputs and the rendering
is canonically sorted, so two stores that recorded the same two runs —
no matter through which tier (CLI or serve daemon) —
produce bit-for-bit identical diff output.

Counting invariants (the property suite holds these for arbitrary
runs)::

    new + reappeared + persistent == |run B|
    resolved + persistent         == |run A|
    diff(A, B).resolved == diff(B, A).new + diff(B, A).reappeared
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

#: Diff classes in display order.
CLASSES: tuple[str, ...] = ("new", "reappeared", "persistent", "resolved")


@dataclass(frozen=True)
class DiffEntry:
    """One classified fingerprint with its display metadata."""

    fingerprint: str
    kind: str
    file: str
    function: str
    line: int
    explanation: str
    state: str = "open"

    def describe(self) -> str:
        return (f"{self.fingerprint} {self.kind} in {self.function} "
                f"({self.file}:{self.line})")


@dataclass
class RunDiff:
    """The classified delta between two recorded runs."""

    run_a: int
    run_b: int
    new: list[DiffEntry] = field(default_factory=list)
    reappeared: list[DiffEntry] = field(default_factory=list)
    persistent: list[DiffEntry] = field(default_factory=list)
    resolved: list[DiffEntry] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        return {name: len(getattr(self, name)) for name in CLASSES}

    def entries(self, cls: str) -> list[DiffEntry]:
        return getattr(self, cls)

    def to_dict(self) -> dict:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "counts": self.counts,
            **{
                name: [vars(entry) for entry in self.entries(name)]
                for name in CLASSES
            },
        }

    def to_json(self) -> str:
        """Canonical JSON: deterministic bytes for identical inputs."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        counts = self.counts
        lines = [
            f"diff run {self.run_a} -> run {self.run_b}: "
            + ", ".join(f"{counts[name]} {name}" for name in CLASSES)
        ]
        for name in CLASSES:
            for entry in self.entries(name):
                lines.append(f"  {name:<10} {entry.describe()}")
        return "\n".join(lines)


def _sorted_entries(rows: Iterable[dict]) -> list[DiffEntry]:
    entries = [
        DiffEntry(
            fingerprint=row["fingerprint"],
            kind=row["kind"],
            file=row["file"],
            function=row["function"],
            line=row["line"],
            explanation=row["explanation"],
            state=row.get("state", "open"),
        )
        for row in rows
    ]
    entries.sort(key=lambda e: (e.fingerprint, e.file, e.function, e.line))
    return entries


def classify(
    run_a: int,
    run_b: int,
    rows_a: dict[str, dict],
    rows_b: dict[str, dict],
    seen_before_a: frozenset[str] | set[str] = frozenset(),
) -> RunDiff:
    """Classify two runs' fingerprint->row maps into a :class:`RunDiff`.

    ``seen_before_a`` is the set of fingerprints sighted in any run
    recorded before run A — the bookkeeping that separates ``new`` from
    ``reappeared``.
    """
    both = set(rows_a) & set(rows_b)
    only_b = set(rows_b) - both
    only_a = set(rows_a) - both
    reappeared = {fp for fp in only_b if fp in seen_before_a}
    return RunDiff(
        run_a=run_a,
        run_b=run_b,
        new=_sorted_entries(rows_b[fp] for fp in only_b - reappeared),
        reappeared=_sorted_entries(rows_b[fp] for fp in reappeared),
        persistent=_sorted_entries(rows_b[fp] for fp in both),
        resolved=_sorted_entries(rows_a[fp] for fp in only_a),
    )
