"""Turns findings into explanatory patches.

Each patch documents the pairing (which shared objects matched the
barriers), the deviation, and why the original code was erroneous, then
carries a unified diff implementing the fix:

* ``MOVE_READ`` — the misplaced read statement is moved to the correct
  side of the barrier (Patch 1 style);
* ``MOVE_WRITE`` — a payload write placed after its publishing
  ``smp_store_release`` is hoisted before it (same statement mover);
* ``REPLACE_BARRIER`` — the primitive is renamed (deviation #2);
* ``REUSE_VALUE`` — the re-read expression is replaced by the variable
  holding the initially read value (Patches 2 and 3);
* ``REMOVE_BARRIER`` — the redundant barrier line is deleted (Patch 4);
* ``ADD_ANNOTATION`` — the access is wrapped in READ_ONCE/WRITE_ONCE
  (Patch 5).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

from repro.cfg.model import FunctionCFG, LinearStmt
from repro.checkers.model import Finding, FixAction
from repro.cparse import astnodes as ast
from repro.patching.diff import SourceEditor, indentation_of, unified_diff
from repro.patching.render import render_expr


@dataclass
class Patch:
    """One generated patch (header + unified diff)."""

    finding: Finding
    filename: str
    header: str
    diff: str
    new_source: str | None
    #: False when the fix needs manual intervention (§5.4: "may require
    #: manual intervention to fix styling issues").
    applied: bool = True

    def render(self) -> str:
        return f"{self.header}\n{self.diff}" if self.diff else self.header


class PatchGenerator:
    """Generates patches against pristine per-file sources.

    With ``memo`` (provided by a long-lived engine), generation results
    are reused per file: ``memo`` maps a filename to its bucket, which
    holds the file's findings of the last run (``"findings"``) and
    their outcomes (``"outcomes"``).  The caller keeps each bucket
    valid for the file's current scan key (the engine holds it on the
    file's ``FileAnalysis`` entry, which a re-scan replaces); files
    absent from ``memo`` are not memoized.  A finding object is never
    changed after its run, and its patch reads only the finding, the
    pairing and sites it holds and the file, so a file whose findings
    are the same objects in the same order reuses all its outcomes
    (counted per finding).  Only files whose findings an edit changed
    pay for diffs.
    """

    def __init__(self, file_sources: dict[str, str], cfg_lookup=None,
                 memo: dict[str, dict] | None = None):
        self._sources = file_sources
        #: (filename, ``splitlines()`` of its source) for the file last
        #: patched, shared read-only by its editors.  Findings arrive
        #: grouped by file, so one entry splits nearly every file once.
        self._lines: tuple[str | None, list[str]] = (None, [])
        self._cfg_lookup = cfg_lookup
        self._memo = memo if memo is not None else {}
        #: (finding_id, error) pairs for findings whose patch generation
        #: raised — surfaced instead of aborting the run (never-raise).
        self.failures: list[tuple[str, str]] = []
        self.memo_hits = 0
        self.memo_misses = 0

    def generate_all(self, findings: list[Finding]) -> list[Patch]:
        by_file: dict[str, list[Finding]] = {}
        for finding in findings:
            by_file.setdefault(finding.filename, []).append(finding)
        outcomes = {
            filename: iter(self._file_outcomes(filename, group))
            for filename, group in by_file.items()
        }
        for filename, bucket in self._memo.items():
            if bucket and filename not in by_file:
                bucket.clear()
        patches = []
        for finding in findings:
            kind, payload = next(outcomes[finding.filename])
            if kind == "patch":
                patches.append(payload)
            elif kind == "error":
                self.failures.append((finding.finding_id, payload))
        return patches

    def _file_outcomes(self, filename: str, group: list[Finding]) -> list:
        """The outcome of each of one file's findings, in order."""
        bucket = self._memo.get(filename)
        if bucket is None:
            return [self._outcome(finding) for finding in group]
        last = bucket.get("findings", ())
        if len(last) == len(group) and all(
            a is b for a, b in zip(last, group)
        ):
            self.memo_hits += len(group)
            return bucket["outcomes"]
        self.memo_misses += len(group)
        outcomes = [self._outcome(finding) for finding in group]
        bucket["findings"], bucket["outcomes"] = group, outcomes
        return outcomes

    def _outcome(self, finding: Finding) -> tuple[str, object]:
        """Generate ``finding``'s patch as a memoizable outcome."""
        try:
            patch = self.generate(finding)
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}")
        if patch is None:
            return ("none", None)
        return ("patch", patch)

    def generate(self, finding: Finding) -> Patch | None:
        source = self._sources.get(finding.filename)
        if source is None:
            return None
        filename, lines = self._lines
        if filename != finding.filename:
            lines = source.splitlines()
            self._lines = (finding.filename, lines)
        editor = SourceEditor(source, lines)
        handler = {
            FixAction.MOVE_READ: self._fix_move_read,
            FixAction.MOVE_WRITE: self._fix_move_read,
            FixAction.REPLACE_BARRIER: self._fix_replace_barrier,
            FixAction.REUSE_VALUE: self._fix_reuse_value,
            FixAction.REMOVE_BARRIER: self._fix_remove_barrier,
            FixAction.ADD_ANNOTATION: self._fix_add_annotation,
        }[finding.fix_action]
        applied = handler(finding, editor)
        header = self._header(finding, applied)
        if not applied or not editor.dirty:
            return Patch(finding, finding.filename, header, "", None,
                         applied=False)
        new_source = editor.result()
        diff = unified_diff(source, new_source, finding.filename)
        return Patch(finding, finding.filename, header, diff, new_source)

    # -- header ---------------------------------------------------------------

    def _header(self, finding: Finding, applied: bool) -> str:
        lines = [
            "# OFence-generated patch",
            f"# Deviation: {finding.kind.value}",
            f"# Location:  {finding.filename}:{finding.line} "
            f"({finding.function})",
        ]
        if finding.pairing is not None:
            members = ", ".join(
                f"{b.function}:{b.primitive}@{b.line}"
                for b in finding.pairing.barriers
            )
            objects = ", ".join(
                str(key) for key in finding.pairing.common_objects
            )
            lines.append(f"# Pairing:   [{members}]")
            lines.append(f"# Shared objects: {objects}")
        lines.append(f"# Why: {finding.explanation}")
        if not applied:
            lines.append("# NOTE: automatic fix not applicable; manual "
                         "intervention required.")
        return "\n".join(lines)

    # -- fix handlers --------------------------------------------------------------

    def _fix_move_read(self, finding: Finding, editor: SourceEditor) -> bool:
        if finding.use is None or finding.barrier is None:
            return False
        stmt = self._linear_stmt(finding)
        if stmt is None:
            return False
        start, end = _statement_span(stmt)
        if start <= finding.barrier.line <= end:
            return False  # the read shares lines with the barrier: manual
        moved = [editor.line(n) for n in range(start, end + 1)]
        barrier_indent = indentation_of(editor.line(finding.barrier.line))
        stmt_indent = indentation_of(moved[0])
        reindented = [
            barrier_indent + line[len(stmt_indent):]
            if line.startswith(stmt_indent) else line
            for line in moved
        ]
        for number in range(start, end + 1):
            editor.delete_line(number)
        move_to = finding.details.get("move_to", "before")
        if move_to == "inside":
            move_to = "before" if finding.use.side == "after" else "after"
        if move_to == "before":
            for line in reindented:
                editor.insert_before(finding.barrier.line, line)
        else:
            for line in reindented:
                editor.insert_after(finding.barrier.line, line)
        return True

    def _fix_replace_barrier(
        self, finding: Finding, editor: SourceEditor
    ) -> bool:
        if finding.barrier is None:
            return False
        replacement = finding.details.get("replacement")
        if not replacement:
            return False
        return editor.substitute_word(
            finding.barrier.line, finding.barrier.primitive, replacement
        )

    def _fix_reuse_value(self, finding: Finding, editor: SourceEditor) -> bool:
        if finding.use is None:
            return False
        captured = finding.details.get("captured", "")
        if not captured:
            return False
        access_text = render_expr(finding.use.access.expr)
        return editor.substitute(
            finding.use.access.line, access_text, captured
        )

    def _fix_remove_barrier(
        self, finding: Finding, editor: SourceEditor
    ) -> bool:
        if finding.barrier is None:
            return False
        line = editor.line(finding.barrier.line)
        stripped = line.strip()
        if stripped.startswith(finding.barrier.primitive) and \
                stripped.endswith(";"):
            editor.delete_line(finding.barrier.line)
            return True
        return editor.substitute(
            finding.barrier.line, f"{finding.barrier.primitive}();", ""
        )

    def _fix_add_annotation(
        self, finding: Finding, editor: SourceEditor
    ) -> bool:
        if finding.use is None:
            return False
        access = finding.use.access
        text = render_expr(access.expr)
        line_no = access.line
        if access.kind.writes:
            line = editor.line(line_no)
            pattern = rf"{re.escape(text)}\s*=\s*(.+);"
            match = re.search(pattern, line)
            if match is None:
                return False
            replacement = f"WRITE_ONCE({text}, {match.group(1)});"
            editor.replace_line(
                line_no, line[: match.start()] + replacement
                + line[match.end():],
            )
            return True
        return editor.substitute(line_no, text, f"READ_ONCE({text})")

    # -- helpers ------------------------------------------------------------------

    def _linear_stmt(self, finding: Finding) -> LinearStmt | None:
        if self._cfg_lookup is None or finding.use is None:
            return None
        cfg: FunctionCFG | None = self._cfg_lookup(
            finding.filename, finding.barrier.function
            if finding.barrier is not None else finding.function
        )
        if cfg is None or finding.use.stmt_id >= len(cfg.linear):
            return None
        return cfg.linear[finding.use.stmt_id]


def _statement_span(stmt: LinearStmt) -> tuple[int, int]:
    """Source-line span safe to move as a unit.

    A guard (`if (...) return;`) moves with its body; other condition
    pseudo-statements move only their own line.
    """
    node = stmt.node
    if stmt.kind == "cond" and isinstance(node, ast.If):
        if node.orelse is None and _is_simple(node.then):
            return node.line, _max_line(node.then)
        return node.line, node.line
    if stmt.kind == "cond":
        return node.line, node.line
    return node.line, max(node.line, _max_line_expr(stmt))


def _is_simple(stmt: ast.Stmt | None) -> bool:
    if stmt is None:
        return False
    if isinstance(stmt, (ast.Return, ast.Goto, ast.ExprStmt, ast.Break,
                         ast.Continue)):
        return True
    if isinstance(stmt, ast.Block) and len(stmt.stmts) == 1:
        return _is_simple(stmt.stmts[0])
    return False


def _max_line(node) -> int:
    """Largest line number in a node subtree."""
    best = getattr(node, "line", 0)
    if dataclasses.is_dataclass(node):
        for field_info in dataclasses.fields(node):
            value = getattr(node, field_info.name)
            if isinstance(value, list):
                for item in value:
                    if dataclasses.is_dataclass(item):
                        best = max(best, _max_line(item))
            elif dataclasses.is_dataclass(value):
                best = max(best, _max_line(value))
    return best


def _max_line_expr(stmt: LinearStmt) -> int:
    if stmt.expr is not None:
        return _max_line(stmt.expr)
    return stmt.node.line
