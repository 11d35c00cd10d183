"""Stable finding fingerprints.

A fingerprint is the persistent identity of one finding across
revisions of the tree: a content hash over

* the checker id (:class:`~repro.checkers.model.DeviationKind`),
* the normalized file path,
* the enclosing function name,
* the barrier / access shape (primitive, barrier kind, fix action,
  object key, access annotation), and
* a **line-number-insensitive context window** — the code lines around
  the finding, comment-stripped, whitespace-collapsed, and
  alpha-renamed so that only *structural* tokens survive.

The context normalization is what keeps a fingerprint stable when the
file is touched elsewhere: shifting the function by N lines of
unrelated edits changes nothing the hash sees, and renaming unrelated
identifiers is erased by the alpha-renaming (every identifier that is
not a known kernel primitive or C keyword becomes a positional
placeholder ``$k``).  The finding's *own* shape still matters — its
barrier primitive, object key, and function name are hashed raw, so
changing the barrier kind or the accessed field produces a different
fingerprint.

The window never escapes the enclosing function: the upward walk stops
at a top-level closing brace or preprocessor line, so reordering
independent top-level definitions (a metamorphic transform the fuzz
oracle applies) cannot leak neighbouring chunks into the context.
"""

from __future__ import annotations

import hashlib
import posixpath
import re
from typing import TYPE_CHECKING, Iterable

from repro.analysis.barrier_scan import HELPER_BARRIERS
from repro.kernel.atomics import ATOMIC_ORDERING
from repro.kernel.barriers import BARRIER_PRIMITIVES
from repro.kernel.semantics import FUNCTION_SEMANTICS
from repro.kernel.wakeups import WAKEUP_FUNCTIONS

if TYPE_CHECKING:
    from repro.checkers.model import Finding

#: Fingerprint recipe version; bump when the hashed material changes so
#: stores recorded under different recipes are never silently mixed.
FINGERPRINT_VERSION = "fp1"

#: Code lines hashed on each side of the finding line.
CONTEXT_RADIUS = 2

_C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum
    extern float for goto if inline int long register restrict return
    short signed sizeof static struct switch typedef union unsigned
    void volatile while bool true false NULL""".split()
)

#: Identifiers that survive alpha-renaming: the kernel vocabulary the
#: analysis itself keys on.  Everything else is case-local naming and
#: must not affect a finding's identity.
ANCHOR_TOKENS: frozenset[str] = frozenset(
    set(_C_KEYWORDS)
    | set(BARRIER_PRIMITIVES)
    | set(HELPER_BARRIERS)
    | set(ATOMIC_ORDERING)
    | set(FUNCTION_SEMANTICS)
    | set(WAKEUP_FUNCTIONS)
    | {"READ_ONCE", "WRITE_ONCE"}
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.S)
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")


def normalize_path(path: str) -> str:
    """Separator- and prefix-normalized posix path."""
    normalized = posixpath.normpath(path.replace("\\", "/"))
    return normalized.lstrip("./") or path


def _strip_comments(text: str) -> str:
    """Remove comments, preserving line structure (newlines kept)."""
    def blank_keep_newlines(match: re.Match) -> str:
        return "\n" * match.group(0).count("\n")

    text = _BLOCK_COMMENT_RE.sub(blank_keep_newlines, text)
    return _LINE_COMMENT_RE.sub("", text)


def _alpha_rename(lines: Iterable[str]) -> list[str]:
    """Replace non-anchor identifiers with positional placeholders.

    Placeholders are assigned by first occurrence across the whole
    window, so a consistent rename of any identifier — related or not —
    maps to the same normalized text.
    """
    mapping: dict[str, str] = {}

    def sub(match: re.Match) -> str:
        name = match.group(0)
        if name in ANCHOR_TOKENS:
            return name
        if name not in mapping:
            mapping[name] = f"${len(mapping)}"
        return mapping[name]

    return [_IDENT_RE.sub(sub, line) for line in lines]


def _is_boundary(stripped: str) -> bool:
    """A top-level line the context walk must not cross."""
    return stripped in ("}", "};") or stripped.startswith("#")


def _opens_scope(stripped: str) -> bool:
    """A line that opens a brace scope (function signature or ``{``).

    The upward walk stops after including one: the enclosing function's
    opening line is related context worth hashing, but anything above
    it belongs to a sibling definition whose position may legitimately
    change (the reorder metamorphic transform shuffles them).
    """
    return stripped == "{" or (stripped.endswith("{") and "(" in stripped)


def code_lines(text: str) -> list[str]:
    """``text`` comment-stripped and split into lines: what
    :func:`window_at` walks.  Compute it once per file."""
    return _strip_comments(text).split("\n")


def context_window(
    text: str, line: int, radius: int = CONTEXT_RADIUS
) -> list[str]:
    """The normalized code lines around 1-based ``line``.

    Blank and comment-only lines are skipped (they carry no structure),
    whitespace is collapsed, and the walk never crosses a top-level
    boundary — so the window is invariant under comment injection,
    blank-line noise, reordering of sibling definitions, and any edit
    outside the enclosing function.
    """
    return window_at(code_lines(text), line, radius)


def window_at(
    raw: list[str], line: int, radius: int = CONTEXT_RADIUS
) -> list[str]:
    """:func:`context_window` over the file's :func:`code_lines`."""
    index = min(max(line - 1, 0), max(len(raw) - 1, 0))

    def collapse(value: str) -> str:
        return " ".join(value.split())

    center = collapse(raw[index]) if raw else ""
    before: list[str] = []
    cursor = index - 1
    while cursor >= 0 and len(before) < radius:
        stripped = collapse(raw[cursor])
        cursor -= 1
        if not stripped:
            continue
        if _is_boundary(stripped):
            break
        before.append(stripped)
        if _opens_scope(stripped):
            break
    after: list[str] = []
    cursor = index + 1
    while cursor < len(raw) and len(after) < radius:
        stripped = collapse(raw[cursor])
        cursor += 1
        if not stripped:
            continue
        after.append(stripped)
        if _is_boundary(stripped):
            break
    window = list(reversed(before)) + [center] + after
    return _alpha_rename(window)


def compute_fingerprint(finding: "Finding", file_text: str | None) -> str:
    """The stable identity hash of one finding.

    ``file_text`` is the finding's file content (used for the context
    window); ``None`` degrades to a context-free hash — still stable,
    just less collision-resistant against two identical shapes in one
    function.
    """
    return _fingerprint(
        finding, code_lines(file_text) if file_text is not None else None
    )


def _fingerprint(finding: "Finding", lines: list[str] | None) -> str:
    """:func:`compute_fingerprint` over the file's :func:`code_lines`."""
    barrier = finding.barrier
    use = finding.use
    material = "\x1f".join((
        FINGERPRINT_VERSION,
        finding.kind.value,
        normalize_path(finding.filename),
        finding.function,
        barrier.primitive if barrier is not None else "",
        barrier.kind.value if barrier is not None else "",
        finding.fix_action.value,
        str(finding.object_key) if finding.object_key is not None else "",
        use.access.via if use is not None else "",
        use.kind.name if use is not None else "",
        "\x1e".join(
            window_at(lines, finding.line)
            if lines is not None else ()
        ),
    ))
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def attach_fingerprints(
    findings: Iterable["Finding"], files: dict[str, str]
) -> None:
    """Compute and set ``finding.fingerprint`` for every finding.

    Each file is comment-stripped and split once, however many findings
    it holds.
    """
    by_file: dict[str, list["Finding"]] = {}
    for finding in findings:
        by_file.setdefault(finding.filename, []).append(finding)
    for filename, group in by_file.items():
        text = files.get(filename)
        lines = code_lines(text) if text is not None else None
        for finding in group:
            finding.fingerprint = _fingerprint(finding, lines)


def finding_record(finding: "Finding") -> dict:
    """The wire/store row for one finding (JSON-serializable)."""
    return {
        "fingerprint": finding.fingerprint,
        "kind": finding.kind.value,
        "file": normalize_path(finding.filename),
        "function": finding.function,
        "line": finding.line,
        "object": str(finding.object_key)
        if finding.object_key is not None else None,
        "fix": finding.fix_action.value,
        "primitive": finding.barrier.primitive
        if finding.barrier is not None else None,
        "explanation": finding.explanation,
    }


def finding_records(result) -> list[dict]:
    """Store rows for every finding of one analysis run, stably sorted."""
    records = [finding_record(f) for f in result.report.all_findings]
    records.sort(key=lambda r: (
        r["fingerprint"] or "", r["file"], r["function"],
        r["line"], r["explanation"],
    ))
    return records
