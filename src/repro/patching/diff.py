"""Line-based source editing and unified diff rendering."""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field

from repro.trace.context import count

#: ``difflib.SequenceMatcher`` treats popular lines as junk once the new
#: side has this many lines (its ``autojunk`` heuristic); below it no
#: line is junk, which the forced-hunk argument relies on.
_AUTOJUNK_LINES = 200


@dataclass
class SourceEditor:
    """Applies line-level edits to a source file.

    Lines are 1-indexed (matching AST locations).  Edits are collected and
    applied in one pass so earlier edits do not shift later line numbers.
    ``lines`` is ``source.splitlines()``; callers editing one source many
    times pass one shared list, which the editor only reads.
    """

    source: str
    lines: list[str] | None = None
    _replacements: dict[int, str] = field(default_factory=dict)
    _deletions: set[int] = field(default_factory=set)
    #: line -> list of lines inserted *after* it (0 = top of file).
    _insertions: dict[int, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lines is None:
            self.lines = self.source.splitlines()

    def line(self, number: int) -> str:
        return self.lines[number - 1]

    def replace_line(self, number: int, text: str) -> None:
        self._replacements[number] = text

    def delete_line(self, number: int) -> None:
        self._deletions.add(number)

    def insert_after(self, number: int, text: str) -> None:
        self._insertions.setdefault(number, []).append(text)

    def insert_before(self, number: int, text: str) -> None:
        self.insert_after(number - 1, text)

    def substitute(self, number: int, old: str, new: str) -> bool:
        """Replace the first occurrence of ``old`` on a line; False when
        the text is absent (the edit is then skipped)."""
        current = self._replacements.get(number, self.line(number))
        if old not in current:
            return False
        self._replacements[number] = current.replace(old, new, 1)
        return True

    def substitute_word(self, number: int, old: str, new: str) -> bool:
        """Whole-word substitution (for identifier renames)."""
        current = self._replacements.get(number, self.line(number))
        pattern = rf"\b{re.escape(old)}\b"
        replaced, hits = re.subn(pattern, new, current, count=1)
        if hits == 0:
            return False
        self._replacements[number] = replaced
        return True

    def result(self) -> str:
        out = self._build_lines()
        if not out:
            return ""
        return "\n".join(out) + ("\n" if self.source.endswith("\n") else "")

    def _build_lines(self) -> list[str]:
        """Apply the edits by index; edits naming no line are dropped."""
        out = list(self.lines)
        total = len(out)
        for number, text in self._replacements.items():
            if 1 <= number <= total:
                out[number - 1] = text
        # Bottom-up, so splicing at one line leaves lower indices valid.
        for number in sorted(self._deletions | self._insertions.keys(),
                             reverse=True):
            if not 0 <= number <= total:
                continue
            out[number:number] = self._insertions.get(number, ())
            if number in self._deletions and number:
                del out[number - 1]
        return out

    @property
    def dirty(self) -> bool:
        return bool(self._replacements or self._deletions or self._insertions)


def unified_diff(
    old: str, new: str, filename: str, context: int = 3
) -> str:
    """Unified diff in kernel-patch style (a/ and b/ prefixes).

    Byte-identical to ``difflib.unified_diff`` over the two texts'
    ``splitlines(keepends=True)``.  Most patches change one line of a
    short file, and for those the hunk is written directly
    (:func:`_forced_hunk`); every other diff goes through difflib.
    """
    if old == new:
        return ""
    a = old.splitlines(keepends=True)
    b = new.splitlines(keepends=True)
    hunk = _forced_hunk(a, b, filename, context)
    if hunk is not None:
        count("patch.hunks_forced")
        return hunk
    count("patch.hunks_difflib")
    return "".join(difflib.unified_diff(
        a, b, fromfile=f"a/{filename}", tofile=f"b/{filename}", n=context,
    ))


def _forced_hunk(a: list[str], b: list[str], filename: str,
                 context: int) -> str | None:
    """The hunk difflib would emit, when its alignment is forced.

    Write ``a = P + [x] + S`` with ``P``/``S`` the common prefix and
    suffix, ``p``/``s`` their lengths, and ``b = P + [y] + S`` (a
    replacement) or ``b = P + S`` (a deletion).  difflib takes the
    longest matching block, ties going to the smallest index in ``a``
    (then in ``b``), then recurses on both sides of it.  With fewer than
    200 lines no line is junk.  When

    * for a replacement, ``y`` occurs nowhere in ``a``, and
    * for a deletion, ``P[-1]`` is followed by ``S[0]`` nowhere in ``a``,

    no block of ``b`` can include ``y`` or span the ``P``/``S`` seam, so
    every block lies in ``P`` or in ``S`` on ``b``'s side, and the
    longest is all of ``P`` (at index 0, the first in ``a``) or all of
    ``S`` (at its first start in ``a``).

    * ``s <= p``: ``P`` wins at its own place, and the right-hand rest is
      ``[x] + S`` against ``[y] + S`` or ``S``.  ``S`` there starts at
      the first of two places, ``p`` or its own ``p + 1``.  It starts at
      ``p`` exactly when ``x + S`` is one repeated line (``S`` equals
      ``x + S[:-1]``), which a deletion never meets: its ``x`` differs
      from ``S[0]``, or the prefix would be longer.
    * ``s > p``: ``S`` wins at its first start in ``a``.  A start
      ``i <= p`` puts ``a[p] = x`` inside the block, so it needs ``x`` in
      ``S``; a start ``i > p + 1`` leaves no room.  At its own place the
      left-hand rest is ``P + [x]`` against ``P + [y]`` or ``P``, where
      ``P`` wins at index 0.

    So the alignment is forced exactly when ``S`` has no start in ``a``
    at an index ``i`` from ``p`` (``s <= p``) or ``0`` (``s > p``) to
    ``p``; that needs ``x`` in ``S``, and with ``x`` not in ``S`` it always
    holds.  The opcodes are then ``equal P, replace/delete x, equal S``:
    one hunk with ``context`` lines either side.  None when a condition
    fails.
    """
    la, lb = len(a), len(b)
    if la >= _AUTOJUNK_LINES or lb >= _AUTOJUNK_LINES \
            or lb not in (la, la - 1):
        return None
    p = 0
    while p < lb and a[p] == b[p]:
        p += 1
    s = 0
    while s < lb - p and a[la - 1 - s] == b[lb - 1 - s]:
        s += 1
    if p + s != la - 1:
        return None  # more than one line changed
    removed = a[p]
    suffix = a[p + 1:]
    if removed in suffix:
        first = suffix[0]
        if any(a[i] == first and a[i:i + s] == suffix
               for i in range(p if s <= p else 0, p + 1)):
            return None
    replace = lb == la
    if replace:
        if b[p] in a:
            return None
    elif p and s:
        before, after = a[p - 1], a[p + 1]
        if any(x == before and y == after for x, y in zip(a, a[1:])):
            return None
    start = max(0, p - context)
    stop = min(la, p + 1 + context)
    out = [
        f"--- a/{filename}\n",
        f"+++ b/{filename}\n",
        f"@@ -{_range(start, stop)} "
        f"+{_range(start, stop if replace else stop - 1)} @@\n",
    ]
    out.extend(" " + line for line in a[start:p])
    out.append("-" + removed)
    if replace:
        out.append("+" + b[p])
    out.extend(" " + line for line in a[p + 1:stop])
    return "".join(out)


def _range(start: int, stop: int) -> str:
    """A hunk range as ``difflib._format_range_unified`` writes it."""
    length = stop - start
    if length == 1:
        return str(start + 1)
    return f"{start if not length else start + 1},{length}"


def indentation_of(line: str) -> str:
    """Leading whitespace of a line (preserved when moving statements)."""
    return line[: len(line) - len(line.lstrip())]
