"""Seeded one-file edits for the ``edit`` and ``serve`` workloads.

An edit is ``(kind, path, new_text)``.  The mix models a developer
working on barrier code:

* ``touch`` (50%) appends a comment; the file's barrier sites stay the
  same, so the pairing index sees an identity update;
* ``move`` (35%) swaps an ``smp_wmb();`` / ``smp_rmb();`` line with an
  adjacent simple statement, so sites, pairings and findings change;
* ``revert`` (15%) restores one edited file to its original text.

A move only swaps the barrier with a one-line expression statement in
the same block, and only where the line before the pair ends a
statement or opens/closes a block, so the edited file always parses
and the barrier never becomes the body of a braceless ``if``.
"""

from __future__ import annotations

import random
import re

MIX = (("touch", 0.50), ("move", 0.35), ("revert", 0.15))

_BARRIER_LINE = re.compile(r"^\s*smp_[wr]mb\(\);\s*$")
#: One-line expression statement: ``x = y;``, ``f(a);``, ``p->f++;``.
_SIMPLE_STMT = re.compile(r"^\s*[A-Za-z_*(][^{}#\"']*;\s*$")
_CONTROL = re.compile(
    r"^\s*(if|else|for|while|do|switch|case|default|return|break|"
    r"continue|goto|struct|union|enum|typedef|static|extern|const|"
    r"volatile|unsigned|signed|int|long|short|char|void|bool|u8|u16|"
    r"u32|u64|size_t)\b"
)


def _is_simple(line: str) -> bool:
    return (
        bool(_SIMPLE_STMT.match(line))
        and not _CONTROL.match(line)
        and not _BARRIER_LINE.match(line)
        and line.count("(") == line.count(")")
        and "/*" not in line
        and "//" not in line
    )


def _ends_statement(line: str) -> bool:
    return line.rstrip().endswith((";", "{", "}"))


def move_candidates(text: str) -> list[tuple[int, int]]:
    """``(i, j)`` line-index pairs that a ``move`` may swap.

    ``lines[i]`` comes first; one of the two is a barrier line and the
    other a simple statement.
    """
    lines = text.split("\n")
    out: list[tuple[int, int]] = []
    for k, line in enumerate(lines):
        if not _BARRIER_LINE.match(line):
            continue
        # Barrier moves up past the statement before it.
        if k >= 2 and _is_simple(lines[k - 1]) \
                and _ends_statement(lines[k - 2]):
            out.append((k - 1, k))
        # Barrier moves down past the statement after it.
        if k >= 1 and k + 1 < len(lines) and _is_simple(lines[k + 1]) \
                and _ends_statement(lines[k - 1]):
            out.append((k, k + 1))
    return out


def swap_lines(text: str, i: int, j: int) -> str:
    lines = text.split("\n")
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


class EditGenerator:
    """Deterministic edit stream over a fixed set of files.

    ``files`` maps path -> original text for the files the generator may
    edit; ``current`` tracks every file's text after the edits so far.
    """

    def __init__(self, files: dict[str, str], seed: int):
        self.original = dict(files)
        self.current = dict(files)
        self.paths = sorted(files)
        self._rng = random.Random(f"edits:{seed}")
        self._touches = 0

    @property
    def edited(self) -> list[str]:
        return [p for p in self.paths if self.current[p] != self.original[p]]

    def next(self) -> tuple[str, str, str]:
        """The next edit as ``(kind, path, new_text)``, already applied."""
        roll = self._rng.random()
        kind = "revert"
        for name, share in MIX:
            if roll < share:
                kind = name
                break
            roll -= share
        edit = None
        if kind == "move":
            edit = self._move()
        elif kind == "revert":
            edit = self._revert()
        if edit is None:
            edit = self._touch()
        kind, path, text = edit
        self.current[path] = text
        return kind, path, text

    def revert_all(self) -> list[tuple[str, str]]:
        """``(path, original text)`` for every edited file, now reverted."""
        out = [(p, self.original[p]) for p in self.edited]
        for path, text in out:
            self.current[path] = text
        return out

    def _touch(self) -> tuple[str, str, str]:
        path = self._rng.choice(self.paths)
        self._touches += 1
        text = self.current[path]
        sep = "" if text.endswith("\n") else "\n"
        return "touch", path, f"{text}{sep}/* edit {self._touches} */\n"

    def _move(self) -> tuple[str, str, str] | None:
        # Draw files until one has a legal swap; most files do.
        for _ in range(16):
            path = self._rng.choice(self.paths)
            candidates = move_candidates(self.current[path])
            if candidates:
                i, j = self._rng.choice(candidates)
                return "move", path, swap_lines(self.current[path], i, j)
        return None

    def _revert(self) -> tuple[str, str, str] | None:
        edited = self.edited
        if not edited:
            return None
        path = self._rng.choice(edited)
        return "revert", path, self.original[path]
