"""Parity tests for the check-stage memo (``repro.checkers.runner.CheckMemo``).

An incremental run re-checks only the check-list entries whose barrier
sites an edit replaced and reuses the memoized outcome of every other
entry.  Whatever it reuses, ``reanalyze_file`` must produce exactly what
a fresh serial analysis of the edited tree produces.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from repro.checkers import registry
from repro.core.engine import AnalysisOptions, KernelSource, OFenceEngine
from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.fuzz.differential import run_signature

EDITS = 40
SUBSET = frozenset({"misplaced", "wrong-type", "seqcount", "annotate"})

_BARRIER = re.compile(r"^\s*smp_[wr]mb\(\);\s*$")
#: One-line assignment or call: ``p->f = x;``, ``g(p->f);``.
_STATEMENT = re.compile(
    r"^\s*[A-Za-z_][\w>.\-\[\]]*\s*(=[^;{}]*|\([^;{}]*\))?;\s*$"
)
_KEYWORD = re.compile(r"^\s*(return|break|continue|goto|if|else|do)\b")


def _swaps(text: str) -> list[tuple[int, int]]:
    """Adjacent (barrier line, simple statement) pairs to swap."""
    lines = text.split("\n")
    out = []
    for k, line in enumerate(lines):
        if not _BARRIER.match(line):
            continue
        for other in (k - 1, k + 1):
            if 0 <= other < len(lines) and _STATEMENT.match(lines[other]) \
                    and not _KEYWORD.match(lines[other]):
                out.append((min(k, other), max(k, other)))
    return out


def _edit_stream(files: dict[str, str], seed: int, count: int) -> list:
    """``count`` seeded ``(kind, path, new_text)`` one-file edits:
    comment touches, barrier/statement swaps and reverts."""
    rng = random.Random(seed)
    current = dict(files)
    edited: list[str] = []
    movable = sorted(path for path, text in files.items() if _swaps(text))
    kinds = {"touch": 0, "move": 0, "revert": 0}
    stream = []
    while len(stream) < count:
        roll = rng.random()
        if roll < 0.2 and edited:
            kind, path = "revert", edited.pop(rng.randrange(len(edited)))
            text = files[path]
        elif roll < 0.6 and movable:
            kind, path = "move", rng.choice(movable)
            options = _swaps(current[path])
            if not options:
                continue
            i, j = rng.choice(options)
            lines = current[path].split("\n")
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        else:
            kind, path = "touch", rng.choice(sorted(files))
            text = current[path] + f"\n/* touch {len(stream)} */\n"
        if kind != "revert" and path not in edited:
            edited.append(path)
        current[path] = text
        kinds[kind] += 1
        stream.append((kind, path, text))
    assert all(kinds.values()), kinds
    return stream


def _copy(source: KernelSource, files: dict[str, str]) -> KernelSource:
    return KernelSource(
        files=dict(files), headers=source.headers,
        file_options=source.file_options,
    )


def _check_list_len(result) -> int:
    return sum(
        1 + len(pairing.slices)
        for pairing in result.pairing.pairings
    )


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec.small(), 2023)


@pytest.fixture(scope="module")
def stream(corpus):
    selected = OFenceEngine(_copy(corpus.source, corpus.source.files)) \
        .selected_files()[0]
    files = {path: corpus.source.files[path] for path in selected}
    return _edit_stream(files, seed=2023, count=EDITS)


@pytest.fixture(scope="module")
def references(corpus, stream):
    """Fresh serial signatures after each edit, per checker selection."""
    refs: dict = {None: [], SUBSET: []}
    files = dict(corpus.source.files)
    for _kind, path, text in stream:
        files[path] = text
        for checks in refs:
            engine = OFenceEngine(
                _copy(corpus.source, files), AnalysisOptions(checks=checks)
            )
            refs[checks].append(run_signature(engine.analyze()))
    return refs


def _replay(corpus, stream, references, options: AnalysisOptions):
    engine = OFenceEngine(_copy(corpus.source, corpus.source.files), options)
    previous = engine.analyze()
    assert previous.profile.counters["check.reused"] == 0
    totals: dict[str, int] = {}
    touches = 0
    for step, (kind, path, text) in enumerate(stream):
        result = engine.reanalyze_file(path, text)
        expected = references[options.checks][step]
        assert run_signature(result) == expected, (step, kind, path)
        assert len(engine._check_memo) <= _check_list_len(result)
        counters = result.profile.counters
        for name, value in counters.items():
            totals[name] = totals.get(name, 0) + value
        # Fingerprints are computed for the edited file's findings and
        # for findings that are new objects, nothing else.  A touch
        # re-scans the file, so every finding on a pairing over its
        # sites is new: one in another file comes from a cross-file
        # pairing.
        old = {id(f) for f in previous.report.all_findings}
        fresh = [f for f in result.report.all_findings
                 if f.filename == path or id(f) not in old]
        assert counters["fingerprint.computed"] == len(fresh), step
        if kind == "touch" and all(f.filename == path for f in fresh):
            touches += 1
            assert counters["fingerprint.computed"] == sum(
                f.filename == path for f in result.report.all_findings
            )
        previous = result
    assert touches
    # A one-file edit leaves most pairings untouched.
    assert totals["check.rechecked"] < totals["check.reused"]
    assert totals["check.annotations_rechecked"] \
        < totals["check.annotations_reused"]
    return totals


def test_serial_edits_match_fresh_analysis(corpus, stream, references):
    _replay(corpus, stream, references, AnalysisOptions())


def test_executor_edits_match_fresh_analysis(corpus, stream, references):
    """Dirty subsets still cross the worker boundary (batch of 1)."""
    from repro.exec.executor import get_default_executor

    options = AnalysisOptions(
        workers=2, executor=get_default_executor(2), exec_min_batch=1,
    )
    totals = _replay(corpus, stream, references, options)
    assert totals.get("check.shards", 0) > 0


def test_checks_subset_edits_match_fresh_analysis(corpus, stream,
                                                  references):
    _replay(corpus, stream, references, AnalysisOptions(checks=SUBSET))


@pytest.mark.parametrize("mode", ["serial", "executor"])
def test_later_runs_never_change_an_earlier_result(corpus, stream, mode):
    """Pairings, findings and patches a later run reuses are shared
    with earlier results, which the serve daemon keeps: no later run
    may change what an earlier one returned."""
    options = AnalysisOptions()
    if mode == "executor":
        from repro.exec.executor import get_default_executor

        options = AnalysisOptions(
            workers=2, executor=get_default_executor(2), exec_min_batch=1,
        )
    engine = OFenceEngine(_copy(corpus.source, corpus.source.files), options)
    engine.analyze()
    for _kind, path, text in stream[:5]:
        held = engine.reanalyze_file(path, text)
    signature = run_signature(held)
    later = stream[5:25]
    assert {kind for kind, _path, _text in later} == {
        "touch", "move", "revert"
    }
    for _kind, path, text in later:
        engine.reanalyze_file(path, text)
    assert run_signature(held) == signature


WRITER = """\
struct s { int flag; int data; };
void w(struct s *p)
{
\tp->data = 1;
\tsmp_wmb();
\tp->flag = 1;
}
"""

READER_OK = """\
struct s { int flag; int data; };
void r(struct s *p)
{
\tif (!p->flag)
\t\treturn;
\tsmp_rmb();
\tg(p->data);
}
"""

READER_BUGGY = READER_OK.replace(
    "\tif (!p->flag)\n\t\treturn;\n\tsmp_rmb();",
    "\tsmp_rmb();\n\tif (!p->flag)\n\t\treturn;",
)

OTHER_WRITER = """\
struct q { int ready; int val; };
void qw(struct q *x)
{
\tx->val = 2;
\tsmp_wmb();
\tx->ready = 1;
}
"""

OTHER_READER = """\
struct q { int ready; int val; };
void qr(struct q *x)
{
\tif (!x->ready)
\t\treturn;
\tsmp_rmb();
\th(x->val);
}
"""


def _misplaced(result) -> list[str]:
    return [
        f.function for f in result.report.ordering_findings
        if f.kind.value == "misplaced-memory-access"
    ]


def test_editing_only_the_reader_rechecks_its_pairing():
    engine = OFenceEngine(KernelSource(files={
        "w.c": WRITER, "r.c": READER_BUGGY,
        "qw.c": OTHER_WRITER, "qr.c": OTHER_READER,
    }))
    result = engine.analyze()
    assert len(result.pairing.pairings) == 2
    assert _misplaced(result) == ["r"]

    fixed = engine.reanalyze_file("r.c", READER_OK)
    assert _misplaced(fixed) == []
    assert fixed.profile.counters["check.rechecked"] == 1
    assert fixed.profile.counters["check.reused"] == 1

    broken = engine.reanalyze_file("r.c", READER_BUGGY)
    assert _misplaced(broken) == ["r"]
    assert broken.profile.counters["check.rechecked"] == 1
    finding = broken.report.ordering_findings[0]
    assert any(finding.pairing is p for p in broken.pairing.pairings)

    # Untouched pairing: its findings are reused, re-bound to this
    # run's pairing objects.
    touched = engine.reanalyze_file("qr.c", OTHER_READER + "/* x */\n")
    assert touched.profile.counters["check.reused"] == 1
    for finding in touched.report.all_findings:
        if finding.pairing is not None and finding.pairing.parent is None:
            assert any(finding.pairing is p
                       for p in touched.pairing.pairings)
    assert run_signature(touched) == run_signature(
        OFenceEngine(KernelSource(files=dict(engine.source.files))).analyze()
    )


def test_checker_failure_on_dirty_entries_rechecks_everything(monkeypatch):
    """A checker raising on a re-checked entry must not leave its claims
    missing from reused outcomes: the run falls back to a full check."""
    files = {
        "w.c": WRITER, "r.c": READER_BUGGY,
        "qw.c": OTHER_WRITER, "qr.c": OTHER_READER,
    }
    engine = OFenceEngine(KernelSource(files=dict(files)))
    engine.analyze()

    spec = registry.get("reread")

    def boom(ctx):
        raise RuntimeError("injected")

    monkeypatch.setitem(
        registry._REGISTRY, "reread", dataclasses.replace(spec, run=boom)
    )
    result = engine.reanalyze_file("r.c", READER_OK)
    assert result.profile.counters["check.rechecked"] == 2
    assert [cf.checker for cf in result.report.checker_failures] == [
        "reread"
    ]
    files["r.c"] = READER_OK
    fresh = OFenceEngine(KernelSource(files=dict(files))).analyze()
    assert run_signature(result) == run_signature(fresh)
    assert len(engine._check_memo) == 0
