"""Unit tests for patch generation, the renderer and the editor."""

import difflib
import random
import textwrap

from repro.checkers.model import DeviationKind
from repro.cparse import astnodes as ast
from repro.cparse.parser import parse_source
from repro.core.engine import OFenceEngine
from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.patching.diff import (
    SourceEditor,
    _forced_hunk,
    indentation_of,
    unified_diff,
)
from repro.patching.generate import PatchGenerator
from repro.patching.render import render_expr


def first_expr(src):
    unit = parse_source(f"void f(void) {{ {src}; }}", "t.c")
    return unit.functions[0].body.stmts[0].expr


def roundtrip(src):
    return render_expr(first_expr(src))


class TestRenderExpr:
    def test_member_arrow(self):
        assert roundtrip("a->b") == "a->b"

    def test_member_dot_chain(self):
        assert roundtrip("a.b.c") == "a.b.c"

    def test_index(self):
        assert roundtrip("a[i]") == "a[i]"

    def test_call(self):
        assert roundtrip("f(a, b)") == "f(a, b)"

    def test_assignment(self):
        assert roundtrip("a->x = 1") == "a->x = 1"

    def test_binary_parenthesization_is_valid(self):
        text = roundtrip("a + b * c")
        reparsed = render_expr(first_expr(text))
        assert reparsed == text  # stable under re-parse

    def test_unary(self):
        assert roundtrip("!a->flag") == "!a->flag"

    def test_ternary(self):
        assert roundtrip("a ? b : c") == "a ? b : c"

    def test_string_literal(self):
        assert roundtrip('"hi"') == '"hi"'

    def test_deref_member_base_parenthesized(self):
        text = roundtrip("(*p).x")
        assert text == "(*p).x"


class TestSourceEditor:
    SRC = "line1\nline2\nline3\n"

    def test_replace_line(self):
        editor = SourceEditor(self.SRC)
        editor.replace_line(2, "LINE2")
        assert editor.result() == "line1\nLINE2\nline3\n"

    def test_delete_line(self):
        editor = SourceEditor(self.SRC)
        editor.delete_line(2)
        assert editor.result() == "line1\nline3\n"

    def test_insert_before_and_after(self):
        editor = SourceEditor(self.SRC)
        editor.insert_before(1, "top")
        editor.insert_after(3, "bottom")
        assert editor.result() == "top\nline1\nline2\nline3\nbottom\n"

    def test_substitute(self):
        editor = SourceEditor(self.SRC)
        assert editor.substitute(1, "line1", "x")
        assert not editor.substitute(2, "absent", "y")
        assert editor.result().startswith("x\n")

    def test_substitute_word_whole_word_only(self):
        editor = SourceEditor("smp_wmb(); also_smp_wmb();\n")
        assert editor.substitute_word(1, "smp_wmb", "smp_rmb")
        assert editor.result() == "smp_rmb(); also_smp_wmb();\n"

    def test_edits_compose_without_shifting(self):
        editor = SourceEditor(self.SRC)
        editor.delete_line(1)
        editor.replace_line(3, "L3")
        editor.insert_after(2, "mid")
        assert editor.result() == "line2\nmid\nL3\n"

    def test_dirty_flag(self):
        editor = SourceEditor(self.SRC)
        assert not editor.dirty
        editor.delete_line(1)
        assert editor.dirty

    def test_shared_lines_are_read_only(self):
        lines = self.SRC.splitlines()
        editor = SourceEditor(self.SRC, lines)
        editor.delete_line(1)
        editor.replace_line(2, "L2")
        editor.insert_after(3, "after")
        assert editor.result() == "L2\nline3\nafter\n"
        assert lines == ["line1", "line2", "line3"]
        assert SourceEditor(self.SRC, lines).result() == self.SRC

    def test_no_trailing_newline_preserved(self):
        editor = SourceEditor("a\nb")
        editor.replace_line(1, "A")
        assert editor.result() == "A\nb"

    def test_indentation_of(self):
        assert indentation_of("\t\tx") == "\t\t"
        assert indentation_of("    x") == "    "
        assert indentation_of("x") == ""


class TestUnifiedDiff:
    def test_diff_format(self):
        diff = unified_diff("a\nb\n", "a\nc\n", "f.c")
        assert diff.startswith("--- a/f.c")
        assert "+c" in diff and "-b" in diff

    def test_empty_diff_for_identical(self):
        assert unified_diff("same\n", "same\n", "f.c") == ""

    def test_forced_hunk_matches_difflib(self):
        """Seeded property: one replaced or deleted line, byte for byte
        against difflib, on inputs where many alignments tie."""
        rng = random.Random(2023)
        forced = 0
        for _ in range(3000):
            alphabet = [f"x{i};" for i in range(rng.randint(1, 5))]
            size = rng.choice((rng.randint(1, 12), rng.randint(1, 260)))
            old = [rng.choice(alphabet) for _ in range(size)]
            new = list(old)
            where = rng.randrange(size)
            if rng.random() < 0.5:
                new[where] = rng.choice(alphabet + ["y;"])
            else:
                del new[where]
            eol = rng.choice(("\n", "\n", "\r\n"))
            tail = "" if rng.random() < 0.1 else eol
            old_text = eol.join(old) + tail
            new_text = eol.join(new) + tail if new else ""
            a = old_text.splitlines(keepends=True)
            b = new_text.splitlines(keepends=True)
            assert unified_diff(old_text, new_text, "f.c") == "".join(
                difflib.unified_diff(a, b, "a/f.c", "b/f.c")
            ), (old_text, new_text)
            forced += _forced_hunk(a, b, "f.c", 3) is not None
        assert forced > 500  # the direct path is exercised, not bypassed

    def test_forced_hunk_declines_ambiguous_alignment(self):
        # The removed line recurs below it: difflib may align either copy.
        assert _forced_hunk(["a\n", "a\n"], ["b\n", "a\n"], "f.c", 3) \
            is None
        # The deletion joins a pair already adjacent elsewhere.
        old = ["p\n", "q\n", "p\n", "x\n", "q\n"]
        assert _forced_hunk(old, old[:3] + old[4:], "f.c", 3) is None
        # From 200 lines on, difflib's autojunk heuristic may apply.
        lines = [f"l{i}\n" for i in range(200)]
        assert _forced_hunk(lines, ["new\n"] + lines[1:], "f.c", 3) is None
        assert _forced_hunk(lines[1:], ["new\n"] + lines[2:], "f.c", 3)

    def test_corpus_patches_match_difflib(self):
        corpus = generate_corpus(CorpusSpec.small(), seed=7)
        result = OFenceEngine(corpus.source).analyze()
        checked = 0
        for patch in result.patches:
            if patch.new_source is None:
                continue
            old = corpus.source.files[patch.filename]
            assert patch.diff == "".join(difflib.unified_diff(
                old.splitlines(keepends=True),
                patch.new_source.splitlines(keepends=True),
                f"a/{patch.filename}", f"b/{patch.filename}",
            )), patch.finding.finding_id
            checked += 1
        assert checked > 100


def generate_patches(src, filename="test.c", annotate=False):
    from tests.conftest import Analyzed

    analyzed = Analyzed(src, filename)
    report = analyzed.check(annotate=annotate)
    generator = PatchGenerator({filename: src}, analyzed.cfg_lookup)
    return generator.generate_all(report.all_findings), report


class TestMoveReadPatch:
    SRC = textwrap.dedent("""\
    struct rqst { int len; int recd; int out; };
    void complete(struct rqst *req)
    {
    \treq->len = 10;
    \tsmp_wmb();
    \treq->recd = 1;
    }
    void decode(struct rqst *req)
    {
    \tsmp_rmb();
    \tif (!req->recd)
    \t\treturn;
    \treq->out = req->len;
    }
    """)

    def test_guard_moved_before_barrier(self):
        patches, _ = generate_patches(self.SRC)
        (patch,) = patches
        assert patch.applied
        new = patch.new_source
        assert new.index("if (!req->recd)") < new.index("smp_rmb();")
        # The guard body moved with it.
        guard_pos = new.index("if (!req->recd)")
        assert new.index("return;", guard_pos) < new.index("smp_rmb();")

    def test_diff_mentions_both_lines(self):
        patches, _ = generate_patches(self.SRC)
        diff = patches[0].diff
        assert "-\tsmp_rmb();" in diff or "+\tsmp_rmb();" in diff
        assert "if (!req->recd)" in diff

    def test_header_documents_pairing_and_objects(self):
        patches, _ = generate_patches(self.SRC)
        header = patches[0].header
        assert "Pairing:" in header
        assert "(struct rqst, recd)" in header
        assert "Why:" in header

    def test_patched_source_still_parses(self):
        patches, _ = generate_patches(self.SRC)
        parse_source(patches[0].new_source, "patched.c")


class TestReuseValuePatch:
    SRC = textwrap.dedent("""\
    struct reuse { int socks; int num_socks; };
    void add_sock(struct reuse *r)
    {
    \tr->socks = 1;
    \tsmp_wmb();
    \tr->num_socks++;
    }
    int select_sock(struct reuse *r)
    {
    \tint num = r->num_socks;
    \tif (num == 0)
    \t\treturn 0;
    \tsmp_rmb();
    \tconsume(r->socks);
    \tconsume(r->num_socks);
    \treturn num;
    }
    """)

    def test_reread_replaced_by_captured_value(self):
        patches, _ = generate_patches(self.SRC)
        (patch,) = [
            p for p in patches
            if p.finding.kind is DeviationKind.REPEATED_READ
        ]
        assert patch.applied
        assert "consume(num);" in patch.new_source
        # Only the re-read is replaced; the initial read stays.
        assert "int num = r->num_socks;" in patch.new_source

    def test_patched_source_parses(self):
        patches, _ = generate_patches(self.SRC)
        for patch in patches:
            if patch.applied:
                parse_source(patch.new_source, "patched.c")


class TestReplaceBarrierPatch:
    SRC = textwrap.dedent("""\
    struct ring { int slot; int head; };
    void publish(struct ring *r)
    {
    \tr->slot = 7;
    \tsmp_wmb();
    \tr->head = 1;
    }
    void republish(struct ring *r)
    {
    \tr->slot = 9;
    \tsmp_rmb();
    \tr->head = 2;
    }
    int consume_ring(struct ring *r)
    {
    \tif (!r->head)
    \t\treturn 0;
    \tsmp_rmb();
    \tconsume(r->slot);
    \treturn 1;
    }
    """)

    def test_barrier_renamed(self):
        patches, _ = generate_patches(self.SRC)
        (patch,) = [
            p for p in patches
            if p.finding.kind is DeviationKind.WRONG_BARRIER_TYPE
        ]
        assert patch.applied
        # republish's smp_rmb becomes smp_wmb; the reader keeps its rmb.
        assert patch.new_source.count("smp_wmb();") == 2
        assert patch.new_source.count("smp_rmb();") == 1


class TestRemoveBarrierPatch:
    SRC = textwrap.dedent("""\
    struct d { int got_token; int task; };
    int wake_fn(struct d *data)
    {
    \tdata->got_token = 1;
    \tsmp_wmb();
    \twake_up_process(data->task);
    \treturn 1;
    }
    """)

    def test_barrier_line_deleted(self):
        patches, _ = generate_patches(self.SRC)
        (patch,) = patches
        assert patch.applied
        assert "smp_wmb" not in patch.new_source
        assert "wake_up_process" in patch.new_source


class TestAnnotationPatch:
    SRC = textwrap.dedent("""\
    struct s { int flag; int data; };
    void w(struct s *p)
    {
    \tp->data = 1;
    \tsmp_wmb();
    \tp->flag = 1;
    }
    void r(struct s *p)
    {
    \tif (!p->flag)
    \t\treturn;
    \tsmp_rmb();
    \tconsume(p->data);
    }
    """)

    def test_write_wrapped_in_write_once(self):
        patches, _ = generate_patches(self.SRC, annotate=True)
        writes = [
            p for p in patches
            if p.finding.details.get("macro") == "WRITE_ONCE" and p.applied
        ]
        assert writes
        assert any(
            "WRITE_ONCE(p->flag, 1);" in p.new_source for p in writes
        )

    def test_read_wrapped_in_read_once(self):
        patches, _ = generate_patches(self.SRC, annotate=True)
        reads = [
            p for p in patches
            if p.finding.details.get("macro") == "READ_ONCE" and p.applied
        ]
        assert any("READ_ONCE(p->flag)" in p.new_source for p in reads)

    def test_annotated_sources_parse(self):
        patches, _ = generate_patches(self.SRC, annotate=True)
        for patch in patches:
            if patch.applied:
                parse_source(patch.new_source, "patched.c")


class TestGeneratorRobustness:
    def test_missing_file_returns_none(self):
        generator = PatchGenerator({})
        from repro.checkers.model import Finding, FixAction

        finding = Finding(
            kind=DeviationKind.UNNEEDED_BARRIER,
            filename="nope.c", function="f", line=1,
            explanation="", fix_action=FixAction.REMOVE_BARRIER,
        )
        assert generator.generate(finding) is None

    def test_unapplicable_fix_yields_header_only_patch(self):
        src = "void f(void)\n{\n\tsmp_wmb(); smp_mb();\n}\n"
        # Barrier shares its line with other code: removal is manual.
        from tests.conftest import Analyzed

        analyzed = Analyzed(src, "t.c")
        report = analyzed.check()
        generator = PatchGenerator({"t.c": src}, analyzed.cfg_lookup)
        patches = generator.generate_all(report.all_findings)
        for patch in patches:
            assert patch.render()  # header always renders
