"""Stable-fingerprint tests: identity must survive unrelated edits.

The regression test demanded by the store design: shifting a finding's
function by >= 50 lines of unrelated code and renaming unrelated
identifiers preserves every fingerprint, while changing the finding's
own barrier kind changes it.
"""

from collections import Counter

from repro.core.engine import KernelSource, OFenceEngine
from repro.store.fingerprint import (
    compute_fingerprint,
    context_window,
    normalize_path,
)

WRITER_READER = """\
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
\tg(p->data);
}
"""

#: 50+ unrelated lines: self-contained helpers with no barriers.
PADDING = "\n".join(
    f"static int helper_{i}(int value_{i})\n"
    "{\n"
    f"\tint local_{i} = value_{i} + {i};\n"
    f"\treturn local_{i} * 2;\n"
    "}\n"
    for i in range(12)
)


def fingerprints_of(files: dict[str, str]) -> Counter:
    result = OFenceEngine(KernelSource(files=files)).analyze()
    counter: Counter = Counter()
    for finding in result.report.all_findings:
        assert finding.fingerprint, "engine must attach fingerprints"
        counter[finding.fingerprint] += 1
    return counter


class TestFingerprintStability:
    def test_engine_attaches_fingerprints(self):
        base = fingerprints_of({"a.c": WRITER_READER})
        assert base  # the pair produces findings

    def test_fifty_line_shift_preserves_fingerprints(self):
        base = fingerprints_of({"a.c": WRITER_READER})
        shifted = PADDING + "\n" + WRITER_READER
        assert shifted.index("void w") > 50 * 2  # really shifted far
        assert fingerprints_of({"a.c": shifted}) == base

    def test_unrelated_identifier_renames_preserve_fingerprints(self):
        base = fingerprints_of({"a.c": WRITER_READER})
        # Rename the pointer parameter consistently — it is case-local
        # naming, not part of the finding's identity.  (The struct tag
        # and field names ARE identity: they name the accessed object.)
        renamed = (
            WRITER_READER
            .replace("*p", "*ptr")
            .replace("p->", "ptr->")
        )
        assert fingerprints_of({"a.c": renamed}) == base

    def test_shift_plus_renames_preserve_fingerprints(self):
        base = fingerprints_of({"a.c": WRITER_READER})
        mutated = (PADDING + "\n" + WRITER_READER).replace(
            "*p", "*ctx"
        ).replace("p->", "ctx->")
        assert fingerprints_of({"a.c": mutated}) == base

    def test_comment_noise_preserves_fingerprints(self):
        base = fingerprints_of({"a.c": WRITER_READER})
        noisy = WRITER_READER.replace(
            "\tsmp_wmb();", "\t/* publish */\n\n\tsmp_wmb();"
        ).replace("\tsmp_rmb();", "\tsmp_rmb(); /* acquire side */")
        assert fingerprints_of({"a.c": noisy}) == base

    def test_changing_barrier_kind_changes_fingerprints(self):
        base = fingerprints_of({"a.c": WRITER_READER})
        changed = WRITER_READER.replace("smp_wmb", "smp_mb")
        other = fingerprints_of({"a.c": changed})
        # The writer-side findings hash the barrier primitive raw, so
        # none of their identities may survive the swap.
        assert other
        writer_base = {
            fp for fp in base
            if fp not in other
        }
        assert writer_base, "smp_wmb findings must change identity"

    def test_function_rename_changes_fingerprints(self):
        base = fingerprints_of({"a.c": WRITER_READER})
        renamed = WRITER_READER.replace(
            "void r(", "void reader_side("
        )
        assert fingerprints_of({"a.c": renamed}) != base


ACQREL_PUBLISH = """\
struct pub { int payload; int ready; };

void w(struct pub *p)
{
\tsmp_store_release(&p->ready, 1);
\tp->payload = 1;
}

int r(struct pub *p)
{
\tif (!smp_load_acquire(&p->ready))
\t\treturn 0;
\tconsume(p->payload);
\treturn 1;
}
"""


class TestAcquireReleaseFingerprints:
    """Identity rules hold for publish-before-init findings too."""

    def test_finding_gets_a_fingerprint(self):
        base = fingerprints_of({"a.c": ACQREL_PUBLISH})
        assert base

    def test_shift_and_comment_noise_preserve_fingerprints(self):
        base = fingerprints_of({"a.c": ACQREL_PUBLISH})
        shifted = PADDING + "\n" + ACQREL_PUBLISH
        assert fingerprints_of({"a.c": shifted}) == base
        noisy = ACQREL_PUBLISH.replace(
            "\tsmp_store_release(&p->ready, 1);",
            "\t/* publish */\n\n\tsmp_store_release(&p->ready, 1);",
        )
        assert fingerprints_of({"a.c": noisy}) == base

    def test_unrelated_renames_preserve_fingerprints(self):
        base = fingerprints_of({"a.c": ACQREL_PUBLISH})
        renamed = ACQREL_PUBLISH.replace("*p", "*obj").replace(
            "p->", "obj->"
        )
        assert fingerprints_of({"a.c": renamed}) == base

    def test_changing_the_release_primitive_changes_identity(self):
        base = fingerprints_of({"a.c": ACQREL_PUBLISH})
        # A plain smp_wmb no longer implies the flag store, so the
        # publish-before-init identity must not survive the swap.
        changed = ACQREL_PUBLISH.replace(
            "smp_store_release(&p->ready, 1);", "smp_wmb();\n\tp->ready = 1;"
        )
        other = fingerprints_of({"a.c": changed})
        assert not (set(base) & set(other))


class TestNormalization:
    def test_normalize_path(self):
        assert normalize_path("./a/b.c") == "a/b.c"
        assert normalize_path("a\\b.c") == "a/b.c"
        assert normalize_path("a//b/../c.c") == "a/c.c"

    def test_context_window_skips_comments_and_blanks(self):
        text = (
            "void f(void)\n{\n\tint x = 1;\n\n"
            "\t/* noise */\n\tsmp_wmb();\n\tx = 2;\n}\n"
        )
        noisy = (
            "void f(void)\n{\n\tint x = 1;\n\n\n"
            "\t/* more */\n\t/* noise */\n\n\tsmp_wmb();\n"
            "\t// trailing\n\tx = 2;\n}\n"
        )
        assert (
            context_window(text, 6) == context_window(noisy, 9)
        )

    def test_context_window_stops_at_function_boundary(self):
        # The sibling definition above must never leak into the window.
        one = "int other(void)\n{\n\treturn 1;\n}\n" \
              "void f(void)\n{\n\tsmp_wmb();\n}\n"
        two = "int different_one(int arg)\n{\n\treturn arg + 2;\n}\n" \
              "void f(void)\n{\n\tsmp_wmb();\n}\n"
        assert context_window(one, 7) == context_window(two, 7)

    def test_alpha_rename_is_consistent(self):
        a = context_window("void f(void)\n{\n\tcount = count + step;\n}", 3)
        b = context_window("void f(void)\n{\n\ttotal = total + delta;\n}", 3)
        assert a == b

    def test_anchor_tokens_survive(self):
        window = context_window(
            "void f(void)\n{\n\tsmp_wmb();\n\tWRITE_ONCE(x, 1);\n}", 3
        )
        joined = "\n".join(window)
        assert "smp_wmb" in joined
        assert "WRITE_ONCE" in joined

    def test_compute_fingerprint_without_text_is_stable(self):
        class FakeKind:
            value = "missing-annotation"

        class FakeFix:
            value = "add-annotation"

        class FakeFinding:
            kind = FakeKind()
            filename = "a.c"
            function = "f"
            line = 3
            fix_action = FakeFix()
            object_key = None
            barrier = None
            use = None

        one = compute_fingerprint(FakeFinding(), None)
        two = compute_fingerprint(FakeFinding(), None)
        assert one == two
        assert len(one) == 16


class TestAttachOncePerFile:
    def test_attach_matches_per_finding_compute_over_small_corpus(self):
        from repro.corpus.generator import CorpusSpec, generate_corpus
        from repro.store.fingerprint import attach_fingerprints

        corpus = generate_corpus(CorpusSpec.small(), 5)
        result = OFenceEngine(corpus.source).analyze()
        findings = result.report.all_findings
        assert len({f.filename for f in findings}) > 1
        expected = [
            compute_fingerprint(f, corpus.source.files.get(f.filename))
            for f in findings
        ]
        for finding in findings:
            finding.fingerprint = None
        attach_fingerprints(findings, corpus.source.files)
        assert [f.fingerprint for f in findings] == expected

    def test_missing_file_text_degrades_like_compute(self):
        from repro.store.fingerprint import attach_fingerprints

        result = OFenceEngine(
            KernelSource(files={"a.c": WRITER_READER})
        ).analyze()
        findings = result.report.all_findings
        attach_fingerprints(findings, {})
        assert [f.fingerprint for f in findings] == [
            compute_fingerprint(f, None) for f in findings
        ]
