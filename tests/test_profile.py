"""Tests for the stage profiler (repro.core.profile)."""

import dataclasses
import math

import pytest

from repro.core.engine import AnalysisOptions, KernelSource, OFenceEngine
from repro.core.profile import StageProfile
from repro.corpus import CorpusSpec, generate_corpus
from repro.cparse import preprocessor
from repro.exec.executor import AnalysisExecutor
from repro.trace import count, recording, span, start_trace


class TestStageProfile:
    def test_stage_context_manager_accumulates(self):
        profile = StageProfile()
        with recording(profile):
            with span("engine.scan"):
                pass
            with span("engine.scan"):
                pass
        assert profile.stages["scan"] >= 0.0
        assert len(profile.stages) == 1

    def test_span_and_count_outside_a_recording_are_no_ops(self):
        profile = StageProfile()
        with recording(profile):
            with span("store.record"):  # not an engine stage
                pass
        with span("engine.scan") as record:
            count("scan.scanned")
        assert record is None
        assert profile.stages == {} and profile.counters == {}

    def test_coarse_hides_substages(self):
        profile = StageProfile()
        profile.add("scan", 1.0)
        profile.add("scan.keys", 0.25)
        profile.add("pair", 0.5)
        assert profile.coarse() == {"scan": 1.0, "pair": 0.5}

    def test_counters_accumulate(self):
        profile = StageProfile()
        profile.count("scan.memory_hits")
        profile.count("scan.memory_hits", 3)
        assert profile.counters["scan.memory_hits"] == 4

    def test_render_lists_stages_and_counters(self):
        profile = StageProfile()
        profile.add("scan", 0.5)
        profile.add("scan.keys", 0.1)
        profile.count("scan.disk_hits", 7)
        text = profile.render()
        assert "Stage profile" in text
        assert "scan" in text and "scan.keys" in text
        assert "scan.disk_hits" in text and "7" in text


class TestEngineProfile:
    SRC = {
        "w.c": "struct s { int a; int b; };\n"
               "void w(struct s *p) { p->a = 1; smp_wmb(); p->b = 1; }\n",
    }

    def test_result_carries_profile(self):
        result = OFenceEngine(KernelSource(files=dict(self.SRC))).analyze()
        assert result.profile.coarse() == result.stage_seconds
        assert set(result.stage_seconds) == {
            "scan", "pair", "check", "fingerprint", "patch"
        }
        assert "pair.sync" in result.profile.stages
        assert result.profile.counters["scan.scanned"] == 1

    def test_incremental_run_reports_index_reuse(self):
        engine = OFenceEngine(KernelSource(files=dict(self.SRC)))
        engine.analyze()
        again = engine.reanalyze_file("w.c")
        counters = again.profile.counters
        assert counters.get("pair.files_updated", 0) == 0
        assert counters.get("scan.memory_hits") == 1


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec.small(), seed=31)


#: (hits, misses) counters of every engine memo, one pair per memo.
MEMO_COUNTERS = (
    ("prefilter.hits", "prefilter.misses"),
    ("scan.memory_hits", "scan.memory_misses"),
    ("scan.disk_hits", "scan.scanned"),
    ("pair.candidates_reused", "pair.candidates_computed"),
    ("pair.pairings_reused", "pair.pairings_built"),
    ("check.reused", "check.rechecked"),
    ("check.unneeded_reused", "check.unneeded_rechecked"),
    ("check.annotations_reused", "check.annotations_rechecked"),
    ("fingerprint.reused", "fingerprint.computed"),
    ("patch.memo_hits", "patch.memo_misses"),
)


class TestMemoCounters:
    def test_fresh_run_never_hits_and_identical_rerun_never_misses(
        self, corpus
    ):
        # A copy of the tree: the prefilter memo lives on the source.
        engine = OFenceEngine(dataclasses.replace(corpus.source))
        fresh = engine.analyze().profile.counters
        warm = engine.analyze().profile.counters
        for hits, misses in MEMO_COUNTERS:
            assert fresh[hits] == 0 and fresh[misses] > 0, (hits, misses)
            assert warm[misses] == 0 and hits in warm, (hits, misses)
        # The in-memory entry serves the rerun; the disk is not asked.
        assert warm["scan.memory_hits"] == fresh["scan.memory_misses"]
        assert warm["patch.memo_hits"] == fresh["patch.memo_misses"]
        assert warm["fingerprint.reused"] == fresh["fingerprint.computed"]

    def test_profile_lists_each_memo_pair_once(self, corpus, tmp_path,
                                               capsys):
        from repro.cli import main

        corpus.source.write_to(tmp_path)
        assert main(["analyze", str(tmp_path), "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for pair in MEMO_COUNTERS:
            for name in pair:
                assert sum(
                    line.split()[:1] == [name] for line in lines
                ) == 1, name


class TestDefineMemo:
    """The lex memo of macro bodies and headers outlives engines, so
    each test starts it empty."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(preprocessor, "_BODIES", {})

    def test_second_file_hits(self):
        text = '#include "m.h"\n' + TestEngineProfile.SRC["w.c"]
        source = KernelSource(files={"a.c": text, "b.c": text},
                              headers={"m.h": "#define WIDTH 32\n"})
        defines = AnalysisOptions().config.defines()
        assert set(defines.values()) == {"1"}
        counters = OFenceEngine(source).analyze().profile.counters
        # a.c lexes "1" once and WIDTH's body once; b.c lexes nothing.
        assert counters["define.misses"] == 2
        assert counters["define.hits"] == 2 * len(defines)

    def test_header_edit_misses_and_unchanged_header_hits(self):
        text = '#include "m.h"\n#include "n.h"\n' + \
            TestEngineProfile.SRC["w.c"]
        source = KernelSource(
            files={"a.c": text, "b.c": text},
            headers={"m.h": "#define WIDTH 32\n", "n.h": "int n;\n"},
        )
        engine = OFenceEngine(source)
        counters = engine.analyze().profile.counters
        # a.c lexes each header once; b.c lexes neither.
        assert (counters["header.misses"], counters["header.hits"]) == (2, 2)
        source.headers["m.h"] = "#define WIDTH 64\n"
        counters = engine.analyze().profile.counters
        # Both files re-scan: the edited m.h misses once, n.h hits twice.
        assert counters["scan.scanned"] == 2
        assert (counters["header.misses"], counters["header.hits"]) == (1, 3)

    def test_profile_lists_its_pair_once(self, corpus, tmp_path, capsys):
        from repro.cli import main

        corpus.source.write_to(tmp_path)
        assert main(["analyze", str(tmp_path), "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in ("define.hits", "define.misses",
                     "header.hits", "header.misses"):
            assert sum(line.split()[:1] == [name] for line in lines) == 1


def _assert_stages_are_span_sums(result, trace) -> None:
    """Each ``profile.stages[k]`` is the sum of its ``engine.<k>`` spans."""
    totals: dict[str, float] = {}
    for record in trace.export():
        if record["name"].startswith("engine."):
            stage = record["name"][len("engine."):]
            totals[stage] = totals.get(stage, 0.0) + record["duration"]
    assert set(totals) == set(result.profile.stages)
    for stage, seconds in result.profile.stages.items():
        assert math.isclose(seconds, totals[stage], rel_tol=1e-9), stage


class TestOneRecording:
    def test_serial_profile_is_the_span_aggregate(self, corpus):
        with start_trace("analyze", node="t") as trace:
            result = OFenceEngine(corpus.source).analyze()
        _assert_stages_are_span_sums(result, trace)
        assert {"fingerprint", "pair.sync", "scan.keys"} <= set(
            result.profile.stages
        )

    def test_executor_profile_is_the_span_aggregate(self, corpus):
        with AnalysisExecutor(workers=2) as executor:
            options = AnalysisOptions(
                workers=2, executor=executor, exec_min_batch=1
            )
            with start_trace("analyze", node="t") as trace:
                result = OFenceEngine(corpus.source, options).analyze()
        _assert_stages_are_span_sums(result, trace)
        assert {"scan.exec", "pair.exec", "check.exec"} <= set(
            result.profile.stages
        )

    def test_untraced_run_records_the_same_stages_and_counters(
        self, corpus
    ):
        with start_trace("analyze", node="t"):
            traced = OFenceEngine(corpus.source).analyze()
        untraced = OFenceEngine(corpus.source).analyze()
        assert set(untraced.profile.stages) == set(traced.profile.stages)
        assert untraced.profile.counters == traced.profile.counters
