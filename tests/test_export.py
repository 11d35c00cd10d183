"""Tests for the JSON export and the `ofence json` CI entry point."""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.core.engine import KernelSource, OFenceEngine
from repro.core.export import result_to_dict, result_to_json
from repro.corpus.generator import CorpusSpec, generate_corpus

WRITER = """
struct s { int flag; int data; };
void w(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }
"""
BUGGY_READER = """
struct s { int flag; int data; };
void r(struct s *p) {
    smp_rmb();
    if (!p->flag) return;
    g(p->data);
}
"""


@pytest.fixture(scope="module")
def result():
    source = KernelSource(files={"w.c": WRITER, "r.c": BUGGY_READER})
    return OFenceEngine(source).analyze()


class TestResultToDict:
    def test_stats_section(self, result):
        data = result_to_dict(result)
        stats = data["stats"]
        assert stats["barriers"] == 2
        assert stats["pairings"] == 1
        assert stats["files_analyzed"] == 2
        assert 0 <= stats["coverage"] <= 1

    def test_pairings_section(self, result):
        data = result_to_dict(result)
        (pairing,) = data["pairings"]
        assert len(pairing["barriers"]) == 2
        assert len(pairing["common_objects"]) == 2
        assert not pairing["multi"]

    def test_findings_section(self, result):
        data = result_to_dict(result)
        (finding,) = data["findings"]["ordering"]
        assert finding["kind"] == "misplaced-memory-access"
        assert finding["file"] == "r.c"
        assert finding["object"] == "(struct s, flag)"

    def test_patches_without_diffs_by_default(self, result):
        data = result_to_dict(result)
        assert data["patches"]
        assert "diff" not in data["patches"][0]

    def test_patches_with_diffs(self, result):
        data = result_to_dict(result, include_diffs=True)
        misplaced = [
            p for p in data["patches"]
            if p["finding"].startswith("misplaced")
        ]
        assert "smp_rmb" in misplaced[0]["diff"]

    def test_json_roundtrip(self, result):
        text = result_to_json(result)
        data = json.loads(text)
        assert data["stats"]["pairings"] == 1

    def test_table3_in_export(self, result):
        data = result_to_dict(result)
        assert data["table3"]["Misplaced memory access"] == 1


class TestFindingIds:
    def test_ids_unique_and_patches_join_one_finding(self):
        # Seed 31 has two annotations on one line (`it->val + it->tag`),
        # which share kind, file, function and line but not the object.
        corpus = generate_corpus(CorpusSpec.small(), seed=31)
        data = result_to_dict(OFenceEngine(corpus.source).analyze(),
                              include_diffs=True)
        ids = Counter(finding["id"] for group in data["findings"].values()
                      for finding in group)
        assert ids and max(ids.values()) == 1
        assert data["patches"]
        for patch in data["patches"]:
            assert ids[patch["finding"]] == 1


class TestJsonCommand:
    def test_exit_one_on_bugs(self, tmp_path, capsys):
        w = tmp_path / "w.c"
        w.write_text(WRITER)
        r = tmp_path / "r.c"
        r.write_text(BUGGY_READER)
        code = main(["json", str(w), str(r)])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["pairings"] == 1
        assert data["findings"]["ordering"]

    def test_exit_zero_on_clean_code(self, tmp_path, capsys):
        fixed = BUGGY_READER.replace(
            "smp_rmb();\n    if (!p->flag) return;",
            "if (!p->flag) return;\n    smp_rmb();",
        )
        w = tmp_path / "w.c"
        w.write_text(WRITER)
        r = tmp_path / "r.c"
        r.write_text(fixed)
        assert main(["json", str(w), str(r)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["findings"]["ordering"] == []
