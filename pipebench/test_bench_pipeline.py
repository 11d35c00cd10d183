"""Smoke tests of the pipeline benchmark.

Run from the repository root::

    python -m pytest pipebench/test_bench_pipeline.py -q

Every workload runs for a few seconds on the small corpus, untraced and
traced.  A renamed public function that a layer wrapper sits on fails
here (the wrapper stops firing) instead of silently dropping a layer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_pipeline

bench_pipeline.import_program()

from pipeline_edits import MIX, EditGenerator  # noqa: E402
from pipeline_layers import ENTRY_POINTS, LayerTracer  # noqa: E402
from pipeline_workloads import WORKLOADS, copy_source, signature  # noqa: E402

from repro.core.engine import OFenceEngine  # noqa: E402
from repro.corpus.generator import CorpusSpec, generate_corpus  # noqa: E402

SCRIPT = Path(bench_pipeline.__file__)
SEED = 7

ALL = {f"{module}.{path}" for module, path, _layer, _count in ENTRY_POINTS}
SERVE_ONLY = {
    entry for entry in ALL
    if entry.startswith(("repro.exec.", "repro.serve.", "repro.store.db."))
}
#: Only an update of an already indexed file removes its old sites.
FRESH_ENGINE = {
    "repro.core.engine.OFenceEngine.reanalyze_file",
    "repro.pairing.algorithm.PairingIndex.remove_file",
}
#: Entry points each workload's timed steps must reach.
EXPECTED = {
    "cold": ALL - SERVE_ONLY - FRESH_ENGINE,
    "cached": ALL - SERVE_ONLY - FRESH_ENGINE,
    "edit": ALL - SERVE_ONLY - {
        "repro.core.engine.OFenceEngine.analyze",
    },
    "serve": ALL,
}


def run_bench(*args: str, root: Path = bench_pipeline.ROOT):
    """Run the benchmark copy under ``root`` from ``root``."""
    script = root / SCRIPT.parent.name / SCRIPT.name
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True,
        text=True, cwd=root, timeout=600,
    )


@pytest.fixture(scope="module")
def declared():
    return bench_pipeline.load_benchmark()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload, declared):
    results = {}
    for trace in ("0", "1"):
        proc = run_bench("--workload", workload, "--seed", str(SEED),
                         "--seconds", "2", "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])

    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        result = results[trace]
        assert sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"]
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert result["metrics"] == {
            metric["name"]: {"value": result["metrics"][metric["name"]]
                             ["value"], "unit": metric["unit"]}
            for metric in declared[group]
        }
    for metric in declared["end_to_end"]:
        assert results["0"]["metrics"][metric["name"]]["value"] > 0

    spans = json.loads(
        (bench_pipeline.WORK / f"trace-{workload}-{SEED}.json").read_text()
    )["spans"]
    fired = {span["entry"] for span in spans}
    assert EXPECTED[workload] - fired == set()


def test_every_entry_point_is_expected_somewhere():
    assert set().union(*EXPECTED.values()) == ALL


def test_traced_signature_equals_untraced():
    corpus = generate_corpus(CorpusSpec.small(), SEED)
    untraced = signature(OFenceEngine(corpus.source).analyze())
    tracer = LayerTracer()
    with tracer.installed():
        traced = signature(OFenceEngine(corpus.source).analyze())
    assert traced == untraced
    assert tracer.spans
    # Uninstalling restores every original attribute.
    before = len(tracer.spans)
    OFenceEngine(corpus.source).analyze()
    assert len(tracer.spans) == before


def test_edit_generator_never_breaks_the_tree():
    corpus = generate_corpus(CorpusSpec.small(), SEED)
    pristine = dict(corpus.source.files)
    engine = OFenceEngine(copy_source(corpus.source, pristine))
    reference = signature(engine.analyze())
    selected = engine.selected_files()[0]
    edits = EditGenerator({p: pristine[p] for p in selected}, SEED)
    kinds = {name: 0 for name, _share in MIX}
    changed = 0
    for _ in range(500):
        kind, path, text = edits.next()
        kinds[kind] += 1
        result = engine.reanalyze_file(path, text)
        assert result.files_failed == [], (kind, path)
        if kind == "move":
            changed += signature(result) != reference
    assert all(count > 0 for count in kinds.values()), kinds
    assert changed > 0  # moves do change sites and findings
    engine.source.files.update(edits.revert_all())
    assert signature(engine.analyze()) == reference


def test_edit_generator_is_deterministic():
    files = generate_corpus(CorpusSpec.small(), SEED).source.files
    first = EditGenerator(dict(files), SEED)
    second = EditGenerator(dict(files), SEED)
    assert [first.next() for _ in range(50)] == \
        [second.next() for _ in range(50)]


def test_verdicts():
    verdict = bench_pipeline.verdict
    base = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3,
            100.4]
    assert verdict(base, [v * 0.8 for v in base], True, 0.1)[0] == \
        "improved"
    assert verdict(base, [v * 1.2 for v in base], True, 0.1)[0] == \
        "regressed"
    assert verdict(base, list(reversed(base)), True, 0.1)[0] == \
        "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert verdict(noisy, noisy, True, 0.1)[0] == "unresolved"
    assert verdict(base, [v * 1.2 for v in base], False, 0.1) == \
        ("improved", 10)


def test_compare_reads_appended_runs(tmp_path, declared):
    name = declared["end_to_end"][1]["name"]

    def write(path, values):
        rows = [{"workload": "cold", "seed": i, "trace": 0, "correct": True,
                 "attempted": 1, "failed": 0,
                 "metrics": {name: {"value": v, "unit": "ms"}}}
                for i, v in enumerate(values)]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))

    write(tmp_path / "base.json", [100.0 + i / 10 for i in range(10)])
    write(tmp_path / "new.json", [130.0 + i / 10 for i in range(10)])
    proc = run_bench("--compare", str(tmp_path / "base.json"),
                     str(tmp_path / "new.json"))
    assert proc.returncode == 1
    assert "regressed" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench_pipeline.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(SCRIPT.parent, tmp_path / SCRIPT.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cold", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
