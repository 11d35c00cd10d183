"""Table 3 — breakdown of the bugs found in the kernel.

Paper: 12 bugs — 8 misplaced memory accesses, 3 racy re-reads, 1 wrong
barrier type.  The corpus injects exactly those proportions; the
benchmark runs the full checker suite and renders the
ground-truth-confirmed breakdown (``repro corpus`` prints the raw
finding counts, which include the 12 expected false positives).
"""

from repro.checkers.runner import CheckerSuite
from repro.core.report import render_table


def run_checkers(result, cfg_lookup):
    return CheckerSuite(cfg_lookup, annotate=False).run(result.pairing)


def test_table3_bug_breakdown(benchmark, paper_corpus, paper_result,
                              paper_score, emit):
    from repro.core.engine import OFenceEngine

    engine = OFenceEngine(paper_corpus.source)
    engine.analyze()  # warm caches for cfg lookups
    report = benchmark.pedantic(
        run_checkers, args=(paper_result, engine._cfg_lookup),
        rounds=3, iterations=1,
    )

    confirmed = paper_score.detected_table3()
    rows = [
        (bucket, f"paper={paper}  measured={confirmed[bucket]}")
        for bucket, paper in [
            ("Misplaced memory access", 8),
            ("Racy variable re-read after the read barrier", 3),
            ("Read barrier used instead of a write barrier", 1),
        ]
    ]
    emit("table3", render_table(
        "Table 3 (confirmed bugs): breakdown of the bugs found in the "
        "kernel", rows
    ))

    # Shape assertions: same ranking and exact counts under ground truth.
    assert confirmed["Misplaced memory access"] == 8
    assert confirmed["Racy variable re-read after the read barrier"] == 3
    assert confirmed["Read barrier used instead of a write barrier"] == 1
    assert not paper_score.missed_bugs
    # Raw findings additionally include the 12 expected false positives.
    raw = report.table3_breakdown()
    assert raw["Misplaced memory access"] >= 8
