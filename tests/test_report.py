"""Tests for the evaluation-report rendering and figure data."""

import pytest

from repro.core.engine import KernelSource, OFenceEngine
from repro.core.report import (
    DistanceHistogram,
    EvaluationReport,
    WindowSweepPoint,
    read_distance_histogram,
    render_table,
    sweep_to_csv,
    sweep_write_window,
    write_distance_histogram,
)

PAIR = """
struct s { int flag; int data; };
void w(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }
void r(struct s *p) {
    if (!p->flag) return;
    smp_rmb();
    pad1(); pad2(); pad3(); pad4(); pad5(); pad6();
    g(p->data);
}
"""


@pytest.fixture(scope="module")
def result():
    return OFenceEngine(KernelSource(files={"a.c": PAIR})).analyze()


class TestRenderTable:
    def test_alignment(self):
        text = render_table("Title", [("short", 1), ("longer-label", 22)])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[2].startswith("short ")
        # Values align at the same column.
        assert lines[2].index("1") == lines[3].index("22")

    def test_empty_rows(self):
        assert "Empty" in render_table("Empty", [])


class TestHistograms:
    def test_read_histogram_buckets_by_distance(self, result):
        histogram = read_distance_histogram(result, bin_width=5)
        assert sum(histogram.counts) == 2  # flag read + payload read
        # data read sits at distance 7: second bin.
        assert histogram.counts[1] >= 1

    def test_write_histogram(self, result):
        histogram = write_distance_histogram(result)
        assert sum(histogram.counts) == 2  # data + flag writes

    def test_render_contains_bars(self, result):
        text = read_distance_histogram(result).render()
        assert "#" in text

    def test_to_csv(self):
        histogram = DistanceHistogram(bin_edges=[0, 5, 10], counts=[3, 1])
        csv = histogram.to_csv()
        assert csv.splitlines() == [
            "bin_low,bin_high,count", "0,4,3", "5,9,1",
        ]

    def test_distances_capped_at_max(self, result):
        histogram = read_distance_histogram(result, max_distance=5)
        # The far payload read is clamped into the last bin, not lost.
        assert sum(histogram.counts) == 2


class TestSweep:
    def test_sweep_returns_point_per_window(self):
        source = KernelSource(files={"a.c": PAIR})
        points = sweep_write_window(source, [1, 5])
        assert [p.write_window for p in points] == [1, 5]
        assert all(p.incorrect_pairings is None for p in points)

    def test_sweep_to_csv(self):
        points = [
            WindowSweepPoint(1, 10, 2),
            WindowSweepPoint(5, 20, None),
        ]
        csv = sweep_to_csv(points)
        assert csv.splitlines() == [
            "write_window,pairings,incorrect_pairings", "1,10,2", "5,20,",
        ]


class TestEvaluationReport:
    def test_render_without_score(self, result):
        text = EvaluationReport(result).render()
        assert "Section 6.1" in text
        assert "Correct pairings" not in text  # score-only rows absent

    def test_table3_is_labelled_raw(self, result):
        # The report counts findings before triage (known false
        # positives included), so it must not claim confirmed bugs.
        title = EvaluationReport(result).table3().splitlines()[0]
        assert title.startswith("Table 3 (raw findings")
        assert "bugs found" not in title

    def test_section_timings_listed(self, result):
        text = EvaluationReport(result).section_6_1()
        for stage in ("scan", "pair", "check", "patch"):
            assert stage in text
