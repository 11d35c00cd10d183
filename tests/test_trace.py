"""Tests for end-to-end request tracing (``repro.trace``) and the
hardening sweep that rode along with it.

The tracing contract under test: one analysis produces one coherent
span tree no matter how many tiers it crosses (CLI → serve daemon →
exec workers), the tree is *complete* (every span closed, every parent
resolvable) even when workers crash mid-run, and tracing is strictly
observational — a traced run is bit-for-bit identical to an untraced
one.

The hardening side: ``LatencyWindow`` is safe to read while written,
drain never silently downgrades in-flight pool work to serial re-runs
(``ExecutorClosed`` surfaces instead), and client retry loops do not
leak sockets on 503 storms.
"""

import gc
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core.engine import (
    AnalysisOptions,
    OFenceEngine,
    run_in_mode,
)
from repro.corpus import CorpusSpec, generate_corpus
from repro.exec import AnalysisExecutor, ExecutorClosed
from repro.exec.protocol import ExecContext
from repro.fuzz.differential import DEFAULT_MODES, run_signature
from repro.fuzz.generate import generate_case
from repro.fuzz.harness import run_fuzz
from repro.serve.client import ClientError, ServeClient
from repro.serve.metrics import LatencyWindow, MetricsRegistry
from repro.serve.server import AnalysisServer, AnalysisService
from repro.serve.wire import encode_source
from repro.trace import (
    TRACE_HEADER,
    SpanRecord,
    Trace,
    dangling,
    format_header,
    new_id,
    parse_header,
    render_tree,
    ship,
    ship_header,
    span,
    start_trace,
    to_chrome,
    validate_chrome,
)

WORKERS = int(os.environ.get("EXEC_TEST_WORKERS", "2"))


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec.small(), seed=31)


@pytest.fixture(scope="module")
def serial_signature(corpus):
    return run_signature(OFenceEngine(corpus.source).analyze())


# ---------------------------------------------------------------------------
# Span / trace primitives
# ---------------------------------------------------------------------------


class TestSpanPrimitives:
    def test_span_is_noop_without_active_trace(self):
        assert ship() is None
        assert ship_header() is None
        with span("orphan") as record:
            assert record is None
        assert ship() is None

    def test_nesting_builds_parent_links(self):
        with start_trace("root", node="t") as trace:
            with span("child") as child:
                with span("grandchild") as grand:
                    pass
        spans = {s["name"]: s for s in trace.export()}
        assert spans["root"]["parent_id"] is None
        assert spans["child"]["parent_id"] == spans["root"]["span_id"]
        assert spans["grandchild"]["parent_id"] == child.span_id
        assert grand.parent_id == child.span_id
        for record in trace.export():
            assert record["duration"] is not None
        assert dangling(trace.export()) == []

    def test_escaping_exception_closes_span_and_tags_error(self):
        with start_trace("root", node="t") as trace:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        doomed = next(
            s for s in trace.export() if s["name"] == "doomed"
        )
        assert doomed["duration"] is not None
        assert doomed["meta"]["error"] == "ValueError"
        assert dangling(trace.export()) == []

    def test_ship_reflects_current_span(self):
        with start_trace("root", node="t") as trace:
            tid, root_id = ship()
            assert tid == trace.trace_id
            with span("inner") as inner:
                assert ship() == (trace.trace_id, inner.span_id)
            assert ship() == (tid, root_id)

    def test_header_round_trip(self):
        assert parse_header(format_header("abc")) == ("abc", None)
        assert parse_header(format_header("abc", "d0")) == ("abc", "d0")
        assert parse_header(None) is None
        assert parse_header("") is None
        assert parse_header("/orphan-parent") is None
        with start_trace("root", node="t") as trace:
            shipped = ship_header()
            assert parse_header(shipped)[0] == trace.trace_id

    def test_absorb_drops_malformed_records(self):
        trace = Trace(node="t")
        good = SpanRecord(name="remote", duration=0.1).as_dict()
        absorbed = trace.absorb([good, {"garbage": True}, "not-a-dict"])
        assert absorbed == 1
        assert [s["name"] for s in trace.export()] == ["remote"]


class TestExport:
    def _sample_spans(self):
        with start_trace("root", node="node-a") as trace:
            with span("child", detail=1):
                pass
        return trace

    def test_to_chrome_is_schema_valid(self):
        trace = self._sample_spans()
        doc = to_chrome(trace.trace_id, trace.export())
        assert validate_chrome(doc) == []
        # JSON-serialisable end to end (what --trace writes to disk).
        assert validate_chrome(json.loads(json.dumps(doc))) == []
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"root", "child"}
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "node-a"
        assert doc["otherData"]["trace_id"] == trace.trace_id

    def test_validate_chrome_rejects_malformed_documents(self):
        assert validate_chrome([]) != []
        assert validate_chrome({}) != []
        assert validate_chrome({"traceEvents": []}) != []
        bad_event = {"traceEvents": [{"ph": "X", "name": 3}]}
        problems = validate_chrome(bad_event)
        assert any("name" in p for p in problems)
        negative = {"traceEvents": [
            {"ph": "X", "name": "n", "ts": 0, "dur": -1,
             "pid": 1, "tid": 1},
        ]}
        assert any("dur" in p for p in validate_chrome(negative))

    def test_dangling_flags_open_spans_and_missing_parents(self):
        closed = SpanRecord(name="ok", duration=0.1).as_dict()
        never_closed = SpanRecord(name="open").as_dict()
        orphan = SpanRecord(
            name="orphan", parent_id="nope", duration=0.1
        ).as_dict()
        problems = dangling([closed, never_closed, orphan])
        assert len(problems) == 2
        assert any("never closed" in p for p in problems)
        assert dangling([closed]) == []

    def test_render_tree_shows_hierarchy(self):
        trace = self._sample_spans()
        text = render_tree(trace.export())
        assert "root" in text and "child" in text
        root_line = next(
            line for line in text.splitlines() if "root" in line
        )
        child_line = next(
            line for line in text.splitlines() if "child" in line
        )
        indent = lambda s: len(s) - len(s.lstrip())  # noqa: E731
        assert indent(child_line) > indent(root_line)


# ---------------------------------------------------------------------------
# Engine instrumentation + tracing-is-observational oracle
# ---------------------------------------------------------------------------


class TestEngineTracing:
    def test_engine_stages_produce_spans(self, corpus, serial_signature):
        with start_trace("analyze", node="t") as trace:
            result = OFenceEngine(corpus.source).analyze()
        assert run_signature(result) == serial_signature
        names = {s["name"] for s in trace.export()}
        assert {"analyze", "engine.scan", "engine.pair",
                "engine.check", "engine.patch"} <= names
        assert dangling(trace.export()) == []
        scan = next(
            s for s in trace.export() if s["name"] == "engine.scan"
        )
        assert scan["meta"]["files"] > 0
        assert scan["meta"]["scanned"] <= scan["meta"]["files"]

    def test_untraced_run_records_nothing(self, corpus):
        result = OFenceEngine(corpus.source).analyze()
        assert result.report is not None
        assert ship() is None

    @pytest.mark.parametrize("mode", DEFAULT_MODES)
    def test_every_mode_is_identical_under_ambient_trace(self, mode):
        case = generate_case(7)
        baseline = run_signature(run_in_mode("serial", case.source))
        with start_trace("ambient", node="test") as trace:
            result = run_in_mode(mode, case.source)
        assert run_signature(result) == baseline, mode
        assert dangling(trace.export()) == []

    def test_traced_mode_differential_over_25_seeds(self, tmp_path):
        report = run_fuzz(
            iterations=25,
            seed=0,
            artifacts_dir=str(tmp_path),
            reduce=False,
            modes=("serial", "traced"),
        )
        assert report.ok, report.render()


# ---------------------------------------------------------------------------
# Failure-mode propagation (S4): crash / fallback
# ---------------------------------------------------------------------------


class TestTraceFailureModes:
    def test_worker_crash_mid_span_still_completes_tree(
        self, corpus, serial_signature
    ):
        with AnalysisExecutor(workers=WORKERS) as executor:
            executor.inject_worker_crash(0)
            options = AnalysisOptions(
                workers=WORKERS, executor=executor, exec_min_batch=1
            )
            with start_trace("analyze", node="t") as trace:
                result = OFenceEngine(corpus.source, options).analyze()
        assert run_signature(result) == serial_signature
        spans = trace.export()
        assert dangling(spans) == []
        exec_nodes = {
            s["node"] for s in spans if s["node"].startswith("exec:")
        }
        assert exec_nodes, "no exec worker spans were absorbed"

    def test_serial_fallback_on_closed_executor_completes_tree(
        self, corpus, serial_signature
    ):
        executor = AnalysisExecutor(workers=WORKERS)
        executor.close()
        options = AnalysisOptions(
            workers=None, executor=executor, exec_min_batch=1
        )
        with start_trace("analyze", node="t") as trace:
            result = OFenceEngine(corpus.source, options).analyze()
        assert run_signature(result) == serial_signature
        spans = trace.export()
        assert dangling(spans) == []
        assert not any(s["node"].startswith("exec:") for s in spans)
        assert {"engine.scan", "engine.pair", "engine.check"} <= {
            s["name"] for s in spans
        }


# ---------------------------------------------------------------------------
# Serve daemon: header propagation, /trace endpoint, metrics
# ---------------------------------------------------------------------------


class TestServeTracing:
    def test_traced_submission_end_to_end(self, corpus):
        with AnalysisServer(
            options=AnalysisOptions(), exec_workers=WORKERS
        ) as server:
            client = ServeClient(server.url)
            trace_id = new_id()
            response = client.analyze(
                corpus.source, wait=True, trace=trace_id
            )
            assert response["status"] == "done"
            payload = client.job_trace(response["job_id"])
            assert payload["trace_id"] == trace_id
            assert payload["complete"] is True
            spans = payload["spans"]
            assert dangling(spans) == []
            names = {s["name"] for s in spans}
            assert "job" in names and "engine.scan" in names
            job_span = next(s for s in spans if s["name"] == "job")
            assert job_span["parent_id"] is None
            assert any(
                s["node"].startswith("exec:") for s in spans
            ), "exec worker spans missing from the job trace"
            # The root job span wall-clock matches the job's run time.
            run_seconds = response["run_seconds"]
            tolerance = max(0.05 * run_seconds, 0.05)
            assert abs(job_span["duration"] - run_seconds) <= tolerance
            # The tree exports as a valid Chrome trace document.
            doc = to_chrome(trace_id, spans)
            assert validate_chrome(doc) == []
            assert validate_chrome(json.loads(json.dumps(doc))) == []
            # Span durations feed the trace metrics.
            text = client.metrics_text()
            assert "ofence_trace_traces" in text
            assert 'ofence_trace_spans_total{span="job"}' in text
            assert "ofence_trace_span_seconds" in text
            # Untraced jobs have no tree to serve.
            untraced = client.analyze(corpus.source, wait=True)
            with pytest.raises(ClientError) as excinfo:
                client.job_trace(untraced["job_id"])
            assert excinfo.value.status == 404

    def test_ambient_trace_propagates_via_header(self, corpus):
        with AnalysisServer(
            options=AnalysisOptions(), exec_workers=None
        ) as server:
            client = ServeClient(server.url)
            with start_trace("client", node="cli") as trace:
                response = client.analyze(corpus.source, wait=True)
            payload = client.job_trace(response["job_id"])
            # The server recorded under the ambient trace id, and the
            # job span hangs off the client's root span.
            assert payload["trace_id"] == trace.trace_id
            root = next(
                s for s in trace.export() if s["name"] == "client"
            )
            job_span = next(
                s for s in payload["spans"] if s["name"] == "job"
            )
            assert job_span["parent_id"] == root["span_id"]
            assert job_span["node"] == f"{server.host}:{server.port}"


# ---------------------------------------------------------------------------
# S2: drain semantics — ExecutorClosed instead of silent serial
# ---------------------------------------------------------------------------


class TestDrainHardening:
    def test_scan_on_closed_executor_raises(self):
        executor = AnalysisExecutor(workers=1)
        executor.close()
        ctx = ExecContext.build({}, {}, 5, 50)
        with pytest.raises(ExecutorClosed):
            executor.scan(
                [("a.c", "int x;\n", "k0")], ctx, lambda *a: None
            )
        with pytest.raises(ExecutorClosed):
            executor.pair_candidates("ns", {}, [("a.c", 0)], "tok", ctx)

    def test_close_during_inflight_op_raises_executor_closed(
        self, corpus
    ):
        executor = AnalysisExecutor(workers=1)
        ctx = ExecContext.build({}, {}, 5, 50)
        files = corpus.source.files
        paths = sorted(files)[:9]  # 3 batches with one worker
        jobs = [
            (path, files[path], f"k{i}")
            for i, path in enumerate(paths)
        ]

        def close_on_first_result(cached, key):
            executor.close()  # drain closing the pool mid-op

        with pytest.raises(ExecutorClosed):
            executor.scan(jobs, ctx, close_on_first_result)
        assert executor.closed

    def test_drain_under_load_finishes_every_accepted_job(self, corpus):
        service = AnalysisService(
            options=AnalysisOptions(),
            exec_workers=WORKERS,
            queue_capacity=32,
            workers=1,
        )
        payload = {"source": encode_source(corpus.source)}
        jobs = [service.submit_analyze(payload) for _ in range(3)]
        assert service.drain(timeout=180) is True
        for job in jobs:
            assert job.status == "done", (job.job_id, job.error)
            assert job.result is not None
        assert service.executor.closed


# ---------------------------------------------------------------------------
# S1: LatencyWindow race + tiny-window percentiles
# ---------------------------------------------------------------------------


class TestLatencyWindow:
    def test_single_sample_is_every_percentile(self):
        window = LatencyWindow()
        window.record(0.1)
        for p in (50, 95, 99):
            assert window.percentile(p) == 0.1
        summary = window.summary()
        assert summary["count"] == 1
        assert summary["p50_ms"] == summary["p99_ms"]

    def test_two_samples_keep_percentiles_ordered(self):
        window = LatencyWindow()
        window.record(0.3)
        window.record(0.1)
        assert window.percentile(50) == 0.1
        assert window.percentile(95) == 0.3
        assert window.percentile(99) == 0.3
        summary = window.summary()
        assert summary["p50_ms"] <= summary["p95_ms"] \
            <= summary["p99_ms"]

    def test_empty_window_reports_none(self):
        window = LatencyWindow()
        assert window.percentile(99) is None
        assert window.summary()["p99_ms"] is None

    def test_concurrent_record_and_summary(self):
        window = LatencyWindow(maxlen=64)
        stop = threading.Event()
        failures = []

        def hammer():
            value = 0
            while not stop.is_set():
                window.record(value * 0.001)
                value += 1

        def read():
            try:
                for _ in range(400):
                    summary = window.summary()
                    if summary["count"]:
                        assert summary["p50_ms"] <= summary["p95_ms"]
                        assert summary["p95_ms"] <= summary["p99_ms"]
                    window.percentile(99)
            except Exception as exc:  # deque-mutation race, ordering
                failures.append(exc)

        writers = [
            threading.Thread(target=hammer) for _ in range(4)
        ]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        for thread in writers:
            thread.join()
        assert failures == []

    def test_observe_trace_feeds_span_windows(self):
        registry = MetricsRegistry()
        trace = Trace(node="t")
        trace.add(SpanRecord(name="engine.scan", duration=0.2))
        trace.add(SpanRecord(name="engine.scan", duration=0.4))
        trace.add(SpanRecord(name="open-span"))  # ignored: no duration
        registry.observe_trace(trace)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["trace.traces"] == 1
        assert snapshot["counters"]["trace.spans"] == 3
        scan = snapshot["trace_spans"]["engine.scan"]
        assert scan["count"] == 2
        assert "open-span" not in snapshot["trace_spans"]
        text = registry.render_prometheus()
        assert 'ofence_trace_spans_total{span="engine.scan"} 2' in text


# ---------------------------------------------------------------------------
# S3: HTTPError socket leak in the retry path
# ---------------------------------------------------------------------------


class _BusyHandler(BaseHTTPRequestHandler):
    """Always answers 503 + Retry-After — a saturated daemon."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        body = json.dumps({"error": "job queue full"}).encode()
        self.send_response(503)
        self.send_header("Retry-After", "1")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"),
    reason="needs /proc to count open file descriptors",
)
class TestRetrySocketLeak:
    def test_503_storm_does_not_leak_file_descriptors(self):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _BusyHandler)
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        host, port = httpd.server_address
        client = ServeClient(f"http://{host}:{port}", timeout=5)
        submit = lambda: client._request(  # noqa: E731
            "POST", "/v1/analyze", {}
        )
        # With GC off, sockets left open on the HTTPError survive the
        # reference cycles urllib builds — exactly the leak mode.
        gc.disable()
        try:
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(20):
                with pytest.raises(ClientError) as excinfo:
                    client.submit_with_retry(
                        submit, attempts=2, max_backoff=0.01
                    )
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after == 1.0
            after = len(os.listdir("/proc/self/fd"))
        finally:
            gc.enable()
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
        # 40 failed requests; without exc.close() each pins a socket.
        assert after - before < 10, (before, after)


# ---------------------------------------------------------------------------
# render_tree sanity on a real multi-node trace (debug-output smoke)
# ---------------------------------------------------------------------------


def test_render_tree_on_engine_trace(corpus):
    with start_trace("analyze", node="cli") as trace:
        OFenceEngine(corpus.source).analyze()
    text = render_tree(trace.export())
    assert "analyze" in text
    assert "engine.pair" in text
