"""Contract and unit tests for the ``repro.serve`` subsystem.

The HTTP tests run a real in-process :class:`AnalysisServer` on an
ephemeral port and drive it through :class:`ServeClient` — the same
wire path production traffic takes.
"""

import threading
import time

import pytest

from repro.analysis.barrier_scan import ScanLimits
from repro.core.engine import AnalysisOptions, KernelSource
from repro.core.profile import StageProfile
from repro.serve import (
    AnalysisServer,
    AnalysisService,
    ClientError,
    EnginePool,
    Job,
    JobQueue,
    LatencyWindow,
    MetricsRegistry,
    QueueFull,
    ServeClient,
    decode_options,
    decode_source,
    encode_options,
    encode_source,
    tree_key,
)

WRITER = (
    "struct s { int flag; int data; };\n"
    "void w(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }\n"
)
READER = (
    "struct s { int flag; int data; };\n"
    "void r(struct s *p) {\n"
    "\tif (!p->flag) return;\n"
    "\tsmp_rmb();\n"
    "\tg(p->data);\n"
    "}\n"
)


#: READER with the flag check moved before the barrier: a known finding.
BUGGY_READER = READER.replace(
    "\tif (!p->flag) return;\n\tsmp_rmb();",
    "\tsmp_rmb();\n\tif (!p->flag) return;",
)


def small_source() -> KernelSource:
    return KernelSource(files={"w.c": WRITER, "r.c": READER})


def _wait_until_draining(queue: JobQueue) -> None:
    """Block on the queue's condition until a drain has begun."""
    with queue._cond:
        assert queue._cond.wait_for(lambda: not queue.accepting, timeout=30)


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


class TestWire:
    def test_source_round_trip(self):
        source = KernelSource(
            files={"a.c": "int x;"},
            headers={"h.h": "int h;"},
            file_options={"a.c": "CONFIG_NET"},
        )
        decoded = decode_source(encode_source(source))
        assert decoded.files == source.files
        assert decoded.headers == source.headers
        assert decoded.file_options == source.file_options

    def test_options_round_trip(self):
        options = AnalysisOptions(
            limits=ScanLimits(write_window=3, read_window=17),
            annotate=False,
            checks=frozenset({"missing_barrier"}),
        )
        decoded = decode_options(encode_options(options),
                                 AnalysisOptions())
        assert decoded.limits.write_window == 3
        assert decoded.limits.read_window == 17
        assert decoded.annotate is False
        assert decoded.checks == frozenset({"missing_barrier"})

    def test_none_options_copy_base(self):
        base = AnalysisOptions(workers=4)
        decoded = decode_options(None, base)
        assert decoded is not base
        assert decoded.workers == 4

    def test_tree_key_stable_and_content_sensitive(self):
        options = AnalysisOptions()
        k1 = tree_key(small_source(), options)
        k2 = tree_key(small_source(), options)
        assert k1 == k2
        edited = small_source()
        edited.files["w.c"] += "\n"
        assert tree_key(edited, options) != k1
        wider = AnalysisOptions(limits=ScanLimits(write_window=9))
        assert tree_key(small_source(), wider) != k1


# ---------------------------------------------------------------------------
# Engine pool
# ---------------------------------------------------------------------------


class TestEnginePool:
    def test_hit_miss_and_warm_reuse(self):
        pool = EnginePool(capacity=2)
        with pool.acquire("k1", source=small_source()) as engine:
            first = engine.analyze()
        with pool.acquire("k1", source=small_source()) as engine:
            warm = engine.analyze()
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert warm.profile.counters.get("scan.scanned", 0) == 0
        assert len(warm.sites) == len(first.sites)

    def test_lru_eviction(self):
        pool = EnginePool(capacity=2)
        for key in ("a", "b", "c"):
            with pool.acquire(key, source=small_source()):
                pass
        assert pool.stats.evictions == 1
        assert pool.get("a") is None  # oldest evicted
        assert pool.get("c") is not None

    def test_get_refreshes_lru_order(self):
        pool = EnginePool(capacity=2)
        for key in ("a", "b"):
            with pool.acquire(key, source=small_source()):
                pass
        assert pool.get("a") is not None  # refresh "a"
        with pool.acquire("c", source=small_source()):
            pass
        assert pool.get("b") is None  # "b" was least recently used
        assert pool.get("a") is not None

    def test_analyze_hit_converges_reanalyze_drift(self):
        """A warm engine mutated by deltas must not serve the old tree.

        ``reanalyze_file`` rewrites the pooled engine's source in place
        while the entry stays keyed by the original content hash; a
        subsequent analyze hit for that key has to get results for the
        tree it submitted, not the drifted one.
        """
        from repro.core.engine import AnalysisOptions
        from repro.fuzz.differential import run_signature

        pool = EnginePool(capacity=2)
        options = AnalysisOptions()
        key = tree_key(small_source(), options)
        with pool.acquire(key, source=small_source(),
                          options=options) as engine:
            baseline = engine.analyze()
            drifted = engine.reanalyze_file("r.c", BUGGY_READER)
            engine.reanalyze_file("extra.c", WRITER)  # added file
        assert run_signature(drifted) != run_signature(baseline)
        with pool.acquire(key, source=small_source(),
                          options=options) as engine:
            assert engine.source.files == small_source().files
            again = engine.analyze()
        assert run_signature(again) == run_signature(baseline)
        assert pool.stats.reconverged == 1
        # A clean hit does not count as a convergence.
        with pool.acquire(key, source=small_source(), options=options):
            pass
        assert pool.stats.reconverged == 1

    def test_same_key_serialized_different_keys_concurrent(self):
        pool = EnginePool(capacity=4)
        order: list[str] = []
        inside = threading.Event()
        release = threading.Event()

        def hold(key):
            with pool.acquire(key, source=small_source()):
                order.append(f"enter-{key}")
                if key == "x":
                    inside.set()
                    release.wait(timeout=10)
                order.append(f"exit-{key}")

        t1 = threading.Thread(target=hold, args=("x",))
        t1.start()
        assert inside.wait(timeout=10)
        # A different key does not block on x's engine lock.
        t2 = threading.Thread(target=hold, args=("y",))
        t2.start()
        t2.join(timeout=10)
        assert not t2.is_alive()
        assert "exit-y" in order and "exit-x" not in order
        release.set()
        t1.join(timeout=10)
        assert "exit-x" in order


# ---------------------------------------------------------------------------
# Job queue
# ---------------------------------------------------------------------------


def _job(kind="reanalyze", key="t1"):
    return Job(kind=kind, tree_key=key,
               deltas=[("f.c", "int x;")] if kind == "reanalyze" else [])


class TestJobQueue:
    def test_fifo_order(self):
        queue = JobQueue(capacity=8)
        jobs = [_job(key=f"k{i}") for i in range(3)]
        for job in jobs:
            queue.submit(job)
        pulled = [queue.next_job() for _ in range(3)]
        assert [j.job_id for j in pulled] == [j.job_id for j in jobs]

    def test_one_running_job_per_tree(self):
        """A tree's next job waits until its running job is done;
        other trees' jobs go past it."""
        queue = JobQueue(capacity=8)
        t1, t2, u = _job(key="T"), _job(key="T"), _job(key="U")
        for job in (t1, t2, u):
            queue.submit(job)
        assert queue.next_job() is t1
        assert queue.next_job() is u
        assert queue.in_flight == 2
        # Another tree finishing does not free T: a job queued after
        # T2 is handed out first.
        queue.done(u)
        v = queue.submit(_job(key="V"))
        assert queue.next_job() is v
        queue.done(t1)
        assert queue.next_job() is t2
        queue.done(v)
        queue.done(t2)
        assert queue.in_flight == 0 and queue.depth == 0

    def test_per_tree_order_under_contention(self):
        """Six threads over three trees: no tree ever has two jobs
        running, and each tree's jobs run in submission order."""
        import sys

        queue = JobQueue(capacity=256)
        jobs = [_job(key=f"t{i % 3}") for i in range(240)]
        lock = threading.Lock()
        running: dict[str, int] = {}
        overlaps: list[str] = []
        ran: dict[str, list[str]] = {}

        def worker():
            while (job := queue.next_job()) is not None:
                with lock:
                    running[job.tree_key] = running.get(job.tree_key, 0) + 1
                    if running[job.tree_key] > 1:
                        overlaps.append(job.job_id)
                    ran.setdefault(job.tree_key, []).append(job.job_id)
                with lock:
                    running[job.tree_key] -= 1
                queue.done(job)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for job in jobs:
                queue.submit(job)
            assert queue.drain(timeout=30)
            queue.stop()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert overlaps == []
        for key in ("t0", "t1", "t2"):
            assert ran[key] == [j.job_id for j in jobs if j.tree_key == key]

    def test_full_queue_raises(self):
        queue = JobQueue(capacity=2)
        queue.submit(_job())
        queue.submit(_job())
        with pytest.raises(QueueFull) as excinfo:
            queue.submit(_job())
        assert excinfo.value.retry_after >= 1.0
        assert queue.rejected == 1

    def test_drain_waits_for_in_flight(self):
        queue = JobQueue(capacity=4)
        queue.submit(_job())
        job = queue.next_job()
        done = []

        def drain():
            done.append(queue.drain(timeout=10))

        thread = threading.Thread(target=drain)
        thread.start()
        _wait_until_draining(queue)
        assert thread.is_alive(), "drain returned with a job in flight"
        queue.done(job)
        thread.join(timeout=10)
        assert done == [True]
        with pytest.raises(Exception):
            queue.submit(_job())  # draining queues refuse new work

    def test_stop_wakes_workers(self):
        queue = JobQueue(capacity=4)
        results = []

        def worker():
            results.append(queue.next_job())

        thread = threading.Thread(target=worker)
        thread.start()
        queue.stop()
        thread.join(timeout=10)
        assert results == [None]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_latency_percentiles(self):
        window = LatencyWindow()
        for ms in range(1, 101):
            window.record(ms / 1000)
        assert window.percentile(50) == pytest.approx(0.050, abs=0.002)
        assert window.percentile(95) == pytest.approx(0.095, abs=0.002)
        assert window.percentile(99) == pytest.approx(0.099, abs=0.002)
        assert LatencyWindow().percentile(50) is None

    def test_registry_snapshot_and_prometheus(self):
        registry = MetricsRegistry()
        registry.observe_request("analyze", 0.25, 200)
        registry.observe_job("analyze", 0.2, ok=True)
        registry.increment("jobs.rejected", 3)
        snap = registry.snapshot(queue={"depth": 1}, pool={"size": 2})
        assert snap["requests"]["analyze"]["count"] == 1
        assert snap["counters"]["jobs.rejected"] == 3
        assert snap["queue"]["depth"] == 1
        text = registry.render_prometheus(queue={"depth": 1},
                                          pool={"size": 2})
        assert 'ofence_requests_total{endpoint="analyze"} 1' in text
        assert "ofence_queue_depth 1" in text
        assert "ofence_pool_size 2" in text
        assert text.endswith("\n")

        profile = StageProfile()
        profile.add("scan", 0.5)
        profile.count("scan.scanned", 3)
        profile.count("check.reused", 7)
        registry.merge_profile(profile)
        text = registry.render_prometheus()
        assert 'ofence_stage_seconds_total{stage="scan"}' in text
        assert 'ofence_stage_counter_total{counter="scan.scanned"} 3' in text
        assert 'ofence_stage_counter_total{counter="check.reused"} 7' in text


# ---------------------------------------------------------------------------
# HTTP endpoint contracts
# ---------------------------------------------------------------------------


@pytest.fixture
def server():
    with AnalysisServer(pool_capacity=2, queue_capacity=8) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout=60)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["accepting"] is True

    def test_analyze_wait_returns_result(self, client):
        response = client.analyze(small_source())
        assert response["status"] == "done"
        result = response["result"]
        assert result["total_barriers"] == 2
        assert len(result["pairings"]) == 1
        assert result["signature"]
        assert response["tree_key"]

    def test_analyze_async_then_poll(self, client):
        response = client.analyze(small_source(), wait=False)
        assert response["status"] in ("queued", "running", "done")
        final = client.job(response["job_id"], wait=True, timeout=30)
        assert final["status"] == "done"
        assert final["result"]["total_barriers"] == 2

    def test_warm_pool_reuse_and_metrics(self, client):
        first = client.analyze(small_source())
        second = client.analyze(small_source())
        assert first["tree_key"] == second["tree_key"]
        assert first["result"]["signature"] == second["result"]["signature"]
        metrics = client.metrics()
        assert metrics["pool"]["hits"] >= 1
        assert metrics["jobs"]["analyze"]["count"] == 2
        assert metrics["stage_counters"].get("scan.memory_hits", 0) >= 2

    def test_reanalyze_delta(self, client):
        submitted = client.analyze(small_source())
        key = submitted["tree_key"]
        response = client.reanalyze(key, [("r.c", BUGGY_READER)])
        assert response["status"] == "done"
        assert response["result"]["findings"]
        assert response["result"]["signature"] != \
            submitted["result"]["signature"]

    def test_analyze_after_reanalyze_serves_submitted_tree(self, client):
        """Deltas against a warm engine must not leak into later
        analyzes of the original tree (same content hash, mutated
        engine)."""
        original = client.analyze(small_source())
        client.reanalyze(original["tree_key"], [("r.c", BUGGY_READER)])
        again = client.analyze(small_source())
        assert again["tree_key"] == original["tree_key"]
        assert again["result"]["signature"] == \
            original["result"]["signature"]
        assert again["result"]["findings"] == \
            original["result"]["findings"]

    def test_reanalyze_unknown_tree_409(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.reanalyze("0" * 64, [("r.c", READER)])
        assert excinfo.value.status == 409

    def test_reanalyze_requires_deltas(self, client, server):
        submitted = client.analyze(small_source())
        with pytest.raises(ClientError) as excinfo:
            client.reanalyze(submitted["tree_key"], [])
        assert excinfo.value.status == 400

    def test_unknown_job_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_404(self, client):
        # /v1/shard/* was a multi-node offload protocol whose pairsync
        # unpickled its "upserts" field once ctx had installed an epoch;
        # a daemon must not route it.
        for method, path, body in (
            ("GET", "/v1/nope", None),
            ("POST", "/v1/shard/ctx", {"epoch": "e1"}),
            ("POST", "/v1/shard/pairsync",
             {"epoch": "e1", "ns": "n1", "upserts": "", "removes": []}),
        ):
            with pytest.raises(ClientError) as excinfo:
                client._request(method, path, body)
            assert excinfo.value.status == 404, path

    def test_bad_json_400(self, client, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{server.url}/v1/analyze", data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_bad_wait_timeout_400(self, client):
        submitted = client.analyze(small_source())
        with pytest.raises(ClientError) as excinfo:
            client._request(
                "GET",
                f"/v1/jobs/{submitted['job_id']}?wait=1&timeout=soon",
            )
        assert excinfo.value.status == 400
        assert "timeout" in str(excinfo.value)

    def test_metrics_record_actual_statuses(self, client):
        submitted = client.analyze(small_source())
        with pytest.raises(ClientError):
            client.job("job-999999")  # 404
        with pytest.raises(ClientError):
            client._request("GET", "/v1/nope")  # unrouted 404
        with pytest.raises(ClientError):
            client._request(
                "GET",
                f"/v1/jobs/{submitted['job_id']}?wait=1&timeout=x",
            )
        counters = client.metrics()["counters"]
        assert counters.get("http.analyze.200", 0) >= 1
        assert counters.get("http.jobs.404", 0) >= 1
        assert counters.get("http.unknown.404", 0) >= 1
        assert counters.get("http.jobs.400", 0) >= 1
        # Nothing above may be misreported as a jobs 200.
        assert counters.get("http.jobs.200", 0) == 0

    def test_metrics_json_and_prometheus(self, client):
        client.analyze(small_source())
        metrics = client.metrics()
        for section in ("uptime_seconds", "requests", "jobs", "queue",
                        "pool", "cache", "stage_seconds"):
            assert section in metrics
        text = client.metrics_text()
        assert "ofence_uptime_seconds" in text
        assert 'ofence_requests_total{endpoint="analyze"}' in text

    def test_service_parity_with_serial(self):
        from repro.core.engine import run_in_mode
        from repro.fuzz.differential import run_signature

        serial = run_in_mode("serial", small_source())
        serve = run_in_mode("serve", small_source())
        assert run_signature(serial) == run_signature(serve)


# ---------------------------------------------------------------------------
# Backpressure and graceful drain
# ---------------------------------------------------------------------------


class TestBackpressureAndDrain:
    def _blocked_server(self, queue_capacity=1):
        release = threading.Event()
        started = threading.Event()

        def block(job):
            started.set()
            release.wait(timeout=60)

        server = AnalysisServer(
            queue_capacity=queue_capacity, on_job_start=block
        ).start()
        return server, release, started

    def test_full_queue_answers_503_with_retry_after(self):
        import urllib.error
        import urllib.request

        server, release, started = self._blocked_server(queue_capacity=1)
        try:
            client = ServeClient(server.url, timeout=60)
            # First job occupies the worker; second fills the queue.
            running = client.analyze(small_source(), wait=False)
            assert started.wait(timeout=30)
            queued = client.analyze(small_source(), wait=False)
            with pytest.raises(ClientError) as excinfo:
                client.analyze(small_source(), wait=False)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            release.set()
            for job in (running, queued):
                final = client.job(job["job_id"], wait=True, timeout=60)
                assert final["status"] == "done"
        finally:
            release.set()
            server.stop()

    def test_graceful_drain_finishes_inflight_job(self):
        server, release, started = self._blocked_server(queue_capacity=4)
        client = ServeClient(server.url, timeout=60)
        submitted = client.analyze(small_source(), wait=False)
        assert started.wait(timeout=30)

        drained: list[bool] = []
        drainer = threading.Thread(
            target=lambda: drained.append(server.drain(timeout=60))
        )
        drainer.start()
        _wait_until_draining(server.service.queue)
        # Mid-drain: still listening, refusing new work.
        with pytest.raises(ClientError) as excinfo:
            client.analyze(small_source(), wait=False)
        assert excinfo.value.status == 503
        with pytest.raises(ClientError) as health_exc:
            client.healthz()
        assert health_exc.value.status == 503

        release.set()
        drainer.join(timeout=60)
        assert drained == [True]
        # The in-flight job finished before shutdown.
        job = server.service.job(submitted["job_id"])
        assert job.status == "done"

    def test_stop_on_idle_daemon_is_immediate(self):
        server = AnalysisServer().start()
        ServeClient(server.url, timeout=60).healthz()
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.25

    def test_drain_then_submit_via_service_raises(self):
        service = AnalysisService(queue_capacity=2)
        assert service.drain(timeout=10) is True
        from repro.serve.server import ServeError

        with pytest.raises(ServeError) as excinfo:
            service.submit_analyze({"source": encode_source(small_source())})
        assert excinfo.value.status == 503


# ---------------------------------------------------------------------------
# Client retry
# ---------------------------------------------------------------------------


class TestClientRetry:
    """Connection resets back off like 503s do."""

    def _client(self) -> ServeClient:
        return ServeClient("http://127.0.0.1:9")

    def test_connection_reset_backs_off_and_retries(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        calls = {"n": 0}

        def submit():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionResetError("peer reset")
            return {"status": "done"}

        out = self._client().submit_with_retry(submit)
        assert out == {"status": "done"}
        assert calls["n"] == 3
        assert sleeps == [0.25, 0.5]

    def test_reset_after_503_honours_the_retry_after_hint(
        self, monkeypatch
    ):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        responses = [
            ClientError(503, "busy", retry_after=2.5),
            ConnectionResetError("peer reset"),
        ]

        def submit():
            if responses:
                raise responses.pop(0)
            return {"status": "done"}

        out = self._client().submit_with_retry(submit)
        assert out == {"status": "done"}
        assert sleeps == [2.5, 2.5]

    def test_exhausted_retries_raise_the_last_error(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)

        def submit():
            raise ConnectionRefusedError("down for good")

        with pytest.raises(ConnectionRefusedError):
            self._client().submit_with_retry(submit, attempts=3)

    def test_non_503_http_errors_raise_immediately(self):
        calls = {"n": 0}

        def submit():
            calls["n"] += 1
            raise ClientError(400, "bad request")

        with pytest.raises(ClientError):
            self._client().submit_with_retry(submit)
        assert calls["n"] == 1


# ---------------------------------------------------------------------------
# Per-tree job order through the service
# ---------------------------------------------------------------------------


class TestServiceOrdering:
    def test_delta_waits_for_the_running_analyze_of_its_tree(self):
        """With two job threads, a delta for tree T submitted while an
        analyze of T runs must wait for it; a delta for another tree
        runs meanwhile.  Run early, the delta's text would be undone by
        the analyze reconciling T's engine back to the submitted tree.
        """
        armed = threading.Event()
        started = threading.Event()
        release = threading.Event()

        def gate(job):
            if job.kind == "analyze" and armed.is_set():
                armed.clear()
                started.set()
                release.wait(timeout=60)

        tree_u = small_source()
        tree_u.files["extra.c"] = WRITER.replace("struct s", "struct t")
        service = AnalysisService(workers=2, on_job_start=gate)
        try:
            payloads = {
                name: {"source": encode_source(tree)}
                for name, tree in (("T", small_source()), ("U", tree_u))
            }
            keys = {}
            for name, payload in payloads.items():
                warm = service.submit_analyze(payload)
                assert warm.wait(60) and warm.status == "done"
                keys[name] = warm.tree_key

            armed.set()
            analyze_t = service.submit_analyze(payloads["T"])
            assert started.wait(timeout=30)
            edited = READER + "\n/* edited */\n"
            delta_t = service.submit_reanalyze({
                "tree_key": keys["T"],
                "deltas": [{"path": "r.c", "text": edited}],
            })
            delta_u = service.submit_reanalyze({
                "tree_key": keys["U"],
                "deltas": [{"path": "r.c", "text": edited}],
            })
            assert delta_u.wait(60) and delta_u.status == "done"
            assert delta_t.status == "queued"

            release.set()
            assert delta_t.wait(60) and delta_t.status == "done"
            assert analyze_t.status == "done"
            assert delta_t.started_at >= analyze_t.finished_at
            engine = service.pool.get(keys["T"]).engine
            assert engine.source.files["r.c"] == edited
        finally:
            release.set()
            service.close()


# ---------------------------------------------------------------------------
# Shared process executor
# ---------------------------------------------------------------------------


class TestServiceExecutor:
    def test_owned_executor_lifecycle_and_metrics(self):
        from repro.corpus import CorpusSpec, generate_corpus
        from repro.serve.wire import encode_source as enc

        corpus = generate_corpus(CorpusSpec.small(), seed=3)
        service = AnalysisService(
            options=AnalysisOptions(exec_min_batch=1), exec_workers=2
        )
        try:
            assert service.executor is not None
            job = service.submit_analyze(
                {"source": enc(corpus.source)}
            )
            assert job.wait(120) and job.status == "done"
            gauges = service.metrics_gauges()
            assert gauges["executor"]["tasks_completed"] > 0
            text = service.metrics.render_prometheus(**gauges)
            assert "ofence_exec_tasks_completed" in text
        finally:
            service.close()
        # The service owns the executor it created: close() closes it.
        assert service.executor.closed

    def test_attached_executor_not_closed_by_service(self):
        from repro.exec import AnalysisExecutor

        with AnalysisExecutor(workers=2) as ex:
            service = AnalysisService(
                options=AnalysisOptions(executor=ex)
            )
            assert service.executor is ex
            service.close()
            assert not ex.closed

    def test_executor_results_match_plain_service(self):
        from repro.fuzz.differential import run_signature

        plain = AnalysisService()
        pooled = AnalysisService(
            options=AnalysisOptions(exec_min_batch=1), exec_workers=2
        )
        try:
            jobs = [
                svc.submit_analyze({
                    "files": [
                        {"path": "w.c", "text": WRITER},
                        {"path": "r.c", "text": BUGGY_READER},
                    ],
                })
                for svc in (plain, pooled)
            ]
            for job in jobs:
                assert job.wait(120) and job.status == "done"
            assert run_signature(jobs[0].result) == \
                run_signature(jobs[1].result)
        finally:
            plain.close()
            pooled.close()
