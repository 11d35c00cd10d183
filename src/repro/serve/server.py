"""The analysis daemon: JSON over HTTP on the stdlib HTTP server.

Two layers:

* :class:`AnalysisService` — transport-independent core owning the
  engine pool, the job queue, the worker threads, the job table, and
  the metrics registry.  Tests drive it directly; the run-mode shim and
  the CLI drive it through HTTP.
* :class:`AnalysisServer` — ``ThreadingHTTPServer`` wrapper routing

  ====== ========================== ==================================
  POST   ``/v1/analyze``            submit a full tree (``?wait=1``
                                    blocks)
  POST   ``/v1/reanalyze``          file deltas against a warm engine
  GET    ``/v1/jobs/<id>``          job status/result (``?wait=1``
                                    blocks)
  GET    ``/v1/jobs/<id>/trace``    the job's span tree (404 when the
                                    submission carried no trace header)
  GET    ``/metrics``               JSON (``?format=prometheus`` text)
  GET    ``/healthz``               liveness + drain state
  ====== ========================== ==================================

Tracing: a submission carrying ``X-Repro-Trace`` (``<trace id>`` or
``<trace id>/<parent span id>``) gets a per-job trace — the job span,
the engine's stage spans, and any exec-worker spans — retrievable at
``/v1/jobs/<id>/trace``.

Backpressure: a full queue or a draining server answers ``503`` with a
``Retry-After`` header.  Graceful drain (SIGTERM in the CLI) stops
accepting work, finishes queued and in-flight jobs, then shuts the
listener down.
"""

from __future__ import annotations

import json
import socket
import threading
import traceback
from contextlib import contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs, urlparse

from repro.core.cache import CacheStats
from repro.core.engine import AnalysisOptions, OFenceEngine
from repro.serve.metrics import MetricsRegistry
from repro.trace import TRACE_HEADER, Trace, parse_header
from repro.trace.context import activate, span
from repro.serve.pool import EnginePool
from repro.serve.queue import Draining, Job, JobQueue, QueueFull
from repro.serve.wire import (
    decode_options,
    decode_source,
    result_summary,
    tree_key,
)

#: Completed jobs kept for ``GET /v1/jobs/<id>`` (FIFO bounded).
JOB_HISTORY = 256


class ServeError(Exception):
    """An HTTP-mappable service error."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class AnalysisService:
    """Owns pool + queue + workers + jobs + metrics."""

    def __init__(
        self,
        options: AnalysisOptions | None = None,
        pool_capacity: int = 4,
        queue_capacity: int = 32,
        workers: int = 1,
        exec_workers: int | None = None,
        on_job_start: Callable[[Job], None] | None = None,
        on_job_done: Callable[[Job], None] | None = None,
        store_dir: str | None = None,
        store_label: str = "",
    ):
        #: Server-side execution strategy; wire options overlay the
        #: semantic knobs only (see ``repro.serve.wire``).
        self.base_options = options if options is not None \
            else AnalysisOptions()
        # One shared process executor for every warm engine: the GIL-bound
        # service threads stay on request/queue work while the CPU-bound
        # stages (scan, pairing candidates, CFG checkers) run in the pool.
        # An executor already present in the options is attached (caller
        # owns its lifetime); otherwise ``exec_workers`` (or the options'
        # ``workers`` count) creates one this service owns and closes.
        self.executor = self.base_options.executor
        self._owns_executor = False
        if self.executor is None:
            hint = exec_workers if exec_workers is not None \
                else (self.base_options.workers or 0)
            if hint > 1:
                from repro.exec import AnalysisExecutor

                self.executor = AnalysisExecutor(workers=hint)
                self._owns_executor = True
        if self.executor is not None:
            self.base_options = replace(
                self.base_options, executor=self.executor
            )
        #: Node label stamped on spans recorded here; the HTTP wrapper
        #: overwrites it with ``host:port`` once the listener is bound.
        self.node_label = "local"
        self.pool = EnginePool(capacity=pool_capacity)
        self.queue = JobQueue(capacity=queue_capacity)
        self.metrics = MetricsRegistry()
        self.jobs: dict[str, Job] = {}
        self._job_order: list[str] = []
        self._jobs_lock = threading.Lock()
        self._on_job_start = on_job_start
        self._on_job_done = on_job_done
        #: Persistent findings store (``--store-dir``); every finished
        #: analyze/reanalyze job auto-records a run into it, and the
        #: /v1/runs + /v1/findings endpoints read from it.
        self.store = None
        self.store_label = store_label
        if store_dir is not None:
            from repro.store import FindingsStore

            self.store = FindingsStore(store_dir)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(max(1, workers))
        ]
        for worker in self._workers:
            worker.start()

    # -- submission --------------------------------------------------------

    def _register(self, job: Job) -> Job:
        with self._jobs_lock:
            self.jobs[job.job_id] = job
            self._job_order.append(job.job_id)
            while len(self._job_order) > JOB_HISTORY:
                stale_id = self._job_order.pop(0)
                stale = self.jobs.get(stale_id)
                # Never forget a job that has not finished yet.
                if stale is not None and stale.status in ("done", "failed"):
                    del self.jobs[stale_id]
                else:
                    self._job_order.insert(0, stale_id)
                    break
        return job

    def _attach_trace(
        self, job: Job, trace_ctx: tuple[str, str | None] | None
    ) -> None:
        if trace_ctx is None:
            return
        trace_id, parent = trace_ctx
        job.trace = Trace(trace_id=trace_id, node=self.node_label)
        job.trace_parent = parent

    def submit_analyze(
        self,
        payload: dict[str, Any],
        trace_ctx: tuple[str, str | None] | None = None,
    ) -> Job:
        source = decode_source(payload.get("source") or payload)
        options = decode_options(payload.get("options"), self.base_options)
        key = tree_key(source, options)
        job = Job(kind="analyze", tree_key=key, source=source,
                  options=options)
        self._attach_trace(job, trace_ctx)
        self._submit(job)
        return self._register(job)

    def submit_reanalyze(
        self,
        payload: dict[str, Any],
        trace_ctx: tuple[str, str | None] | None = None,
    ) -> Job:
        key = payload.get("tree_key")
        if not key:
            raise ServeError(400, "reanalyze requires tree_key")
        if self.pool.get(key) is None:
            raise ServeError(
                409,
                f"no warm engine for tree {key[:12]}; "
                "submit /v1/analyze first",
            )
        raw = payload.get("deltas")
        if not isinstance(raw, list) or not raw:
            raise ServeError(400, "reanalyze requires a non-empty deltas "
                                  "list of {path, text}")
        deltas: list[tuple[str, str]] = []
        for item in raw:
            if not isinstance(item, dict) or "path" not in item:
                raise ServeError(400, "each delta needs path (+ text)")
            deltas.append((str(item["path"]), str(item.get("text", ""))))
        job = Job(kind="reanalyze", tree_key=key, deltas=deltas)
        self._attach_trace(job, trace_ctx)
        self._submit(job)
        return self._register(job)

    def _submit(self, job: Job) -> None:
        try:
            self.queue.submit(job)
        except (QueueFull, Draining) as exc:
            self.metrics.increment("jobs.rejected")
            raise ServeError(503, str(exc), retry_after=exc.retry_after) \
                from exc

    def job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(404, f"unknown job {job_id}")
        return job

    # -- worker ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.next_job()
            if job is None:
                return
            try:
                self._run(job)
            finally:
                self.queue.done(job)

    @contextmanager
    def _job_ctx(self, job: Job):
        """Activate the job's trace around its run (no-op untraced).

        The ``job`` span is the root of a plain submission's tree and
        covers engine acquisition through result absorption, so its
        duration tracks the job's reported ``run_seconds``.
        """
        if job.trace is None:
            yield
            return
        with activate(job.trace, parent=job.trace_parent):
            with span("job", kind=job.kind, job_id=job.job_id):
                yield

    @contextmanager
    def _engine(self, job: Job):
        """The job's warm engine, its lock held.

        An analyze builds or reconciles the engine for its tree; a
        reanalyze needs the warm engine its deltas were submitted
        against, and fails if the pool evicted it in the meantime.
        """
        if job.kind == "analyze":
            with self.pool.acquire(
                job.tree_key, source=job.source, options=job.options
            ) as engine:
                yield engine
            return
        entry = self.pool.get(job.tree_key)
        if entry is None:
            raise LookupError("warm engine evicted before the job ran; "
                              "submit /v1/analyze again")
        with entry.lock:
            entry.uses += 1
            yield entry.engine

    def _run(self, job: Job) -> None:
        job.mark_running()
        if self._on_job_start is not None:
            self._on_job_start(job)
        try:
            with self._job_ctx(job), self._engine(job) as engine:
                if job.kind == "analyze":
                    result = engine.analyze()
                else:
                    for path, text in job.deltas:  # validated non-empty
                        result = engine.reanalyze_file(path, text)
                self._absorb(engine, job, result)
        except Exception as exc:
            # The engine never raises for analysis errors, but shutdown
            # does: an ExecutorClosed racing a drain lands here and the
            # job fails loudly instead of silently re-running serially.
            job.mark_failed(f"{type(exc).__name__}: {exc}")
            self.metrics.observe_job(job.kind, job.run_seconds or 0.0,
                                     ok=False)
        finally:
            if job.trace is not None:
                self.metrics.observe_trace(job.trace)

    def _absorb(self, engine: OFenceEngine, job: Job, result) -> None:
        self.metrics.merge_profile(result.profile)
        # Merge-and-reset keeps the registry cumulative without
        # double-counting an engine's stats on its next job.
        self.metrics.merge_cache(replace(engine.disk_cache.stats))
        engine.disk_cache.stats = CacheStats()
        # Per-checker counters, keyed off the registry: findings by the
        # owning checker's name, failures by the checker that raised.
        from repro.checkers import registry

        for finding in result.report.all_findings:
            checker = registry.checker_for_kind(finding.kind)
            if checker is not None:
                self.metrics.increment(f"check.findings.{checker}")
        for failure in result.report.checker_failures:
            self.metrics.increment(f"check.failures.{failure.checker}")
        if self.store is not None:
            # Before mark_done: a waiter released by the done event must
            # find the run already committed.  Inside _job_ctx, so the
            # store.record span lands in the job's trace.  A store
            # failure must not fail the job — the analysis result is
            # already computed and absorbed.
            from repro.serve.wire import encode_options

            try:
                self.store.record_run(
                    result,
                    tree_hash=job.tree_key or "",
                    label=self.store_label,
                    source=f"serve:{job.kind}",
                    config=encode_options(job.options or engine.options),
                )
            except Exception:
                self.metrics.increment("store.record_failed")
        job.mark_done(result)
        self.metrics.observe_job(job.kind, job.run_seconds or 0.0, ok=True)
        if self._on_job_done is not None:
            self._on_job_done(job)

    # -- findings store ----------------------------------------------------

    def _require_store(self):
        if self.store is None:
            raise ServeError(
                404, "no findings store configured; start the daemon "
                     "with --store-dir",
            )
        return self.store

    def store_runs(self, limit: int | None = None) -> list[dict[str, Any]]:
        store = self._require_store()
        return [run.as_dict() for run in store.runs(limit=limit)]

    def store_run(self, run_id: int) -> dict[str, Any]:
        store = self._require_store()
        from repro.store import UnknownRun

        try:
            return store.run(run_id).as_dict()
        except UnknownRun as exc:
            raise ServeError(404, str(exc)) from exc

    def store_record(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /v1/runs``: persist pre-built finding records."""
        store = self._require_store()
        records = payload.get("records")
        if not isinstance(records, list):
            raise ServeError(400, "runs payload requires a records list")
        from repro.store import StoreError

        try:
            outcome = store.record_run(
                records=records,
                tree_hash=str(payload.get("tree_hash", "")),
                label=str(payload.get("label", self.store_label)),
                source=str(payload.get("source", "api")),
                config=payload.get("config") or {},
                stats=payload.get("stats") or {},
                duration=payload.get("duration"),
            )
        except StoreError as exc:
            raise ServeError(400, str(exc)) from exc
        return {
            "run": outcome.run.as_dict(),
            "new_fingerprints": outcome.new_fingerprints,
            "known_fingerprints": outcome.known_fingerprints,
            "reopened": outcome.reopened,
        }

    def store_diff(self, run_a: int, run_b: int) -> dict[str, Any]:
        store = self._require_store()
        from repro.store import StoreError, UnknownRun

        try:
            return store.diff(run_a, run_b).to_dict()
        except UnknownRun as exc:
            raise ServeError(404, str(exc)) from exc
        except StoreError as exc:
            raise ServeError(400, str(exc)) from exc

    def store_findings(
        self,
        state: str | None = None,
        checker: str | None = None,
        suppress: bool = False,
    ) -> list[dict[str, Any]]:
        store = self._require_store()
        from repro.store import TriageError

        try:
            found = store.findings(
                state=state, checker=checker, suppress=suppress
            )
        except TriageError as exc:
            raise ServeError(400, str(exc)) from exc
        return [finding.as_dict() for finding in found]

    def store_triage(
        self, fingerprint: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        store = self._require_store()
        state = payload.get("state")
        if not state:
            raise ServeError(400, "triage requires a state")
        from repro.store import TriageError, UnknownFinding

        try:
            finding = store.triage(
                fingerprint, str(state),
                note=str(payload.get("note", "")), actor="api",
            )
        except UnknownFinding as exc:
            raise ServeError(404, str(exc)) from exc
        except TriageError as exc:
            raise ServeError(400, str(exc)) from exc
        return finding.as_dict()

    # -- observability -----------------------------------------------------

    def metrics_gauges(self) -> dict[str, Any]:
        gauges = {
            "queue": self.queue.snapshot(),
            "pool": self.pool.snapshot(),
        }
        if self.executor is not None:
            gauges["executor"] = self.executor.snapshot()
        if self.store is not None:
            gauges["store"] = self.store.stats()
        return gauges

    def health(self) -> dict[str, Any]:
        return {
            "status": "draining" if not self.queue.accepting else "ok",
            "accepting": self.queue.accepting,
            "queue_depth": self.queue.depth,
            "in_flight": self.queue.in_flight,
            "warm_engines": len(self.pool),
        }

    # -- shutdown ----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Finish all accepted work, refuse new work. True on success."""
        drained = self.queue.drain(timeout)
        self.queue.stop()
        for worker in self._workers:
            worker.join(timeout=5)
        self._close_executor()
        self._close_store()
        return drained

    def close(self) -> None:
        self.queue.stop()
        for worker in self._workers:
            worker.join(timeout=5)
        self._close_executor()
        self._close_store()

    def _close_store(self) -> None:
        if self.store is not None:
            self.store.close()

    def _close_executor(self) -> None:
        if self._owns_executor and self.executor is not None:
            self.executor.close()


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    server_version = "ofence-serve/1.0"
    protocol_version = "HTTP/1.1"

    #: Wait cap for ``?wait=1`` requests; clients poll past it.
    MAX_WAIT = 300.0

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # metrics cover it; stderr noise breaks CLI output

    # -- plumbing ----------------------------------------------------------

    def _send(self, status: int, body: str,
              content_type: str = "application/json",
              retry_after: float | None = None) -> None:
        payload = body.encode()
        # Remember what actually went on the wire: handlers send non-200
        # statuses directly (failed jobs render 500, a draining healthz
        # 503), and ``_dispatch`` must not report those as 200s.
        self._status_sent = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after))))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, obj: Any,
                   retry_after: float | None = None) -> None:
        self._send(status, json.dumps(obj, default=str),
                   retry_after=retry_after)

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServeError(400, "request body required")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServeError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError(400, "JSON body must be an object")
        return payload

    def _not_found(self, path: str) -> None:
        raise ServeError(404, f"no such endpoint {path}")

    def _job_response(self, job: Job, query: dict) -> None:
        if query.get("wait", ["0"])[0] in ("1", "true"):
            raw = query.get("timeout", [self.MAX_WAIT])[0]
            try:
                timeout = min(float(raw), self.MAX_WAIT)
            except (TypeError, ValueError):
                raise ServeError(
                    400, f"invalid timeout value {raw!r}"
                ) from None
            job.wait(timeout)
        body = job.describe()
        if job.status == "done" and job.result is not None:
            body["result"] = result_summary(job.result)
        status = 200 if job.status in ("done", "running", "queued") else 500
        self._send_json(status, body)

    def _dispatch(self, handler: Callable[[], None], endpoint: str) -> None:
        import time as _time

        start = _time.perf_counter()
        self._status_sent: int | None = None
        status = 500
        try:
            handler()
            # Whatever the handler put on the wire (200, a failed job's
            # 500, a draining healthz 503) is what metrics record.
            status = self._status_sent if self._status_sent is not None \
                else 200
        except ServeError as exc:
            status = exc.status
            self._send_json(
                exc.status, {"error": str(exc)}, retry_after=exc.retry_after
            )
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away mid-response
        except Exception:
            self._send_json(500, {"error": traceback.format_exc(limit=3)})
        finally:
            self.service.metrics.observe_request(
                endpoint, _time.perf_counter() - start, status
            )

    # -- routes ------------------------------------------------------------

    def _trace_ctx(self) -> tuple[str, str | None] | None:
        return parse_header(self.headers.get(TRACE_HEADER))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        query = parse_qs(url.query)
        if url.path == "/v1/analyze":
            self._dispatch(
                lambda: self._job_response(
                    self.service.submit_analyze(
                        self._read_body(), trace_ctx=self._trace_ctx()
                    ),
                    query,
                ),
                "analyze",
            )
        elif url.path == "/v1/reanalyze":
            self._dispatch(
                lambda: self._job_response(
                    self.service.submit_reanalyze(
                        self._read_body(), trace_ctx=self._trace_ctx()
                    ),
                    query,
                ),
                "reanalyze",
            )
        elif url.path == "/v1/runs":
            self._dispatch(
                lambda: self._send_json(
                    200, self.service.store_record(self._read_body())
                ),
                "runs",
            )
        elif (url.path.startswith("/v1/findings/")
                and url.path.endswith("/triage")):
            fingerprint = url.path[len("/v1/findings/"):-len("/triage")]
            self._dispatch(
                lambda: self._send_json(
                    200,
                    self.service.store_triage(
                        fingerprint, self._read_body()
                    ),
                ),
                "triage",
            )
        else:
            self._dispatch(lambda: self._not_found(url.path), "unknown")

    def _job_trace_response(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job.trace is None:
            raise ServeError(404, f"job {job_id} was not traced")
        spans = job.trace.export()
        self._send_json(200, {
            "trace_id": job.trace.trace_id,
            "spans": spans,
            "complete": (
                job.status in ("done", "failed")
                and all(s.get("duration") is not None for s in spans)
            ),
        })

    def _store_get_response(self, path: str, query: dict) -> None:
        """Route ``GET /v1/runs[...]``: list, one run, or a diff."""
        def as_run_id(raw: str) -> int:
            try:
                return int(raw)
            except ValueError:
                raise ServeError(400, f"invalid run id {raw!r}") from None

        if path == "/v1/runs":
            raw_limit = query.get("limit", [None])[0]
            limit = as_run_id(raw_limit) if raw_limit is not None else None
            self._send_json(200, {"runs": self.service.store_runs(limit)})
            return
        parts = path[len("/v1/runs/"):].split("/")
        if len(parts) == 1:
            self._send_json(200, self.service.store_run(as_run_id(parts[0])))
        elif len(parts) == 3 and parts[1] == "diff":
            self._send_json(200, self.service.store_diff(
                as_run_id(parts[0]), as_run_id(parts[2])
            ))
        else:
            self._not_found(path)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        query = parse_qs(url.query)
        # The /trace suffix must route before the generic job lookup:
        # that one treats the last path segment as the job id.
        if url.path.startswith("/v1/jobs/") and url.path.endswith("/trace"):
            job_id = url.path[len("/v1/jobs/"):-len("/trace")]
            self._dispatch(
                lambda: self._job_trace_response(job_id), "trace"
            )
        elif url.path.startswith("/v1/jobs/"):
            job_id = url.path.rsplit("/", 1)[-1]
            self._dispatch(
                lambda: self._job_response(self.service.job(job_id), query),
                "jobs",
            )
        elif url.path == "/v1/runs" or url.path.startswith("/v1/runs/"):
            self._dispatch(
                lambda: self._store_get_response(url.path, query), "store"
            )
        elif url.path == "/v1/findings":
            def render_findings() -> None:
                self._send_json(200, {"findings": self.service.store_findings(
                    state=query.get("state", [None])[0],
                    checker=query.get("checker", [None])[0],
                    suppress=query.get("suppress", ["0"])[0]
                    in ("1", "true"),
                )})

            self._dispatch(render_findings, "findings")
        elif url.path == "/metrics":
            fmt = query.get("format", ["json"])[0]
            accept = self.headers.get("Accept", "")
            want_text = fmt in ("prometheus", "prom", "text") or (
                fmt == "json" and "text/plain" in accept
            )

            def render_metrics() -> None:
                gauges = self.service.metrics_gauges()
                if want_text:
                    self._send(
                        200,
                        self.service.metrics.render_prometheus(**gauges),
                        content_type="text/plain; version=0.0.4",
                    )
                else:
                    self._send(
                        200, self.service.metrics.render_json(**gauges)
                    )

            self._dispatch(render_metrics, "metrics")
        elif url.path == "/healthz":
            def render_health() -> None:
                health = self.service.health()
                self._send_json(
                    200 if health["accepting"] else 503, health,
                    retry_after=None if health["accepting"] else 5,
                )

            self._dispatch(render_health, "healthz")
        else:
            self._dispatch(lambda: self._not_found(url.path), "unknown")


class AnalysisServer:
    """``ThreadingHTTPServer`` front-end over :class:`AnalysisService`."""

    def __init__(
        self,
        service: AnalysisService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs,
    ):
        self.service = service if service is not None \
            else AnalysisService(**service_kwargs)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self.service.node_label = \
            f"{self._httpd.server_address[0]}:{self._httpd.server_address[1]}"
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AnalysisServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the listener on the calling thread (the CLI path)."""
        self._httpd.serve_forever()

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: finish accepted jobs, then stop listening."""
        drained = self.service.drain(timeout)
        self.stop()
        return drained

    def stop(self) -> None:
        self.service.close()
        # ``shutdown`` alone waits out the serve loop's 0.5 s poll tick.
        # A shut-down listening socket polls ready at once, so the loop
        # wakes and sees the shutdown request now (where the platform
        # refuses to shut a listener down, the tick still ends it).
        try:
            self._httpd.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
