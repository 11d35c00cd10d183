"""Analysis-as-a-service: the long-lived ``repro serve`` daemon.

The serving layer turns the one-shot pipeline into a persistent service
that amortizes parsing across submissions:

* :mod:`repro.serve.pool` — warm :class:`~repro.core.engine.OFenceEngine`
  instances keyed by source-tree content hash, LRU-bounded, one lock per
  engine;
* :mod:`repro.serve.queue` — bounded job queue running one job per
  tree at a time, 503 backpressure, and graceful drain;
* :mod:`repro.serve.metrics` — request latencies (p50/p95/p99), stage
  timings, cache stats; JSON and Prometheus text rendering;
* :mod:`repro.serve.server` — the JSON-over-HTTP daemon
  (``/v1/analyze``, ``/v1/reanalyze``, ``/v1/jobs/<id>``, ``/metrics``,
  ``/healthz``);
* :mod:`repro.serve.client` — stdlib HTTP client used by ``repro
  submit``, the benchmarks, and the tests;
* :mod:`repro.serve.mode` — the ``serve`` run mode wired into the
  differential-testing registry.
"""

from repro.serve.client import ClientError, ServeClient
from repro.serve.metrics import LatencyWindow, MetricsRegistry
from repro.serve.mode import run_via_service
from repro.serve.pool import EnginePool, PooledEngine, PoolStats
from repro.serve.queue import Draining, Job, JobQueue, QueueFull
from repro.serve.server import AnalysisServer, AnalysisService, ServeError
from repro.serve.wire import (
    decode_options,
    decode_source,
    encode_options,
    encode_source,
    result_summary,
    tree_key,
)

__all__ = [
    "AnalysisServer",
    "AnalysisService",
    "ClientError",
    "Draining",
    "EnginePool",
    "Job",
    "JobQueue",
    "LatencyWindow",
    "MetricsRegistry",
    "PoolStats",
    "PooledEngine",
    "QueueFull",
    "ServeClient",
    "ServeError",
    "decode_options",
    "decode_source",
    "encode_options",
    "encode_source",
    "result_summary",
    "run_via_service",
    "tree_key",
]
