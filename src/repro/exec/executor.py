"""The persistent analysis executor: a warm, crash-tolerant process pool.

``AnalysisExecutor`` owns long-lived worker processes (see
``repro.exec.worker``) and exposes the three CPU-bound stage offloads the
engine uses:

* :meth:`scan` — batched parse+scan with results streamed back as each
  batch finishes;
* :meth:`pair_candidates` — best-candidate search for write barriers,
  sharded over worker-side warm pairing indexes that the parent syncs by
  file-level delta;
* :meth:`check_shards` — every checker whose registry spec declares it
  CFG-shardable, over contiguous shards of the check list, merged back
  in shard order so the result is bit-for-bit the serial one.

Design points:

* **Explicit start method.**  ``fork`` where available (fast, Linux),
  ``spawn`` otherwise or via ``REPRO_EXEC_START_METHOD`` — never the
  platform default, so macOS/Linux behave identically and the daemon can
  run under ``spawn``.
* **Lazy start.**  Workers spawn on first use and live until
  :meth:`AnalysisExecutor.close` (or their owner's exit).
* **Crash recovery.**  A worker dying mid-batch is detected in the
  collect loop; the worker is respawned (fresh queue, fresh state) and
  its lost batches are re-dispatched.  Warm state is rebuilt on demand
  — the parent's per-worker pairing-namespace mirror is reset with it.
* **Never-raise toward the engine** — with one deliberate exception.
  Infrastructure failures (worker crashes, op timeouts, start errors)
  surface as ``None``/incomplete returns and the engine falls back to
  its serial path; analysis results are never silently wrong, at worst
  the offload is skipped.  But a ``close()`` racing an in-flight op
  raises :class:`ExecutorClosed` instead: shutdown must not be
  silently converted into a serial re-run that outlives the drain.

One executor instance may be shared by many engines and threads (the
serve daemon does exactly that); a single re-entrant lock serializes
ops, so per-worker context epochs and pairing-namespace mirrors stay
coherent.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import queue as queue_mod
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.exec.protocol import PAIR_NS_CAP, ExecContext  # noqa: F401
from repro.trace.context import absorb_remote
from repro.trace.context import ship as ship_trace

#: Seconds without any result or crash before an op gives up and the
#: engine falls back to serial execution.
DEFAULT_OP_TIMEOUT = 300.0
_POLL = 0.2


class ExecutorClosed(RuntimeError):
    """The pool was closed while (or before) an offload used it.

    Raised instead of degrading to the serial path: a close racing an
    in-flight op means the process is shutting down, and silently
    re-running the analysis serially would hide the shutdown (and stall
    it).  Callers that *want* serial fallback check ``closed`` before
    dispatching — the engine's ``_active_executor`` does exactly that —
    so this only surfaces when the close genuinely interrupted work.
    """


def _start_method() -> str:
    env = os.environ.get("REPRO_EXEC_START_METHOD")
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass
class ExecStats:
    """Lifetime counters (``snapshot()`` feeds ``/metrics``)."""

    spawned: int = 0
    respawns: int = 0
    tasks_completed: int = 0
    batches_sent: int = 0
    worker_scan_hits: int = 0
    op_timeouts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "spawned": self.spawned,
            "respawns": self.respawns,
            "tasks_completed": self.tasks_completed,
            "batches_sent": self.batches_sent,
            "worker_scan_hits": self.worker_scan_hits,
            "op_timeouts": self.op_timeouts,
        }


class _Worker:
    """Parent-side handle of one pool process."""

    def __init__(self, wid: int, process, task_q):
        self.wid = wid
        self.process = process
        self.task_q = task_q
        #: Context epoch last shipped to this worker.
        self.sent_epoch: str | None = None
        self.inflight = 0
        self.tasks_done = 0
        #: Mirror of the worker's pairing-namespace LRU: ns -> {path:
        #: scan key}.  Kept in lockstep with the messages actually sent,
        #: so sync deltas are exact and evictions match the worker's.
        self.pair_ns: "OrderedDict[str, dict[str, str]]" = OrderedDict()


class AnalysisExecutor:
    """Persistent process pool shared by CLI, engine, and serve daemon."""

    def __init__(self, workers: int = 2):
        self._size = max(1, int(workers))
        self._mp = multiprocessing.get_context(_start_method())
        self._lock = threading.RLock()
        self._workers: list[_Worker] = []
        self._result_q = None
        self._batch_ids = itertools.count(1)
        self._wid_seq = itertools.count(1)
        self._closed = False
        self._shutdown = threading.Event()
        self.stats = ExecStats()

    # -- lifecycle ---------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._size

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def start_method(self) -> str:
        return self._mp.get_start_method()

    def ensure_size(self, workers: int) -> None:
        """Grow the target pool size (never shrinks a live pool)."""
        with self._lock:
            if workers > self._size:
                self._size = int(workers)

    def _ensure_started(self) -> None:
        if self._result_q is None:
            self._result_q = self._mp.Queue()
        while len(self._workers) < self._size:
            self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        from repro.exec.worker import worker_main

        wid = next(self._wid_seq)
        task_q = self._mp.Queue()
        process = self._mp.Process(
            target=worker_main,
            args=(wid, task_q, self._result_q, os.getpid()),
            name=f"ofence-exec-{wid}", daemon=True,
        )
        process.start()
        self.stats.spawned += 1
        return _Worker(wid, process, task_q)

    def _replace(self, worker: _Worker) -> _Worker:
        """Respawn a dead worker: fresh process, queue, and warm state."""
        try:
            worker.process.join(timeout=0.1)
        except Exception:
            pass
        replacement = self._spawn()
        try:
            self._workers[self._workers.index(worker)] = replacement
        except ValueError:
            self._workers.append(replacement)
        self.stats.respawns += 1
        return replacement

    def _shutdown_workers(self) -> None:
        for worker in self._workers:
            try:
                worker.task_q.put(("exit",))
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._workers.clear()

    def close(self) -> None:
        # Flag shutdown *before* taking the lock: an in-flight op holds
        # the lock for its whole collect loop, and must observe the
        # event and raise ExecutorClosed instead of stalling this close
        # until its op timeout.  Teardown below is idempotent.
        self._closed = True
        self._shutdown.set()
        with self._lock:
            self._shutdown_workers()
            if self._result_q is not None:
                try:
                    self._result_q.close()
                    self._result_q.cancel_join_thread()
                except Exception:
                    pass
                self._result_q = None

    def __enter__(self) -> "AnalysisExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- test/bench hooks --------------------------------------------------

    def inject_worker_crash(self, index: int = 0) -> int:
        """Queue a hard-exit for one live worker (crash-recovery tests).

        The worker processes its queue in order, so tasks dispatched
        after this call but routed to the same worker are lost with it
        and must be re-dispatched — exactly the mid-batch death the
        recovery path exists for.  Returns the doomed worker's id.
        """
        with self._lock:
            self._ensure_started()
            worker = self._workers[index % len(self._workers)]
            worker.task_q.put(("crash",))
            return worker.wid

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "configured_workers": self._size,
                "alive_workers": sum(
                    1 for w in self._workers if w.process.is_alive()
                ),
                "start_method": self.start_method,
                **self.stats.as_dict(),
                "per_worker_tasks": [w.tasks_done for w in self._workers],
            }

    # -- dispatch core -----------------------------------------------------

    def _run_tasks(self, ctx: ExecContext, tasks, prelude=None,
                   on_payload=None):
        """Dispatch ``tasks`` (= ``(kind, args)`` tuples) and collect.

        Returns a list aligned with ``tasks`` of ``("ok", payload)`` /
        ``("error", message)`` / ``None`` (lost to an op timeout), or
        ``None`` outright when the executor is closed or cannot start.
        ``prelude(worker)`` runs once per worker per op before its first
        task (and again for respawned workers) — the pairing sync hook.
        ``on_payload(index, payload)`` streams successes as they land.

        Raises :class:`ExecutorClosed` when the pool is closed at entry
        or is closed out from under the op mid-collect.
        """
        tctx = ship_trace()
        with self._lock:
            if self._closed:
                raise ExecutorClosed("executor is closed")
            try:
                self._ensure_started()
            except Exception:
                return None
            results: list = [None] * len(tasks)
            pending: dict[int, int] = {}
            assigned: dict[int, _Worker] = {}
            prepped: set[int] = set()

            def send(i: int) -> None:
                worker = min(
                    self._workers, key=lambda w: (w.inflight, w.wid)
                )
                if worker.sent_epoch != ctx.epoch:
                    worker.task_q.put((
                        "ctx", ctx.epoch, ctx.defines, ctx.headers,
                        (ctx.write_window, ctx.read_window),
                    ))
                    worker.sent_epoch = ctx.epoch
                if prelude is not None and worker.wid not in prepped:
                    prelude(worker)
                    prepped.add(worker.wid)
                kind, args = tasks[i]
                bid = next(self._batch_ids)
                pending[bid] = i
                assigned[bid] = worker
                worker.inflight += 1
                self.stats.batches_sent += 1
                worker.task_q.put((kind, bid, tctx, *args))

            for i in range(len(tasks)):
                send(i)

            by_wid = {w.wid: w for w in self._workers}
            last_progress = time.monotonic()
            while pending:
                if self._shutdown.is_set():
                    raise ExecutorClosed(
                        "executor closed while tasks were in flight"
                    )
                try:
                    wid, bid, status, payload, spans = self._result_q.get(
                        timeout=_POLL
                    )
                except queue_mod.Empty:
                    dead = [
                        w for w in {assigned[b] for b in pending}
                        if not w.process.is_alive()
                    ]
                    if dead:
                        for worker in dead:
                            lost = [
                                b for b in list(pending)
                                if assigned[b] is worker
                            ]
                            self._replace(worker)
                            for b in lost:
                                i = pending.pop(b)
                                assigned.pop(b, None)
                                send(i)
                        by_wid = {w.wid: w for w in self._workers}
                        last_progress = time.monotonic()
                        continue
                    if time.monotonic() - last_progress > DEFAULT_OP_TIMEOUT:
                        self.stats.op_timeouts += 1
                        for worker in self._workers:
                            worker.inflight = 0
                        break
                    continue
                worker = by_wid.get(wid)
                if worker is not None and worker.inflight > 0:
                    worker.inflight -= 1
                    worker.tasks_done += 1
                last_progress = time.monotonic()
                if bid not in pending:
                    continue  # stale reply from an aborted earlier op
                absorb_remote(spans)
                i = pending.pop(bid)
                assigned.pop(bid, None)
                if status == "ok":
                    results[i] = ("ok", payload)
                    self.stats.tasks_completed += 1
                    if on_payload is not None:
                        on_payload(i, payload)
                else:
                    results[i] = ("error", payload)
            return results

    # -- stage offloads ----------------------------------------------------

    def scan(self, jobs, ctx: ExecContext, on_result) -> dict:
        """Batched parse+scan.  ``jobs`` is ``[(path, text, key)]``;
        ``on_result(CachedScan, key)`` is called as payloads stream in.
        Files missing from the stream (worker error, timeout) are the
        caller's to re-scan serially; the returned stats say how many
        completed."""
        base = {
            "dispatched": len(jobs), "completed": 0, "batches": 0,
            "worker_hits": 0, "respawns": 0, "workers_used": 0,
        }
        if not jobs:
            return base
        respawns_before = self.stats.respawns
        size = max(1, min(32, -(-len(jobs) // (self._size * 3))))
        chunks = [jobs[i:i + size] for i in range(0, len(jobs), size)]
        keys = {path: key for path, _text, key in jobs}

        def absorb(_i: int, payload) -> None:
            payloads, hits = payload
            base["worker_hits"] += hits
            self.stats.worker_scan_hits += hits
            for cached in payloads:
                on_result(cached, keys[cached.filename])
                base["completed"] += 1

        tasks = [("scan", (chunk,)) for chunk in chunks]
        results = self._run_tasks(ctx, tasks, on_payload=absorb)
        if results is not None:
            base["batches"] = len(chunks)
        base["respawns"] = self.stats.respawns - respawns_before
        base["workers_used"] = min(self._size, len(chunks))
        return base

    def pair_candidates(self, ns: str, state, refs, token,
                        ctx: ExecContext):
        """Best candidates for write-barrier ``refs``, sharded.

        ``state`` is the desired worker-side index content: ``{path:
        (scan key, sites)}``.  Each participating worker receives only
        the delta against what it already holds (the parent mirrors the
        worker's namespace LRU, so the delta is exact).  Returns
        ``(aligned candidates, info)`` — each candidate a ``(match
        path, match position, o1, o2, weight)`` tuple or ``None`` — or
        ``(None, info)`` when the offload failed and the caller should
        compute serially.
        """
        info = {"shards": 0, "reused": 0, "computed": 0}
        if not refs:
            return [], info
        nshards = max(1, min(self._size, len(refs)))
        size = -(-len(refs) // nshards)
        chunks = [refs[i:i + size] for i in range(0, len(refs), size)]
        info["shards"] = len(chunks)

        def prelude(worker: _Worker) -> None:
            known = worker.pair_ns.get(ns)
            if known is None:
                known = {}
                worker.pair_ns[ns] = known
                while len(worker.pair_ns) > PAIR_NS_CAP:
                    worker.pair_ns.popitem(last=False)
            upserts = [
                (path, sites) for path, (key, sites) in state.items()
                if known.get(path) != key
            ]
            removes = [path for path in known if path not in state]
            if upserts or removes:
                worker.task_q.put(("pairsync", ns, upserts, removes))
            worker.pair_ns[ns] = {
                path: key for path, (key, _sites) in state.items()
            }
            worker.pair_ns.move_to_end(ns)

        tasks = [("cand", (ns, token, chunk)) for chunk in chunks]
        results = self._run_tasks(ctx, tasks, prelude=prelude)
        if results is None:
            return None, info
        out: list = []
        for res in results:
            if res is None or res[0] != "ok":
                return None, info
            cands, stats = res[1]
            out.extend(cands)
            info["reused"] += stats.get("candidates_reused", 0)
            info["computed"] += stats.get("candidates_computed", 0)
        if len(out) != len(refs):
            return None, info
        return out, info

    def check_shards(self, files, entries, checks, ctx: ExecContext):
        """The CFG-bound checkers over contiguous shards of ``entries``.

        ``files`` is ``{path: (scan key, text)}`` covering every barrier
        ref; each shard ships only the slice of it that its entries
        touch.  Returns ``({checker: ("ok", wire findings, wire claimed)
        | ("checkerfail", message)}, info)`` with shard results merged
        in shard order — identical to serial iteration order — or
        ``(None, info)`` when the offload failed.
        """
        info = {"shards": 0}
        if not entries:
            return {}, info
        nshards = max(1, min(self._size, len(entries)))
        size = -(-len(entries) // nshards)
        chunks = [
            entries[i:i + size] for i in range(0, len(entries), size)
        ]
        info["shards"] = len(chunks)
        tasks = []
        for chunk in chunks:
            paths = {
                path for spec in chunk for path, _pos in spec.barrier_refs
            }
            sub = {path: files[path] for path in sorted(paths)}
            tasks.append(("check", (sub, chunk, checks)))
        results = self._run_tasks(ctx, tasks)
        if results is None:
            return None, info
        merged: dict = {}
        for name in checks:
            findings: list = []
            claimed: list = []
            fail: str | None = None
            for res in results:
                if res is None or res[0] != "ok":
                    return None, info
                shard = res[1].get(name)
                if shard is None:
                    return None, info
                if shard[0] == "checkerfail":
                    # Earliest failing shard holds the globally earliest
                    # raising entry — the message serial mode would give.
                    fail = shard[1]
                    break
                findings.extend(shard[1])
                claimed.extend(shard[2])
            if fail is not None:
                merged[name] = ("checkerfail", fail)
            else:
                merged[name] = ("ok", findings, claimed)
        return merged, info


# ---------------------------------------------------------------------------
# Process-wide default executor
# ---------------------------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT: AnalysisExecutor | None = None


def get_default_executor(workers: int = 2) -> AnalysisExecutor:
    """The process-wide shared executor (created lazily, grown on
    demand, closed at interpreter exit).  Engines with ``workers > 1``
    and no explicit ``AnalysisOptions.executor`` use this pool, so
    repeated CLI/engine runs in one process share warm workers."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None or _DEFAULT.closed:
            _DEFAULT = AnalysisExecutor(workers=max(2, workers))
        else:
            _DEFAULT.ensure_size(workers)
        return _DEFAULT


def close_default_executor() -> None:
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is not None:
            _DEFAULT.close()
            _DEFAULT = None


atexit.register(close_default_executor)
