"""The cluster executor: engine stage offloads over N serve daemons.

:class:`ClusterExecutor` implements the same three-stage offload
interface as :class:`repro.exec.AnalysisExecutor` — ``scan`` /
``pair_candidates`` / ``check_shards`` — but dispatches each shard over
HTTP to a pool of worker nodes (serve daemons exposing the
``/v1/shard/*`` endpoints) instead of local processes.  Plugging it
into :class:`~repro.core.engine.AnalysisOptions.executor` turns any
engine into a cluster coordinator, inheriting all of the engine's
parity machinery for free:

* files are sharded by consistent hash (:class:`~repro.cluster.ring
  .HashRing`), so assignment is deterministic and node-local scan
  caches stay warm across runs;
* pairing is **not** approximated: the coordinator keeps the global
  pairing index the engine built and replicates it to every node by
  exact file-level delta (the PR-5 namespace-mirror scheme lifted over
  HTTP), then shards only the candidate *search*; results align with
  the engine's reference list so the merged candidates are bit-for-bit
  the serial ones;
* checker shards are contiguous chunks merged in chunk order — the
  same merge the local executor performs;
* every failure mode (node down, RPC timeout, misaligned reply)
  degrades to ``None``/incomplete returns, which the engine answers
  with its serial fallback — never a wrong result.  The one exception
  is a coordinator shutting down: a ``close()`` racing an in-flight op
  raises :class:`~repro.exec.executor.ExecutorClosed` instead of
  letting the drain degrade into a serial re-run.

Tracing: under an active trace each RPC attempt is an ``rpc.<op>``
span, the trace context rides the ``X-Repro-Trace`` header (attached
by the underlying HTTP client), and the spans a node returns inline
are absorbed under that RPC span — producing one coherent tree across
coordinator, nodes, and the nodes' exec workers.  Fan-out threads each
run in their own ``contextvars`` context copy; a single context cannot
be entered by two threads at once.

Failure handling: nodes answering 503 are backed off per
``Retry-After``; connection-level failures retry with exponential
backoff and then mark the node down, its shard re-dispatched to the
next live node on the ring (``redispatches`` counter).  ``probe()``
re-admits recovered nodes with their warm state assumed gone (428/409
resync handles the rest).
"""

from __future__ import annotations

import contextvars
import http.client
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.client import ShardClient
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.exec.executor import ExecutorClosed
from repro.exec.protocol import PAIR_NS_CAP, ExecContext
from repro.serve.client import ClientError
from repro.serve.metrics import LatencyWindow
from repro.serve.shard import pack, unpack
from repro.trace.context import absorb_remote, span

#: Connection-level failures: what a dead/dying node looks like.  Note
#: ``http.client.HTTPException`` (e.g. BadStatusLine from a listener
#: closed mid-response) is *not* an OSError.
_CONN_ERRORS = (OSError, http.client.HTTPException)


class NodeDown(Exception):
    """A node failed its retry budget for one RPC."""


class _Node:
    """Coordinator-side handle of one worker node."""

    def __init__(self, url: str, client: ShardClient):
        self.url = url
        self.client = client
        self.up = True
        #: Context epoch last installed on this node (this incarnation).
        self.epoch_sent: str | None = None
        #: Serializes pairsync+mirror updates for this node.  Re-entrant:
        #: a failing sync RPC marks the node down (clearing the mirror)
        #: while the sync still holds the lock.
        self.lock = threading.RLock()
        #: Mirror of the node's pairing-namespace LRU: ns -> {path: key}.
        self.pair_ns: "OrderedDict[str, dict[str, str]]" = OrderedDict()
        self.latency = LatencyWindow()
        self.rpcs = 0
        self.errors = 0

    def forget_warm_state(self) -> None:
        """The node restarted (or may have): assume its caches are gone."""
        self.epoch_sent = None
        with self.lock:
            self.pair_ns.clear()


@dataclass
class ClusterStats:
    """Coordinator-side counters (``snapshot()`` feeds ``/metrics``)."""

    rpcs: int = 0
    rpc_errors: int = 0
    redispatches: int = 0
    node_failures: int = 0
    nodes_revived: int = 0
    scan_files_lost: int = 0
    scan_duplicates: int = 0
    merge_seconds: float = 0.0
    ops: dict[str, int] = field(default_factory=dict)

    def count_op(self, name: str) -> None:
        self.ops[name] = self.ops.get(name, 0) + 1


class ClusterExecutor:
    """Stage offloads over HTTP worker nodes; engine-executor shaped."""

    def __init__(
        self,
        nodes: list[str],
        replicas: int = DEFAULT_REPLICAS,
        timeout: float = 300.0,
        node_retries: int = 1,
        retry_backoff: float = 0.1,
        max_backoff: float = 5.0,
        busy_retries: int = 3,
        client_factory: Callable[[str], ShardClient] | None = None,
    ):
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        factory = client_factory or (
            lambda url: ShardClient(url, timeout=timeout)
        )
        self._nodes = [_Node(url.rstrip("/"), factory(url.rstrip("/")))
                       for url in dict.fromkeys(nodes)]
        self._ring = HashRing([n.url for n in self._nodes], replicas)
        self._node_retries = max(0, node_retries)
        self._retry_backoff = retry_backoff
        self._max_backoff = max_backoff
        self._busy_retries = max(0, busy_retries)
        self._closed = False
        self._stats_lock = threading.Lock()
        self.stats = ClusterStats()
        #: Test hook: called with the source node's url after each scan
        #: batch is absorbed (outside locks) — crash-injection point.
        self.on_scan_payload: Callable[[str], None] | None = None

    # -- executor interface surface ----------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def workers(self) -> int:
        """Live node count; the engine uses this only as a hint."""
        return max(1, sum(1 for n in self._nodes if n.up))

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- node management ---------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return [n.url for n in self._nodes]

    def _live(self) -> list[_Node]:
        return [n for n in self._nodes if n.up]

    def probe(self) -> dict[str, bool]:
        """Health-check every node; revive recovered ones (warm state
        presumed lost — the 428/409 resync protocol rebuilds it)."""
        status: dict[str, bool] = {}
        for node in self._nodes:
            try:
                node.client.healthz()
                alive = True
            except ClientError as exc:
                # The daemon answered: it exists, but 503 means it is
                # draining and must not be scheduled.
                alive = exc.status != 503
            except _CONN_ERRORS:
                alive = False
            if alive and not node.up:
                node.up = True
                node.forget_warm_state()
                with self._stats_lock:
                    self.stats.nodes_revived += 1
            elif not alive and node.up:
                self._mark_down(node)
            status[node.url] = node.up
        return status

    def _mark_down(self, node: _Node) -> None:
        if node.up:
            node.up = False
            node.forget_warm_state()
            with self._stats_lock:
                self.stats.node_failures += 1

    # -- RPC core ----------------------------------------------------------

    def _rpc(self, node: _Node, op: str,
             fn: Callable[[], dict[str, Any]],
             ctx: ExecContext) -> dict[str, Any]:
        """One shard RPC with the full retry ladder.

        428 → (re)install the context and retry; 503 → honour
        Retry-After up to ``busy_retries``; connection failures →
        exponential backoff up to ``node_retries``, then
        :class:`NodeDown`.
        """
        with self._stats_lock:
            self.stats.count_op(op)
        conn_failures = 0
        busy_waits = 0
        delay = self._retry_backoff
        while True:
            try:
                if node.epoch_sent != ctx.epoch:
                    node.client.shard_ctx(ctx)
                    node.epoch_sent = ctx.epoch
                started = time.monotonic()
                # The span is active around fn() so the HTTP client
                # ships it in X-Repro-Trace: spans the node records
                # for this request parent under this rpc span.
                with span(f"rpc.{op}", target=node.url):
                    out = fn()
                node.latency.record(time.monotonic() - started)
                node.rpcs += 1
                with self._stats_lock:
                    self.stats.rpcs += 1
                if isinstance(out, dict):
                    absorb_remote(out.pop("spans", None))
                return out
            except ClientError as exc:
                if exc.status == 428:
                    # Node lost the context (restart, eviction): its
                    # warm state is stale too.
                    node.forget_warm_state()
                    continue
                if exc.status == 503 and busy_waits < self._busy_retries:
                    busy_waits += 1
                    time.sleep(min(exc.retry_after or delay,
                                   self._max_backoff))
                    delay = min(delay * 2, self._max_backoff)
                    continue
                node.errors += 1
                with self._stats_lock:
                    self.stats.rpc_errors += 1
                raise
            except _CONN_ERRORS as exc:
                node.errors += 1
                with self._stats_lock:
                    self.stats.rpc_errors += 1
                if conn_failures >= self._node_retries:
                    self._mark_down(node)
                    raise NodeDown(f"{node.url}: {exc}") from exc
                conn_failures += 1
                time.sleep(min(delay, self._max_backoff))
                delay = min(delay * 2, self._max_backoff)

    def _with_failover(self, first: _Node, op: str,
                       fn: Callable[[_Node], dict[str, Any]],
                       ctx: ExecContext) -> dict[str, Any] | None:
        """Run ``fn`` against ``first``; on NodeDown walk the remaining
        live nodes (list order) until one answers.  ``None`` when every
        node is down or errored."""
        tried: set[str] = set()
        node: _Node | None = first
        while node is not None:
            tried.add(node.url)
            try:
                return self._rpc(node, op, lambda: fn(node), ctx)
            except NodeDown:
                with self._stats_lock:
                    self.stats.redispatches += 1
            except ClientError:
                return None
            node = next(
                (n for n in self._live() if n.url not in tried), None
            )
        return None

    def _node_by_url(self, url: str) -> _Node:
        for node in self._nodes:
            if node.url == url:
                return node
        raise KeyError(url)

    # -- stage offloads ----------------------------------------------------

    def scan(self, jobs, ctx: ExecContext, on_result) -> dict:
        """Shard ``jobs`` by file path over live nodes; one thread per
        node group.  Files a dead group loses are left undelivered —
        the engine re-scans them serially, so the run stays complete."""
        base = {
            "dispatched": len(jobs), "completed": 0, "batches": 0,
            "worker_hits": 0, "respawns": 0, "workers_used": 0,
        }
        if not jobs or self._closed:
            return base
        live = {n.url for n in self._live()}
        if not live:
            return base
        redispatch_before = self.stats.redispatches
        by_path = {job[0]: job for job in jobs}
        groups = self._ring.assign(list(by_path), live)
        keys = {path: key for path, _text, key in jobs}
        delivered: set[str] = set()
        absorb_lock = threading.Lock()
        results: list[tuple[str, dict | None]] = []

        def run_group(url: str, paths: list[str]) -> None:
            node = self._node_by_url(url)
            group_jobs = [by_path[p] for p in paths]
            out = self._with_failover(
                node, "scan",
                lambda n: n.client.shard_scan(ctx.epoch, group_jobs),
                ctx,
            )
            with absorb_lock:
                results.append((url, out))

        threads = [
            threading.Thread(target=contextvars.copy_context().run,
                             args=(run_group, url, paths),
                             name=f"cluster-scan-{i}", daemon=True)
            for i, (url, paths) in enumerate(groups.items())
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for url, out in results:
            if out is None:
                continue
            base["batches"] += 1
            base["worker_hits"] += out.get("hits", 0)
            for cached in unpack(out["payloads"]):
                path = cached.filename
                if path not in keys or path in delivered:
                    with self._stats_lock:
                        self.stats.scan_duplicates += 1
                    continue
                delivered.add(path)
                on_result(cached, keys[path])
                base["completed"] += 1
            hook = self.on_scan_payload
            if hook is not None:
                hook(url)

        lost = len(jobs) - base["completed"]
        if lost and self._closed:
            # Closed out from under the op: the missing files are a
            # shutdown artefact, not a node failure — don't let the
            # engine quietly re-scan them serially during the drain.
            raise ExecutorClosed("cluster executor closed mid-scan")
        if lost:
            with self._stats_lock:
                self.stats.scan_files_lost += lost
        base["respawns"] = self.stats.redispatches - redispatch_before
        base["workers_used"] = len(groups)
        return base

    def pair_candidates(self, ns: str, state, refs, token,
                        ctx: ExecContext):
        """Best candidates for ``refs``, sharded over live nodes.

        Every participating node first receives the exact delta between
        its replica of pairing namespace ``ns`` and ``state`` (the
        coordinator's full index content), then searches its contiguous
        slice of ``refs``.  Any unrecoverable shard → ``(None, info)``
        and the engine computes serially.
        """
        info = {"shards": 0, "reused": 0, "computed": 0}
        if not refs:
            return [], info
        if self._closed:
            return None, info
        live = self._live()
        if not live:
            return None, info
        nshards = max(1, min(len(live), len(refs)))
        size = -(-len(refs) // nshards)
        chunks = [refs[i:i + size] for i in range(0, len(refs), size)]
        info["shards"] = len(chunks)
        out_chunks: list[list | None] = [None] * len(chunks)
        lock = threading.Lock()

        def run_chunk(index: int, chunk) -> None:
            result = self._cand_with_failover(
                live[index % len(live)], ns, state, token, chunk, ctx
            )
            if result is not None:
                cands, stats = result
                with lock:
                    out_chunks[index] = cands
                    info["reused"] += stats.get("candidates_reused", 0)
                    info["computed"] += stats.get("candidates_computed", 0)

        threads = [
            threading.Thread(target=contextvars.copy_context().run,
                             args=(run_chunk, i, chunk),
                             name=f"cluster-cand-{i}", daemon=True)
            for i, chunk in enumerate(chunks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        out: list = []
        for chunk, cands in zip(chunks, out_chunks):
            if cands is None or len(cands) != len(chunk):
                if self._closed:
                    raise ExecutorClosed(
                        "cluster executor closed mid-pairing"
                    )
                return None, info
            out.extend(cands)
        return out, info

    def _cand_with_failover(self, first: _Node, ns: str, state, token,
                            chunk, ctx: ExecContext):
        """sync-then-cand against ``first``, failing over like
        :meth:`_with_failover` but re-syncing on each new node."""
        tried: set[str] = set()
        node: _Node | None = first
        while node is not None:
            tried.add(node.url)
            try:
                return self._cand_on_node(node, ns, state, token, chunk,
                                          ctx)
            except NodeDown:
                with self._stats_lock:
                    self.stats.redispatches += 1
            except ClientError:
                return None
            node = next(
                (n for n in self._live() if n.url not in tried), None
            )
        return None

    def _cand_on_node(self, node: _Node, ns: str, state, token, chunk,
                      ctx: ExecContext):
        """One node's shard: sync the namespace replica, then search.

        A 409 (namespace evicted node-side, or the node restarted
        between sync and search) drops the mirror and retries once with
        a full resync.
        """
        for attempt in (0, 1):
            self._sync_pair_ns(node, ns, state, ctx)
            try:
                out = self._rpc(
                    node, "cand",
                    lambda: node.client.shard_cand(
                        ctx.epoch, ns, token,
                        [(p, i) for p, i in chunk],
                    ),
                    ctx,
                )
            except ClientError as exc:
                if exc.status == 409 and attempt == 0:
                    with node.lock:
                        node.pair_ns.pop(ns, None)
                    continue
                raise
            cands = unpack(out["candidates"])
            return cands, out.get("stats") or {}
        return None

    def _sync_pair_ns(self, node: _Node, ns: str, state,
                      ctx: ExecContext) -> None:
        """Ship the exact file-level delta for namespace ``ns``.

        The mirror is only advanced after the RPC succeeds, so a lost
        response at worst re-sends an upsert — and node-side
        ``add_sites`` replaces, so resync is idempotent.
        """
        with node.lock:
            known = node.pair_ns.get(ns, {})
            upserts = [
                (path, sites) for path, (key, sites) in state.items()
                if known.get(path) != key
            ]
            removes = [path for path in known if path not in state]
            if upserts or removes:
                self._rpc(
                    node, "pairsync",
                    lambda: node.client.shard_pairsync(
                        ctx.epoch, ns, pack(upserts), removes
                    ),
                    ctx,
                )
            node.pair_ns[ns] = {
                path: key for path, (key, _sites) in state.items()
            }
            node.pair_ns.move_to_end(ns)
            while len(node.pair_ns) > PAIR_NS_CAP:
                node.pair_ns.popitem(last=False)

    def check_shards(self, files, entries, checks, ctx: ExecContext):
        """Checker fan-out: contiguous chunks of ``entries`` over live
        nodes, merged in chunk order (= serial iteration order)."""
        info = {"shards": 0}
        if not entries:
            return {}, info
        if self._closed:
            return None, info
        live = self._live()
        if not live:
            return None, info
        nshards = max(1, min(len(live), len(entries)))
        size = -(-len(entries) // nshards)
        chunks = [
            entries[i:i + size] for i in range(0, len(entries), size)
        ]
        info["shards"] = len(chunks)
        shard_results: list[dict | None] = [None] * len(chunks)
        shard_nodes: list[str] = [""] * len(chunks)

        def run_chunk(index: int, chunk) -> None:
            paths = {
                path for spec in chunk for path, _pos in spec.barrier_refs
            }
            sub = {path: files[path] for path in sorted(paths)}
            answered = [""]

            def call(n: _Node):
                # Failover walks nodes; the last one invoked before a
                # non-None return is the node that answered this shard.
                answered[0] = n.url
                return n.client.shard_check(
                    ctx.epoch, sub, pack(chunk), tuple(checks)
                )

            out = self._with_failover(
                live[index % len(live)], "check", call, ctx
            )
            if out is not None:
                shard_results[index] = unpack(out["results"])
                shard_nodes[index] = answered[0]

        threads = [
            threading.Thread(target=contextvars.copy_context().run,
                             args=(run_chunk, i, chunk),
                             name=f"cluster-check-{i}", daemon=True)
            for i, chunk in enumerate(chunks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        merged: dict = {}
        for name in checks:
            findings: list = []
            claimed: list = []
            fail: str | None = None
            fail_node = ""
            for index, res in enumerate(shard_results):
                if res is None:
                    if self._closed:
                        raise ExecutorClosed(
                            "cluster executor closed mid-check"
                        )
                    return None, info
                shard = res.get(name)
                if shard is None:
                    return None, info
                if shard[0] == "checkerfail":
                    fail = shard[1]
                    fail_node = shard_nodes[index]
                    break
                findings.extend(shard[1])
                claimed.extend(shard[2])
            if fail is not None:
                merged[name] = ("checkerfail", fail, fail_node)
            else:
                merged[name] = ("ok", findings, claimed)
        return merged, info

    # -- observability -----------------------------------------------------

    def record_result(self, result) -> None:
        """Fold one result's coordinator-side stage time into the stats:
        every top-level stage but ``scan``, which the nodes do."""
        spent = sum(
            seconds for name, seconds in result.stage_seconds.items()
            if name != "scan"
        )
        with self._stats_lock:
            self.stats.merge_seconds += spent

    def snapshot(self) -> dict:
        """Flat numerics (the ``executor`` gauge group shape)."""
        with self._stats_lock:
            return {
                "nodes": len(self._nodes),
                "nodes_up": sum(1 for n in self._nodes if n.up),
                "rpcs": self.stats.rpcs,
                "rpc_errors": self.stats.rpc_errors,
                "redispatches": self.stats.redispatches,
                "node_failures": self.stats.node_failures,
                "nodes_revived": self.stats.nodes_revived,
                "scan_files_lost": self.stats.scan_files_lost,
                "scan_duplicates": self.stats.scan_duplicates,
            }

    def cluster_snapshot(self) -> dict:
        """The full ``cluster`` gauge group for ``/metrics``
        (``ofence_cluster_*``), including per-node latency series."""
        snap: dict[str, Any] = self.snapshot()
        with self._stats_lock:
            snap["merge_seconds"] = round(self.stats.merge_seconds, 6)
            snap["shard_ops"] = dict(self.stats.ops)
        snap["per_node"] = {
            node.url: {
                "up": node.up,
                "rpcs": node.rpcs,
                "errors": node.errors,
                **{
                    key: value
                    for key, value in node.latency.summary().items()
                    if value is not None
                },
            }
            for node in self._nodes
        }
        return snap
