"""The executor worker process: a warm, single-threaded task loop.

One ``worker_main`` runs per pool process.  The loop pulls task tuples
from its private queue, dispatches on the kind tag, and pushes replies
onto the shared result queue.  All the interesting state is *warm* —
it outlives individual ``analyze()`` calls, which is the whole point of
the persistent pool:

* ``scan_cache`` — content key -> slim :class:`CachedScan`, so a file
  re-submitted unchanged (a warm daemon, a second engine over the same
  tree) skips parse + scan entirely;
* ``check_cache`` — content key -> (scanner, sites), keeping the parsed
  AST and CFGs of recently checked files so checker shards skip
  re-materialization;
* ``pair`` — named :class:`PairingIndex` instances with their candidate
  memos, fed file-level deltas by the parent (which mirrors this LRU so
  sync messages carry only what changed).

Workers never raise out of a task: a handler exception is reported as a
``("error", traceback)`` reply and the parent falls back to its serial
path for that stage.
"""

from __future__ import annotations

import contextvars
import os
import queue
import traceback
from collections import OrderedDict
from contextlib import nullcontext

from repro.analysis.barrier_scan import ScanLimits
from repro.core.cache import CachedScan
from repro.core.engine import scan_file
from repro.exec.protocol import PAIR_NS_CAP
from repro.trace.context import activate, span
from repro.trace.model import Trace

#: Warm-state bounds; generous for the corpus scale, small enough that a
#: long-lived daemon worker cannot grow without limit.
SCAN_CACHE_CAP = 1024
CHECK_CACHE_CAP = 64

#: Exit code of the ``("crash",)`` test hook.
_EXIT_CRASH = 23

#: Seconds an idle worker waits on its queue before it checks that its
#: owner is still alive.
_OWNER_CHECK_S = 1.0


class _WorkerState:
    """Everything a worker keeps warm between tasks."""

    def __init__(self) -> None:
        self.defines: dict[str, str] = {}
        self.headers: dict[str, str] = {}
        self.limits = ScanLimits()
        self.epoch: str | None = None
        #: (path, content key) -> CachedScan
        self.scan_cache: "OrderedDict[tuple[str, str], CachedScan]" = \
            OrderedDict()
        self.scan_hits = 0
        #: (path, content key) -> (scanner, sites)
        self.check_cache: "OrderedDict[tuple[str, str], tuple]" = \
            OrderedDict()
        self.check_hits = 0
        #: namespace -> warm PairingIndex (LRU, mirrored by the parent).
        self.pair: "OrderedDict[str, object]" = OrderedDict()


def _apply_ctx(state: _WorkerState, msg) -> None:
    _, epoch, defines, headers, limits = msg
    state.defines = defines
    state.headers = headers
    state.limits = ScanLimits(
        write_window=limits[0], read_window=limits[1]
    )
    state.epoch = epoch


def _handle_scan(state: _WorkerState, jobs: list[tuple[str, str, str]]):
    """jobs: [(path, text, key)] -> (payloads, warm hits)."""
    out: list[CachedScan] = []
    hits = 0
    for path, text, key in jobs:
        cached = state.scan_cache.get((path, key))
        if cached is not None:
            state.scan_cache.move_to_end((path, key))
            hits += 1
        else:
            _scanner, sites, error = scan_file(
                text, path, state.defines, state.headers, state.limits
            )
            cached = CachedScan(filename=path, sites=sites,
                                parse_error=error)
            state.scan_cache[(path, key)] = cached
            while len(state.scan_cache) > SCAN_CACHE_CAP:
                state.scan_cache.popitem(last=False)
        out.append(cached)
    state.scan_hits += hits
    return out, hits


def _handle_pairsync(state: _WorkerState, msg) -> None:
    """Apply file deltas to (or create) a pairing-index namespace."""
    from repro.pairing.algorithm import PairingIndex

    _, ns, upserts, removes = msg
    index = state.pair.get(ns)
    if index is None:
        index = PairingIndex()
        state.pair[ns] = index
        while len(state.pair) > PAIR_NS_CAP:
            state.pair.popitem(last=False)
    for path in removes:
        index.remove_file(path)
    for path, sites in upserts:
        index.add_sites(path, sites)


def _handle_cand(state: _WorkerState, msg):
    """Best pairing candidates for writer refs, by warm index + memo."""
    from repro.pairing.algorithm import PairingEngine

    _, _batch, ns, token, refs = msg
    index = state.pair[ns]
    state.pair.move_to_end(ns)
    sites = [index.file_sites(path)[pos] for path, pos in refs]
    engine = PairingEngine(
        index=index,
        min_common_objects=token[0],
        allow_same_function=token[1],
        include_unresolved=token[2],
        use_distance_weight=token[3],
        require_ordering=token[4],
    )
    out = []
    for cand in engine.compute_candidates(sites):
        if cand is None:
            out.append(None)
        else:
            mpath, mpos = index.order_key(cand.match)
            out.append((mpath, mpos, cand.o1, cand.o2, cand.weight))
    return out, dict(engine.stats)


def _materialize(state: _WorkerState, path: str, key: str, text: str):
    """(scanner, sites) for a check shard file, via the warm cache."""
    entry = state.check_cache.get((path, key))
    if entry is not None:
        state.check_cache.move_to_end((path, key))
        state.check_hits += 1
        return entry
    scanner, sites, error = scan_file(
        text, path, state.defines, state.headers, state.limits
    )
    if scanner is None:
        raise RuntimeError(f"cannot re-scan {path}: {error}")
    entry = scanner, sites
    state.check_cache[(path, key)] = entry
    while len(state.check_cache) > CHECK_CACHE_CAP:
        state.check_cache.popitem(last=False)
    return entry


def _handle_check(state: _WorkerState, msg):
    """Run the requested shardable checkers over one shard of pairings.

    Which checkers run — and in what order, with claims threaded
    between them — comes from the checker registry: any spec declaring
    itself CFG-shardable may be requested, and each result is encoded
    through the spec's wire codec.  Returns ``{checker: ("ok",
    findings, claimed) | ("checkerfail", message)}`` — "checkerfail"
    reproduces the serial ``_guarded`` outcome (the checker itself
    raised on this input), while unexpected failures outside the
    checkers (parse, rebuild) propagate and become a task error, which
    the parent answers by re-running serially.
    """
    from repro.checkers import registry
    from repro.pairing.model import Pairing

    _, _batch, files, entries, checks = msg
    scanners: dict[str, object] = {}
    sites_by_path: dict[str, list] = {}
    for path, (key, text) in files.items():
        scanner, sites = _materialize(state, path, key, text)
        scanners[path] = scanner
        sites_by_path[path] = sites

    site_refs: dict[int, tuple[str, int]] = {}
    use_refs: dict[int, tuple[str, int, int]] = {}
    for path, sites in sites_by_path.items():
        for sidx, site in enumerate(sites):
            site_refs[id(site)] = (path, sidx)
            for uidx, use in enumerate(site.uses):
                use_refs[id(use)] = (path, sidx, uidx)

    pairings: list[Pairing] = []
    entry_of: dict[int, int] = {}
    for spec in entries:
        barriers = [
            sites_by_path[path][pos] for path, pos in spec.barrier_refs
        ]
        pairing = Pairing(
            barriers=barriers,
            common_objects=list(spec.common_objects),
            weight=spec.weight,
        )
        entry_of[id(pairing)] = spec.entry
        pairings.append(pairing)

    def cfg_lookup(filename: str, function: str):
        scanner = scanners.get(filename)
        if scanner is None:
            return None
        scan = scanner.function_scan(function)
        return scan.cfg if scan is not None else None

    # Shard-local context: the chunk is both the pairing list and the
    # check list (broadcast slicing happened parent-side), and claims
    # thread between shardable checkers in registry order — chunk-local
    # claims equal the global claims restricted to the chunk because
    # claims are pairing-local and each pairing lives in one shard.
    ctx = registry.CheckContext(
        pairings=pairings, check_list=pairings, cfg_lookup=cfg_lookup
    )
    results: dict[str, tuple] = {}
    for spec in registry.shardable_specs():
        if spec.name not in checks:
            continue
        try:
            findings, claimed = spec.run(ctx)
            results[spec.name] = (
                "ok",
                [
                    spec.codec.encode_finding(
                        f, entry_of, site_refs, use_refs
                    )
                    for f in findings
                ],
                spec.codec.encode_claims(claimed, entry_of),
            )
            ctx.claimed |= claimed
        except Exception as exc:
            results[spec.name] = (
                "checkerfail", f"{type(exc).__name__}: {exc}"
            )
    return results


def worker_main(worker_id: int, task_q, result_q, owner: int) -> None:
    """Entry point of one pool process (must be importable for spawn).

    ``owner`` is the pid of the process that started the worker.  The
    loop runs in an empty context: a forked worker would otherwise
    inherit whatever trace was active in the parent when it forked.
    """
    contextvars.Context().run(_task_loop, worker_id, task_q, result_q,
                              owner)


def _task_loop(worker_id: int, task_q, result_q, owner: int) -> None:
    state = _WorkerState()
    while True:
        # An owner that ends without closing the pool (``os._exit``, a
        # kill) sends no "exit"; its workers are re-parented, so a pid
        # check finds them.  A pipe or sentinel would not: under fork a
        # later sibling inherits the owner's end and keeps it open.
        try:
            msg = task_q.get(timeout=_OWNER_CHECK_S)
        except queue.Empty:
            if os.getppid() != owner:
                return
            continue
        kind = msg[0]
        if kind == "exit":
            return
        if kind == "crash":
            os._exit(_EXIT_CRASH)
        if kind == "ctx":
            _apply_ctx(state, msg)
            continue
        if kind == "pairsync":
            try:
                _handle_pairsync(state, msg)
            except Exception:
                # Poison the namespace: the next "cand" against it will
                # fail as a task error and the parent will pair serially.
                state.pair.pop(msg[1], None)
            continue
        # Analysis tasks arrive as (kind, batch id, tctx, *args) where
        # tctx is the parent's (trace id, span id) pair, or None when
        # the request is untraced; a traced task is timed by one
        # ``exec.<kind>`` span returned with the reply.  The handlers
        # keep the legacy (kind, batch id, *args) message shape — shard
        # services call them directly, without a pool in between.
        batch_id = msg[1]
        tctx = msg[2]
        rest = msg[3:]
        trace = scope = None
        if tctx is not None:
            trace = Trace(tctx[0], node=f"exec:{worker_id}")
            scope = activate(trace, tctx[1])
        try:
            with scope or nullcontext(), span(f"exec.{kind}"):
                if kind == "scan":
                    payload = _handle_scan(state, rest[0])
                elif kind == "cand":
                    payload = _handle_cand(state, (kind, batch_id, *rest))
                elif kind == "check":
                    payload = _handle_check(state, (kind, batch_id, *rest))
                else:
                    raise ValueError(f"unknown task kind {kind!r}")
            status = "ok"
        except Exception:
            status, payload = "error", traceback.format_exc(limit=8)
        spans = trace.export() if trace is not None else None
        result_q.put((worker_id, batch_id, status, payload, spans))
