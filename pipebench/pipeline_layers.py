"""Span tracing around the calls into each layer, from outside the program.

:class:`LayerTracer` replaces the attributes listed in :data:`ENTRY_POINTS`
with timing wrappers while it is installed.  Each wrapper sits on the
attribute its caller actually looks up (``repro.core.engine.parse_source``,
not ``repro.cparse.parser.parse_source``), so a call that bypasses it is
not timed; the smoke test checks that every wrapper fires.

A span records name, start, end, parent span and op id.  Spans are kept
in memory and written out as JSON by :meth:`LayerTracer.dump`.  A
layer's self time is its spans' duration minus the time covered by
their child spans; nested spans on one thread never overlap, so that is
the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _tokens(args, result) -> dict[str, int]:
    return {"cparse.lex.tokens": len(result)}


def _sites(args, result) -> dict[str, int]:
    return {"analysis.scan.sites": len(result)}


def _cache_load(args, result) -> dict[str, int]:
    return {"core.cache.loads": 1, "core.cache.hits": int(result is not None)}


def _pair_stats(args, result) -> dict[str, int]:
    stats = args[0].stats
    return {
        "pairing.candidates_reused": stats.get("candidates_reused", 0),
        "pairing.candidates_total": stats.get("candidates_reused", 0)
        + stats.get("candidates_computed", 0)
        + stats.get("candidates_offloaded", 0),
    }


def _patch_memo(args, result) -> dict[str, int]:
    return {
        "patching.memo_hits": args[0].memo_hits,
        "patching.findings": len(args[1]),
    }


def _exec_tasks(position: int):
    def count(args, result) -> dict[str, int]:
        return {"exec.tasks": len(args[position])}

    return count


#: ``(module, attribute path, layer, counter)``.  The layer names are
#: the metric prefixes; the counter maps ``(args, result)`` to counts.
ENTRY_POINTS: tuple = (
    ("repro.core.engine", "OFenceEngine.analyze", "core.engine", None),
    ("repro.core.engine", "OFenceEngine.reanalyze_file", "core.engine",
     None),
    ("repro.cparse.preprocessor", "tokenize", "cparse.lex", _tokens),
    ("repro.cparse.preprocessor", "Preprocessor.preprocess",
     "cparse.preprocess", None),
    ("repro.core.engine", "parse_source", "cparse.parse", None),
    ("repro.cparse.typesys", "TypeRegistry.add_unit", "cparse.types", None),
    ("repro.analysis.barrier_scan", "build_cfg", "cfg.build", None),
    ("repro.analysis.barrier_scan", "BarrierScanner.__init__",
     "analysis.accesses", None),
    ("repro.analysis.barrier_scan", "BarrierScanner.scan", "analysis.scan",
     _sites),
    ("repro.core.cache", "ScanCache.load", "core.cache.load", _cache_load),
    ("repro.pairing.algorithm", "PairingIndex.update_file", "pairing.sync",
     None),
    ("repro.pairing.algorithm", "PairingIndex.remove_file", "pairing.sync",
     None),
    ("repro.pairing.algorithm", "PairingEngine.pair", "pairing.pair",
     _pair_stats),
    ("repro.checkers.runner", "CheckerSuite.run", "checkers.run", None),
    ("repro.store.fingerprint", "attach_fingerprints", "store.fingerprint",
     None),
    ("repro.patching.generate", "PatchGenerator.generate_all",
     "patching.generate", _patch_memo),
    ("repro.patching.generate", "unified_diff", "patching.diff", None),
    ("repro.exec.executor", "AnalysisExecutor.scan", "exec.scan",
     _exec_tasks(1)),
    ("repro.exec.executor", "AnalysisExecutor.pair_candidates", "exec.pair",
     _exec_tasks(3)),
    ("repro.exec.executor", "AnalysisExecutor.check_shards", "exec.check",
     _exec_tasks(2)),
    ("repro.serve.client", "encode_source", "serve.wire", None),
    ("repro.serve.server", "decode_source", "serve.wire", None),
    ("repro.serve.server", "decode_options", "serve.wire", None),
    ("repro.serve.server", "tree_key", "serve.wire", None),
    ("repro.serve.server", "result_summary", "serve.wire", None),
    ("repro.store.db", "FindingsStore.record_run", "store.record", None),
    ("repro.store.db", "FindingsStore.diff", "store.diff", None),
)

#: Layers whose spans become ``<layer>.self_ms`` metrics.
SELF_LAYERS = (
    "cparse.lex", "cparse.preprocess", "cparse.parse", "cparse.types",
    "cfg.build", "analysis.accesses", "analysis.scan", "pairing.sync",
    "pairing.pair", "checkers.run", "store.fingerprint",
    "patching.generate", "patching.diff", "core.engine",
)
#: Layers only the serve workload reaches, as ``(time, metric)``: their
#: share of the traced ops' wall time in %, so that every other workload
#: reads 0% instead of a time that is always zero.  The exec offloads
#: count their whole parent-side call.
SHARE_LAYERS = {
    "exec.scan": ("total", "exec.scan_pct"),
    "exec.pair": ("total", "exec.pair_pct"),
    "exec.check": ("total", "exec.check_pct"),
    "serve.wire": ("self", "serve.wire.self_pct"),
    "store.record": ("self", "store.record.self_pct"),
    "store.diff": ("self", "store.diff.self_pct"),
}
#: Layers whose call count is a metric.
CALL_LAYERS = ("cparse.lex", "cfg.build", "patching.diff")
#: Spans under these layers that scan a file are rehydrations: the
#: parent re-parsing a cached file to hand a checker or patcher a CFG.
_REHYDRATING = {"checkers.run", "patching.generate"}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index, op id, thread id, entry]``
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        #: Op id stamped on new spans; the benchmark is one closed-loop
        #: caller, so every span recorded while op N runs belongs to it,
        #: including spans on the daemon's threads.
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._targets = [
            (*_resolve(module, path), layer, counter, f"{module}.{path}")
            for module, path, layer, counter in ENTRY_POINTS
        ]

    def _wrap(self, fn, layer: str, counter, entry: str):
        spans = self.spans
        clock = time.perf_counter
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [layer, clock(), None, stack[-1] if stack else None,
                      self.op, threading.get_ident(), entry]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counts = counter(args, result)
                with self._lock:
                    self.counts[record[4]].update(counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        originals = []
        for owner, attr, layer, counter, entry in self._targets:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counter, entry))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- views -------------------------------------------------------------

    def layer_totals(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Per layer: ``total``/``self`` seconds and ``calls`` over ``ops``."""
        child_time = [0.0] * len(self.spans)
        for _layer, start, end, parent, *_rest in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0}
        )
        for index, (layer, start, end, _parent, op, *_rest) in \
                enumerate(self.spans):
            if op not in ops or end is None:
                continue
            row = out[layer]
            row["total"] += end - start
            row["self"] += end - start - child_time[index]
            row["calls"] += 1
        return out

    def rehydrated(self, ops: set[int]) -> int:
        """Files scanned under a checker or patcher during ``ops``."""
        count = 0
        for layer, _start, _end, parent, op, *_rest in self.spans:
            if layer != "analysis.scan" or op not in ops:
                continue
            while parent is not None:
                if self.spans[parent][0] in _REHYDRATING:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def metrics(self, ops: set[int], op_seconds: float) -> dict[str, float]:
        """Layer metrics over the traced ``ops``, which took
        ``op_seconds`` of wall time in all; times and counts per op."""
        n = max(1, len(ops))
        totals = self.layer_totals(ops)
        counts: Counter = Counter()
        for op in ops:
            counts.update(self.counts.get(op, {}))

        def ratio(num: str, den: str) -> float:
            return counts[num] / counts[den] if counts[den] else 0.0

        out: dict[str, float] = {}
        for layer in SELF_LAYERS:
            out[f"{layer}.self_ms"] = totals[layer]["self"] * 1000 / n
        out["core.cache.load_ms"] = totals["core.cache.load"]["total"] \
            * 1000 / n
        for layer, (kind, name) in SHARE_LAYERS.items():
            out[name] = totals[layer][kind] * 100 / op_seconds
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = totals[layer]["calls"] / n
        out["cparse.lex.tokens"] = counts["cparse.lex.tokens"] / n
        out["analysis.scan.sites"] = counts["analysis.scan.sites"] / n
        out["exec.tasks"] = counts["exec.tasks"] / n
        out["checkers.rehydrated_files"] = self.rehydrated(ops) / n
        out["core.cache.hit_ratio"] = ratio("core.cache.hits",
                                            "core.cache.loads")
        out["pairing.candidate_reuse_ratio"] = ratio(
            "pairing.candidates_reused", "pairing.candidates_total"
        )
        out["patching.memo_hit_ratio"] = ratio("patching.memo_hits",
                                               "patching.findings")
        return out

    def dump(self, path: Path) -> None:
        """Write every span as JSON (times in seconds, perf_counter)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": layer, "start": start, "end": end, "parent": parent,
             "op": op, "thread": tid, "entry": entry}
            for layer, start, end, parent, op, tid, entry in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}))
