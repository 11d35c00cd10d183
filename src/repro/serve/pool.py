"""Warm engine pool.

One :class:`OFenceEngine` per (tree, semantic options) content hash,
kept warm across requests so repeated submissions of the same tree hit
the in-memory scan cache and the incremental pairing index instead of
re-parsing the world.  Capacity-bounded with LRU eviction; every engine
carries its own lock so two requests for *different* trees analyze
concurrently while requests for the *same* tree take turns (the job
queue already runs one job per tree at a time; the lock also covers
callers that use the pool directly).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.core.engine import AnalysisOptions, KernelSource, OFenceEngine


@dataclass
class PoolStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Analyze hits that found the warm engine's tree mutated by earlier
    #: reanalyze deltas and had to converge it back to the submitted one.
    reconverged: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "reconverged": self.reconverged,
        }


@dataclass
class PooledEngine:
    """One warm engine plus its bookkeeping."""

    key: str
    engine: OFenceEngine
    lock: threading.RLock = field(default_factory=threading.RLock)
    uses: int = 0


class EnginePool:
    """LRU-bounded map of tree key -> warm :class:`PooledEngine`."""

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ValueError("engine pool capacity must be >= 1")
        self.capacity = capacity
        self.stats = PoolStats()
        self._entries: "OrderedDict[str, PooledEngine]" = OrderedDict()
        self._lock = threading.Lock()

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def get(self, key: str) -> PooledEngine | None:
        """The warm entry for ``key``, or None; refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                **self.stats.as_dict(),
                "engines": [
                    {"key": e.key[:12], "uses": e.uses}
                    for e in self._entries.values()
                ],
            }

    # -- acquisition -------------------------------------------------------

    @contextmanager
    def acquire(
        self,
        key: str,
        factory: Callable[[], OFenceEngine] | None = None,
        source: KernelSource | None = None,
        options: AnalysisOptions | None = None,
    ):
        """Yield the warm engine for ``key`` with its lock held.

        On a hit, a provided ``source`` is authoritative: if earlier
        reanalyze deltas drifted the warm engine's tree away from it,
        the engine is converged back before being yielded (see
        :meth:`_reconcile`).  Misses build a fresh engine via
        ``factory`` (or from ``source``/``options``) and may evict the
        least-recently-used entry.  An evicted engine still in use by an in-flight job keeps
        running — the job holds a reference — it just stops being warm
        for future requests.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
            else:
                if factory is None:
                    if source is None:
                        raise KeyError(
                            f"no warm engine for {key[:12]} and no factory"
                        )
                    factory = lambda: OFenceEngine(source, options)  # noqa: E731
                self.stats.misses += 1
                entry = PooledEngine(key=key, engine=factory())
                self._entries[key] = entry
                while len(self._entries) > self.capacity:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self.stats.evictions += 1
        with entry.lock:
            entry.uses += 1
            if source is not None:
                self._reconcile(entry, source, options)
            yield entry.engine

    def _reconcile(
        self,
        entry: PooledEngine,
        source: KernelSource,
        options: AnalysisOptions | None,
    ) -> None:
        """Undo reanalyze drift before an analyze reuses a warm engine.

        ``reanalyze_file`` mutates the pooled engine's tree in place
        while the entry stays keyed by the hash of the *originally
        submitted* content, so an analyze hit may find an engine whose
        tree no longer matches the submission.  Serving that engine
        as-is would return results for the delta-mutated tree, not the
        one the client sent.  Convergence goes file-by-file through
        ``reanalyze_file`` so unchanged files keep their warm scan
        results; the caller holds ``entry.lock``.
        """
        engine = entry.engine
        current = engine.source
        if (
            current.files == source.files
            and current.headers == source.headers
            and current.file_options == source.file_options
        ):
            return
        self.stats.reconverged += 1
        if (
            current.headers != source.headers
            or current.file_options != source.file_options
        ):
            # Deltas only ever touch ``files``; anything else diverging
            # means the engine is not trustworthy — rebuild it cold.
            entry.engine = OFenceEngine(
                source, options if options is not None else engine.options
            )
            return
        for path in [p for p in current.files if p not in source.files]:
            del current.files[path]
            engine.reanalyze_file(path)
        for path, text in source.files.items():
            if current.files.get(path) != text:
                engine.reanalyze_file(path, text)
