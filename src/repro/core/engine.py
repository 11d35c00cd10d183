"""The OFence analysis pipeline.

``OFenceEngine`` drives the full run (§4):

1. select the files that contain barrier primitives and are enabled by
   the kernel config (§6.1);
2. preprocess + parse each file, build CFGs, extract accesses, and scan
   for barrier sites — optionally in parallel across worker processes;
3. pair barriers globally (Algorithm 1);
4. run the §5 checkers and generate patches.

The pipeline is incremental end to end:

* every per-file scan result is keyed by a content hash of its inputs
  (text, defines, transitively resolved headers, windows); ``analyze()``
  re-scans only files whose key changed, and an optional on-disk cache
  (``AnalysisOptions.cache_dir``) survives across processes;
* every scan result, serial, from an executor worker or from the disk
  cache, is the same sites-only entry (a
  :class:`repro.core.cache.CachedScan` payload): no file's AST or CFGs
  outlive its scan.  ``scanner`` is None for every scan result until a
  checker or patcher asks for the file's CFGs, and ``_cfg_lookup`` then
  re-parses that one file;
* the global pairing stage keeps one :class:`PairingIndex` alive across
  runs and feeds it file-level deltas, so ``reanalyze_file`` — the
  paper's "updating the analysis after modifying a single file takes
  less than 30 seconds" mode — pays O(changed sites), not O(all sites);
* pairing returns the previous run's :class:`Pairing` object for every
  pairing a delta left unchanged, so the check stage
  (:class:`repro.checkers.runner.CheckMemo`), fingerprinting and
  patching each redo only the pairings, barriers and findings an edit
  replaced.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.analysis.barrier_scan import BarrierScanner, BarrierSite, ScanLimits
from repro.checkers.runner import CheckerSuite, CheckMemo, CheckReport
from repro.core.cache import CachedScan, ScanCache, header_closure, scan_key
from repro.core.profile import StageProfile
from repro.cparse.parser import ParseError, parse_source
from repro.cparse.typesys import TypeRegistry
from repro.kernel.barriers import BARRIER_PRIMITIVES
from repro.kernel.config import KernelConfig, default_config
from repro.patching.generate import Patch, PatchGenerator
from repro.trace.context import count, recording, span

if TYPE_CHECKING:
    from repro.exec.executor import AnalysisExecutor

#: Regex matching any barrier primitive or seqcount helper call; used for
#: the cheap "does this file contain barriers?" pre-filter.
_BARRIER_RE = re.compile(
    r"\b("
    + "|".join(sorted(BARRIER_PRIMITIVES))
    + r"|read_seqcount_begin|read_seqcount_retry"
    + r"|write_seqcount_begin|write_seqcount_end"
    + r"|xt_write_recseq_begin|xt_write_recseq_end"
    + r"|rcu_assign_pointer|rcu_dereference(?:_protected|_check)?"
    + r")\s*\("
)


#: Marker prefix for failures that are not plain parse errors (scanner
#: or CFG construction raising on pathological input).  The pipeline
#: must never crash on arbitrary kernel-style C — internal errors are
#: captured per file and surfaced through :class:`FileFailure`.
_INTERNAL_PREFIX = "internal-error: "


class FileFailure(str):
    """One failed file, comparing as its path.

    The string value is the file path — existing callers that treat
    ``files_failed`` as ``list[str]`` keep working — while ``stage``
    ("parse" or "internal") and ``error`` carry the structured detail
    the fuzzing oracles need to tell an expected parse rejection from a
    genuine pipeline crash.
    """

    __slots__ = ("stage", "error")

    def __new__(cls, path: str, stage: str = "parse", error: str = ""):
        obj = super().__new__(cls, path)
        obj.stage = stage
        obj.error = error
        return obj

    @property
    def path(self) -> str:
        return str(self)

    def describe(self) -> str:
        return f"{self.path} [{self.stage}] {self.error}".rstrip()


def scan_file(
    text: str,
    path: str,
    defines: dict[str, str],
    headers: dict[str, str],
    limits: ScanLimits,
) -> tuple[BarrierScanner | None, list[BarrierSite], str | None]:
    """Parse and scan one file: ``(scanner, sites, error)``; never raises.

    On failure the scanner is None, the sites are empty and ``error`` is
    the parse error's text, or an :data:`_INTERNAL_PREFIX` entry for
    any other exception.  Serial scans, rehydration and the executor's
    workers all go through here.
    """
    try:
        unit = parse_source(
            text, path, defines=defines,
            include_resolver=lambda name, _system: headers.get(name),
        )
        registry = TypeRegistry()
        registry.add_unit(unit)
        scanner = BarrierScanner(
            unit, registry=registry, limits=limits, filename=path
        )
        return scanner, scanner.scan(), None
    except ParseError as exc:
        return None, [], str(exc)
    except Exception as exc:
        return None, [], f"{_INTERNAL_PREFIX}{type(exc).__name__}: {exc}"


def _failure_entry(path: str, recorded_error: str) -> FileFailure:
    if recorded_error.startswith(_INTERNAL_PREFIX):
        return FileFailure(
            path, "internal", recorded_error[len(_INTERNAL_PREFIX):]
        )
    return FileFailure(path, "parse", recorded_error)


@dataclass
class KernelSource:
    """The source tree under analysis."""

    files: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    #: path -> CONFIG_* option guarding compilation of that file.
    file_options: dict[str, str] = field(default_factory=dict)
    #: path -> (text hash, has-barriers) memo for the regex pre-filter,
    #: which both ``analyze`` and every ``reanalyze_file`` consult
    #: (counters ``prefilter.hits``/``prefilter.misses``).  Each call
    #: rebuilds it to the current files.
    _barrier_memo: dict[str, tuple[int, bool]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def resolve_include(self, name: str, is_system: bool) -> str | None:
        return self.headers.get(name)

    def files_with_barriers(self) -> list[str]:
        out: list[str] = []
        previous, self._barrier_memo = self._barrier_memo, {}
        misses = 0
        for path, text in sorted(self.files.items()):
            token = hash(text)
            memo = previous.get(path)
            if memo is None or memo[0] != token:
                memo = (token, _BARRIER_RE.search(text) is not None)
                misses += 1
            self._barrier_memo[path] = memo
            if memo[1]:
                out.append(path)
        count("prefilter.hits", len(self.files) - misses)
        count("prefilter.misses", misses)
        return out

    @classmethod
    def from_directory(cls, root) -> "KernelSource":
        """Load a source tree from disk.

        ``*.c`` files become analysis inputs; ``*.h`` files are
        registered as headers under both their basename and their
        root-relative path, so ``#include "sub/dir.h"`` and
        ``#include "dir.h"`` both resolve.
        """
        root = Path(root)
        files: dict[str, str] = {}
        headers: dict[str, str] = {}
        for path in sorted(root.rglob("*.c")):
            files[str(path.relative_to(root))] = path.read_text()
        for path in sorted(root.rglob("*.h")):
            text = path.read_text()
            headers.setdefault(str(path.relative_to(root)), text)
            headers.setdefault(path.name, text)
        return cls(files=files, headers=headers)

    def write_to(self, root) -> int:
        """Materialize the tree under ``root``; returns files written."""
        root = Path(root)
        count = 0
        for rel, text in self.files.items():
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
            count += 1
        for rel, text in self.headers.items():
            if "/" in rel:
                continue  # basenames are aliases; write each once
            target = root / "include" / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
            count += 1
        return count


@dataclass
class AnalysisOptions:
    """Tunable parameters of one analysis run."""

    limits: ScanLimits = field(default_factory=ScanLimits)
    config: KernelConfig = field(default_factory=default_config)
    annotate: bool = True
    #: Worker processes for the CPU-bound stages (None or 1 = serial).
    #: With no explicit ``executor``, values > 1 use the process-wide
    #: persistent pool (``repro.exec.get_default_executor``).
    workers: int | None = None
    #: Checker selection (names from repro.checkers.runner.ALL_CHECKS);
    #: None = all (minus "annotate" when ``annotate`` is False).
    checks: frozenset[str] | None = None
    #: Directory for the on-disk scan cache (None = in-memory only).
    cache_dir: str | Path | None = None
    #: Byte-size cap for the on-disk cache; least-recently-used entries
    #: are evicted past it (None = unbounded).  Long-running daemons set
    #: this so ``--cache-dir`` does not grow without bound.
    cache_max_bytes: int | None = None
    #: A shared :class:`repro.exec.AnalysisExecutor` to dispatch the
    #: scan/pair/check stages to.  None + ``workers > 1`` falls back to
    #: the process-wide default pool.  Excluded from comparison/repr:
    #: the executor is an execution vehicle, not a semantic knob.
    executor: AnalysisExecutor | None = field(
        default=None, repr=False, compare=False
    )
    #: Minimum work items (pending scans, unmemoized write barriers,
    #: check entries) before a stage is sharded across the executor;
    #: below it the IPC overhead beats the parallel win.
    exec_min_batch: int = 8


@dataclass(slots=True)
class FileAnalysis:
    """Per-file artifacts cached for incremental re-analysis.

    ``scanner`` is ``None`` for every scan result until a checker or
    patcher asks: serial, worker and disk-cache scans keep sites only,
    and the engine re-materializes the scanner (AST + CFGs) the first
    time a checker or patcher needs this file's CFGs.

    An entry is valid while ``key`` matches the file's current scan key;
    a re-scan replaces it, and a file leaving the selection drops it, so
    everything memoized per file lives here and goes with it.
    """

    filename: str
    scanner: BarrierScanner | None
    sites: list[BarrierSite]
    parse_error: str | None = None
    #: Content hash of the scan inputs (see ``repro.core.cache``).
    key: str | None = None
    #: The patch stage's memo bucket for this file (see
    #: :class:`repro.patching.generate.PatchGenerator`), left by every
    #: run holding exactly the findings it patched.
    patches: dict = field(default_factory=dict, repr=False)
    #: The findings fingerprinted against this file's text (see
    #: :func:`repro.store.fingerprint.attach_fingerprints`).
    fingerprints: dict = field(default_factory=dict, repr=False)


@dataclass
class AnalysisResult:
    """Everything one run produced."""

    files_with_barriers: int
    files_analyzed: int
    files_skipped_by_config: list[str]
    #: Structured failure entries; each compares equal to its path.
    files_failed: list[FileFailure]
    sites: list[BarrierSite]
    pairing: "PairingResult"
    report: CheckReport
    patches: list[Patch]
    elapsed_seconds: float
    #: Fine-grained timing/counter breakdown (CLI ``--profile``).
    profile: StageProfile = field(default_factory=StageProfile)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Top-level stage timings (scan / pair / check / ...)."""
        return self.profile.coarse()

    @property
    def total_barriers(self) -> int:
        return len(self.sites)

    @property
    def pairing_coverage(self) -> float:
        return self.pairing.coverage(self.total_barriers)


#: Unique pairing-index namespace per engine instance; worker processes
#: keep one warm :class:`PairingIndex` per namespace, so two engines
#: sharing an executor never cross-contaminate each other's indexes.
_EXEC_NS_IDS = itertools.count(1)


class OFenceEngine:
    """Drives the OFence pipeline over a :class:`KernelSource`."""

    def __init__(self, source: KernelSource, options: AnalysisOptions | None = None):
        from repro.pairing.algorithm import PairingIndex

        self.source = source
        self.options = options if options is not None else AnalysisOptions()
        self._file_cache: dict[str, FileAnalysis] = {}
        self._disk_cache = ScanCache(
            self.options.cache_dir,
            max_bytes=self.options.cache_max_bytes,
        )
        self._pairing_index = PairingIndex()
        #: Serializes whole runs.  ``analyze``/``reanalyze_file`` mutate
        #: shared state with no internal synchronization (the file cache,
        #: the pairing index and its candidate memo), so concurrent
        #: callers — the ``repro serve`` engine pool in particular —
        #: must take turns.  Re-entrant so a locked caller can compose
        #: engine methods.
        self._lock = threading.RLock()
        #: Checker outcomes of the last run; an incremental run
        #: re-checks only the pairings and barriers an edit touched.
        self._check_memo = CheckMemo()
        #: Worker-side pairing-index namespace (see ``_EXEC_NS_IDS``).
        self._exec_ns = f"eng{next(_EXEC_NS_IDS)}"

    # -- selection --------------------------------------------------------------

    def selected_files(self) -> tuple[list[str], list[str]]:
        """(analyzed, skipped-by-config) among files containing barriers."""
        analyzed: list[str] = []
        skipped: list[str] = []
        for path in self.source.files_with_barriers():
            option = self.source.file_options.get(path)
            if option is not None and not self.options.config.is_enabled(option):
                skipped.append(path)
            else:
                analyzed.append(path)
        return analyzed, skipped

    # -- full analysis ---------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        with self._lock:
            return self._run(lambda selected: self._scan(selected, selected))

    def reanalyze_file(self, path: str, new_text: str | None = None) -> AnalysisResult:
        """Incremental mode: re-scan one file, re-run pairing + checks."""
        with self._lock:
            if new_text is not None:
                self.source.files[path] = new_text
            return self._run(lambda selected: self._scan(
                selected, [path] if path in selected else []
            ))

    def _scan(self, selected: list[str], paths: list[str]) -> None:
        """Bring the entries of ``paths`` (among ``selected``) up to
        date; drop the entries of files no longer selected."""
        with span("engine.scan") as t_scan:
            for path in self._file_cache.keys() - set(selected):
                del self._file_cache[path]
            pending = self._refresh_cache(paths)
            if pending:
                executor = (
                    self._active_executor() if len(pending) > 1 else None
                )
                if executor is not None:
                    pending_left = self._executor_scan(pending, executor)
                else:
                    pending_left = pending
                for path, key in pending_left:
                    self._scan_single(path, key)
            count("scan.scanned", len(pending))
            if t_scan is not None:
                t_scan.meta["files"] = len(paths)
                t_scan.meta["scanned"] = len(pending)

    # -- shared pipeline tail ------------------------------------------------------------

    def _run(self, scan: Callable[[list[str]], None]) -> AnalysisResult:
        """One recorded run: select files, ``scan`` them, then the tail."""
        start = time.perf_counter()
        profile = StageProfile()
        with recording(profile):
            selected, skipped = self.selected_files()
            scan(selected)
            # The failure list is computed *after* the scan, so a file
            # whose parse error was just fixed drops out of it.
            failed = self._failed_files(selected)
            sites, pairing, report, patches = self._finish(selected)
        return AnalysisResult(
            files_with_barriers=len(selected) + len(skipped),
            files_analyzed=len(selected),
            files_skipped_by_config=skipped,
            files_failed=failed,
            sites=sites,
            pairing=pairing,
            report=report,
            patches=patches,
            elapsed_seconds=time.perf_counter() - start,
            profile=profile,
        )

    def _finish(self, selected: list[str]) -> tuple:
        """Pair, check, fingerprint and patch the scanned ``selected``."""
        from repro.pairing.algorithm import PairingEngine

        sites: list[BarrierSite] = []
        for path in selected:
            cached = self._file_cache.get(path)
            if cached is not None:
                sites.extend(cached.sites)

        with span("engine.pair"):
            with span("engine.pair.sync"):
                updated = self._sync_pairing_index(selected)
            count("pair.files_updated", updated)
            pairer = PairingEngine(index=self._pairing_index)
            pairing = pairer.pair(
                candidate_provider=self._candidate_provider(pairer)
            )
            for name, value in pairer.stats.items():
                count(f"pair.{name}", value)

        with span("engine.check"):
            suite = CheckerSuite(
                self._cfg_lookup,
                annotate=self.options.annotate,
                checks=self.options.checks,
                shard_runner=self._check_shard_runner(),
                memo=self._check_memo,
            )
            report = suite.run(pairing)
            for name, value in suite.stats.items():
                count(f"check.{name}", value)

        with span("engine.fingerprint"):
            from repro.store.fingerprint import attach_fingerprints

            reused, computed = attach_fingerprints(
                report.all_findings, self.source.files,
                memo={
                    path: entry.fingerprints
                    for path, entry in self._file_cache.items()
                },
            )
            count("fingerprint.reused", reused)
            count("fingerprint.computed", computed)

        with span("engine.patch"):
            generator = PatchGenerator(
                self.source.files, self._cfg_lookup,
                memo={
                    path: entry.patches
                    for path, entry in self._file_cache.items()
                },
            )
            patches = generator.generate_all(report.all_findings)
            count("patch.memo_hits", generator.memo_hits)
            count("patch.memo_misses", generator.memo_misses)
            if generator.failures:
                count("patch.failed", len(generator.failures))
        return sites, pairing, report, patches

    def _sync_pairing_index(self, selected: list[str]) -> int:
        """Feed file-level deltas to the persistent pairing index.

        Unchanged files are identity no-ops, so the cost of this sync is
        O(changed sites), not O(all sites).
        """
        selected_set = set(selected)
        for path in self._pairing_index.files():
            if path not in selected_set:
                self._pairing_index.remove_file(path)
        updated = 0
        for path in selected:
            cached = self._file_cache.get(path)
            file_sites = cached.sites if cached is not None else []
            if not file_sites:
                self._pairing_index.remove_file(path)
            elif self._pairing_index.update_file(path, file_sites):
                updated += 1
        return updated

    # -- scanning -----------------------------------------------------------------------

    def _scan_key(self, path: str) -> str:
        text = self.source.files[path]
        return scan_key(
            text, self.options.config.defines(),
            header_closure(text, self.source.resolve_include),
            self.options.limits,
        )

    def _refresh_cache(self, paths: list[str]) -> list[tuple[str, str]]:
        """Reconcile the in-memory cache; returns (path, key) to scan."""
        pending: list[tuple[str, str]] = []
        with span("engine.scan.keys"):
            keys = {path: self._scan_key(path) for path in paths}
        memory_hits = disk_hits = 0
        for path in paths:
            key = keys[path]
            cached = self._file_cache.get(path)
            if cached is not None and cached.key == key:
                memory_hits += 1
                continue
            payload = self._disk_cache.load(key)
            if payload is not None:
                self._absorb(path, key, payload)
                disk_hits += 1
                continue
            pending.append((path, key))
        count("scan.memory_hits", memory_hits)
        count("scan.memory_misses", len(paths) - memory_hits)
        count("scan.disk_hits", disk_hits)
        return pending

    def _failed_files(self, selected: list[str]) -> list[FileFailure]:
        return [
            _failure_entry(path, cached.parse_error)
            for path in selected
            if (cached := self._file_cache.get(path)) is not None
            and cached.parse_error is not None
        ]

    # -- executor offload ---------------------------------------------------

    def _active_executor(self):
        """The executor this engine dispatches to, or None for serial.

        An explicit ``options.executor`` wins (the serve daemon and the
        run-mode registry inject shared pools this way); otherwise
        ``workers > 1`` selects the process-wide default pool, always
        built with an explicit start method.
        """
        executor = self.options.executor
        if executor is not None:
            return None if executor.closed else executor
        workers = self.options.workers
        if workers is not None and workers > 1:
            from repro.exec.executor import get_default_executor

            return get_default_executor(workers)
        return None

    def _exec_context(self):
        """Epoch-tagged shared context (defines/headers/limits)."""
        from repro.exec.protocol import ExecContext

        return ExecContext.build(
            self.options.config.defines(), self.source.headers,
            self.options.limits.write_window,
            self.options.limits.read_window,
        )

    def _executor_scan(
        self, pending: list[tuple[str, str]], executor
    ) -> list[tuple[str, str]]:
        """Fan the per-file parse+scan across the persistent pool.

        Workers return slim :class:`CachedScan` payloads, streamed back
        as each batch finishes; jobs go largest-file-first so stragglers
        balance out.  Files the pool failed to deliver (worker error,
        timeout, closed executor) are returned for the serial path — the
        offload degrades, never breaks, a run.
        """
        jobs = sorted(
            (
                (path, self.source.files[path], key)
                for path, key in pending
            ),
            key=lambda job: len(job[1]), reverse=True,
        )
        done: set[str] = set()

        def absorb(payload: CachedScan, key: str) -> None:
            self._absorb(payload.filename, key, payload)
            self._disk_cache.store(key, payload)
            done.add(payload.filename)

        with span("engine.scan.exec"):
            stats = executor.scan(jobs, self._exec_context(), absorb)
        count("exec.dispatched", stats["completed"])
        count("exec.batches", stats["batches"])
        count("exec.scan_warm_hits", stats["worker_hits"])
        if stats["respawns"]:
            count("exec.respawns", stats["respawns"])
        count("exec.workers_used", stats["workers_used"])
        return [(path, key) for path, key in pending if path not in done]

    def _candidate_provider(self, pairer):
        """Pairing-offload hook for ``PairingEngine.pair`` (or None)."""
        executor = self._active_executor()
        if executor is None:
            return None

        def provide(missing):
            if len(missing) < max(1, self.options.exec_min_batch):
                return None
            index = self._pairing_index
            refs: list[tuple[str, int]] = []
            for site in missing:
                path, pos = index.order_key(site)
                file_sites = index.file_sites(path)
                if pos >= len(file_sites) or file_sites[pos] is not site:
                    return None  # site outside the index: pair serially
                refs.append((path, pos))
            state: dict[str, tuple] = {}
            for path in index.files():
                cached = self._file_cache.get(path)
                if cached is None or cached.key is None:
                    return None
                state[path] = (cached.key, index.file_sites(path))
            with span("engine.pair.exec"):
                raw, info = executor.pair_candidates(
                    self._exec_ns, state, refs,
                    pairer._config_token(), self._exec_context(),
                )
            if info["shards"]:
                count("pair.shards", info["shards"])
            if raw is None:
                return None
            from repro.pairing.algorithm import _Candidate

            out: dict = {}
            for site, (_ref, cand) in zip(missing, zip(refs, raw)):
                if cand is None:
                    out[site.barrier_id] = None
                    continue
                mpath, mpos, o1, o2, weight = cand
                match_sites = index.file_sites(mpath)
                if mpos >= len(match_sites):
                    return None
                out[site.barrier_id] = _Candidate(
                    site, match_sites[mpos], o1, o2, weight
                )
            count("exec.dispatched", len(refs))
            count("pair.candidates_remote", info["computed"])
            return out

        return provide

    def _check_shard_runner(self):
        """Checker-offload hook for :class:`CheckerSuite` (or None)."""
        executor = self._active_executor()
        if executor is None:
            return None

        def run_shards(check_list, wanted):
            if len(check_list) < max(1, self.options.exec_min_batch):
                return None
            from repro.exec.protocol import CheckEntry

            index = self._pairing_index
            entries: list[CheckEntry] = []
            paths: set[str] = set()
            for entry_idx, pairing in enumerate(check_list):
                refs: list[tuple[str, int]] = []
                for barrier in pairing.barriers:
                    path, pos = index.order_key(barrier)
                    file_sites = index.file_sites(path)
                    if (
                        pos >= len(file_sites)
                        or file_sites[pos] is not barrier
                    ):
                        return None
                    refs.append((path, pos))
                    paths.add(path)
                entries.append(CheckEntry(
                    entry=entry_idx, barrier_refs=refs,
                    common_objects=list(pairing.common_objects),
                    weight=pairing.weight,
                ))
            files: dict[str, tuple[str, str]] = {}
            for path in sorted(paths):
                cached = self._file_cache.get(path)
                text = self.source.files.get(path)
                if cached is None or cached.key is None or text is None:
                    return None
                files[path] = (cached.key, text)
            with span("engine.check.exec"):
                raw, info = executor.check_shards(
                    files, entries, tuple(wanted), self._exec_context()
                )
            if info["shards"]:
                count("check.shards", info["shards"])
            if raw is None:
                return None
            from repro.checkers import registry

            out: dict = {}
            for name in wanted:
                shard = raw.get(name)
                if shard is None:
                    continue  # that checker falls back to inline
                if shard[0] == "checkerfail":
                    out[name] = ("err", shard[1])
                    continue
                spec = registry.get(name)
                findings = []
                for wire in shard[1]:
                    finding = self._decode_finding(spec, wire, check_list)
                    if finding is None:
                        return None  # ref mismatch: run inline instead
                    findings.append(finding)
                claimed = spec.codec.decode_claims(shard[2], check_list)
                out[name] = ("ok", findings, claimed)
            count("exec.dispatched", len(entries))
            return out

        return run_shards

    def _decode_finding(self, spec, wire, check_list):
        """Re-bind one wire finding through its checker's codec.

        Identity matters downstream (the annotate checker keys buggy
        pairings by ``id``, the patch generator walks ``use.access``),
        so every ref must resolve against this engine's cached sites;
        any miss aborts the whole shard decode and the checker re-runs
        inline.
        """

        def site_at(ref):
            if ref is None:
                return None
            path, idx = ref
            cached = self._file_cache.get(path)
            if cached is None or idx >= len(cached.sites):
                return None
            return cached.sites[idx]

        def use_at(ref):
            if ref is None:
                return None
            path, sidx, uidx = ref
            site = site_at((path, sidx))
            if site is None or uidx >= len(site.uses):
                return None
            return site.uses[uidx]

        return spec.codec.decode_finding(wire, check_list, site_at, use_at)

    def _scan_file(self, path: str):
        return scan_file(
            self.source.files[path], path, self.options.config.defines(),
            self.source.headers, self.options.limits,
        )

    def _scan_single(self, path: str, key: str) -> None:
        _scanner, sites, error = self._scan_file(path)
        payload = CachedScan(filename=path, sites=sites, parse_error=error)
        self._absorb(path, key, payload)
        self._disk_cache.store(key, payload)

    def _absorb(self, path: str, key: str, payload: CachedScan) -> None:
        """Make ``payload`` the entry of ``path``, sites only.

        Serial, executor and disk-cache scans all land here, so no
        entry keeps the AST and CFGs of its scan; ``_cfg_lookup``
        rebuilds them for the few files a checker or patcher asks for.
        """
        self._file_cache[path] = FileAnalysis(
            filename=path, scanner=None, sites=payload.sites,
            parse_error=payload.parse_error, key=key,
        )

    # -- lookups -------------------------------------------------------------------------

    def _cfg_lookup(self, filename: str, function: str):
        cached = self._file_cache.get(filename)
        if cached is None or cached.parse_error is not None:
            return None
        if cached.scanner is None:
            self._rehydrate(cached)
        if cached.scanner is None:
            return None
        scan = cached.scanner.function_scan(function)
        return scan.cfg if scan is not None else None

    def _rehydrate(self, cached: FileAnalysis) -> None:
        """Re-materialize a file's scanner (AST + CFGs).

        Every scan result carries sites only.  Scanning is fully
        deterministic, so the fresh scan mirrors the cached sites
        one-to-one; the cached sites' access records are re-bound to the
        fresh AST so identity-based lookups (``captured_variable``) keep
        working against the re-built CFGs.
        """
        if cached.filename not in self.source.files:
            return
        scanner, fresh, _error = self._scan_file(cached.filename)
        if scanner is None:
            return  # checkers degrade gracefully without this file's CFGs
        if len(fresh) == len(cached.sites):
            for old_site, new_site in zip(cached.sites, fresh):
                if len(old_site.uses) == len(new_site.uses):
                    for old_use, new_use in zip(old_site.uses, new_site.uses):
                        old_use.access = new_use.access
        cached.scanner = scanner
        count("check.rehydrated_files")

    def file_analysis(self, path: str) -> FileAnalysis | None:
        return self._file_cache.get(path)

    @property
    def disk_cache(self) -> ScanCache:
        """The on-disk scan cache (``repro serve`` reads its stats)."""
        return self._disk_cache


# ---------------------------------------------------------------------------
# Run modes — named end-to-end execution strategies
# ---------------------------------------------------------------------------
#
# A run mode is a function ``(KernelSource, AnalysisOptions | None) ->
# AnalysisResult`` that drives the whole pipeline with one execution
# strategy (serial, executor, disk-cached, incremental, ...).  The
# registry makes the strategies enumerable, so the differential-testing
# layer (``repro.fuzz``) can run any source tree through every mode and
# diff the results; callers can register additional modes.

RunModeFn = Callable[[KernelSource, "AnalysisOptions | None"], AnalysisResult]

_RUN_MODES: dict[str, RunModeFn] = {}


def register_run_mode(name: str):
    """Decorator: register ``fn`` as the run mode called ``name``."""

    def decorator(fn: RunModeFn) -> RunModeFn:
        _RUN_MODES[name] = fn
        return fn

    return decorator


def run_mode_names() -> list[str]:
    return list(_RUN_MODES)


def get_run_mode(name: str) -> RunModeFn:
    try:
        return _RUN_MODES[name]
    except KeyError:
        raise ValueError(
            f"unknown run mode {name!r}; available: {sorted(_RUN_MODES)}"
        ) from None


def run_in_mode(
    name: str, source: KernelSource, options: AnalysisOptions | None = None
) -> AnalysisResult:
    """Run one full analysis of ``source`` under the named mode."""
    return get_run_mode(name)(source, options)


def _mode_options(
    options: AnalysisOptions | None, **overrides
) -> AnalysisOptions:
    base = options if options is not None else AnalysisOptions()
    return dataclasses.replace(base, **overrides)


@register_run_mode("serial")
def _run_serial(
    source: KernelSource, options: AnalysisOptions | None = None
) -> AnalysisResult:
    opts = _mode_options(
        options, workers=None, cache_dir=None, executor=None
    )
    return OFenceEngine(source, opts).analyze()


@register_run_mode("traced")
def _run_traced(
    source: KernelSource, options: AnalysisOptions | None = None
) -> AnalysisResult:
    """Serial analysis under an active trace.

    Tracing is strictly observational; this mode exists so the
    differential oracle continuously proves a traced run's report is
    bit-for-bit identical to the untraced serial reference.
    """
    from repro.trace import start_trace

    opts = _mode_options(
        options, workers=None, cache_dir=None, executor=None
    )
    with start_trace("analyze", node="traced"):
        return OFenceEngine(source, opts).analyze()


@register_run_mode("executor")
def _run_executor(
    source: KernelSource, options: AnalysisOptions | None = None
) -> AnalysisResult:
    """Analysis through the shared persistent pool, warm-pool pass last.

    Two full runs against the process-wide default executor with the
    shard threshold forced to 1, so every stage (scan, pairing
    candidates, CFG checkers) actually crosses the worker boundary even
    on tiny fuzz inputs.  The second run exercises the warm path — the
    workers' scan caches and pairing-index namespaces are already
    populated — and its result is the one diffed against serial mode.
    """
    from repro.exec.executor import get_default_executor

    ex = get_default_executor(2)
    opts = _mode_options(
        options, workers=2, cache_dir=None, executor=ex, exec_min_batch=1
    )
    OFenceEngine(source, opts).analyze()
    return OFenceEngine(source, opts).analyze()


@register_run_mode("cached")
def _run_cached(
    source: KernelSource, options: AnalysisOptions | None = None
) -> AnalysisResult:
    """Cold run filling a throwaway disk cache, then a warm run from it."""
    with tempfile.TemporaryDirectory(prefix="ofence-cache-") as tmp:
        opts = _mode_options(
            options, workers=None, cache_dir=tmp, executor=None
        )
        OFenceEngine(source, opts).analyze()
        return OFenceEngine(source, opts).analyze()


@register_run_mode("serve")
def _run_serve(
    source: KernelSource, options: AnalysisOptions | None = None
) -> AnalysisResult:
    """Full analysis through the ``repro.serve`` daemon.

    Spins up an in-process HTTP server, submits the tree over the real
    wire protocol, and returns the job's engine-produced
    :class:`AnalysisResult` — so the differential oracle compares the
    service path (JSON codec, queue, engine pool) against serial mode.
    """
    from repro.serve.mode import run_via_service  # lazy: serve imports us

    return run_via_service(source, options)


@register_run_mode("store")
def _run_store(
    source: KernelSource, options: AnalysisOptions | None = None
) -> AnalysisResult:
    """Serial analysis recorded twice into a throwaway findings store.

    Persistence is strictly observational: the mode records the same
    result into a fresh store twice and asserts the store's own diff
    sees no drift (everything persistent, nothing new/resolved), then
    returns the engine result untouched — so the differential oracle
    holds the store round-trip to the serial reference, and any
    fingerprint instability or lossy record/diff path shows up as a
    mode divergence.
    """
    from repro.store import FindingsStore, finding_records

    opts = _mode_options(
        options, workers=None, cache_dir=None, executor=None
    )
    result = OFenceEngine(source, opts).analyze()
    records = finding_records(result)
    with tempfile.TemporaryDirectory(prefix="ofence-store-") as tmp:
        with FindingsStore(tmp) as store:
            store.record_run(result, tree_hash="fuzz", source="mode")
            store.record_run(result, tree_hash="fuzz", source="mode")
            diff = store.diff()
            counts = diff.counts
            if (
                counts["persistent"] != len({r["fingerprint"] for r in records})
                or counts["new"] or counts["resolved"] or counts["reappeared"]
            ):
                raise AssertionError(
                    f"store round-trip drifted: {counts} for "
                    f"{len(records)} findings"
                )
    return result


@register_run_mode("incremental")
def _run_incremental(
    source: KernelSource, options: AnalysisOptions | None = None
) -> AnalysisResult:
    """A warm re-analysis after header edits, then a touch-and-restore
    delta on every file.

    The engine first analyzes the tree with every header replaced by an
    unterminated struct, so that every includer fails to parse, then
    restores the headers and analyzes again: that warm ``analyze()``
    must re-scan the includers of the edited headers.  Then each file
    gets a comment appended and is restored, both through
    ``reanalyze_file``.  Either delta re-scans the file and so replaces
    its barrier sites: the pairings over them are re-checked while the
    rest come from the check memo.  The last result is the one diffed
    against serial mode; the warm result must equal it, since the deltas
    re-scan every file and would hide a stale one.  The caller's tree is
    left untouched.
    """
    from repro.fuzz.differential import run_signature  # fuzz imports us

    opts = _mode_options(
        options, workers=None, cache_dir=None, executor=None
    )
    engine = OFenceEngine(dataclasses.replace(
        source, files=dict(source.files), headers=dict(source.headers)
    ), opts)
    headers = engine.source.headers
    restored = dict(headers)
    headers.update(dict.fromkeys(restored, "struct ofence_broken {\n"))
    engine.analyze()
    headers.update(restored)
    result = warm = engine.analyze()
    for path in engine.selected_files()[0]:
        text = engine.source.files[path]
        engine.reanalyze_file(path, text + "\n/* touched */\n")
        result = engine.reanalyze_file(path, text)
    if run_signature(warm) != run_signature(result):
        raise AssertionError(
            "warm analyze() after header edits differs from the same "
            "tree after a delta on every file"
        )
    return result
