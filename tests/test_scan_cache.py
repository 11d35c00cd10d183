"""Tests for the content-addressed scan cache (repro.core.cache)."""

import dataclasses
import pickle

import pytest

from repro.analysis.barrier_scan import ScanLimits
from repro.core.cache import (
    CACHE_FORMAT,
    CachedScan,
    ScanCache,
    header_closure,
    scan_key,
)
from repro.core.engine import AnalysisOptions, KernelSource, OFenceEngine
from repro.core.profile import StageProfile
from repro.corpus import CorpusSpec, generate_corpus
from repro.fuzz.differential import run_signature
from repro.trace import recording

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


class TestScanKey:
    LIMITS = ScanLimits()

    def key(self, text="int x;", defines=None, headers=(), limits=None):
        return scan_key(
            text, defines or {}, list(headers), limits or self.LIMITS
        )

    def test_deterministic(self):
        assert self.key() == self.key()

    def test_changes_with_text(self):
        assert self.key(text="int x;") != self.key(text="int y;")

    def test_changes_with_defines(self):
        assert self.key() != self.key(defines={"CONFIG_NET": "1"})

    def test_define_order_does_not_matter(self):
        assert self.key(defines={"A": "1", "B": "2"}) == \
            self.key(defines={"B": "2", "A": "1"})

    def test_changes_with_header_text(self):
        assert self.key(headers=[("h.h", "int a;")]) != \
            self.key(headers=[("h.h", "int b;")])

    def test_changes_with_limits(self):
        assert self.key() != \
            self.key(limits=ScanLimits(write_window=7, read_window=50))


class TestHeaderClosure:
    def test_transitive_resolution(self):
        headers = {
            "a.h": '#include "b.h"\nint a;\n',
            "b.h": "int b;\n",
            "unused.h": "int u;\n",
        }
        closure = header_closure(
            '#include "a.h"\nint x;\n', lambda name, sys: headers.get(name)
        )
        assert [name for name, _ in closure] == ["a.h", "b.h"]

    def test_unresolvable_includes_skipped(self):
        closure = header_closure(
            "#include <linux/kernel.h>\nint x;\n", lambda name, sys: None
        )
        assert closure == []


class TestDiskCache:
    def test_directory_path_that_is_a_file_is_rejected(self, tmp_path):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        with pytest.raises(ValueError, match="unusable scan cache"):
            ScanCache(blocker)

    def test_round_trip(self, tmp_path):
        cache = ScanCache(tmp_path)
        payload = CachedScan(filename="f.c", sites=[], parse_error=None)
        cache.store("ab" * 32, payload)
        loaded = cache.load("ab" * 32)
        assert loaded is not None
        assert loaded.filename == "f.c"
        assert cache.stats.disk_hits == 1

    def test_disabled_cache_never_hits(self):
        cache = ScanCache(None)
        cache.store("ab" * 32, CachedScan("f.c", []))
        assert cache.load("ab" * 32) is None

    def test_miss_for_unknown_key(self, tmp_path):
        assert ScanCache(tmp_path).load("cd" * 32) is None

    def test_truncated_entry_rejected(self, tmp_path):
        cache = ScanCache(tmp_path)
        key = "ab" * 32
        cache.store(key, CachedScan("f.c", []))
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.load(key) is None
        assert cache.stats.rejected == 1

    def test_corrupt_entry_counted_and_deleted(self, tmp_path):
        cache = ScanCache(tmp_path)
        key = "ab" * 32
        cache.store(key, CachedScan("f.c", []))
        path = cache._path(key)
        path.write_bytes(b"\x80garbage that is not a pickle")
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.rejected == 1
        assert not path.exists(), "corrupt entries must be deleted"
        # Once gone, the next load is a plain miss, not another reject.
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1

    def test_stale_version_entry_deleted(self, tmp_path):
        cache = ScanCache(tmp_path)
        key = "ab" * 32
        entry = {
            "format": CACHE_FORMAT + 1,
            "key": key,
            "payload": CachedScan("f.c", []),
        }
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_bytes(pickle.dumps(entry))
        assert cache.load(key) is None
        assert cache.stats.rejected == 1
        assert cache.stats.corrupt == 0  # decodable, just stale
        assert not cache._path(key).exists()

    def test_garbage_entry_rejected(self, tmp_path):
        cache = ScanCache(tmp_path)
        key = "ab" * 32
        cache.store(key, CachedScan("f.c", []))
        cache._path(key).write_bytes(b"not a pickle at all")
        assert cache.load(key) is None

    def test_version_mismatch_rejected(self, tmp_path):
        cache = ScanCache(tmp_path)
        key = "ab" * 32
        entry = {
            "format": CACHE_FORMAT + 1,
            "key": key,
            "payload": CachedScan("f.c", []),
        }
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_bytes(pickle.dumps(entry))
        assert cache.load(key) is None
        assert cache.stats.rejected == 1

    def test_key_mismatch_rejected(self, tmp_path):
        cache = ScanCache(tmp_path)
        key, other = "ab" * 32, "cd" * 32
        cache.store(other, CachedScan("f.c", []))
        # Copy the entry under the wrong key (e.g. a renamed file).
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_bytes(cache._path(other).read_bytes())
        assert cache.load(key) is None


class TestSizeCap:
    def _fill(self, cache, n, start=0):
        keys = []
        for i in range(start, start + n):
            key = f"{i:02x}" * 32
            cache.store(key, CachedScan(f"f{i}.c", []))
            keys.append(key)
        return keys

    def test_unbounded_by_default(self, tmp_path):
        cache = ScanCache(tmp_path)
        keys = self._fill(cache, 8)
        assert cache.stats.evicted == 0
        assert all(cache.load(k) is not None for k in keys)

    def test_cap_evicts_oldest_entries(self, tmp_path):
        probe = ScanCache(tmp_path / "probe")
        probe.store("aa" * 32, CachedScan("probe.c", []))
        entry_size = probe._path("aa" * 32).stat().st_size

        capped = ScanCache(tmp_path / "capped",
                           max_bytes=int(entry_size * 3.5))
        keys = self._fill(capped, 6)
        assert capped.stats.evicted >= 2
        assert capped.total_bytes <= capped.max_bytes
        # The most recent entry always survives.
        assert capped.load(keys[-1]) is not None

    def test_load_refreshes_lru_position(self, tmp_path):
        import os
        import time as _time

        probe = ScanCache(tmp_path / "probe")
        probe.store("aa" * 32, CachedScan("probe.c", []))
        entry_size = probe._path("aa" * 32).stat().st_size

        cache = ScanCache(tmp_path / "capped",
                          max_bytes=entry_size * 2 + entry_size // 2)
        first, second = self._fill(cache, 2)
        # Age both entries, then touch ``first``: it becomes the most
        # recently used and must survive the next eviction.
        for key in (first, second):
            past = _time.time() - 1000
            os.utime(cache._path(key), (past, past))
        assert cache.load(first) is not None
        self._fill(cache, 1, start=2)
        assert cache.stats.evicted >= 1
        assert cache.load(first) is not None
        assert cache.load(second) is None

    def test_total_bytes_recovered_at_init(self, tmp_path):
        cache = ScanCache(tmp_path)
        self._fill(cache, 3)
        reopened = ScanCache(tmp_path)
        assert reopened.total_bytes == cache.total_bytes > 0

    def test_engine_option_reaches_cache(self, tmp_path):
        options = AnalysisOptions(cache_dir=tmp_path, cache_max_bytes=123)
        engine = OFenceEngine(KernelSource(files={}), options)
        assert engine._disk_cache.max_bytes == 123


class TestSharedDirectory:
    """Pooled engines share one ``--cache-dir``: instances on the same
    directory must agree on byte accounting and never corrupt entries
    when they store concurrently."""

    def test_instances_share_byte_accounting(self, tmp_path):
        a = ScanCache(tmp_path)
        b = ScanCache(tmp_path)
        a.store("ab" * 32, CachedScan("a.c", []))
        b.store("cd" * 32, CachedScan("b.c", []))
        assert a.total_bytes == b.total_bytes > 0
        # Per-instance stats stay per-instance.
        assert a.stats.stores == b.stats.stores == 1

    def test_cap_enforced_across_instances(self, tmp_path):
        probe = ScanCache(tmp_path / "probe")
        probe.store("aa" * 32, CachedScan("probe.c", []))
        entry_size = probe._path("aa" * 32).stat().st_size

        shared = tmp_path / "shared"
        cap = int(entry_size * 2.5)
        a = ScanCache(shared, max_bytes=cap)
        b = ScanCache(shared, max_bytes=cap)
        for i, cache in enumerate([a, b, a, b, a, b]):
            cache.store(f"{i:02x}" * 32, CachedScan(f"f{i}.c", []))
        # Each instance only wrote 3 entries — under the cap on its
        # own — so evictions prove the *shared* total was consulted.
        assert a.stats.evicted + b.stats.evicted >= 3
        assert a.total_bytes <= cap

    def test_concurrent_same_key_stores_stay_loadable(self, tmp_path):
        import threading

        key = "ab" * 32
        caches = [ScanCache(tmp_path) for _ in range(4)]
        start = threading.Barrier(len(caches))

        def hammer(cache, i):
            start.wait(timeout=10)
            for round_ in range(25):
                cache.store(key, CachedScan(f"f{i}-{round_}.c", []))

        threads = [
            threading.Thread(target=hammer, args=(cache, i))
            for i, cache in enumerate(caches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        loaded = ScanCache(tmp_path).load(key)
        assert loaded is not None, "racing stores published a bad entry"
        assert not list(tmp_path.rglob("*.tmp")), "leaked tmp files"
        # The shared running total matches what is actually on disk.
        on_disk = sum(p.stat().st_size for p in tmp_path.rglob("*.pkl"))
        assert caches[0].total_bytes == on_disk


class TestEngineCacheIntegration:
    def files(self):
        return {"w.c": WRITER, "r.c": READER}

    def test_warm_engine_skips_scanning(self, tmp_path):
        options = AnalysisOptions(cache_dir=tmp_path)
        OFenceEngine(KernelSource(files=self.files()), options).analyze()
        warm = OFenceEngine(
            KernelSource(files=self.files()), options
        ).analyze()
        assert warm.profile.counters["scan.disk_hits"] == 2
        assert warm.profile.counters.get("scan.scanned", 0) == 0
        assert len(warm.pairing.pairings) == 1

    def test_corrupted_entries_silently_rescanned(self, tmp_path):
        options = AnalysisOptions(cache_dir=tmp_path)
        cold = OFenceEngine(
            KernelSource(files=self.files()), options
        ).analyze()
        for entry in tmp_path.rglob("*.pkl"):
            entry.write_bytes(b"\x80corrupted")
        recovered = OFenceEngine(
            KernelSource(files=self.files()), options
        ).analyze()
        assert recovered.profile.counters["scan.scanned"] == 2
        assert [p.describe() for p in recovered.pairing.pairings] == \
            [p.describe() for p in cold.pairing.pairings]

    def test_parse_errors_are_cached(self, tmp_path):
        files = {"bad.c": "void broken( { smp_wmb();", **self.files()}
        options = AnalysisOptions(cache_dir=tmp_path)
        first = OFenceEngine(KernelSource(files=files), options).analyze()
        assert first.files_failed == ["bad.c"]
        warm = OFenceEngine(KernelSource(files=files), options).analyze()
        assert warm.files_failed == ["bad.c"]
        assert warm.profile.counters.get("scan.scanned", 0) == 0

    def test_in_memory_key_invalidation_on_config_change(self):
        from repro.kernel.config import KernelConfig

        source = KernelSource(files=self.files())
        engine = OFenceEngine(source)
        engine.analyze()
        # Same engine, mutated config: the key changes, files re-scan.
        engine.options.config = KernelConfig(options={"CONFIG_NEW": True})
        again = engine.analyze()
        assert again.profile.counters.get("scan.memory_hits", 0) == 0
        assert again.profile.counters["scan.scanned"] == 2

    def test_warm_engine_rescans_exactly_the_includers_of_an_edited_header(
        self,
    ):
        corpus = generate_corpus(CorpusSpec.small(), seed=7)
        engine = OFenceEngine(dataclasses.replace(
            corpus.source, headers=dict(corpus.source.headers)
        ))
        engine.analyze()
        source = engine.source
        # An unterminated struct: every includer now fails to parse.
        source.headers["kernel_types.h"] += "struct broken {\n"
        warm = engine.analyze()
        fresh = OFenceEngine(dataclasses.replace(source)).analyze()
        assert run_signature(warm) == run_signature(fresh)
        assert fresh.files_failed
        includers = [
            path for path in engine.selected_files()[0]
            if "kernel_types.h" in dict(
                header_closure(source.files[path], source.resolve_include)
            )
        ]
        assert warm.profile.counters["scan.scanned"] == len(includers) > 0


class TestSitesOnlyScanResults:
    """No scan result keeps its AST or CFGs; ``_cfg_lookup`` re-parses."""

    @staticmethod
    def watched(source: KernelSource) -> tuple[OFenceEngine, set[str]]:
        """A serial engine recording the files ``_cfg_lookup`` is asked
        for (the checkers and patchers look it up on the instance)."""
        engine = OFenceEngine(source)
        asked: set[str] = set()
        lookup = engine._cfg_lookup

        def recorded(filename, function):
            asked.add(filename)
            return lookup(filename, function)

        engine._cfg_lookup = recorded
        return engine, asked

    def test_serial_scan_keeps_scanners_only_for_files_asked_for(self):
        corpus = generate_corpus(CorpusSpec.small(), seed=7)
        engine, asked = self.watched(corpus.source)
        result = engine.analyze()
        parsed = {
            path for path in asked
            if engine.file_analysis(path).parse_error is None
        }
        kept = {
            path for path in engine.selected_files()[0]
            if engine.file_analysis(path).scanner is not None
        }
        assert parsed and kept == parsed
        assert result.profile.counters["check.rehydrated_files"] == \
            len(parsed)

    def test_edit_of_a_reread_file_rescans_then_rehydrates(self):
        from repro.checkers.model import DeviationKind

        corpus = generate_corpus(CorpusSpec.small(), seed=7)
        engine, asked = self.watched(dataclasses.replace(
            corpus.source, files=dict(corpus.source.files)
        ))
        first = engine.analyze()
        path = next(
            f.filename for f in first.report.all_findings
            if f.kind is DeviationKind.REPEATED_READ
        )
        asked.clear()
        edited = engine.source.files[path] + "\n/* edited */\n"
        result = engine.reanalyze_file(path, edited)
        counters = result.profile.counters
        assert counters["scan.scanned"] == 1
        assert counters["check.rehydrated_files"] == 1
        assert path in asked
        assert engine.file_analysis(path).scanner is not None
        fresh = OFenceEngine(dataclasses.replace(
            corpus.source, files={**corpus.source.files, path: edited}
        )).analyze()
        assert run_signature(result) == run_signature(fresh)


def _prefilter(source: KernelSource) -> tuple[list[str], dict[str, int]]:
    profile = StageProfile()
    with recording(profile):
        selected = source.files_with_barriers()
    return selected, profile.counters


class TestBarrierPrefilterMemo:
    def test_memo_reused_for_unchanged_text(self):
        source = KernelSource(files={"w.c": WRITER, "plain.c": "int x;\n"})
        assert _prefilter(source) == (
            ["w.c"], {"prefilter.hits": 0, "prefilter.misses": 2}
        )
        assert _prefilter(source) == (
            ["w.c"], {"prefilter.hits": 2, "prefilter.misses": 0}
        )

    def test_memo_invalidated_on_edit(self):
        source = KernelSource(files={"f.c": "int x;\n", "g.c": "int y;\n"})
        assert _prefilter(source)[0] == []
        source.files["f.c"] = WRITER
        assert _prefilter(source) == (
            ["f.c"], {"prefilter.hits": 1, "prefilter.misses": 1}
        )
