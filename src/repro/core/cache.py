"""Content-addressed scan cache.

Per-file scan results are keyed by a hash of everything that can change
them: the file text, the preprocessor defines (the kernel config), the
text of every header the file transitively resolves, and the exploration
windows.  Two layers use the key:

* the engine's in-memory ``FileAnalysis`` cache — ``analyze()`` only
  re-scans files whose key changed since the last run;
* an optional on-disk store (``--cache-dir``) holding the slim scan
  payload (barrier sites + parse error, no scanner/AST/CFG), so repeated
  CLI runs, benchmark iterations, and the ``repro serve`` daemon skip
  parsing entirely.

Disk entries self-describe with a format version and echo their key; a
corrupted, truncated, or stale entry fails validation, loads as a miss,
is counted (``CacheStats.rejected``, plus ``CacheStats.corrupt`` for
undecodable files), and is deleted so it is never re-read.

Long-running daemons keep a ``--cache-dir`` open for days, so the store
supports a byte-size cap (``max_bytes``): when a write pushes the total
past the cap, the least-recently-*used* entries are evicted first —
``load`` refreshes an entry's mtime on every hit, making mtime order the
LRU order.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.analysis.barrier_scan import BarrierSite, ScanLimits

#: Bump when the pickled payload layout or scan semantics change.
CACHE_FORMAT = 4


class _DirState:
    """Shared per-directory coordination for :class:`ScanCache`.

    Several cache instances can point at one directory — every engine in
    the ``repro serve`` pool shares the daemon's ``--cache-dir`` — so
    the write lock and the byte accounting must live with the
    *directory*, not the instance: independent locks would let two
    engines interleave writes to one tmp file, and independent byte
    counters would each see only their own stores and drift away from
    the real on-disk total that ``max_bytes`` eviction is judged
    against.
    """

    __slots__ = ("lock", "total_bytes")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.total_bytes = 0


_dir_states: dict[str, _DirState] = {}
_dir_states_lock = threading.Lock()


def _dir_state_for(directory: Path) -> _DirState:
    """The shared state for ``directory``, sizing it on first open."""
    key = str(directory.resolve())
    with _dir_states_lock:
        state = _dir_states.get(key)
        if state is None:
            state = _DirState()
            state.total_bytes = sum(
                entry.stat().st_size for entry in directory.rglob("*.pkl")
            )
            _dir_states[key] = state
        return state

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^">]+)[">]', re.MULTILINE)


def header_closure(
    text: str, resolve: Callable[[str, bool], str | None]
) -> list[tuple[str, str]]:
    """Transitively resolved headers of ``text``: sorted (name, text).

    ``resolve`` mirrors ``KernelSource.resolve_include``; unresolvable
    includes are skipped — they cannot affect the scan either.
    """
    seen: dict[str, str] = {}
    queue = _INCLUDE_RE.findall(text)
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        resolved = resolve(name, False)
        if resolved is None:
            continue
        seen[name] = resolved
        queue.extend(_INCLUDE_RE.findall(resolved))
    return sorted(seen.items())


def scan_key(
    text: str,
    defines: dict[str, str],
    headers: list[tuple[str, str]],
    limits: ScanLimits,
) -> str:
    """Content hash of one file's scan inputs."""
    digest = hashlib.sha256()
    digest.update(f"format={CACHE_FORMAT}\x00".encode())
    digest.update(f"windows={limits.write_window},{limits.read_window}\x00".encode())
    for name, value in sorted(defines.items()):
        digest.update(f"define={name}={value}\x00".encode())
    for name, header_text in headers:
        digest.update(f"header={name}\x00".encode())
        digest.update(header_text.encode())
        digest.update(b"\x00")
    digest.update(text.encode())
    return digest.hexdigest()


@dataclass
class CachedScan:
    """The slim, serialisable result of scanning one file."""

    filename: str
    sites: list[BarrierSite]
    parse_error: str | None = None


@dataclass
class CacheStats:
    disk_hits: int = 0
    rejected: int = 0  # corrupted / stale / version-mismatched entries
    corrupt: int = 0   # subset of rejected: undecodable files (deleted)
    stores: int = 0
    evicted: int = 0   # entries removed by the byte-size cap

    def as_dict(self) -> dict[str, int]:
        return {
            "disk_hits": self.disk_hits,
            "rejected": self.rejected,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "evicted": self.evicted,
        }

    def merge(self, other: "CacheStats") -> None:
        self.disk_hits += other.disk_hits
        self.rejected += other.rejected
        self.corrupt += other.corrupt
        self.stores += other.stores
        self.evicted += other.evicted


@dataclass
class ScanCache:
    """On-disk content-addressed store of :class:`CachedScan` payloads.

    ``directory=None`` disables persistence; ``load`` always misses and
    ``store`` is a no-op, so the engine can use one code path.

    ``max_bytes`` caps the store's total size; exceeding it on a write
    evicts least-recently-used entries (mtime order — every ``load`` hit
    refreshes the entry's mtime).  ``None`` means unbounded.
    """

    directory: Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        # Writes, eviction, and byte bookkeeping are coordinated through
        # the *directory's* shared state — every instance on the same
        # path (the serve pool's engines) uses one lock and one counter.
        self._state: _DirState | None = None
        if self.directory is not None:
            self.directory = Path(self.directory)
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                # e.g. the path exists but is a file, or isn't writable.
                raise ValueError(
                    f"unusable scan cache directory {self.directory}: {exc}"
                ) from exc
            self._state = _dir_state_for(self.directory)

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    @property
    def total_bytes(self) -> int:
        return self._state.total_bytes if self._state is not None else 0

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.pkl"

    def _discard(self, target: Path, evicted: bool = False) -> None:
        """Delete one entry, keeping the shared total in sync."""
        assert self._state is not None
        with self._state.lock:
            self._discard_locked(target, evicted)

    def _discard_locked(self, target: Path, evicted: bool = False) -> None:
        assert self._state is not None
        try:
            size = target.stat().st_size
            target.unlink()
        except OSError:
            return
        self._state.total_bytes = max(0, self._state.total_bytes - size)
        if evicted:
            self.stats.evicted += 1

    def load(self, key: str) -> CachedScan | None:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
            if (
                entry.get("format") != CACHE_FORMAT
                or entry.get("key") != key
            ):
                # Decodable but stale/misplaced: never valid again under
                # this key, so delete rather than re-reject every run.
                self.stats.rejected += 1
                self._discard(path)
                return None
            payload = entry["payload"]
            if not isinstance(payload, CachedScan):
                self.stats.rejected += 1
                self._discard(path)
                return None
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated pickle, unreadable file, stale class layout, ...:
            # count it, delete the bad file, and let the engine re-scan.
            self.stats.rejected += 1
            self.stats.corrupt += 1
            self._discard(path)
            return None
        self.stats.disk_hits += 1
        try:
            os.utime(path)  # refresh LRU position (mtime order)
        except OSError:
            pass
        return payload

    def store(self, key: str, payload: CachedScan) -> None:
        if self.directory is None:
            return
        assert self._state is not None
        target = self._path(key)
        # The tmp name is unique per writer: concurrent stores of the
        # same key from different engines must never interleave writes
        # into one file and publish a corrupt entry.
        tmp = target.with_name(
            f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            # One writer at a time per directory keeps the replace and
            # the byte accounting consistent when pooled engines race.
            with self._state.lock:
                old_size = target.stat().st_size if target.exists() else 0
                with open(tmp, "wb") as handle:
                    pickle.dump(
                        {
                            "format": CACHE_FORMAT,
                            "key": key,
                            "payload": payload,
                        },
                        handle,
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                new_size = tmp.stat().st_size
                tmp.replace(target)
                self._state.total_bytes += new_size - old_size
            self.stats.stores += 1
        except OSError:
            # Full/read-only disk never fails the analysis; drop any
            # half-written tmp file rather than leaking it.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        if (
            self.max_bytes is not None
            and self._state.total_bytes > self.max_bytes
        ):
            self._evict(keep=target)

    def _evict(self, keep: Path) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        The entry just written (``keep``) is spared so a cap smaller
        than one payload still leaves the newest result readable.
        """
        assert self.directory is not None and self.max_bytes is not None
        assert self._state is not None
        with self._state.lock:
            try:
                entries = sorted(
                    (
                        (entry.stat().st_mtime, entry)
                        for entry in self.directory.rglob("*.pkl")
                        if entry != keep
                    ),
                    key=lambda pair: pair[0],
                )
            except OSError:
                return
            for _mtime, entry in entries:
                if self._state.total_bytes <= self.max_bytes:
                    break
                self._discard_locked(entry, evicted=True)
