"""The SQLite-backed persistent findings store.

One :class:`FindingsStore` owns a ``findings.sqlite`` database (WAL
mode) holding four tables:

* ``runs`` — one row per recorded analysis run (tree hash, timestamps,
  engine config, per-checker counts, dedup counters);
* ``findings`` — one row per **fingerprint** (the stable identity from
  :mod:`repro.store.fingerprint`) carrying its triage state, note, and
  first/last-seen bookkeeping;
* ``sightings`` — (run, fingerprint) occurrences with the line and
  explanation the finding had in that run;
* ``triage_events`` — append-only log of every state transition.

Concurrency: connections are per-thread (created lazily, all closed on
:meth:`close`), every write happens in a single ``BEGIN IMMEDIATE``
transaction — so a run is recorded atomically or not at all — and a
generous ``busy_timeout`` makes concurrent writers (two serve workers,
or a daemon and a local CLI sharing one ``--store-dir``)
queue instead of corrupting or interleaving partial runs.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.store import triage as triage_rules
from repro.store.diff import RunDiff, classify
from repro.store.fingerprint import FINGERPRINT_VERSION, finding_records
from repro.store.triage import TriageError, validate_transition
from repro.trace.context import span as trace_span

#: Database filename created inside a ``--store-dir`` directory.
DB_FILENAME = "findings.sqlite"

#: How long a writer waits for a competing writer before giving up.
BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    tree_hash        TEXT NOT NULL,
    label            TEXT NOT NULL DEFAULT '',
    source           TEXT NOT NULL DEFAULT 'cli',
    started_at       REAL NOT NULL,
    duration_seconds REAL,
    engine_config    TEXT NOT NULL DEFAULT '{}',
    files_analyzed   INTEGER NOT NULL DEFAULT 0,
    total_barriers   INTEGER NOT NULL DEFAULT 0,
    pairings         INTEGER NOT NULL DEFAULT 0,
    finding_count    INTEGER NOT NULL DEFAULT 0,
    checker_counts   TEXT NOT NULL DEFAULT '{}',
    dedup_hits       INTEGER NOT NULL DEFAULT 0,
    dedup_new        INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS findings (
    fingerprint      TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    file             TEXT NOT NULL,
    function         TEXT NOT NULL,
    object           TEXT,
    fix              TEXT,
    primitive        TEXT,
    state            TEXT NOT NULL DEFAULT 'open',
    note             TEXT NOT NULL DEFAULT '',
    first_seen_run   INTEGER NOT NULL,
    last_seen_run    INTEGER NOT NULL,
    last_line        INTEGER NOT NULL DEFAULT 0,
    last_explanation TEXT NOT NULL DEFAULT '',
    times_seen       INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS sightings (
    run_id      INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    line        INTEGER NOT NULL,
    explanation TEXT NOT NULL,
    occurrences INTEGER NOT NULL DEFAULT 1,
    PRIMARY KEY (run_id, fingerprint)
);
CREATE INDEX IF NOT EXISTS idx_sightings_fp
    ON sightings (fingerprint, run_id);
CREATE TABLE IF NOT EXISTS triage_events (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL,
    at          REAL NOT NULL,
    from_state  TEXT NOT NULL,
    to_state    TEXT NOT NULL,
    note        TEXT NOT NULL DEFAULT '',
    actor       TEXT NOT NULL DEFAULT ''
);
"""


class StoreError(Exception):
    """A store-level failure (unknown run, conflicting schema, ...)."""


class UnknownRun(StoreError, KeyError):
    """Run id not present in the store."""

    def __str__(self) -> str:  # KeyError quotes its arg by default
        return self.args[0] if self.args else "unknown run"


class UnknownFinding(StoreError, KeyError):
    """Fingerprint not present in the store."""

    def __str__(self) -> str:
        return self.args[0] if self.args else "unknown finding"


@dataclass
class RunRecord:
    """One recorded analysis run."""

    id: int
    tree_hash: str
    label: str
    source: str
    started_at: float
    duration_seconds: float | None
    engine_config: dict[str, Any]
    files_analyzed: int
    total_barriers: int
    pairings: int
    finding_count: int
    checker_counts: dict[str, int]
    dedup_hits: int
    dedup_new: int

    def as_dict(self) -> dict[str, Any]:
        return dict(vars(self))

    def describe(self) -> str:
        checkers = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.checker_counts.items())
        ) or "none"
        return (
            f"run {self.id} [{self.source}] tree {self.tree_hash[:12]} "
            f"findings={self.finding_count} ({checkers}) "
            f"new={self.dedup_new} known={self.dedup_hits}"
        )


@dataclass
class StoredFinding:
    """One fingerprint with its triage state and bookkeeping."""

    fingerprint: str
    kind: str
    file: str
    function: str
    object: str | None
    fix: str | None
    primitive: str | None
    state: str
    note: str
    first_seen_run: int
    last_seen_run: int
    last_line: int
    last_explanation: str
    times_seen: int

    def as_dict(self) -> dict[str, Any]:
        return dict(vars(self))

    def describe(self) -> str:
        return (
            f"{self.fingerprint} [{self.state}] {self.kind} in "
            f"{self.function} ({self.file}:{self.last_line}) "
            f"seen x{self.times_seen} (runs {self.first_seen_run}"
            f"..{self.last_seen_run})"
        )


@dataclass
class RecordOutcome:
    """What one :meth:`FindingsStore.record_run` did."""

    run: RunRecord
    new_fingerprints: list[str] = field(default_factory=list)
    known_fingerprints: list[str] = field(default_factory=list)
    reopened: list[str] = field(default_factory=list)


class FindingsStore:
    """Persistent, concurrency-safe store of runs + findings + triage."""

    def __init__(self, path: str | Path):
        path = Path(path)
        if path.suffix == ".sqlite":
            path.parent.mkdir(parents=True, exist_ok=True)
            self.path = path
        else:
            path.mkdir(parents=True, exist_ok=True)
            self.path = path / DB_FILENAME
        self._local = threading.local()
        self._conns: list[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        #: Serializes writers *within* this instance; cross-instance and
        #: cross-process writers serialize on SQLite's own write lock
        #: (BEGIN IMMEDIATE + busy_timeout).
        self._write_lock = threading.Lock()
        self._closed = False
        self._init_schema()

    # -- connections -------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        if self._closed:
            raise StoreError(f"store {self.path} is closed")
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        conn = sqlite3.connect(
            str(self.path), timeout=BUSY_TIMEOUT_MS / 1000,
            check_same_thread=False,
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._local.conn = conn
        with self._conns_lock:
            self._conns.append(conn)
        return conn

    def _init_schema(self) -> None:
        conn = self._conn()
        with self._write_lock:
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM meta WHERE key='fingerprint_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) "
                    "VALUES ('fingerprint_version', ?)",
                    (FINGERPRINT_VERSION,),
                )
                conn.commit()
            elif row["value"] != FINGERPRINT_VERSION:
                raise StoreError(
                    f"store {self.path} was recorded with fingerprint "
                    f"recipe {row['value']}, this build uses "
                    f"{FINGERPRINT_VERSION}; use a fresh --store-dir"
                )

    def close(self) -> None:
        self._closed = True
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> "FindingsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording ---------------------------------------------------------

    def record_run(
        self,
        result=None,
        *,
        tree_hash: str = "",
        label: str = "",
        source: str = "cli",
        config: dict[str, Any] | None = None,
        records: list[dict] | None = None,
        stats: dict[str, int] | None = None,
        duration: float | None = None,
        started_at: float | None = None,
    ) -> RecordOutcome:
        """Persist one run atomically; returns what was written.

        Either pass an :class:`~repro.core.engine.AnalysisResult` as
        ``result`` (records, counts, and duration derive from it) or
        pass pre-built ``records`` (the ``POST /v1/runs`` path).
        """
        if result is not None:
            records = finding_records(result)
            duration = result.elapsed_seconds if duration is None \
                else duration
            stats = {
                "files_analyzed": result.files_analyzed,
                "total_barriers": result.total_barriers,
                "pairings": len(result.pairing.pairings),
            }
        records = list(records or [])
        for record in records:
            if not record.get("fingerprint"):
                raise StoreError("every finding record needs a fingerprint")
        stats = stats or {}
        checker_counts = Counter(r["kind"] for r in records)
        now = time.time() if started_at is None else started_at

        with trace_span("store.record", findings=len(records)), \
                self._write_lock:
            conn = self._conn()
            try:
                conn.execute("BEGIN IMMEDIATE")
                outcome = self._record_locked(
                    conn, records, tree_hash=tree_hash, label=label,
                    source=source, config=config or {},
                    checker_counts=checker_counts, stats=stats,
                    duration=duration, started_at=now,
                )
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
        return outcome

    def _record_locked(
        self, conn, records, *, tree_hash, label, source, config,
        checker_counts, stats, duration, started_at,
    ) -> RecordOutcome:
        cursor = conn.execute(
            "INSERT INTO runs (tree_hash, label, source, started_at, "
            "duration_seconds, engine_config, files_analyzed, "
            "total_barriers, pairings, finding_count, checker_counts) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                tree_hash, label, source, started_at, duration,
                json.dumps(config, sort_keys=True),
                int(stats.get("files_analyzed", 0)),
                int(stats.get("total_barriers", 0)),
                int(stats.get("pairings", 0)),
                len(records),
                json.dumps(dict(checker_counts), sort_keys=True),
            ),
        )
        run_id = cursor.lastrowid

        new_fps: list[str] = []
        known_fps: list[str] = []
        reopened: list[str] = []
        # One finding row per fingerprint; duplicate records in a run
        # (two identical shapes hashing together) fold into occurrences.
        by_fp: dict[str, list[dict]] = {}
        for record in records:
            by_fp.setdefault(record["fingerprint"], []).append(record)

        for fingerprint, group in by_fp.items():
            record = group[0]
            existing = conn.execute(
                "SELECT state, times_seen FROM findings "
                "WHERE fingerprint=?", (fingerprint,)
            ).fetchone()
            if existing is None:
                new_fps.append(fingerprint)
                conn.execute(
                    "INSERT INTO findings (fingerprint, kind, file, "
                    "function, object, fix, primitive, state, "
                    "first_seen_run, last_seen_run, last_line, "
                    "last_explanation, times_seen) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        fingerprint, record["kind"], record["file"],
                        record["function"], record.get("object"),
                        record.get("fix"), record.get("primitive"),
                        triage_rules.STATE_OPEN, run_id, run_id,
                        int(record.get("line", 0)),
                        record.get("explanation", ""), len(group),
                    ),
                )
            else:
                known_fps.append(fingerprint)
                conn.execute(
                    "UPDATE findings SET last_seen_run=?, last_line=?, "
                    "last_explanation=?, times_seen=times_seen+? "
                    "WHERE fingerprint=?",
                    (
                        run_id, int(record.get("line", 0)),
                        record.get("explanation", ""), len(group),
                        fingerprint,
                    ),
                )
                if existing["state"] == triage_rules.STATE_FIXED:
                    # A fixed finding sighted again is a regression:
                    # reopen it and leave an audit trail.
                    reopened.append(fingerprint)
                    conn.execute(
                        "UPDATE findings SET state=? WHERE fingerprint=?",
                        (triage_rules.STATE_OPEN, fingerprint),
                    )
                    conn.execute(
                        "INSERT INTO triage_events (fingerprint, at, "
                        "from_state, to_state, note, actor) "
                        "VALUES (?, ?, ?, ?, ?, ?)",
                        (
                            fingerprint, started_at,
                            triage_rules.STATE_FIXED,
                            triage_rules.STATE_OPEN,
                            f"reappeared in run {run_id}", "store",
                        ),
                    )
            conn.execute(
                "INSERT INTO sightings (run_id, fingerprint, line, "
                "explanation, occurrences) VALUES (?, ?, ?, ?, ?)",
                (
                    run_id, fingerprint, int(record.get("line", 0)),
                    record.get("explanation", ""), len(group),
                ),
            )
        conn.execute(
            "UPDATE runs SET dedup_hits=?, dedup_new=? WHERE id=?",
            (len(known_fps), len(new_fps), run_id),
        )
        run = self._run_row(conn, run_id)
        return RecordOutcome(
            run=run,
            new_fingerprints=sorted(new_fps),
            known_fingerprints=sorted(known_fps),
            reopened=sorted(reopened),
        )

    # -- runs --------------------------------------------------------------

    def _run_row(self, conn, run_id: int) -> RunRecord:
        row = conn.execute(
            "SELECT * FROM runs WHERE id=?", (run_id,)
        ).fetchone()
        if row is None:
            raise UnknownRun(f"no run {run_id} in {self.path}")
        return RunRecord(
            id=row["id"], tree_hash=row["tree_hash"], label=row["label"],
            source=row["source"], started_at=row["started_at"],
            duration_seconds=row["duration_seconds"],
            engine_config=json.loads(row["engine_config"]),
            files_analyzed=row["files_analyzed"],
            total_barriers=row["total_barriers"],
            pairings=row["pairings"],
            finding_count=row["finding_count"],
            checker_counts=json.loads(row["checker_counts"]),
            dedup_hits=row["dedup_hits"], dedup_new=row["dedup_new"],
        )

    def run(self, run_id: int) -> RunRecord:
        return self._run_row(self._conn(), run_id)

    def runs(self, limit: int | None = None) -> list[RunRecord]:
        """All runs, oldest first (optionally the last ``limit``)."""
        conn = self._conn()
        rows = conn.execute("SELECT id FROM runs ORDER BY id").fetchall()
        ids = [row["id"] for row in rows]
        if limit is not None:
            ids = ids[-limit:]
        return [self._run_row(conn, run_id) for run_id in ids]

    # -- findings & triage -------------------------------------------------

    @staticmethod
    def _finding_from_row(row) -> StoredFinding:
        return StoredFinding(
            fingerprint=row["fingerprint"], kind=row["kind"],
            file=row["file"], function=row["function"],
            object=row["object"], fix=row["fix"],
            primitive=row["primitive"], state=row["state"],
            note=row["note"], first_seen_run=row["first_seen_run"],
            last_seen_run=row["last_seen_run"],
            last_line=row["last_line"],
            last_explanation=row["last_explanation"],
            times_seen=row["times_seen"],
        )

    def finding(self, fingerprint: str) -> StoredFinding:
        row = self._conn().execute(
            "SELECT * FROM findings WHERE fingerprint=?", (fingerprint,)
        ).fetchone()
        if row is None:
            raise UnknownFinding(
                f"no finding {fingerprint} in {self.path}"
            )
        return self._finding_from_row(row)

    def findings(
        self,
        state: str | None = None,
        checker: str | None = None,
        file: str | None = None,
        suppress: bool = False,
    ) -> list[StoredFinding]:
        """Stored findings, canonically ordered.

        ``suppress=True`` filters the confirmed-noise states
        (:data:`repro.store.triage.SUPPRESSED_STATES`) — the default
        report view; they stay queryable explicitly and counted in
        stats.
        """
        clauses: list[str] = []
        params: list[Any] = []
        if state is not None:
            if state not in triage_rules.STATES:
                raise TriageError(
                    f"unknown triage state {state!r}; "
                    f"valid: {', '.join(triage_rules.STATES)}"
                )
            clauses.append("state=?")
            params.append(state)
        if checker is not None:
            from repro.checkers import registry

            if checker not in registry.kind_values():
                raise TriageError(
                    f"unknown checker kind {checker!r}; "
                    f"valid: {', '.join(registry.kind_values())}"
                )
            clauses.append("kind=?")
            params.append(checker)
        if file is not None:
            clauses.append("file=?")
            params.append(file)
        if suppress:
            marks = ",".join("?" * len(triage_rules.SUPPRESSED_STATES))
            clauses.append(f"state NOT IN ({marks})")
            params.extend(sorted(triage_rules.SUPPRESSED_STATES))
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn().execute(
            "SELECT * FROM findings" + where
            + " ORDER BY file, function, fingerprint",
            params,
        ).fetchall()
        return [self._finding_from_row(row) for row in rows]

    def triage(
        self, fingerprint: str, state: str, note: str = "",
        actor: str = "cli",
    ) -> StoredFinding:
        """Move a fingerprint through the state machine (validated)."""
        with self._write_lock:
            conn = self._conn()
            try:
                conn.execute("BEGIN IMMEDIATE")
                row = conn.execute(
                    "SELECT state FROM findings WHERE fingerprint=?",
                    (fingerprint,),
                ).fetchone()
                if row is None:
                    raise UnknownFinding(
                        f"no finding {fingerprint} in {self.path}"
                    )
                validate_transition(row["state"], state)
                conn.execute(
                    "UPDATE findings SET state=?, note=? "
                    "WHERE fingerprint=?",
                    (state, note, fingerprint),
                )
                conn.execute(
                    "INSERT INTO triage_events (fingerprint, at, "
                    "from_state, to_state, note, actor) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (fingerprint, time.time(), row["state"], state,
                     note, actor),
                )
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
        return self.finding(fingerprint)

    def triage_events(self, fingerprint: str) -> list[dict[str, Any]]:
        rows = self._conn().execute(
            "SELECT at, from_state, to_state, note, actor "
            "FROM triage_events WHERE fingerprint=? ORDER BY id",
            (fingerprint,),
        ).fetchall()
        return [dict(row) for row in rows]

    def states_of(
        self, fingerprints: Iterable[str]
    ) -> dict[str, str]:
        """fingerprint -> triage state for the known subset."""
        out: dict[str, str] = {}
        conn = self._conn()
        for fingerprint in fingerprints:
            row = conn.execute(
                "SELECT state FROM findings WHERE fingerprint=?",
                (fingerprint,),
            ).fetchone()
            if row is not None:
                out[fingerprint] = row["state"]
        return out

    # -- diffing -----------------------------------------------------------

    def _sighting_rows(self, conn, run_id: int) -> dict[str, dict]:
        rows = conn.execute(
            "SELECT s.fingerprint, s.line, s.explanation, f.kind, "
            "f.file, f.function, f.state "
            "FROM sightings s JOIN findings f "
            "ON f.fingerprint = s.fingerprint WHERE s.run_id=?",
            (run_id,),
        ).fetchall()
        return {row["fingerprint"]: dict(row) for row in rows}

    def diff(
        self, run_a: int | None = None, run_b: int | None = None
    ) -> RunDiff:
        """Classified delta between two runs (default: last two).

        Output is deterministic: identical recorded runs produce
        bit-for-bit identical :meth:`RunDiff.to_json` no matter which
        tier recorded them or in which store instance.
        """
        conn = self._conn()
        if run_a is None or run_b is None:
            latest = self.runs(limit=2)
            if len(latest) < 2:
                raise StoreError(
                    f"need two recorded runs to diff; store has "
                    f"{len(latest)}"
                )
            run_a = latest[0].id if run_a is None else run_a
            run_b = latest[1].id if run_b is None else run_b
        # Validate both runs exist (raises UnknownRun otherwise).
        self._run_row(conn, run_a)
        self._run_row(conn, run_b)
        with trace_span("store.diff", run_a=run_a, run_b=run_b):
            rows_a = self._sighting_rows(conn, run_a)
            rows_b = self._sighting_rows(conn, run_b)
            seen_before = {
                row["fingerprint"]
                for row in conn.execute(
                    "SELECT DISTINCT fingerprint FROM sightings "
                    "WHERE run_id < ?", (run_a,)
                ).fetchall()
            }
            return classify(run_a, run_b, rows_a, rows_b, seen_before)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``ofence_store_*`` gauge group."""
        conn = self._conn()
        runs = conn.execute(
            "SELECT COUNT(*) AS n, COALESCE(MAX(id), 0) AS last, "
            "COALESCE(SUM(dedup_hits), 0) AS hits, "
            "COALESCE(SUM(dedup_new), 0) AS new "
            "FROM runs"
        ).fetchone()
        by_state = {
            state: 0 for state in triage_rules.STATES
        }
        for row in conn.execute(
            "SELECT state, COUNT(*) AS n FROM findings GROUP BY state"
        ).fetchall():
            by_state[row["state"]] = row["n"]
        sightings = conn.execute(
            "SELECT COUNT(*) AS n FROM sightings"
        ).fetchone()["n"]
        total = sum(by_state.values())
        recorded = runs["hits"] + runs["new"]
        return {
            "runs": runs["n"],
            "last_run_id": runs["last"],
            "findings": total,
            "findings_open": by_state[triage_rules.STATE_OPEN],
            "findings_confirmed": by_state[triage_rules.STATE_CONFIRMED],
            "findings_false_positive":
                by_state[triage_rules.STATE_FALSE_POSITIVE],
            "findings_fixed": by_state[triage_rules.STATE_FIXED],
            "sightings": sightings,
            "dedup_hits": runs["hits"],
            "dedup_new": runs["new"],
            "dedup_hit_rate":
                (runs["hits"] / recorded) if recorded else 0.0,
        }
