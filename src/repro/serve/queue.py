"""Bounded job queue with per-tree ordering, backpressure, and drain.

Submissions become :class:`Job` records in a bounded FIFO.  Worker
threads owned by the service pull one job at a time: the oldest queued
job whose tree has no job running.  Jobs for different trees run
concurrently; jobs for one tree run one at a time, in submission order,
so a delta submitted after an analyze of its tree always sees that
analyze's result.

When the queue is full, :meth:`JobQueue.submit` raises
:class:`QueueFull`; the HTTP layer translates it into ``503`` with a
``Retry-After`` hint.  :meth:`JobQueue.drain` flips the queue into
drain mode (new submissions raise :class:`Draining` → 503), waits for
queued and in-flight jobs to finish, and then wakes the workers so they
exit — the graceful-shutdown path behind SIGTERM.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.engine import AnalysisOptions, AnalysisResult, KernelSource


class QueueFull(Exception):
    """Queue at capacity — retry later."""

    def __init__(self, capacity: int, retry_after: float = 1.0):
        super().__init__(f"job queue full (capacity {capacity})")
        self.retry_after = retry_after


class Draining(Exception):
    """Server is draining — no new work accepted."""

    def __init__(self) -> None:
        super().__init__("server is draining; not accepting new jobs")
        self.retry_after = 5.0


_JOB_IDS = itertools.count(1)


@dataclass
class Job:
    """One queued analysis request."""

    kind: str  # "analyze" | "reanalyze"
    tree_key: str
    source: KernelSource | None = None
    #: Ordered (path, new_text) edits for reanalyze jobs.
    deltas: list[tuple[str, str]] = field(default_factory=list)
    options: AnalysisOptions | None = None
    job_id: str = field(
        default_factory=lambda: f"job-{next(_JOB_IDS)}"
    )
    status: str = "queued"  # queued | running | done | failed
    result: AnalysisResult | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: Trace recording this job's spans (``repro.trace.model.Trace``),
    #: set at submission when the request carried ``X-Repro-Trace``.
    trace: Any | None = field(default=None, repr=False, compare=False)
    #: Remote parent span id the job span should attach to, if any.
    trace_parent: str | None = None
    _done: threading.Event = field(default_factory=threading.Event)

    def mark_running(self) -> None:
        self.status = "running"
        self.started_at = time.monotonic()

    def mark_done(self, result: AnalysisResult) -> None:
        self.result = result
        self.status = "done"
        self.finished_at = time.monotonic()
        self._done.set()

    def mark_failed(self, error: str) -> None:
        self.error = error
        self.status = "failed"
        self.finished_at = time.monotonic()
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    @property
    def queue_seconds(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def describe(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "tree_key": self.tree_key,
            "status": self.status,
            "error": self.error,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
        }


class JobQueue:
    """Bounded FIFO of :class:`Job`, at most one running job per tree."""

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.rejected = 0
        self._pending: deque[Job] = deque()
        self._cond = threading.Condition()
        #: Tree keys of the jobs handed out and not yet ``done``.
        self._running: set[str] = set()
        self._accepting = True
        self._stopped = False

    # -- producer side -----------------------------------------------------

    def submit(self, job: Job) -> Job:
        with self._cond:
            if not self._accepting:
                raise Draining()
            if len(self._pending) >= self.capacity:
                self.rejected += 1
                # Hint scales with backlog: a deep queue earns a longer
                # back-off than a momentarily full one.
                raise QueueFull(
                    self.capacity,
                    retry_after=max(1.0, 0.25 * len(self._pending)),
                )
            self._pending.append(job)
            self._cond.notify()
        return job

    # -- consumer side -----------------------------------------------------

    def next_job(self) -> Job | None:
        """Block for the oldest queued job whose tree has no job running.

        Returns None once the queue is stopped and empty.  The caller
        must hand the job back through :meth:`done`, which frees its
        tree for the next job.
        """
        with self._cond:
            while True:
                for index, job in enumerate(self._pending):
                    if job.tree_key not in self._running:
                        del self._pending[index]
                        self._running.add(job.tree_key)
                        return job
                if self._stopped and not self._pending:
                    return None
                self._cond.wait()

    def done(self, job: Job) -> None:
        with self._cond:
            self._running.discard(job.tree_key)
            self._cond.notify_all()

    # -- state -------------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def in_flight(self) -> int:
        with self._cond:
            return len(self._running)

    @property
    def accepting(self) -> bool:
        with self._cond:
            return self._accepting

    def snapshot(self) -> dict[str, Any]:
        with self._cond:
            return {
                "depth": len(self._pending),
                "in_flight": len(self._running),
                "capacity": self.capacity,
                "accepting": self._accepting,
                "rejected_total": self.rejected,
            }

    # -- shutdown ----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting, wait for queued + in-flight work to finish.

        Returns True when the queue emptied within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._accepting = False
            while self._pending or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def stop(self) -> None:
        """Wake the workers so they observe shutdown and exit."""
        with self._cond:
            self._stopped = True
            self._accepting = False
            self._cond.notify_all()
