"""The benchmark's four workloads.

Every workload is one closed-loop caller on one thread: it issues the
next operation only after the previous one returned.  ``setup`` is what
a user pays before the first result, ``step`` runs one or more timed
operations through :class:`OpClock`, and ``verify`` checks the outputs
after the timed window.

* ``cold``   — a fresh ``OFenceEngine(source).analyze()`` per op, no
  cache: the paper's full-tree run (§6.1), dominated by the frontend.
* ``cached`` — a fresh engine over an on-disk scan cache filled during
  setup: a CI rerun in a new process.  The frontend is bypassed, so a
  frontend change should leave it unchanged.
* ``edit``   — ``reanalyze_file`` on one warm engine with seeded edits:
  the paper's incremental mode, dominated by fingerprint, check, pair.
* ``serve``  — an in-process daemon with a 2-worker exec pool and a
  findings store, driven over HTTP in cycles of 3 one-file deltas, one
  analyze of the resulting revision, and one store diff between
  revisions: the only path through wire, queue, pool and offload.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from pipeline_edits import EditGenerator

from repro.core.engine import AnalysisOptions, KernelSource, OFenceEngine
from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.corpus.groundtruth import RunScore, score_run
from repro.fuzz.differential import run_signature
from repro.serve.wire import result_summary

#: Table 3 of the paper: misplaced access / re-read / wrong barrier type.
PAPER_TABLE3 = [8, 3, 1]


def signature(result) -> str:
    """Hash of everything observable about one analysis result."""
    canonical = json.dumps(run_signature(result), sort_keys=True,
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def ground_truth_problems(result, corpus) -> list[str]:
    """Why ``result`` does not reproduce the corpus ground truth."""
    score = score_run(result, corpus.truth)
    table3 = list(score.detected_table3().values())
    if corpus.spec == CorpusSpec.paper():
        expected = PAPER_TABLE3
    else:  # every injected bug found
        expected = list(RunScore(detected_bugs=list(corpus.truth.bugs))
                        .detected_table3().values())
    problems = []
    if score.recall != 1.0:
        problems.append(f"recall {score.recall:.3f} != 1.0")
    if table3 != expected:
        problems.append(f"Table 3 {table3} != {expected}")
    if score.unexpected_findings:
        problems.append(f"{len(score.unexpected_findings)} unexpected "
                        "findings")
    if len(score.expected_fp_findings) != corpus.spec.bnx2x_fps:
        problems.append(f"{len(score.expected_fp_findings)} expected FPs "
                        f"!= {corpus.spec.bnx2x_fps}")
    if result.files_failed:
        problems.append(f"{len(result.files_failed)} files failed")
    return problems


def copy_source(source: KernelSource, files: dict[str, str]) -> KernelSource:
    return KernelSource(files=dict(files), headers=dict(source.headers),
                        file_options=dict(source.file_options))


@dataclass
class Op:
    """One timed operation."""

    kind: str
    files: int
    traced: bool
    seconds: float = 0.0
    ok: bool = False
    #: Daemon-reported queue wait and run time (serve only).
    queue_s: float | None = None
    run_s: float | None = None


class OpClock:
    """Times operations and tags the spans they cause with an op id."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tracing = False
        self.ops: list[Op] = []
        #: ``ru_maxrss`` through set-up and the first op.  Later ops are
        #: left out: the daemon keeps every job's result, so a later peak
        #: would grow with the number of ops a faster build fits in.
        self.peak_rss_mb = 0.0

    @contextmanager
    def op(self, kind: str, files: int):
        record = Op(kind=kind, files=files, traced=self.tracing)
        if self.tracing:
            self.tracer.op = len(self.ops)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.op = None
            if not self.ops:
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            self.ops.append(record)


class Workload:
    """Base: one corpus, one work directory, one closed-loop caller."""

    name = ""
    #: The op kind whose latency is the workload's ``op_p50_ms``.
    primary = ""

    def __init__(self, spec: CorpusSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []

    def setup(self) -> None:
        self.corpus = generate_corpus(self.spec, self.seed)

    def teardown(self) -> None:
        """Undo ``setup`` (between repeated set-ups, and at the end)."""

    def step(self, clock: OpClock) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Append output problems found after the timed window."""


class Cold(Workload):
    name = "cold"
    primary = "analyze"

    def setup(self) -> None:
        super().setup()
        self.reference: str | None = None

    def _options(self) -> AnalysisOptions | None:
        return None

    def step(self, clock: OpClock) -> None:
        with clock.op(self.primary, 0) as op:
            result = OFenceEngine(self.corpus.source,
                                  self._options()).analyze()
            op.files = result.files_analyzed
        sig = signature(result)
        if self.reference is None:
            self.reference = sig
            self.problems += ground_truth_problems(result, self.corpus)
        op.ok = sig == self.reference and not result.files_failed
        if not op.ok:
            self.problems.append(f"op {len(clock.ops)}: signature drifted")
        self._check(result, op)
        # Drop the result before the next op so its object graph does
        # not inflate the next op's garbage collections.
        del result
        gc.collect()

    def _check(self, result, op: Op) -> None:
        pass


class Cached(Cold):
    name = "cached"

    def setup(self) -> None:
        super().setup()
        self.cache_dir = self.workdir / "scan-cache"
        OFenceEngine(self.corpus.source, self._options()).analyze()
        gc.collect()

    def teardown(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _options(self) -> AnalysisOptions:
        return AnalysisOptions(cache_dir=self.cache_dir)

    def _check(self, result, op: Op) -> None:
        scanned = result.profile.counters.get("scan.scanned", 0)
        if scanned:
            op.ok = False
            self.problems.append(f"cached op re-scanned {scanned} files")


class Edit(Workload):
    name = "edit"
    primary = "reanalyze"

    def setup(self) -> None:
        super().setup()
        self.pristine = dict(self.corpus.source.files)
        # The engine edits the tree it is given in place; give it a copy.
        self.engine = OFenceEngine(
            copy_source(self.corpus.source, self.pristine)
        )
        first = self.engine.analyze()
        self.reference = signature(first)
        self.problems += ground_truth_problems(first, self.corpus)
        selected = self.engine.selected_files()[0]
        self.edits = EditGenerator(
            {path: self.pristine[path] for path in selected}, self.seed
        )
        self.last = None
        del first
        gc.collect()

    def teardown(self) -> None:
        self.engine = None

    def step(self, clock: OpClock) -> None:
        _kind, path, text = self.edits.next()
        with clock.op(self.primary, 1) as op:
            self.last = self.engine.reanalyze_file(path, text)
        op.ok = not self.last.files_failed
        if not op.ok:
            self.problems.append(f"edit of {path} failed to parse")

    def verify(self) -> None:
        if self.last is None:
            self.problems.append("no edit completed")
            return
        files = {**self.pristine, **self.edits.current}
        serial = OFenceEngine(copy_source(self.corpus.source, files))
        if signature(self.last) != signature(serial.analyze()):
            self.problems.append("edited engine != fresh serial analysis")
        # One warm re-analysis after restoring every file re-scans only
        # the edited ones, through the same warm pairing index and memos.
        self.engine.source.files.update(self.edits.revert_all())
        if signature(self.engine.analyze()) != self.reference:
            self.problems.append("reverting every edit != cold reference")


class Serve(Workload):
    name = "serve"
    primary = "delta"
    DELTAS_PER_REVISION = 3

    def setup(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.server import AnalysisServer

        super().setup()
        self.store_dir = self.workdir / "store"
        self.server = AnalysisServer(
            exec_workers=2, store_dir=str(self.store_dir)
        ).start()
        self.client = ServeClient(self.server.url)
        self.pristine = dict(self.corpus.source.files)
        self.runs = 0
        response = self.client.analyze(self.corpus.source)
        summary = self._finished(response, None)
        if summary is None:
            raise RuntimeError(f"first submit failed: {response}")
        job = self.server.service.job(response["job_id"])
        self.problems += ground_truth_problems(job.result, self.corpus)
        self.tree_key = response["tree_key"]
        #: (store run id, fingerprint set) of the latest revision.
        self.revision = (self.runs, set(summary["fingerprints"]))
        self.last_revision: tuple[dict, str] | None = None
        selected = OFenceEngine(self.corpus.source).selected_files()[0]
        self.edits = EditGenerator(
            {path: self.pristine[path] for path in selected}, self.seed
        )

    def teardown(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def _finished(self, response: dict, op: Op | None) -> dict | None:
        """The job's result summary, or None (and a problem) if not done."""
        # Every finished job records one run into the store, so run ids
        # count finished jobs.
        done = response.get("status") == "done"
        self.runs += done
        if op is not None:
            op.queue_s = response.get("queue_seconds")
            op.run_s = response.get("run_seconds")
            op.ok = done
        if not done:
            self.problems.append(f"job not done: {response.get('error')}")
            return None
        return response["result"]

    def step(self, clock: OpClock) -> None:
        for _ in range(self.DELTAS_PER_REVISION):
            _kind, path, text = self.edits.next()
            with clock.op("delta", 1) as op:
                response = self.client.reanalyze(self.tree_key,
                                                 [(path, text)])
            self._finished(response, op)

        files = {**self.pristine, **self.edits.current}
        source = copy_source(self.corpus.source, files)
        with clock.op("revision", 0) as op:
            response = self.client.analyze(source)
        summary = self._finished(response, op)
        if summary is None:
            return
        op.files = summary["files_analyzed"]
        self.tree_key = response["tree_key"]
        self.last_revision = (files, summary["signature"])
        run_a, fps_a = self.revision
        self.revision = (self.runs, set(summary["fingerprints"]))
        run_b, fps_b = self.revision

        with clock.op("diff", 0) as op:
            diff = self.client.run_diff(run_a, run_b)
        counts = diff["counts"]
        op.ok = (
            counts["new"] + counts["reappeared"] + counts["persistent"]
            == len(fps_b)
            and counts["resolved"] + counts["persistent"] == len(fps_a)
            and counts["persistent"] == len(fps_a & fps_b)
        )
        if not op.ok:
            self.problems.append(f"diff {run_a}->{run_b} does not match "
                                 f"the revisions: {counts}")
        gc.collect()

    def verify(self) -> None:
        if self.last_revision is None:
            self.problems.append("no revision completed")
            return
        files, sig = self.last_revision
        serial = OFenceEngine(copy_source(self.corpus.source, files))
        if result_summary(serial.analyze())["signature"] != sig:
            self.problems.append("last revision != serial analysis")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Cold, Cached, Edit, Serve)
}
