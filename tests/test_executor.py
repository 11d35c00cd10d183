"""Tests for the persistent analysis executor (``repro.exec``).

The contract under test is strict: offloading scan, pairing-candidate
search, and the CFG-bound checkers to worker processes must be
invisible in the results — bit-for-bit the serial signature — and every
infrastructure failure (dead worker, closed pool, reaped pool) must
degrade to the serial path, never to wrong output.
"""

import os
import select
import time

import pytest

from repro.core.engine import (
    AnalysisOptions,
    OFenceEngine,
    run_in_mode,
    run_mode_names,
)
from repro.corpus import CorpusSpec, generate_corpus
from repro.exec import AnalysisExecutor
from repro.fuzz.differential import DEFAULT_MODES, check_differential
from repro.fuzz.generate import generate_case
from repro.fuzz.differential import run_signature


#: Pool size used throughout; the CI executor-smoke job raises it to 4
#: so the parity suite also covers >2-way sharding.
WORKERS = int(os.environ.get("EXEC_TEST_WORKERS", "2"))


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec.small(), seed=31)


@pytest.fixture(scope="module")
def serial_signature(corpus):
    return run_signature(OFenceEngine(corpus.source).analyze())


def _exec_options(executor, **overrides):
    defaults = dict(workers=WORKERS, executor=executor, exec_min_batch=1)
    defaults.update(overrides)
    return AnalysisOptions(**defaults)


class TestParity:
    def test_executor_matches_serial_bit_for_bit(
        self, corpus, serial_signature
    ):
        with AnalysisExecutor(workers=WORKERS) as ex:
            result = OFenceEngine(
                corpus.source, _exec_options(ex)
            ).analyze()
        assert run_signature(result) == serial_signature

    def test_warm_reuse_matches_and_hits_worker_caches(
        self, corpus, serial_signature
    ):
        with AnalysisExecutor(workers=WORKERS) as ex:
            OFenceEngine(corpus.source, _exec_options(ex)).analyze()
            warm = OFenceEngine(corpus.source, _exec_options(ex)).analyze()
            snap = ex.snapshot()
        assert run_signature(warm) == serial_signature
        # The second engine's files were already in the workers' scan
        # caches — the whole point of the persistent pool.
        assert snap["worker_scan_hits"] > 0
        assert warm.profile.counters.get("exec.scan_warm_hits", 0) > 0

    def test_all_stages_actually_offload(self, corpus):
        with AnalysisExecutor(workers=WORKERS) as ex:
            result = OFenceEngine(
                corpus.source, _exec_options(ex)
            ).analyze()
        counters = result.profile.counters
        assert counters.get("exec.batches", 0) > 0
        assert counters.get("pair.shards", 0) > 0
        assert counters.get("check.shards", 0) > 0
        assert counters.get("pair.candidates_offloaded", 0) > 0

    def test_incremental_run_after_executor_run(self, corpus):
        with AnalysisExecutor(workers=WORKERS) as ex:
            engine = OFenceEngine(corpus.source, _exec_options(ex))
            first = engine.analyze()
            path = corpus.source.files_with_barriers()[0]
            second = engine.reanalyze_file(path)
        assert run_signature(second) == run_signature(first)


class TestFailureModes:
    def test_worker_crash_mid_run_recovers(self, corpus, serial_signature):
        with AnalysisExecutor(workers=WORKERS) as ex:
            # The crash sentinel sits first in worker 0's queue: the
            # first batch routed there dies with the process and must be
            # re-dispatched to the respawned worker.
            ex.inject_worker_crash(0)
            result = OFenceEngine(
                corpus.source, _exec_options(ex)
            ).analyze()
            snap = ex.snapshot()
        assert run_signature(result) == serial_signature
        assert snap["respawns"] >= 1
        assert snap["alive_workers"] == WORKERS

    def test_closed_executor_falls_back_to_serial(
        self, corpus, serial_signature
    ):
        ex = AnalysisExecutor(workers=WORKERS)
        ex.close()
        result = OFenceEngine(corpus.source, _exec_options(ex)).analyze()
        assert run_signature(result) == serial_signature
        assert "scan.exec" not in result.profile.stages

    def test_idle_reap_and_lazy_respawn(self, corpus, serial_signature):
        with AnalysisExecutor(workers=WORKERS, idle_timeout=0.2) as ex:
            OFenceEngine(corpus.source, _exec_options(ex)).analyze()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if ex.snapshot()["alive_workers"] == 0:
                    break
                time.sleep(0.05)
            assert ex.snapshot()["alive_workers"] == 0
            assert ex.snapshot()["reaped"] >= WORKERS
            # Next use restarts the pool transparently.
            result = OFenceEngine(
                corpus.source, _exec_options(ex)
            ).analyze()
        assert run_signature(result) == serial_signature


def _exited(pid: int, deadline: float) -> bool:
    """Wait until ``pid`` ends (a zombie counts) or ``deadline`` passes."""
    try:
        fd = os.pidfd_open(pid)
    except ProcessLookupError:
        return True
    try:
        timeout = max(0.0, deadline - time.monotonic())
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs pidfd")
class TestOwnerExit:
    def test_workers_exit_when_owner_dies_without_closing(self):
        """An owner that ends through ``os._exit`` closes nothing; its
        workers must still go, or they hold its caller's pipes open."""
        case = generate_case(4)
        read_end, write_end = os.pipe()
        child = os.fork()
        if child == 0:  # the owner
            try:
                os.close(read_end)
                ex = AnalysisExecutor(workers=2)
                OFenceEngine(case.source, _exec_options(ex)).analyze()
                pids = [w.process.pid for w in ex._workers]
                os.write(write_end, " ".join(map(str, pids)).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        pids: list[int] = []
        try:
            # The workers inherit the write end, so wait for the data,
            # not for the end of file.
            ready, _, _ = select.select([read_end], [], [], 60)
            if ready:
                pids = [int(pid) for pid in os.read(read_end, 4096).split()]
            os.waitpid(child, 0)
            assert len(pids) == 2
            deadline = time.monotonic() + 15
            assert [pid for pid in pids if not _exited(pid, deadline)] == []
        finally:
            os.close(read_end)
            for pid in pids:
                if not _exited(pid, time.monotonic()):
                    os.kill(pid, 9)


class TestStartMethod:
    def test_explicit_spawn_works(self):
        case = generate_case(4)
        with AnalysisExecutor(workers=WORKERS, start_method="spawn") as ex:
            assert ex.start_method == "spawn"
            result = OFenceEngine(
                case.source, _exec_options(ex)
            ).analyze()
        serial = run_in_mode("serial", case.source)
        assert run_signature(result) == run_signature(serial)

    def test_env_override_selects_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_START_METHOD", "spawn")
        ex = AnalysisExecutor(workers=1)
        try:
            assert ex.start_method == "spawn"
        finally:
            ex.close()

    def test_never_platform_default(self):
        # The pool always picks an explicit start method.
        ex = AnalysisExecutor(workers=1)
        try:
            assert ex.start_method in ("fork", "spawn", "forkserver")
        finally:
            ex.close()


class TestRunModeRegistry:
    def test_executor_mode_registered(self):
        assert "executor" in run_mode_names()
        assert "executor" in DEFAULT_MODES

    def test_differential_clean_over_fuzz_seeds(self):
        seeds = int(os.environ.get("EXEC_DIFF_SEEDS", "10"))
        for seed in range(seeds):
            case = generate_case(seed)
            diffs = check_differential(
                lambda case=case: case.source,
                modes=("serial", "executor"),
            )
            assert diffs == [], f"seed {seed}: {diffs}"
