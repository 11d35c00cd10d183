"""Tests for the sharded multi-node analysis tier (``repro.cluster``).

The cluster-grade contract: a coordinated run over N worker daemons —
real HTTP, real sockets, real failure injection — must produce a
:class:`CheckReport` bit-for-bit identical to single-node serial
analysis, with or without nodes dying mid-run, and the merge must be
invariant under any shard result arrival order.
"""

import os
import threading
import time

import pytest

from tests.cluster_harness import ClusterHarness
from repro.cluster import ClusterCoordinator, HashRing, ShardClient
from repro.core.engine import (
    OFenceEngine,
    run_in_mode,
    run_mode_names,
)
from repro.corpus import CorpusSpec, generate_corpus
from repro.fuzz.differential import (
    DEFAULT_MODES,
    check_differential,
    run_signature,
)
from repro.fuzz.generate import generate_case
from repro.serve.client import ClientError, ServeClient
from repro.serve.server import ServeError
from repro.serve.shard import ShardService


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec.small(), seed=31)


@pytest.fixture(scope="module")
def serial_signature(corpus):
    return run_signature(OFenceEngine(corpus.source).analyze())


class TestHashRing:
    def test_assignment_is_deterministic(self):
        nodes = ["http://a:1", "http://b:2", "http://c:3"]
        keys = [f"drivers/net/file{i}.c" for i in range(200)]
        first = HashRing(nodes).assign(keys)
        second = HashRing(list(reversed(nodes))).assign(keys)
        assert {k: set(v) for k, v in first.items()} == \
            {k: set(v) for k, v in second.items()}

    def test_every_key_is_owned(self):
        ring = HashRing(["http://a:1", "http://b:2"])
        keys = [f"f{i}.c" for i in range(100)]
        groups = ring.assign(keys)
        assert sorted(k for paths in groups.values() for k in paths) == \
            sorted(keys)

    def test_node_loss_moves_only_the_lost_nodes_files(self):
        nodes = ["http://a:1", "http://b:2", "http://c:3"]
        ring = HashRing(nodes)
        keys = [f"kernel/sched/file{i}.c" for i in range(300)]
        before = {key: ring.node_for(key) for key in keys}
        live = {"http://a:1", "http://c:3"}
        for key in keys:
            after = ring.node_for(key, live)
            if before[key] != "http://b:2":
                assert after == before[key]
            else:
                assert after in live

    def test_empty_live_set_and_empty_nodes(self):
        ring = HashRing(["http://a:1"])
        assert ring.node_for("x.c", set()) is None
        with pytest.raises(ValueError):
            HashRing([])


class TestParity:
    def test_three_node_cluster_matches_serial_bit_for_bit(
        self, corpus, serial_signature
    ):
        with ClusterHarness(nodes=3) as harness:
            result = harness.coordinator.analyze(corpus.source)
        assert run_signature(result) == serial_signature

    def test_every_stage_actually_crossed_the_wire(self, corpus):
        with ClusterHarness(nodes=3) as harness:
            result = harness.coordinator.analyze(corpus.source)
            snap = harness.executor.snapshot()
        counters = result.profile.counters
        assert counters.get("exec.dispatched", 0) > 0
        assert counters.get("pair.shards", 0) > 0
        assert counters.get("check.shards", 0) > 0
        assert snap["rpcs"] >= 3  # scan + cand + check at minimum
        assert snap["scan_files_lost"] == 0
        assert snap["scan_duplicates"] == 0

    def test_warm_rerun_matches_and_hits_node_caches(
        self, corpus, serial_signature
    ):
        with ClusterHarness(nodes=2) as harness:
            harness.coordinator.analyze(corpus.source)
            result = harness.coordinator.analyze(corpus.source)
            shard_snaps = [
                ServeClient(url).metrics()["shard"]
                for url in harness.urls
            ]
        assert run_signature(result) == serial_signature
        assert sum(s["scan_warm_hits"] for s in shard_snaps) > 0

    def test_single_node_cluster_matches(self, corpus, serial_signature):
        with ClusterHarness(nodes=1) as harness:
            result = harness.coordinator.analyze(corpus.source)
        assert run_signature(result) == serial_signature


class TestFailover:
    def test_node_killed_mid_run_recovers_bit_for_bit(
        self, corpus, serial_signature
    ):
        with ClusterHarness(nodes=3) as harness:
            killed = threading.Event()

            def kill_first(url: str) -> None:
                if url == harness.urls[0] and not killed.is_set():
                    killed.set()
                    harness.kill(0)

            harness.executor.on_scan_payload = kill_first
            result = harness.coordinator.analyze(corpus.source)
            snap = harness.executor.snapshot()
        assert killed.is_set(), "kill hook never fired"
        assert run_signature(result) == serial_signature
        assert snap["nodes_up"] == 2
        assert snap["node_failures"] == 1
        assert snap["redispatches"] >= 1

    def test_node_dead_before_run_is_routed_around(
        self, corpus, serial_signature
    ):
        with ClusterHarness(nodes=3) as harness:
            harness.kill(1)
            harness.coordinator.probe()
            result = harness.coordinator.analyze(corpus.source)
            snap = harness.executor.snapshot()
        assert run_signature(result) == serial_signature
        assert snap["nodes_up"] == 2

    def test_all_nodes_down_falls_back_to_serial(
        self, corpus, serial_signature
    ):
        with ClusterHarness(nodes=2) as harness:
            for index in (0, 1):
                harness.kill(index)
            result = harness.coordinator.analyze(corpus.source)
            snap = harness.executor.snapshot()
        assert run_signature(result) == serial_signature
        assert snap["nodes_up"] == 0

    def test_probe_revives_a_node_that_came_back(self, corpus):
        with ClusterHarness(nodes=2) as harness:
            executor = harness.executor
            executor._mark_down(executor._nodes[1])
            assert executor.snapshot()["nodes_up"] == 1
            status = harness.coordinator.probe()
            assert all(status.values())
            assert executor.snapshot()["nodes_up"] == 2
            assert executor.snapshot()["nodes_revived"] == 1


class TestMergeDeterminism:
    """Satellite: shard arrival order must not affect the report."""

    def test_any_arrival_order_yields_identical_report(self):
        case = generate_case(7)
        reference = run_signature(run_in_mode("serial", case.source))
        permutations = [
            (0.0, 0.0, 0.0),
            (0.05, 0.0, 0.0),
            (0.0, 0.05, 0.0),
            (0.0, 0.0, 0.05),
            (0.05, 0.025, 0.0),
        ]
        for delays in permutations:
            with ClusterHarness(nodes=3) as harness:
                node_delay = dict(zip(harness.urls, delays))

                def make_client(url, node_delay=node_delay):
                    return _SlowClient(url, delay=node_delay[url])

                coord = ClusterCoordinator(
                    harness.urls, client_factory=make_client
                )
                try:
                    result = coord.analyze(case.source)
                finally:
                    coord.close()
            assert run_signature(result) == reference, (
                f"merge diverged under node delays {delays}"
            )


class _SlowClient(ShardClient):
    """ShardClient whose responses land late: reorders shard arrival."""

    def __init__(self, base_url: str, delay: float = 0.0, **kwargs):
        super().__init__(base_url, **kwargs)
        self._delay = delay

    def _request(self, method, path, body=None):
        out = super()._request(method, path, body)
        if self._delay and path.startswith("/v1/shard/"):
            time.sleep(self._delay)
        return out


class TestShardService:
    def _service(self, **kwargs) -> ShardService:
        service = ShardService(**kwargs)
        service.handle("ctx", {
            "epoch": "e1", "defines": {}, "headers": {},
            "write_window": 5, "read_window": 50,
        })
        return service

    def test_unknown_epoch_answers_428(self):
        service = self._service()
        with pytest.raises(ServeError) as err:
            service.handle("scan", {"epoch": "other", "jobs": []})
        assert err.value.status == 428
        assert service.snapshot()["epoch_misses"] == 1

    def test_unknown_namespace_answers_409(self):
        service = self._service()
        with pytest.raises(ServeError) as err:
            service.handle("cand", {
                "epoch": "e1", "ns": "nope",
                "token": [1, False, False, True, True], "refs": [],
            })
        assert err.value.status == 409
        assert service.snapshot()["ns_misses"] == 1

    def test_draining_node_sheds_shard_traffic_with_503(self):
        service = ShardService(accepting=lambda: False)
        with pytest.raises(ServeError) as err:
            service.handle("ctx", {"epoch": "e1"})
        assert err.value.status == 503
        assert err.value.retry_after is not None
        assert service.snapshot()["rejected_draining"] == 1

    def test_admission_limit_answers_503_busy(self):
        service = self._service(max_inflight=1)
        service._slots.acquire()
        try:
            with pytest.raises(ServeError) as err:
                service.handle("scan", {"epoch": "e1", "jobs": []})
            assert err.value.status == 503
            assert service.snapshot()["rejected_busy"] == 1
        finally:
            service._slots.release()


class TestClientRetry:
    """Satellite: connection resets back off like 503s do."""

    def _client(self) -> ServeClient:
        return ServeClient("http://127.0.0.1:9")

    def test_connection_reset_backs_off_and_retries(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        calls = {"n": 0}

        def submit():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionResetError("peer reset")
            return {"status": "done"}

        out = self._client().submit_with_retry(submit)
        assert out == {"status": "done"}
        assert calls["n"] == 3
        assert sleeps == [0.25, 0.5]

    def test_reset_after_503_honours_the_retry_after_hint(
        self, monkeypatch
    ):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        responses = [
            ClientError(503, "busy", retry_after=2.5),
            ConnectionResetError("peer reset"),
        ]

        def submit():
            if responses:
                raise responses.pop(0)
            return {"status": "done"}

        out = self._client().submit_with_retry(submit)
        assert out == {"status": "done"}
        assert sleeps == [2.5, 2.5]

    def test_exhausted_retries_raise_the_last_error(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)

        def submit():
            raise ConnectionRefusedError("down for good")

        with pytest.raises(ConnectionRefusedError):
            self._client().submit_with_retry(submit, attempts=3)

    def test_non_503_http_errors_raise_immediately(self):
        calls = {"n": 0}

        def submit():
            calls["n"] += 1
            raise ClientError(400, "bad request")

        with pytest.raises(ClientError):
            self._client().submit_with_retry(submit)
        assert calls["n"] == 1


class TestRunMode:
    def test_cluster_mode_is_registered(self):
        assert "cluster" in run_mode_names()
        assert "cluster" in DEFAULT_MODES

    def test_differential_clean_over_fuzz_seeds(self):
        seeds = int(os.environ.get("CLUSTER_DIFF_SEEDS", "3"))
        for seed in range(seeds):
            case = generate_case(seed)
            diffs = check_differential(
                lambda case=case: case.source,
                modes=("serial", "cluster"),
            )
            assert diffs == [], f"seed {seed}: {diffs}"


class TestMetrics:
    def test_coordinator_metrics_expose_the_cluster_group(self, corpus):
        with ClusterHarness(nodes=2) as harness:
            server = harness.coordinator.make_server()
            server.start()
            try:
                client = ServeClient(server.url)
                client.analyze(corpus.source, wait=True)
                snap = client.metrics()
                text = client.metrics_text()
            finally:
                server.stop()
        cluster = snap["cluster"]
        assert cluster["nodes"] == 2
        assert cluster["rpcs"] > 0
        assert cluster["merge_seconds"] >= 0
        assert set(cluster["per_node"]) == set(harness.urls)
        assert "ofence_cluster_rpcs" in text
        assert "ofence_cluster_per_node_rpcs" in text

    def test_merge_seconds_is_every_stage_but_scan(self, corpus):
        with ClusterHarness(nodes=2) as harness:
            result = harness.coordinator.analyze(corpus.source)
            merged = harness.executor.stats.merge_seconds
        assert "fingerprint" in result.stage_seconds
        assert merged == sum(
            seconds for name, seconds in result.stage_seconds.items()
            if name != "scan"
        )

    def test_node_metrics_expose_the_shard_group(self, corpus):
        with ClusterHarness(nodes=2) as harness:
            harness.coordinator.analyze(corpus.source)
            client = ServeClient(harness.urls[0])
            snap = client.metrics()
            text = client.metrics_text()
        assert snap["shard"]["ops"] > 0
        assert "ofence_shard_scan_files" in text
