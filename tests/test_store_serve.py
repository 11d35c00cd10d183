"""Serve integration tests for the findings store.

Contract tests for the /v1/runs, /v1/findings, and triage endpoints,
the ``ofence_store_*`` metrics in both JSON and Prometheus output, and
the cross-tier determinism guarantee: `repro diff` between two recorded
runs is bit-for-bit identical whether the runs were recorded via the
CLI path or the serve daemon.
"""

import json

import pytest

from repro.core.engine import KernelSource, OFenceEngine
from repro.serve import AnalysisServer, ClientError, ServeClient
from repro.store import FindingsStore

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
BUGGY_READER = READER.replace(
    "\tif (!p->flag) return;\n\tsmp_rmb();",
    "\tsmp_rmb();\n\tif (!p->flag) return;",
)


def tree_a() -> KernelSource:
    return KernelSource(files={"w.c": WRITER, "r.c": READER})


def tree_b() -> KernelSource:
    return KernelSource(files={"w.c": WRITER, "r.c": BUGGY_READER})


@pytest.fixture
def server(tmp_path):
    with AnalysisServer(store_dir=str(tmp_path / "store")) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServeClient(server.url)


class TestServeEndpoints:
    def test_analyze_auto_persists_run(self, client):
        out = client.analyze(tree_a())
        assert out["status"] == "done"
        assert out["result"]["fingerprints"]
        runs = client.runs()["runs"]
        assert len(runs) == 1
        assert runs[0]["source"] == "serve:analyze"
        assert runs[0]["finding_count"] == \
            len(out["result"]["fingerprints"])
        assert runs[0]["tree_hash"] == out["tree_key"]

    def test_reanalyze_auto_persists_run(self, client):
        first = client.analyze(tree_a())
        client.reanalyze(first["tree_key"],
                         [("r.c", BUGGY_READER)])
        runs = client.runs()["runs"]
        assert [run["source"] for run in runs] == \
            ["serve:analyze", "serve:reanalyze"]
        diff = client.run_diff(runs[0]["id"], runs[1]["id"])
        assert diff["counts"]["new"] >= 1

    def test_runs_limit_and_single_run(self, client):
        client.analyze(tree_a())
        client.analyze(tree_b())
        assert len(client.runs(limit=1)["runs"]) == 1
        run = client.run(2)
        assert run["id"] == 2
        with pytest.raises(ClientError) as err:
            client.run(42)
        assert err.value.status == 404

    def test_post_runs_records_prebuilt_records(self, client):
        out = client.record_run({
            "tree_hash": "abc", "source": "script",
            "records": [{
                "fingerprint": "feedc0de00000000",
                "kind": "missing-barrier", "file": "x.c",
                "function": "g", "line": 4, "explanation": "planted",
            }],
        })
        assert out["new_fingerprints"] == ["feedc0de00000000"]
        assert out["run"]["source"] == "script"
        findings = client.findings()["findings"]
        assert findings[0]["fingerprint"] == "feedc0de00000000"

    def test_post_runs_validates_payload(self, client):
        with pytest.raises(ClientError) as err:
            client.record_run({"tree_hash": "abc"})
        assert err.value.status == 400
        with pytest.raises(ClientError) as err:
            client.record_run({"records": [{"kind": "x"}]})
        assert err.value.status == 400

    def test_findings_filters_and_triage_flow(self, client):
        client.analyze(tree_a())
        findings = client.findings()["findings"]
        assert findings and all(f["state"] == "open" for f in findings)
        fp = findings[0]["fingerprint"]

        updated = client.triage(fp, "false-positive", note="noise")
        assert updated["state"] == "false-positive"
        assert updated["note"] == "noise"

        by_state = client.findings(state="false-positive")["findings"]
        assert [f["fingerprint"] for f in by_state] == [fp]
        suppressed = client.findings(suppress=True)["findings"]
        assert fp not in [f["fingerprint"] for f in suppressed]
        assert len(suppressed) == len(findings) - 1
        by_checker = client.findings(
            checker=findings[0]["kind"]
        )["findings"]
        assert fp in [f["fingerprint"] for f in by_checker]

    def test_triage_error_mapping(self, client):
        client.analyze(tree_a())
        fp = client.findings()["findings"][0]["fingerprint"]
        with pytest.raises(ClientError) as err:
            client.triage(fp, "bogus")
        assert err.value.status == 400
        with pytest.raises(ClientError) as err:
            client.triage("0000000000000000", "confirmed")
        assert err.value.status == 404
        with pytest.raises(ClientError) as err:
            client.triage(fp, "")
        assert err.value.status == 400

    def test_invalid_state_filter_is_400(self, client):
        client.analyze(tree_a())
        with pytest.raises(ClientError) as err:
            client.findings(state="bogus")
        assert err.value.status == 400

    def test_diff_endpoint_errors(self, client):
        client.analyze(tree_a())
        with pytest.raises(ClientError) as err:
            client.run_diff(1, 5)
        assert err.value.status == 404
        with pytest.raises(ClientError) as err:
            client._request("GET", "/v1/runs/not-a-number")
        assert err.value.status == 400

    def test_store_metrics_json_and_prometheus(self, client):
        client.analyze(tree_a())
        client.analyze(tree_a())
        fp = client.findings()["findings"][0]["fingerprint"]
        client.triage(fp, "confirmed")

        snapshot = client.metrics()
        store = snapshot["store"]
        assert store["runs"] == 2
        assert store["findings_confirmed"] == 1
        assert store["dedup_hits"] > 0
        assert store["dedup_hit_rate"] == pytest.approx(0.5)

        text = client.metrics_text()
        lines = {
            line.split(" ")[0]: line.split(" ")[1]
            for line in text.splitlines()
            if line.startswith("ofence_store_")
        }
        assert lines["ofence_store_runs"] == "2"
        assert lines["ofence_store_findings_confirmed"] == "1"
        assert "ofence_store_dedup_hit_rate" in lines

    def test_no_store_configured_is_404(self):
        with AnalysisServer() as bare:
            client = ServeClient(bare.url)
            for call in (
                lambda: client.runs(),
                lambda: client.findings(),
                lambda: client.run_diff(1, 2),
                lambda: client.triage("aa", "confirmed"),
            ):
                with pytest.raises(ClientError) as err:
                    call()
                assert err.value.status == 404
            assert "store" not in client.metrics()


class TestCrossTierDeterminism:
    def test_cli_serve_diffs_are_bit_identical(self, tmp_path):
        """The same two revisions recorded through both tiers must
        produce byte-identical ``repro diff`` output."""
        diffs: list[str] = []

        # CLI tier: direct engine + FindingsStore.record_run.
        with FindingsStore(tmp_path / "cli") as store:
            store.record_run(
                OFenceEngine(tree_a()).analyze(), tree_hash="rev-a",
                source="cli",
            )
            store.record_run(
                OFenceEngine(tree_b()).analyze(), tree_hash="rev-b",
                source="cli",
            )
            diffs.append(store.diff(1, 2).to_json())

        # Serve tier: submissions over HTTP, auto-persisted.
        with AnalysisServer(store_dir=str(tmp_path / "serve")) as srv:
            client = ServeClient(srv.url)
            client.analyze(tree_a())
            client.analyze(tree_b())
            diffs.append(
                json.dumps(client.run_diff(1, 2), sort_keys=True,
                           indent=2) + "\n"
            )

        assert diffs[0] == diffs[1]
        payload = json.loads(diffs[0])
        assert payload["counts"]["new"] >= 1

    def test_concurrent_serve_workers_share_one_store(self, tmp_path):
        """Two job workers recording into the same store directory must
        not corrupt it (single-writer transaction per run)."""
        with AnalysisServer(
            store_dir=str(tmp_path / "store"), workers=2
        ) as srv:
            client = ServeClient(srv.url)
            pending = []
            for i in range(6):
                # Distinct trees so every submission is a separate job.
                files = {
                    "w.c": WRITER,
                    "r.c": READER.replace("void r(", f"void r{i}("),
                }
                pending.append(client.analyze(
                    KernelSource(files=files), wait=False
                )["job_id"])
            for job_id in pending:
                out = client.job(job_id, wait=True, timeout=120)
                assert out["status"] == "done", out
            runs = client.runs()["runs"]
            assert len(runs) == 6
            counts = [run["finding_count"] for run in runs]
            assert all(count == counts[0] for count in counts)
