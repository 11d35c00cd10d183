"""End-to-end reproduction of the paper's own listings and patches.

Each test encodes one code excerpt from the paper (lightly adapted to
self-contained form) and asserts OFence's published behaviour on it.
"""

import textwrap

from repro.checkers.model import DeviationKind
from repro.patching.generate import PatchGenerator


def run(analyzed, annotate=False):
    report = analyzed.check(annotate=annotate)
    generator = PatchGenerator(
        {analyzed.filename: analyzed.source}, analyzed.cfg_lookup
    )
    return report, generator.generate_all(report.all_findings)


class TestListing1:
    """Lockless initialization: the motivating correct pattern."""

    def test_pairing_and_no_findings(self, listing1, analyze):
        a = analyze(listing1)
        result = a.pair()
        assert len(result.pairings) == 1
        report = a.check()
        assert report.ordering_findings == []


class TestPatch1:
    """RPC: flag read after the barrier; the patch moves the guard."""

    SRC = textwrap.dedent("""\
    struct rpc_rqst { int priv_len; int reply_bytes_recd; int rcv_len; };
    void xprt_complete_rqst(struct rpc_rqst *req)
    {
    \treq->priv_len = 100;
    \tsmp_wmb();
    \treq->reply_bytes_recd = 1;
    }
    static void call_decode(struct rpc_rqst *req)
    {
    \tsmp_rmb();
    \tif (!req->reply_bytes_recd)
    \t\tgoto out;
    \treq->rcv_len = req->priv_len;
    out:
    \treturn;
    }
    """)

    def test_detection(self, analyze):
        report, _ = run(analyze(self.SRC, "net/sunrpc/xprt.c"))
        (finding,) = report.ordering_findings
        assert finding.kind is DeviationKind.MISPLACED_ACCESS
        assert finding.function == "call_decode"
        assert finding.object_key.field == "reply_bytes_recd"

    def test_patch_moves_guard_before_barrier(self, analyze):
        _, patches = run(analyze(self.SRC, "net/sunrpc/xprt.c"))
        (patch,) = patches
        new = patch.new_source
        assert new.index("if (!req->reply_bytes_recd)") < \
            new.index("smp_rmb();")
        assert new.index("goto out;") < new.index("smp_rmb();")


class TestPatch2:
    """perf events: racy re-read of event->ctx->task."""

    SRC = textwrap.dedent("""\
    struct perf_ctx { int task; int nr_file_filters; };
    void event_install(struct perf_ctx *ctx)
    {
    \tctx->nr_file_filters = 2;
    \tsmp_wmb();
    \tctx->task = 1;
    }
    static void perf_event_addr_filters_apply(struct perf_ctx *ctx)
    {
    \tint task = READ_ONCE(ctx->task);
    \tif (task == 0)
    \t\treturn;
    \tget_task_mm(ctx->task);
    \tsmp_rmb();
    \tconsume(ctx->nr_file_filters);
    }
    """)

    def test_detection_and_fix(self, analyze):
        report, patches = run(analyze(self.SRC, "kernel/events/core.c"))
        (finding,) = [
            f for f in report.ordering_findings
            if f.kind is DeviationKind.REPEATED_READ
        ]
        assert finding.object_key.field == "task"
        (patch,) = [
            p for p in patches
            if p.finding.kind is DeviationKind.REPEATED_READ
        ]
        assert "get_task_mm(task);" in patch.new_source


class TestPatch3:
    """reuseport: num_socks re-read on the wrong side of the barrier."""

    SRC = textwrap.dedent("""\
    struct sock_reuse { int socks; int num_socks; };
    int reuseport_add_sock(struct sock_reuse *reuse)
    {
    \treuse->socks = 1;
    \tsmp_wmb();
    \treuse->num_socks++;
    \treturn 0;
    }
    int reuseport_select_sock(struct sock_reuse *reuse)
    {
    \tint socks = reuse->num_socks;
    \tif (socks == 0)
    \t\treturn 0;
    \tsmp_rmb();
    \tuse(reuse->socks);
    \tpick(reuse->num_socks);
    \treturn socks;
    }
    """)

    def test_detection(self, analyze):
        report, _ = run(analyze(self.SRC, "net/core/sock_reuseport.c"))
        rereads = [
            f for f in report.ordering_findings
            if f.kind is DeviationKind.REPEATED_READ
        ]
        assert len(rereads) == 1
        assert rereads[0].object_key.field == "num_socks"

    def test_patch_reuses_previous_read(self, analyze):
        _, patches = run(analyze(self.SRC, "net/core/sock_reuseport.c"))
        (patch,) = [
            p for p in patches
            if p.finding.kind is DeviationKind.REPEATED_READ
        ]
        assert "pick(socks);" in patch.new_source
        assert "int socks = reuse->num_socks;" in patch.new_source


class TestPatch4:
    """rq_qos: smp_wmb before wake_up_process is unneeded."""

    SRC = textwrap.dedent("""\
    struct rq_wait { int got_token; int task; };
    static int rq_qos_wake_function(struct rq_wait *data)
    {
    \tdata->got_token = 1;
    \tsmp_wmb();
    \twake_up_process(data->task);
    \treturn 1;
    }
    """)

    def test_barrier_removed(self, analyze):
        report, patches = run(analyze(self.SRC, "block/blk-rq-qos.c"))
        (finding,) = report.unneeded_findings
        assert finding.kind is DeviationKind.UNNEEDED_BARRIER
        (patch,) = patches
        assert "smp_wmb" not in patch.new_source


class TestListing3:
    """ARP seqcount counters: four barriers pairing as duos."""

    SRC = textwrap.dedent("""\
    struct xt_counters { unsigned int recseq; long bcnt; long pcnt; };
    void do_add_counters(struct xt_counters *t)
    {
    \tt->recseq++;
    \tsmp_wmb();
    \tt->bcnt += 64;
    \tt->pcnt += 1;
    \tsmp_wmb();
    \tt->recseq++;
    }
    long get_counters(struct xt_counters *t)
    {
    \tunsigned int v;
    \tlong bcnt;
    \tlong pcnt;
    \tdo {
    \t\tv = t->recseq;
    \t\tsmp_rmb();
    \t\tbcnt = t->bcnt;
    \t\tpcnt = t->pcnt;
    \t\tsmp_rmb();
    \t} while (v != t->recseq);
    \treturn bcnt + pcnt;
    }
    """)

    def test_four_barriers_one_pairing(self, analyze):
        result = analyze(self.SRC, "net/ipv4/netfilter/arp_tables.c").pair()
        (pairing,) = result.pairings
        assert len(pairing.barriers) == 4

    def test_correct_duo_has_no_findings(self, analyze):
        report, _ = run(analyze(self.SRC, "net/ipv4/netfilter/arp_tables.c"))
        assert report.ordering_findings == []


class TestListing4:
    """bnx2x: by-design false positive (field written on both sides)."""

    SRC = textwrap.dedent("""\
    struct bnx2x { unsigned long sp_state; int mode; };
    void bnx2x_sp_event(struct bnx2x *bp)
    {
    \tbp->mode = 1;
    \tset_bit(0, &bp->sp_state);
    \tsmp_wmb();
    \tclear_bit(1, &bp->sp_state);
    }
    int bnx2x_sp_poll(struct bnx2x *bp)
    {
    \tif (!(bp->sp_state & 1))
    \t\treturn 0;
    \tsmp_rmb();
    \tconsume(bp->mode);
    \treturn 1;
    }
    """)

    def test_pairing_is_still_correct(self, analyze):
        result = analyze(self.SRC, "drivers/net/bnx2x.c").pair()
        assert len(result.pairings) == 1

    def test_false_positive_patch_produced(self, analyze):
        # The paper: "OFence produces a patch" for this pattern even
        # though the code is correct — the FP is easy to review.
        report, patches = run(analyze(self.SRC, "drivers/net/bnx2x.c"))
        assert any(
            f.object_key is not None and f.object_key.field == "sp_state"
            for f in report.ordering_findings
        )
        # The guard moves below the barrier as a unit, in source order.
        assert any(
            "\tsmp_rmb();\n\tif (!(bp->sp_state & 1))\n\t\treturn 0;\n"
            in (p.new_source or "") for p in patches
        )


class TestPatch5:
    """READ_ONCE/WRITE_ONCE annotation extension (§7)."""

    SRC = textwrap.dedent("""\
    struct poll_wq { int triggered; int armed; };
    static int pollwake(struct poll_wq *pwq)
    {
    \tpwq->armed = 1;
    \tsmp_wmb();
    \tpwq->triggered = 1;
    \treturn 0;
    }
    static int poll_schedule_timeout(struct poll_wq *pwq)
    {
    \tif (!pwq->triggered)
    \t\treturn 0;
    \tsmp_rmb();
    \tconsume(pwq->armed);
    \treturn 1;
    }
    """)

    def test_annotations_proposed_on_correct_pairing(self, analyze):
        report, patches = run(analyze(self.SRC, "fs/select.c"),
                              annotate=True)
        assert report.ordering_findings == []
        annotated = [p for p in patches if p.applied]
        sources = [p.new_source for p in annotated]
        assert any("WRITE_ONCE(pwq->triggered, 1);" in s for s in sources)
        assert any("READ_ONCE(pwq->triggered)" in s for s in sources)
