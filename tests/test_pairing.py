"""Unit tests for Algorithm 1 (barrier pairing)."""

from repro.analysis.accesses import ObjectKey
from repro.analysis.barrier_scan import BarrierScanner
from repro.cparse.parser import parse_source
from repro.pairing.algorithm import PairingEngine


def pair_sources(*named_sources):
    """Scan several (filename, source) pairs and pair globally."""
    sites = []
    for filename, source in named_sources:
        unit = parse_source(source, filename)
        sites.extend(BarrierScanner(unit, filename=filename).scan())
    return PairingEngine(sites).pair(), sites


class TestBasicPairing:
    def test_listing1_pairs(self, listing1, analyze):
        result = analyze(listing1).pair()
        (pairing,) = result.pairings
        functions = {fn for _, fn in pairing.functions}
        assert functions == {"reader", "writer"}
        assert set(pairing.common_objects) == {
            ObjectKey("my_struct", "init"), ObjectKey("my_struct", "y"),
        }

    def test_pairing_weight_is_distance_product(self, listing1, analyze):
        result = analyze(listing1).pair()
        (pairing,) = result.pairings
        # writer distances 1 and 1; reader: init at 2, y at 1 -> 1*1*2*1.
        assert pairing.weight == 2.0

    def test_single_common_object_does_not_pair(self, analyze):
        src = """
        struct s { int only; };
        void w(struct s *p) { p->only = 1; smp_wmb(); p->other_local = 2; }
        void r(struct s *p) { smp_rmb(); g(p->only); }
        """
        result = analyze(src).pair()
        assert result.pairings == []

    def test_unordered_objects_do_not_pair(self, analyze):
        # Both objects on the same side of both barriers: no ordering.
        src = """
        struct s { int a; int b; };
        void w(struct s *p) { p->a = 1; p->b = 2; smp_wmb(); }
        void r(struct s *p) { g(p->a); h(p->b); smp_rmb(); }
        """
        result = analyze(src).pair()
        assert result.pairings == []

    def test_one_side_ordering_suffices(self, analyze):
        # The writer orders the objects even though the reader does not.
        src = """
        struct s { int a; int b; };
        void w(struct s *p) { p->a = 1; smp_wmb(); p->b = 2; }
        void r(struct s *p) { g(p->a); h(p->b); smp_rmb(); }
        """
        result = analyze(src).pair()
        assert len(result.pairings) == 1

    def test_cross_file_pairing(self):
        header = "struct shared { int flag; int data; };"
        writer = header + """
        void w(struct shared *p) { p->data = 1; smp_wmb(); p->flag = 1; }
        """
        reader = header + """
        void r(struct shared *p) {
            if (!p->flag) return;
            smp_rmb();
            g(p->data);
        }
        """
        result, _ = pair_sources(("w.c", writer), ("r.c", reader))
        (pairing,) = result.pairings
        files = {f for f, _ in pairing.functions}
        assert files == {"w.c", "r.c"}

    def test_unresolved_keys_excluded_by_default(self, analyze):
        src = """
        void w(void *p) { p->data = 1; smp_wmb(); p->flag = 1; }
        void r(void *p) { g(p->flag); smp_rmb(); g(p->data); }
        """
        result = analyze(src).pair()
        assert result.pairings == []

    def test_same_function_barriers_do_not_pair_with_each_other(self, analyze):
        src = """
        struct s { int a; int b; };
        void f(struct s *p) {
            p->a = 1;
            smp_wmb();
            p->b = 1;
            g(p->a);
            smp_rmb();
            g(p->b);
        }
        """
        result = analyze(src).pair()
        assert result.pairings == []


class TestWeightSelection:
    def test_closest_candidate_wins(self):
        header = "struct s { int flag; int data; };"
        writer = header + """
        void w(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }
        """
        near = header + """
        void near_reader(struct s *p) {
            if (!p->flag) return;
            smp_rmb();
            g(p->data);
        }
        """
        far = header + """
        void far_reader(struct s *p) {
            if (!p->flag) return;
            pad1(); pad2(); pad3(); pad4();
            smp_rmb();
            pad5(); pad6(); pad7();
            g(p->data);
        }
        """
        result, _ = pair_sources(("w.c", writer), ("n.c", near), ("f.c", far))
        primary = result.pairings[0]
        assert primary.primary_match.function == "near_reader"

    def test_conflicting_pairings_keep_lowest_weight(self):
        # Two writers compete for one reader; the closer writer wins the
        # direct pairing (the other joins via the multi extension if its
        # window contains the common objects).
        header = "struct s { int flag; int data; };"
        w1 = header + """
        void tight_writer(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }
        """
        w2 = header + """
        void loose_writer(struct s *p) {
            p->data = 1;
            pad1(); pad2(); pad3();
            smp_wmb();
            p->flag = 1;
        }
        """
        reader = header + """
        void r(struct s *p) {
            if (!p->flag) return;
            smp_rmb();
            g(p->data);
        }
        """
        result, _ = pair_sources(("w1.c", w1), ("w2.c", w2), ("r.c", reader))
        assert result.pairings[0].writer.function == "tight_writer"


class TestMultiBarrier:
    SEQ = """
    struct cnt { unsigned seq; long bcnt; long pcnt; };
    void writer(struct cnt *s) {
        s->seq++;
        smp_wmb();
        s->bcnt += 1;
        s->pcnt += 1;
        smp_wmb();
        s->seq++;
    }
    long reader(struct cnt *s) {
        unsigned v;
        long b;
        long p;
        do {
            v = s->seq;
            smp_rmb();
            b = s->bcnt;
            p = s->pcnt;
            smp_rmb();
        } while (v != s->seq);
        return b + p;
    }
    """

    def test_seqcount_merges_into_one_pairing(self, analyze):
        result = analyze(self.SEQ).pair()
        (pairing,) = result.pairings
        assert pairing.is_multi
        assert len(pairing.barriers) == 4

    def test_extension_requires_all_common_objects(self):
        header = "struct s { int flag; int data; };"
        pair_src = header + """
        void w(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }
        void r(struct s *p) {
            if (!p->flag) return;
            smp_rmb();
            g(p->data);
        }
        """
        partial = header + """
        void partial(struct s *p) { g(p->flag); smp_rmb(); }
        """
        result, _ = pair_sources(("a.c", pair_src), ("b.c", partial))
        (pairing,) = result.pairings
        assert not pairing.is_multi  # partial lacks 'data'

    def test_third_function_with_all_objects_joins(self):
        header = "struct s { int flag; int data; };"
        pair_src = header + """
        void w(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }
        void r(struct s *p) {
            if (!p->flag) return;
            smp_rmb();
            g(p->data);
        }
        """
        extra = header + """
        void r2(struct s *p) {
            if (!p->flag) return;
            smp_rmb();
            h(p->data);
        }
        """
        result, _ = pair_sources(("a.c", pair_src), ("b.c", extra))
        (pairing,) = result.pairings
        assert len(pairing.barriers) == 3


class TestImplicitIPC:
    def test_wakeup_closer_than_objects_defers_pairing(self):
        header = "struct s { int flag; int data; };"
        # The writer's wake-up call sits closer to the barrier than any
        # shared object, so the IPC is the implicit read barrier (§4.2).
        writer = header + """
        void w(struct s *p) {
            p->data = 1;
            p->flag = 1;
            pad();
            smp_wmb();
            wake_up(q);
            g(p->flag);
            h(p->data);
        }
        """
        reader = header + """
        void r(struct s *p) {
            if (!p->flag) return;
            smp_rmb();
            g(p->data);
        }
        """
        result, _ = pair_sources(("w.c", writer), ("r.c", reader))
        assert [s.function for s in result.implicit_ipc] == ["w"]

    def test_wakeup_without_candidate_is_implicit_ipc(self, analyze):
        src = """
        struct s { int a; };
        void w(struct s *p) { p->a = 1; smp_wmb(); wake_up(q); }
        """
        result = analyze(src).pair()
        assert len(result.implicit_ipc) == 1
        assert result.unpaired == []

    def test_objects_closer_than_wakeup_still_pair(self):
        header = "struct s { int flag; int data; };"
        writer = header + """
        void w(struct s *p) {
            p->data = 1;
            smp_wmb();
            p->flag = 1;
            wake_up(q);
        }
        """
        reader = header + """
        void r(struct s *p) {
            if (!p->flag) return;
            smp_rmb();
            g(p->data);
        }
        """
        result, _ = pair_sources(("w.c", writer), ("r.c", reader))
        assert len(result.pairings) == 1
        assert result.implicit_ipc == []


class TestResultAccounting:
    def test_coverage(self, listing1, analyze):
        result = analyze(listing1).pair()
        assert result.coverage(2) == 1.0
        assert result.coverage(4) == 0.5
        assert result.coverage(0) == 0.0

    def test_unpaired_barriers_listed(self, analyze):
        src = """
        struct s { int a; int b; };
        void lonely(struct s *p) { p->a = 1; smp_wmb(); p->b = 2; }
        """
        result = analyze(src).pair()
        assert [s.function for s in result.unpaired] == ["lonely"]

    def test_describe_mentions_objects(self, listing1, analyze):
        result = analyze(listing1).pair()
        text = result.pairings[0].describe()
        assert "my_struct" in text and "weight" in text


def _subsumed_dedupe_reference(pairings):
    """The quadratic dedupe ``_drop_subsumed`` replaced: each pairing,
    by weight, against every kept barrier-id set."""
    kept, kept_sets = [], []
    for pairing in sorted(pairings, key=lambda p: p.weight):
        ids = {b.barrier_id for b in pairing.barriers}
        if any(ids <= existing for existing in kept_sets):
            continue
        kept.append(pairing)
        kept_sets.append(ids)
    return kept


class TestSubsumptionDedupe:
    def test_indexed_dedupe_matches_the_quadratic_scan(self):
        import random

        from repro.analysis.barrier_scan import BarrierSite
        from repro.kernel.barriers import BarrierKind
        from repro.pairing.algorithm import _drop_subsumed
        from repro.pairing.model import Pairing

        rng = random.Random(0)
        for case in range(400):
            sites = [
                BarrierSite("f.c", f"fn{k}", k, k, "smp_mb", BarrierKind.FULL)
                for k in range(rng.randint(2, 12))
            ]
            pairings = []
            for _ in range(rng.randint(0, 25)):
                members = rng.sample(sites, rng.randint(2, len(sites)))
                # Few distinct weights, so ties keep their input order.
                pairings.append(Pairing(members, [], rng.randint(1, 4)))
            got = _drop_subsumed(pairings)
            want = _subsumed_dedupe_reference(pairings)
            assert [id(p) for p in got] == [id(p) for p in want], case
