"""Checker registry tests: metadata consistency, the acquire-release
checker (registered, never special-cased), cross-tier dispatch parity
for random checker subsets, and the cluster node tag on shard checker
failures.
"""

import random

import pytest

from tests.cluster_harness import ClusterHarness

from repro.checkers import registry
from repro.checkers.model import DeviationKind, FixAction
from repro.checkers.runner import ALL_CHECKS, CheckerSuite
from repro.core.engine import (
    AnalysisOptions,
    KernelSource,
    OFenceEngine,
    run_in_mode,
)
from repro.fuzz.differential import check_differential
from repro.fuzz.generate import generate_case

#: Publish-before-init: payload written after its smp_store_release.
BUGGY_ACQREL = """\
struct pub { int payload; int ready; };

void w(struct pub *p)
{
\tsmp_store_release(&p->ready, 1);
\tp->payload = 1;
}

int r(struct pub *p)
{
\tif (!smp_load_acquire(&p->ready))
\t\treturn 0;
\tconsume(p->payload);
\treturn 1;
}
"""

CORRECT_ACQREL = """\
struct pub { int payload; int ready; };

void w(struct pub *p)
{
\tp->payload = 1;
\tsmp_store_release(&p->ready, 1);
}

int r(struct pub *p)
{
\tif (!smp_load_acquire(&p->ready))
\t\treturn 0;
\tconsume(p->payload);
\treturn 1;
}
"""

#: One instance of every bug family plus correct background — enough
#: pairings that every dispatch tier actually shards.
_PROPERTY_PATTERNS = [
    "misplaced_pair", "reread_cross_pair", "wrong_type_group",
    "seqcount_bug_group", "unneeded_wakeup", "acqrel_publish_pair",
    "correct_pair", "correct_pair_acqrel", "solitary_pattern",
]


def _analyze(text: str, **options):
    source = KernelSource(files={"a.c": text})
    return OFenceEngine(source, AnalysisOptions(**options)).analyze()


class TestRegistryConsistency:
    def test_all_checks_derive_from_registry(self):
        assert set(ALL_CHECKS) == set(registry.all_names())
        assert "acquire-release" in ALL_CHECKS

    def test_run_order_honours_after_constraints(self):
        specs = registry.ordered_specs()
        position = {spec.name: i for i, spec in enumerate(specs)}
        for spec in specs:
            for earlier in spec.after:
                assert position[earlier] < position[spec.name]

    def test_shardable_specs_are_ordering_bucket(self):
        for spec in registry.shardable_specs():
            assert spec.bucket == registry.ORDERING
        names = [spec.name for spec in registry.shardable_specs()]
        assert "acquire-release" in names

    def test_kind_ownership(self):
        assert registry.checker_for_kind(
            DeviationKind.PUBLISH_BEFORE_INIT
        ) == "acquire-release"
        assert registry.checker_for_kind(
            DeviationKind.REPEATED_READ
        ) == "reread"

    def test_validate_checks_lists_valid_names_sorted(self):
        with pytest.raises(ValueError) as excinfo:
            registry.validate_checks({"misplaced", "nope"})
        message = str(excinfo.value)
        assert "nope" in message
        assert ", ".join(sorted(registry.all_names())) in message

    def test_duplicate_registration_rejected(self):
        spec = registry.get("misplaced")
        with pytest.raises(registry.RegistrationError):
            registry.register(spec)

    def test_corpus_global_ordering_checker_rejected(self):
        # The check memo reuses ordering output per pairing.
        import dataclasses

        spec = dataclasses.replace(
            registry.get("misplaced"), name="global-misplaced",
            inputs=registry.INPUT_CORPUS,
        )
        with pytest.raises(registry.RegistrationError, match="per-pairing"):
            registry.register(spec)
        assert "global-misplaced" not in registry.all_names()

    def test_table3_buckets_derive_from_kinds(self):
        buckets = registry.table3_buckets()
        assert buckets == tuple(sorted(buckets))
        assert "Misplaced memory access" in buckets

    def test_suite_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown checks"):
            CheckerSuite(checks={"bogus"})


class TestAcquireReleaseChecker:
    def test_flags_publish_before_init(self):
        result = _analyze(BUGGY_ACQREL)
        findings = [
            f for f in result.report.ordering_findings
            if f.kind is DeviationKind.PUBLISH_BEFORE_INIT
        ]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.function == "w"
        assert finding.object_key.field == "payload"
        assert finding.fix_action is FixAction.MOVE_WRITE

    def test_patch_hoists_the_write_before_the_release(self):
        result = _analyze(BUGGY_ACQREL)
        patches = [
            p for p in result.patches
            if p.finding.kind is DeviationKind.PUBLISH_BEFORE_INIT
        ]
        assert len(patches) == 1
        diff = patches[0].render()
        assert "+\tp->payload = 1;" in diff
        assert "-\tp->payload = 1;" in diff

    def test_correct_publication_is_clean(self):
        result = _analyze(CORRECT_ACQREL)
        assert result.report.ordering_findings == []

    def test_claims_suppress_misplaced_on_the_same_object(self):
        # The flagged payload write is claimed, so the misplaced checker
        # must not also propose moving the reader's payload access.
        result = _analyze(BUGGY_ACQREL)
        misplaced = [
            f for f in result.report.ordering_findings
            if f.kind is DeviationKind.MISPLACED_ACCESS
            and f.object_key is not None
            and f.object_key.field == "payload"
        ]
        assert misplaced == []

    def test_disabling_the_checker_drops_only_its_kind(self):
        enabled = frozenset(registry.all_names()) - {"acquire-release"}
        result = _analyze(BUGGY_ACQREL, checks=enabled)
        kinds = {f.kind for f in result.report.all_findings}
        assert DeviationKind.PUBLISH_BEFORE_INIT not in kinds


class TestSubsetDispatchParity:
    """Satellite: random checker subsets are mode-independent."""

    @pytest.mark.parametrize("seed", [11, 29])
    def test_serial_executor_cluster_byte_identical(self, seed):
        rng = random.Random(seed)
        names = sorted(registry.all_names())
        subset = frozenset(rng.sample(names, rng.randint(1, len(names))))
        case = generate_case(
            seed, allow_mutants=False, force_patterns=_PROPERTY_PATTERNS
        )
        options = AnalysisOptions(checks=subset, exec_min_batch=1)
        problems = check_differential(
            lambda: case.source,
            modes=("serial", "executor", "cluster"),
            options=options,
        )
        assert problems == [], f"subset {sorted(subset)}: {problems}"

    def test_disabled_checker_removes_exactly_its_kinds(self):
        case = generate_case(
            7, allow_mutants=False, force_patterns=_PROPERTY_PATTERNS
        )
        declared_by = {}
        for name in registry.all_names():
            for kind in registry.get(name).kinds:
                declared_by.setdefault(kind, set()).add(name)
        for name in sorted(registry.all_names()):
            enabled = frozenset(registry.all_names()) - {name}
            result = run_in_mode(
                "serial", case.source, AnalysisOptions(checks=enabled)
            )
            kinds = {f.kind for f in result.report.all_findings}
            # Kinds only this checker declares must vanish; everything
            # still emitted must come from an enabled spec.
            for kind, owners in declared_by.items():
                if owners == {name}:
                    assert kind not in kinds, (name, kind)
            for kind in kinds:
                assert declared_by[kind] & enabled, (name, kind)


class TestClusterCheckerFailureNodeTag:
    """Satellite: a checkerfail in a cluster shard keeps its node."""

    def test_shard_checkerfail_surfaces_with_node_label(self, monkeypatch):
        from repro.checkers.seqcount import SeqcountChecker

        def explode(self, pairings):
            raise RuntimeError("synthetic shard crash")

        monkeypatch.setattr(SeqcountChecker, "check", explode)
        source = KernelSource(files={"a.c": BUGGY_ACQREL})
        with ClusterHarness(nodes=2) as harness:
            result = harness.coordinator.analyze(source)
        failures = [
            f for f in result.report.checker_failures
            if f.checker == "seqcount"
        ]
        assert len(failures) == 1
        failure = failures[0]
        assert "synthetic shard crash" in failure.error
        assert failure.node in harness.urls
        # The label is context, not outcome: describe() must stay
        # mode-independent so run signatures keep matching serial.
        assert failure.node not in failure.describe()

    def test_serial_failure_has_no_node(self, monkeypatch):
        from repro.checkers.seqcount import SeqcountChecker

        def explode(self, pairings):
            raise RuntimeError("synthetic serial crash")

        monkeypatch.setattr(SeqcountChecker, "check", explode)
        result = _analyze(BUGGY_ACQREL)
        failures = [
            f for f in result.report.checker_failures
            if f.checker == "seqcount"
        ]
        assert len(failures) == 1
        assert failures[0].node == ""
