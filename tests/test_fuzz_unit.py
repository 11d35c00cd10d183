"""Unit tests for the fuzzing subsystem's own machinery.

The smoke test (``test_fuzz_smoke.py``) proves the pipeline survives
the fuzzer; these tests prove the fuzzer itself works — that its
oracles can *fail*, its reducer minimises, and the hardened engine
surfaces failures as data instead of exceptions.
"""

import pytest

from repro.core.engine import (
    AnalysisOptions,
    FileFailure,
    KernelSource,
    OFenceEngine,
    _RUN_MODES,
    get_run_mode,
    register_run_mode,
    run_in_mode,
    run_mode_names,
)
from repro.fuzz.differential import check_differential
from repro.fuzz.evaluate import evaluate
from repro.fuzz.generate import generate_case
from repro.fuzz.harness import crash_detail
from repro.fuzz.metamorphic import TRANSFORMS, check_metamorphic
from repro.fuzz.reduce import ddmin, reduce_case, write_artifact


class TestGenerator:
    def test_cases_analyze_cleanly(self):
        for seed in range(5):
            case = generate_case(seed)
            assert crash_detail(case.files, case.headers) is None, seed

    def test_generation_never_raises(self):
        # Regression: add_noise used to index chunks[-1] on files whose
        # chunk list stayed empty (seed 73 and ~0.8% of seeds).
        for seed in range(501):
            generate_case(seed)

    def test_truth_points_at_real_files_and_functions(self):
        case = generate_case(
            7, force_patterns=["misplaced_pair", "wrong_type_group"]
        )
        assert case.truth.bugs
        for bug in case.truth.bugs:
            assert bug.filename in case.files
            assert bug.function in case.files[bug.filename]

    def test_identifiers_collected_for_renaming(self):
        case = generate_case(3, force_patterns=["correct_pair"])
        assert case.identifiers
        text = "".join(case.files.values())
        for name in case.identifiers:
            assert name in text

    def test_forced_bug_is_detected(self):
        case = generate_case(11, force_patterns=["misplaced_pair"])
        result = run_in_mode("serial", case.source)
        (bug,) = case.truth.bugs
        assert any(bug.matches(f)
                   for f in result.report.ordering_findings)


class TestRunModes:
    def test_registry_contents(self):
        assert {"serial", "executor", "cached", "incremental"} <= \
            set(run_mode_names())

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown run mode"):
            get_run_mode("warp-speed")

    def test_modes_accept_options(self):
        case = generate_case(5)
        result = run_in_mode("executor", case.source,
                             AnalysisOptions(annotate=False))
        assert result.report.annotation_findings == []


class TestDifferentialOracle:
    def test_detects_a_lying_mode(self):
        """A mode that drops findings must be reported as divergent."""

        @register_run_mode("_test_lying")
        def lying(source, options=None):
            result = run_in_mode("serial", source, options)
            result.report.ordering_findings = []
            result.report.unneeded_findings = []
            return result

        try:
            case = generate_case(9, force_patterns=["misplaced_pair"])
            diffs = check_differential(
                lambda: case.source, modes=("serial", "_test_lying")
            )
            assert diffs
            assert any("_test_lying" in d for d in diffs)
        finally:
            _RUN_MODES.pop("_test_lying", None)

    def test_clean_on_identical_modes(self):
        case = generate_case(10)
        assert check_differential(
            lambda: case.source, modes=("serial", "serial")
        ) == []


class TestMetamorphicOracle:
    def test_transforms_change_the_text(self):
        import random

        case = generate_case(21, force_patterns=["correct_pair",
                                                 "misplaced_pair"])
        rng = random.Random(0)
        for name, transform in TRANSFORMS.items():
            transformed = transform(case, rng)
            assert transformed.files != case.files, name

    def test_rename_is_invertible(self):
        import random

        from repro.fuzz.metamorphic import transform_rename

        case = generate_case(22, force_patterns=["correct_pair"])
        transformed = transform_rename(case, random.Random(0))
        for new, old in transformed.rename_back.items():
            assert old in case.identifiers
            assert new in "".join(transformed.files.values())

    def test_detects_a_non_preserving_transform(self):
        """Dropping the write barrier is NOT semantics-preserving and
        must surface as a divergence — the oracle is not vacuous."""
        import random

        from repro.fuzz import metamorphic

        def barrier_dropper(case, rng):
            files = {
                path: text.replace("smp_wmb();", "")
                for path, text in case.files.items()
            }
            return metamorphic.TransformedCase("dropper", files,
                                               dict(case.headers))

        metamorphic.TRANSFORMS["_test_dropper"] = barrier_dropper
        try:
            case = generate_case(23, force_patterns=["misplaced_pair"])
            problems = check_metamorphic(
                case, random.Random(0), transforms=["_test_dropper"]
            )
            assert problems
        finally:
            metamorphic.TRANSFORMS.pop("_test_dropper", None)

    def test_acquire_release_findings_survive_all_transforms(self):
        """Publish-before-init findings (and their fingerprints, for the
        noise transforms) are invariant under every transform."""
        import random

        from repro.checkers.model import DeviationKind
        from repro.core.engine import run_in_mode

        case = generate_case(
            31, allow_mutants=False,
            force_patterns=["acqrel_publish_pair", "correct_pair_acqrel",
                            "correct_pair"],
        )
        base = run_in_mode("serial", case.source)
        assert any(
            f.kind is DeviationKind.PUBLISH_BEFORE_INIT
            for f in base.report.ordering_findings
        ), "the planted publish-before-init bug must be found"
        assert check_metamorphic(case, random.Random(0)) == []


class TestReducer:
    def test_ddmin_minimises_to_failure_core(self):
        # Failure: the subset contains both 3 and 7.
        items = list(range(10))
        kept = ddmin(items, lambda sub: 3 in sub and 7 in sub)
        assert sorted(kept) == [3, 7]

    def test_ddmin_requires_failing_input(self):
        with pytest.raises(ValueError):
            ddmin([1, 2, 3], lambda sub: False)

    def test_reduce_case_drops_irrelevant_chunks(self):
        chunks = {
            "a.c": ["/* keep */\nint bad;\n", "/* drop */\nint x;\n"],
            "b.c": ["/* drop too */\nint y;\n"],
        }

        def predicate(candidate):
            text = "".join(c for cs in candidate.values() for c in cs)
            return "bad" in text

        reduced = reduce_case(chunks, predicate)
        text = "".join(c for cs in reduced.values() for c in cs)
        assert "bad" in text
        assert "drop" not in text

    def test_write_artifact_round_trips(self, tmp_path):
        import json

        chunks = {"sub/f.c": ["int x;\n"]}
        headers = {"t.h": "struct t { int a; };\n"}
        path = write_artifact(tmp_path, "crash-seed1", chunks, headers,
                              {"oracle": "crash", "seed": 1})
        target = tmp_path / "crash-seed1"
        assert str(target) == path
        assert (target / "sub__f.c").read_text() == "int x;\n"
        assert (target / "header__t.h").read_text() == headers["t.h"]
        meta = json.loads((target / "repro.json").read_text())
        assert meta["oracle"] == "crash"
        assert meta["manifest"]["sub/f.c"] == "sub__f.c"


class TestNeverRaiseHardening:
    def test_file_failure_compares_as_path(self):
        entry = FileFailure("bad.c", stage="parse", error="boom")
        assert entry == "bad.c"
        assert entry.path == "bad.c"
        assert entry.stage == "parse"
        assert "boom" in entry.describe()

    def test_parse_error_becomes_structured_entry(self):
        # The barrier token makes the file pass the raw-text pre-filter
        # and reach the parser, which then fails on the broken struct.
        source = KernelSource(
            files={"broken.c": "smp_wmb();\nstruct {{{ nope\n"}
        )
        result = OFenceEngine(source).analyze()
        assert result.files_failed == ["broken.c"]
        (entry,) = result.files_failed
        assert entry.stage == "parse"
        assert entry.error

    def test_crashing_checker_becomes_failure_entry(self, monkeypatch):
        from repro.checkers import runner as runner_mod

        def explode(self, pairings):
            raise RuntimeError("synthetic checker crash")

        monkeypatch.setattr(runner_mod.WrongBarrierTypeChecker, "check",
                            explode)
        case = generate_case(4, force_patterns=["correct_pair"])
        result = run_in_mode("serial", case.source)
        assert any(cf.checker == "wrong-type"
                   for cf in result.report.checker_failures)
        assert "synthetic checker crash" in \
            result.report.checker_failures[0].describe()

    def test_crash_oracle_flags_checker_failures(self, monkeypatch):
        from repro.checkers import runner as runner_mod

        def explode(self, pairings):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(runner_mod.UnneededBarrierChecker, "check",
                            explode)
        case = generate_case(6, force_patterns=["unneeded_wakeup"])
        detail = crash_detail(case.files, case.headers)
        assert detail is not None
        assert "unneeded" in detail

    def test_crash_oracle_flags_diff_differing_from_difflib(
            self, monkeypatch):
        from repro.patching import generate as generate_mod

        case = generate_case(6, force_patterns=["unneeded_wakeup"])
        assert crash_detail(case.files, case.headers) is None
        monkeypatch.setattr(generate_mod, "unified_diff",
                            lambda old, new, filename: "bogus\n")
        detail = crash_detail(case.files, case.headers)
        assert detail is not None
        assert detail.startswith("patch diff differs from difflib")

    def test_internal_error_not_masked_by_earlier_parse_failure(self):
        """A parse failure on one file must not hide an internal-stage
        failure on a later file: the latter is the real oracle signal."""
        from unittest import mock

        entries = [
            FileFailure("a.c", stage="parse", error="bad struct"),
            FileFailure("b.c", stage="scan", error="scanner blew up"),
        ]
        result = mock.Mock(files_failed=entries)
        result.report.checker_failures = []
        with mock.patch("repro.fuzz.harness.run_in_mode",
                        return_value=result):
            detail = crash_detail({}, {})
        assert detail == "internal error in b.c: scanner blew up"


class TestReplay:
    def test_artifact_replay_line_reproduces_the_case(self, tmp_path):
        """The repro.json replay command must regenerate the exact
        failing case: --case-seed feeds generate_case directly."""
        import json

        from repro.fuzz.harness import run_fuzz

        @register_run_mode("_test_replay_liar")
        def liar(source, options=None):
            result = run_in_mode("serial", source, options)
            result.report.ordering_findings = []
            result.report.unneeded_findings = []
            return result

        try:
            report = run_fuzz(
                iterations=3, seed=2,
                artifacts_dir=str(tmp_path), reduce=False,
                modes=("serial", "_test_replay_liar"),
            )
            failing = [f for f in report.failures
                       if f.oracle == "differential"]
            assert failing, "liar mode should diverge at least once"
            first = failing[0]
            meta = json.loads(
                (tmp_path / f"differential-seed{first.seed}" /
                 "repro.json").read_text())
            assert meta["replay"] == (
                f"repro fuzz --iterations 1 --case-seed {first.seed}"
            )
            replayed = run_fuzz(
                iterations=1, case_seed=first.seed,
                artifacts_dir=str(tmp_path), reduce=False,
                modes=("serial", "_test_replay_liar"),
            )
            assert len(replayed.failures) == 1
            assert replayed.failures[0].seed == first.seed
            assert replayed.failures[0].detail == first.detail
        finally:
            _RUN_MODES.pop("_test_replay_liar", None)


class TestEvaluate:
    def test_eval_scores_every_checker(self):
        report = evaluate(cases=9, seed=0)
        assert {"misplaced", "reread", "wrong-type", "unneeded"} <= \
            set(report.scores)
        rendered = report.render()
        assert "precision" in rendered and "recall" in rendered

    def test_eval_recall_is_perfect_on_planted_bugs(self):
        report = evaluate(cases=9, seed=0)
        for score in report.scores.values():
            assert score.fn == 0, (score.checker, score.fn)
            assert score.recall == 1.0
