"""The fuzzing loop: generate, oracle-check, reduce, persist.

Three oracles run per generated case, cheapest first:

1. **Crash** — serial analysis must not raise, must not record
   internal-error ``files_failed`` entries or ``checker_failures``,
   generated code must parse (a parse error means a generator bug), and
   every patch's diff must equal ``difflib.unified_diff`` of the file
   and its patched text (the reference for the direct-hunk path).
2. **Differential** — every registered run mode must produce the exact
   serial signature (:mod:`repro.fuzz.differential`).
3. **Metamorphic** — semantics-preserving transforms must yield
   isomorphic findings (:mod:`repro.fuzz.metamorphic`).

Failures are delta-debugged to minimal reproducers and written to
``fuzz/artifacts/`` (:mod:`repro.fuzz.reduce`).
"""

from __future__ import annotations

import difflib
import random
from dataclasses import dataclass, field

from repro.core.engine import KernelSource, run_in_mode
from repro.fuzz.differential import DEFAULT_MODES, check_differential
from repro.fuzz.generate import FuzzCase, generate_case
from repro.fuzz.metamorphic import check_metamorphic
from repro.fuzz.reduce import reduce_case, write_artifact

#: Spacing of per-iteration seeds (a large prime, so overlapping base
#: seeds still explore distinct cases).
_SEED_STRIDE = 1_000_003


@dataclass
class FuzzFailure:
    """One oracle violation."""

    iteration: int
    seed: int
    oracle: str  # "crash" | "differential" | "metamorphic"
    detail: str
    artifact: str | None = None

    def describe(self) -> str:
        where = f" -> {self.artifact}" if self.artifact else ""
        return (f"[{self.oracle}] iteration {self.iteration} "
                f"(seed {self.seed}): {self.detail}{where}")


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    iterations: int
    failures: list[FuzzFailure] = field(default_factory=list)

    def _count(self, oracle: str) -> int:
        return sum(1 for f in self.failures if f.oracle == oracle)

    @property
    def crashes(self) -> int:
        return self._count("crash")

    @property
    def divergences(self) -> int:
        return self._count("differential")

    @property
    def metamorphic_failures(self) -> int:
        return self._count("metamorphic")

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: {self.iterations} iterations, "
            f"{self.crashes} crashes, "
            f"{self.divergences} differential divergences, "
            f"{self.metamorphic_failures} metamorphic failures",
        ]
        lines.extend(f.describe() for f in self.failures)
        return "\n".join(lines)


def crash_detail(files: dict[str, str],
                 headers: dict[str, str]) -> str | None:
    """Serial-run crash oracle; None when the case is clean."""
    source = KernelSource(files=dict(files), headers=dict(headers))
    try:
        result = run_in_mode("serial", source)
    except Exception as exc:
        return f"analysis raised {type(exc).__name__}: {exc}"
    parse_detail: str | None = None
    for entry in result.files_failed:
        if entry.stage != "parse":
            # Internal-stage failures are the serious signal; report one
            # even when an earlier file merely failed to parse.
            return f"internal error in {entry.path}: {entry.error}"
        if parse_detail is None:
            parse_detail = \
                f"generated code failed to parse: {entry.describe()}"
    if parse_detail is not None:
        return parse_detail
    if result.report.checker_failures:
        return result.report.checker_failures[0].describe()
    for patch in result.patches:
        if patch.new_source is None:
            continue
        reference = "".join(difflib.unified_diff(
            files[patch.filename].splitlines(keepends=True),
            patch.new_source.splitlines(keepends=True),
            f"a/{patch.filename}", f"b/{patch.filename}",
        ))
        if patch.diff != reference:
            return (f"patch diff differs from difflib for "
                    f"{patch.finding.finding_id}")
    return None


def _render(file_chunks: dict[str, list[str]]) -> dict[str, str]:
    return {path: "\n".join(chunks)
            for path, chunks in file_chunks.items()}


def run_fuzz(
    iterations: int = 50,
    seed: int = 0,
    artifacts_dir: str = "fuzz/artifacts",
    reduce: bool = True,
    modes: tuple[str, ...] = DEFAULT_MODES,
    transforms: list[str] | None = None,
    max_files: int = 3,
    case_seed: int | None = None,
) -> FuzzReport:
    """Run the seeded fuzzing loop; deterministic for a given ``seed``.

    ``case_seed`` bypasses the stride: iteration ``i`` uses the raw
    seed ``case_seed + i``, so ``case_seed=S, iterations=1`` replays
    exactly the case an artifact's ``repro.json`` names.
    """
    report = FuzzReport(iterations=iterations)
    for iteration in range(iterations):
        if case_seed is not None:
            cs = case_seed + iteration
        else:
            cs = seed * _SEED_STRIDE + iteration
        case = generate_case(cs, max_files=max_files)
        failure = _check_one(case, iteration, cs, modes,
                             transforms, artifacts_dir, reduce)
        if failure is not None:
            report.failures.append(failure)
    return report


def _check_one(
    case: FuzzCase,
    iteration: int,
    case_seed: int,
    modes: tuple[str, ...],
    transforms: list[str] | None,
    artifacts_dir: str,
    reduce: bool,
) -> FuzzFailure | None:
    detail = crash_detail(case.files, case.headers)
    if detail is not None:
        return _fail(case, iteration, case_seed, "crash", detail,
                     artifacts_dir, reduce,
                     lambda chunks: crash_detail(
                         _render(chunks), case.headers) is not None)

    diffs = check_differential(lambda: case.source, modes)
    if diffs:
        def diverges(chunks: dict[str, list[str]]) -> bool:
            files = _render(chunks)
            return bool(check_differential(
                lambda: KernelSource(files=dict(files),
                                     headers=dict(case.headers)),
                modes,
            ))
        return _fail(case, iteration, case_seed, "differential",
                     "; ".join(diffs), artifacts_dir, reduce, diverges)

    problems = check_metamorphic(
        case, random.Random(case_seed ^ 0x5EED), transforms
    )
    if problems:
        # Transforms need the chunk structure, so the metamorphic
        # predicate rebuilds a sub-case and skips the line-level pass.
        import dataclasses

        def still_fails(chunks: dict[str, list[str]]) -> bool:
            sub = dataclasses.replace(
                case, file_chunks=chunks,
                clipped_files=case.clipped_files & set(chunks),
            )
            return bool(check_metamorphic(
                sub, random.Random(case_seed ^ 0x5EED), transforms
            ))
        return _fail(case, iteration, case_seed, "metamorphic",
                     "; ".join(problems), artifacts_dir, reduce,
                     still_fails, line_level=False)
    return None


def _fail(
    case: FuzzCase,
    iteration: int,
    case_seed: int,
    oracle: str,
    detail: str,
    artifacts_dir: str,
    reduce: bool,
    predicate,
    line_level: bool = True,
) -> FuzzFailure:
    chunks = case.file_chunks
    if reduce:
        try:
            chunks = reduce_case(chunks, predicate, line_level=line_level)
        except ValueError:
            pass  # flaky failure: keep the unreduced case
    artifact = write_artifact(
        artifacts_dir, f"{oracle}-seed{case_seed}", chunks, case.headers,
        {
            "oracle": oracle,
            "detail": detail,
            "iteration": iteration,
            "seed": case_seed,
            "patterns": case.pattern_names,
            "replay": f"repro fuzz --iterations 1 "
                      f"--case-seed {case_seed}",
        },
    )
    return FuzzFailure(iteration=iteration, seed=case_seed, oracle=oracle,
                       detail=detail, artifact=artifact)
