"""The declarative checker registry.

Every checker registers one :class:`CheckerSpec` describing what it
needs and what it produces — name, deviation kinds, report bucket,
ordering constraints, required inputs, shardability, claims protocol,
and the wire codec its findings/claims cross shard boundaries with.
Every dispatch layer is driven from here:

* :class:`~repro.checkers.runner.CheckerSuite` composes and orders the
  enabled checkers from the specs (``ALL_CHECKS``, report buckets, the
  Table 3 breakdown all derive from the registry);
* the executor worker runs whatever shardable specs the parent requests,
  threading claims in registry order;
* the engine decodes shard results through each spec's codec;
* the serve/cluster shard protocol, CLI ``--checks`` validation,
  per-checker metrics, and the findings store's checker-kind filters all
  key off the registered metadata.

Adding a checker is therefore registration-only: write the module, add a
spec here, and the suite, executor, serve, and cluster tiers pick it up
without edits (see ``docs/architecture.md``, "Checker plugin API").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.checkers.model import DeviationKind, Finding

#: Report buckets, in run order.  The bucket rank is the primary
#: ordering constraint: every ordering checker runs before unneeded
#: detection, and annotation proposals always run last.
ORDERING = "ordering"
UNNEEDED = "unneeded"
ANNOTATION = "annotation"
_BUCKET_RANK = {ORDERING: 0, UNNEEDED: 1, ANNOTATION: 2}

#: Required-input axes a spec may declare.
INPUT_PAIRINGS = "pairings"        # pairing list only
INPUT_CFG = "cfg"                  # needs per-function CFGs
INPUT_CORPUS = "corpus-global"     # needs run-wide context (all pairings
#                                    + which of them are buggy, or the
#                                    unpaired barrier population)


@dataclass
class CheckContext:
    """Everything a checker may consume, independent of the call site.

    The suite builds one per run; the executor worker builds one per
    shard (with ``pairings``/``check_list`` restricted to the chunk).
    ``claimed`` accumulates (id(pairing), object) claims in registry
    order, so claim consumers see every earlier checker's claims.
    """

    pairings: list = field(default_factory=list)
    #: ``pairings`` plus broadcast slices — what per-duo checkers walk.
    check_list: list = field(default_factory=list)
    #: Unpaired + implicit-IPC barriers (the unneeded checker's input).
    unpaired: list = field(default_factory=list)
    cfg_lookup: Callable[[str, str], Any] | None = None
    claimed: set = field(default_factory=set)
    #: ``id(pairing)`` of pairings with ordering findings (annotate-last
    #: input; populated by the suite after the ordering bucket ran).
    buggy_pairings: set = field(default_factory=set)


class WireCodec:
    """Default shard wire codec: findings as :class:`FindingWire`,
    claims as ``(entry index, object key)`` pairs.

    Encoding happens worker-side against shard-local site/use refs;
    decoding parent-side re-binds every ref against the engine's cached
    sites (identity matters downstream — a single miss aborts the shard
    and the checker re-runs inline).
    """

    def encode_finding(self, finding: Finding, entry_of: dict,
                       site_refs: dict, use_refs: dict):
        from repro.exec.protocol import encode_finding

        return encode_finding(
            finding, entry_of[id(finding.pairing)], site_refs, use_refs
        )

    def decode_finding(self, wire, check_list, site_at, use_at):
        """Re-bound :class:`Finding`, or None on any ref miss."""
        if wire.entry >= len(check_list):
            return None
        barrier = site_at(wire.barrier)
        if wire.barrier is not None and barrier is None:
            return None
        use = use_at(wire.use)
        if wire.use is not None and use is None:
            return None
        reference_use = use_at(wire.reference_use)
        if wire.reference_use is not None and reference_use is None:
            return None
        return Finding(
            kind=wire.kind,
            filename=wire.filename,
            function=wire.function,
            line=wire.line,
            explanation=wire.explanation,
            fix_action=wire.fix_action,
            object_key=wire.object_key,
            barrier=barrier,
            pairing=check_list[wire.entry],
            use=use,
            reference_use=reference_use,
            details=dict(wire.details),
        )

    def encode_claims(self, claimed: set, entry_of: dict) -> list:
        """Deterministic wire form of pairing-local claims."""
        return [
            (entry_of[pid], key)
            for pid, key in sorted(
                claimed, key=lambda ck: (entry_of[ck[0]], str(ck[1]))
            )
        ]

    def decode_claims(self, pairs: list, check_list: list) -> set:
        return {
            (id(check_list[entry]), key)
            for entry, key in pairs
            if entry < len(check_list)
        }


_DEFAULT_CODEC = WireCodec()


@dataclass(frozen=True)
class CheckerSpec:
    """Declarative capability metadata of one checker."""

    name: str
    #: Deviation kinds this checker may emit (declaration order is the
    #: spec's canonical kind order).
    kinds: tuple[DeviationKind, ...]
    #: Report bucket its findings land in (:data:`ORDERING`,
    #: :data:`UNNEEDED`, or :data:`ANNOTATION`).
    bucket: str
    #: Required inputs (:data:`INPUT_PAIRINGS`, :data:`INPUT_CFG`, or
    #: :data:`INPUT_CORPUS`).
    inputs: str
    #: ``run(ctx) -> (findings, claimed)`` over a :class:`CheckContext`.
    run: Callable[[CheckContext], tuple[list, set]]
    #: Position within the bucket (ties broken by name).
    order: int = 0
    #: Names that must be ordered before this spec (same bucket).
    after: tuple[str, ...] = ()
    #: True when the checker may run on a contiguous shard of the check
    #: list out-of-process: its per-chunk output must equal the serial
    #: output restricted to the chunk.
    cfg_shardable: bool = False
    #: Claims protocol: emitters add (id(pairing), key) claims;
    #: consumers read every earlier checker's claims from the context.
    emits_claims: bool = False
    consumes_claims: bool = False
    codec: WireCodec = _DEFAULT_CODEC


_REGISTRY: dict[str, CheckerSpec] = {}


class RegistrationError(ValueError):
    """An inconsistent :class:`CheckerSpec` registration."""


def register(spec: CheckerSpec) -> CheckerSpec:
    """Register one checker; dispatch layers pick it up from here."""
    if spec.name in _REGISTRY:
        raise RegistrationError(f"checker {spec.name!r} already registered")
    if spec.bucket not in _BUCKET_RANK:
        raise RegistrationError(
            f"checker {spec.name!r}: unknown bucket {spec.bucket!r}"
        )
    if spec.bucket == ORDERING and spec.inputs == INPUT_CORPUS:
        # The check memo reuses an ordering checker's output per
        # pairing, so that output may depend on its own pairing only.
        raise RegistrationError(
            f"checker {spec.name!r}: ordering checkers are per-pairing "
            f"and cannot need corpus-global input"
        )
    if spec.cfg_shardable and spec.bucket != ORDERING:
        raise RegistrationError(
            f"checker {spec.name!r}: only ordering checkers shard over "
            f"the check list"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> CheckerSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise RegistrationError(f"unknown checker {name!r}")
    return spec


def all_names() -> frozenset[str]:
    """Names accepted by ``CheckerSuite(checks=...)`` / ``--checks``."""
    return frozenset(_REGISTRY)


def validate_checks(checks) -> frozenset[str]:
    """Validated frozenset of checker names; the error lists the valid
    names sorted (the CLI surfaces it verbatim)."""
    names = frozenset(checks)
    unknown = names - all_names()
    if unknown:
        raise ValueError(
            f"unknown checks: {sorted(unknown)} "
            f"(valid: {', '.join(sorted(all_names()))})"
        )
    return names


def ordered_specs() -> tuple[CheckerSpec, ...]:
    """All specs in run order (bucket rank, then order, then name),
    with the declared ``after`` constraints validated."""
    specs = sorted(
        _REGISTRY.values(),
        key=lambda s: (_BUCKET_RANK[s.bucket], s.order, s.name),
    )
    position = {spec.name: idx for idx, spec in enumerate(specs)}
    for spec in specs:
        for earlier in spec.after:
            if earlier not in position:
                raise RegistrationError(
                    f"checker {spec.name!r}: ordering constraint names "
                    f"unknown checker {earlier!r}"
                )
            if position[earlier] >= position[spec.name]:
                raise RegistrationError(
                    f"checker {spec.name!r} must run after {earlier!r}, "
                    f"but is ordered before it"
                )
    return tuple(specs)


def bucket_specs(bucket: str) -> tuple[CheckerSpec, ...]:
    return tuple(s for s in ordered_specs() if s.bucket == bucket)


def shardable_specs() -> tuple[CheckerSpec, ...]:
    """Specs a shard runner may execute out-of-process, in run order."""
    return tuple(s for s in ordered_specs() if s.cfg_shardable)


def checker_for_kind(kind: DeviationKind) -> str | None:
    """Canonical owner of a deviation kind: the first spec in run order
    declaring it (secondary emitters like seqcount come later)."""
    for spec in ordered_specs():
        if kind in spec.kinds:
            return spec.name
    return None


def kind_values() -> tuple[str, ...]:
    """Sorted deviation-kind values any registered checker may emit
    (the findings store validates its checker-kind filter against
    these)."""
    return tuple(sorted({
        kind.value for spec in _REGISTRY.values() for kind in spec.kinds
    }))


def table3_buckets() -> tuple[str, ...]:
    """Table 3 bucket names derivable from the registered kinds."""
    return tuple(sorted({
        kind.table3_bucket
        for spec in _REGISTRY.values() for kind in spec.kinds
        if kind.table3_bucket is not None
    }))


# ---------------------------------------------------------------------------
# Run adapters + registrations
# ---------------------------------------------------------------------------


def _run_reread(ctx: CheckContext):
    from repro.checkers.reread import RepeatedReadChecker

    result = RepeatedReadChecker(ctx.cfg_lookup).check(ctx.check_list)
    return result.findings, result.claimed


def _run_acquire_release(ctx: CheckContext):
    from repro.checkers.acquire_release import AcquireReleaseChecker

    result = AcquireReleaseChecker().check(ctx.check_list)
    return result.findings, result.claimed


def _run_misplaced(ctx: CheckContext):
    from repro.checkers.misplaced import MisplacedAccessChecker

    return MisplacedAccessChecker(skip=ctx.claimed).check(
        ctx.check_list
    ), set()


def _run_wrong_type(ctx: CheckContext):
    from repro.checkers.wrong_type import WrongBarrierTypeChecker

    return WrongBarrierTypeChecker().check(ctx.pairings), set()


def _run_seqcount(ctx: CheckContext):
    from repro.checkers.seqcount import SeqcountChecker

    # Broadcast slices are non-multi, so running over the check list
    # (what shards carry) emits the same findings as ``ctx.pairings``.
    return SeqcountChecker(ctx.cfg_lookup).check(ctx.check_list), set()


def _run_unneeded(ctx: CheckContext):
    from repro.checkers.unneeded import UnneededBarrierChecker

    return UnneededBarrierChecker().check(ctx.unpaired), set()


def _run_annotate(ctx: CheckContext):
    from repro.checkers.annotate import AnnotationChecker

    return AnnotationChecker().check(
        ctx.pairings, ctx.buggy_pairings
    ), set()


register(CheckerSpec(
    name="reread",
    kinds=(DeviationKind.REPEATED_READ,),
    bucket=ORDERING,
    inputs=INPUT_CFG,
    run=_run_reread,
    order=10,
    cfg_shardable=True,
    emits_claims=True,
))

register(CheckerSpec(
    name="acquire-release",
    kinds=(DeviationKind.PUBLISH_BEFORE_INIT,),
    bucket=ORDERING,
    inputs=INPUT_PAIRINGS,
    run=_run_acquire_release,
    order=20,
    after=("reread",),
    cfg_shardable=True,
    emits_claims=True,
))

register(CheckerSpec(
    name="misplaced",
    kinds=(DeviationKind.MISPLACED_ACCESS,),
    bucket=ORDERING,
    inputs=INPUT_PAIRINGS,
    run=_run_misplaced,
    order=30,
    after=("reread", "acquire-release"),
    consumes_claims=True,
))

register(CheckerSpec(
    name="wrong-type",
    kinds=(DeviationKind.WRONG_BARRIER_TYPE,),
    bucket=ORDERING,
    inputs=INPUT_PAIRINGS,
    run=_run_wrong_type,
    order=40,
))

register(CheckerSpec(
    name="seqcount",
    kinds=(DeviationKind.REPEATED_READ, DeviationKind.MISPLACED_ACCESS),
    bucket=ORDERING,
    inputs=INPUT_CFG,
    run=_run_seqcount,
    order=50,
    cfg_shardable=True,
))

register(CheckerSpec(
    name="unneeded",
    kinds=(DeviationKind.UNNEEDED_BARRIER,),
    bucket=UNNEEDED,
    inputs=INPUT_CORPUS,
    run=_run_unneeded,
    order=10,
))

register(CheckerSpec(
    name="annotate",
    kinds=(DeviationKind.MISSING_ANNOTATION,),
    bucket=ANNOTATION,
    inputs=INPUT_CORPUS,
    run=_run_annotate,
    order=10,
))

# Fail fast on inconsistent ordering constraints.
ordered_specs()
