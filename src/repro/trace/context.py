"""Ambient trace propagation (contextvars) and the span primitive.

The active trace travels in a :class:`contextvars.ContextVar` as a
``(Trace, current span id)`` pair, so instrumentation points never
thread a handle through call signatures:

* :func:`span` opens a child of the current span — and is a complete
  no-op (zero allocations beyond the generator) unless a trace is
  active or, for an ``engine.*`` span, a recording;
* :func:`activate` installs an existing trace (the serve daemon
  activates a job's trace on the worker thread running it, an exec
  worker the trace context its task shipped with);
* :func:`start_trace` builds a fresh trace with a root span (the CLI
  and the ``traced`` run mode).

A second ContextVar holds the engine's per-run *recording*: a
:class:`repro.core.profile.StageProfile` that every
``span("engine.<stage>")`` adds its measured duration to, under
``<stage>``, and that :func:`count` adds event counts to.  One
measurement feeds both views, so ``--profile`` stage totals equal the
sums of the matching ``engine.*`` span durations in a ``--trace`` tree.

Cross-boundary plumbing: :func:`ship` captures ``(trace id, span id)``
for the exec task protocol, :func:`ship_header`/:func:`parse_header`
do the same for the ``X-Repro-Trace`` HTTP header, and
:func:`absorb_remote` merges span dicts a remote party returned into
the active trace.

Thread fan-outs must give each thread its own context copy
(``contextvars.copy_context().run`` — one Context object cannot be
entered concurrently).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterable

from repro.trace.model import SpanRecord, Trace

if TYPE_CHECKING:
    from repro.core.profile import StageProfile

_ACTIVE: ContextVar[tuple[Trace, str | None] | None] = ContextVar(
    "repro_trace_active", default=None
)
_RECORDING: ContextVar["StageProfile | None"] = ContextVar(
    "repro_trace_recording", default=None
)

#: Span-name prefix of the engine stages a recording aggregates.
_STAGE_PREFIX = "engine."


def current() -> tuple[Trace, str | None] | None:
    """The ambient ``(trace, current span id)`` pair, or ``None``."""
    return _ACTIVE.get()


def current_trace() -> Trace | None:
    active = _ACTIVE.get()
    return active[0] if active is not None else None


@contextmanager
def activate(trace: Trace, parent: str | None = None):
    """Install ``trace`` as the ambient trace for the block.

    ``parent`` seeds the current span id, so spans opened inside parent
    to a span that lives elsewhere (the submitting client's, say).
    """
    token = _ACTIVE.set((trace, parent))
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)


@contextmanager
def recording(profile: "StageProfile"):
    """Aggregate the block's engine spans and counts into ``profile``."""
    token = _RECORDING.set(profile)
    try:
        yield profile
    finally:
        _RECORDING.reset(token)


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to counter ``name`` of the active recording."""
    profile = _RECORDING.get()
    if profile is not None:
        profile.count(name, amount)


@contextmanager
def span(name: str, node: str | None = None, **meta: Any):
    """Open a timed child span of the current one.

    Yields the :class:`SpanRecord` (or ``None`` when tracing is off) so
    callers can attach metadata discovered mid-stage.  An escaping
    exception is recorded as ``meta["error"]`` and re-raised — the span
    still closes, so failure paths never leave dangling spans.  Inside
    a :func:`recording`, an ``engine.<stage>`` span also adds its
    duration to the recording's ``<stage>``; with neither a trace nor
    such a recording active the span is a no-op.
    """
    active = _ACTIVE.get()
    profile = _RECORDING.get() if name.startswith(_STAGE_PREFIX) else None
    if active is None and profile is None:
        yield None
        return
    record = token = None
    if active is not None:
        trace, parent = active
        record = trace.add(SpanRecord(
            name=name, parent_id=parent,
            node=node if node is not None else trace.node, meta=dict(meta),
        ))
        token = _ACTIVE.set((trace, record.span_id))
    opened = time.perf_counter()
    try:
        yield record
    except BaseException as exc:
        if record is not None:
            record.meta.setdefault("error", type(exc).__name__)
        raise
    finally:
        elapsed = time.perf_counter() - opened
        if record is not None:
            record.duration = elapsed
            _ACTIVE.reset(token)
        if profile is not None:
            profile.add(name[len(_STAGE_PREFIX):], elapsed)


@contextmanager
def start_trace(
    name: str,
    trace_id: str | None = None,
    node: str = "local",
    **meta: Any,
):
    """A fresh trace with a root span covering the block."""
    trace = Trace(trace_id=trace_id, node=node)
    with activate(trace):
        with span(name, **meta):
            yield trace


# -- cross-boundary plumbing ------------------------------------------------


def ship() -> tuple[str, str | None] | None:
    """``(trace id, current span id)`` for IPC, or ``None`` when off."""
    active = _ACTIVE.get()
    if active is None:
        return None
    trace, parent = active
    return trace.trace_id, parent


def format_header(trace_id: str, parent: str | None = None) -> str:
    """The ``X-Repro-Trace`` value: ``tid`` or ``tid/parent span``."""
    return f"{trace_id}/{parent}" if parent else trace_id


def ship_header() -> str | None:
    """The header value for the ambient trace, or ``None`` when off."""
    shipped = ship()
    if shipped is None:
        return None
    return format_header(*shipped)


def parse_header(value: str | None) -> tuple[str, str | None] | None:
    """Parse an ``X-Repro-Trace`` value; ``None`` when absent/garbage."""
    if not value or not isinstance(value, str):
        return None
    trace_id, _, parent = value.strip().partition("/")
    if not trace_id:
        return None
    return trace_id, (parent or None)


def absorb_remote(span_dicts: Iterable[dict] | None) -> int:
    """Merge remote span dicts into the ambient trace (no-op when off)."""
    if not span_dicts:
        return 0
    trace = current_trace()
    if trace is None:
        return 0
    return trace.absorb(span_dicts)
