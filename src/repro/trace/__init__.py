"""Request-scoped structured tracing across every execution tier.

One analysis request — CLI one-shot or daemon job — produces one
:class:`Trace`: a flat, thread-safe collection of timed
:class:`SpanRecord` entries that reconstruct into a tree by parent id.
The engine opens spans around its stages, the process-pool protocol
carries span context into workers and back, and the serve HTTP path
propagates the trace id via the ``X-Repro-Trace`` header — so a single
daemon submission yields one coherent span tree covering the job, the
engine stages, and the exec workers.

Tracing is ambient (a :mod:`contextvars` context variable) and strictly
observational: with no active trace every instrumentation point outside
an engine run is a no-op, and with one active the analysis output is
bit-for-bit identical — the differential oracle's ``traced`` run mode
proves it continuously.  The same ``span`` calls time the engine's
stages for its per-run :class:`~repro.core.profile.StageProfile`
(:func:`recording`), so ``--profile`` and ``--trace`` read one
measurement.

Export formats (:mod:`repro.trace.export`): Chrome ``trace_event`` JSON
(loadable in Perfetto / ``chrome://tracing``) and a compact text tree.
"""

from repro.trace.context import (
    absorb_remote,
    activate,
    count,
    current,
    current_trace,
    format_header,
    parse_header,
    recording,
    ship,
    ship_header,
    span,
    start_trace,
)
from repro.trace.export import (
    dangling,
    render_tree,
    to_chrome,
    validate_chrome,
)
from repro.trace.model import SpanRecord, Trace, new_id

#: HTTP header carrying ``<trace id>`` or ``<trace id>/<parent span>``.
TRACE_HEADER = "X-Repro-Trace"

__all__ = [
    "SpanRecord",
    "TRACE_HEADER",
    "Trace",
    "absorb_remote",
    "activate",
    "count",
    "current",
    "current_trace",
    "dangling",
    "format_header",
    "new_id",
    "parse_header",
    "recording",
    "render_tree",
    "ship",
    "ship_header",
    "span",
    "start_trace",
    "to_chrome",
    "validate_chrome",
]
