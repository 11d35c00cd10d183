"""Per-stage timing and counter breakdown for one analysis run.

:class:`StageProfile` is the run's aggregate of its engine spans: inside
the engine's :func:`repro.trace.context.recording`, every
``span("engine.<stage>")`` adds its duration to ``stages["<stage>"]``
and every :func:`repro.trace.context.count` call to ``counters``.
Dotted names are sub-stages (``scan.keys``, ``pair.sync``);
``AnalysisResult.stage_seconds`` is the top-level view (:meth:`coarse`)
the benchmarks assert on.  The CLI renders it with ``--profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageProfile:
    """Timings (seconds) and counters collected during one run."""

    stages: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    # -- recording ---------------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- views -------------------------------------------------------------

    def coarse(self) -> dict[str, float]:
        """Top-level stages only (no dotted sub-stages)."""
        return {
            name: seconds
            for name, seconds in self.stages.items()
            if "." not in name
        }

    def render(self, title: str = "Stage profile") -> str:
        lines = [title, "-" * len(title)]
        width = max(
            (len(name) for name in (*self.stages, *self.counters)),
            default=0,
        )
        for name in sorted(
            self.stages, key=lambda n: (n.split(".")[0], n.count("."), n)
        ):
            indent = "  " if "." in name else ""
            lines.append(
                f"{indent}{name:<{width}}  {self.stages[name] * 1000:10.2f} ms"
            )
        if self.counters:
            lines.append("")
            for name in sorted(self.counters):
                lines.append(f"{name:<{width}}  {self.counters[name]:>10}")
        return "\n".join(lines)
