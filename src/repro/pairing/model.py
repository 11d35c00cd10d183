"""Pairing data model."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.accesses import ObjectKey
from repro.analysis.barrier_scan import BarrierSite


@dataclass
class Pairing:
    """A set of barriers inferred to run concurrently.

    ``barriers[0]`` is always the write barrier Algorithm 1 started from
    and ``barriers[1]`` its best match; additional members joined through
    the multi-barrier extension (§5.3).
    """

    barriers: list[BarrierSite]
    common_objects: list[ObjectKey]
    weight: float
    #: Set on sub-pairings produced by broadcast decomposition (one
    #: writer × one reader slice of a multi pairing).
    parent: "Pairing | None" = None

    @property
    def writer(self) -> BarrierSite:
        return self.barriers[0]

    @property
    def primary_match(self) -> BarrierSite:
        return self.barriers[1]

    @property
    def is_multi(self) -> bool:
        """More than two barriers: the §5.3 multi-reader/writer shape."""
        return len(self.barriers) > 2

    @property
    def functions(self) -> list[tuple[str, str]]:
        """Distinct (file, function) pairs inferred to run concurrently."""
        seen: list[tuple[str, str]] = []
        for barrier in self.barriers:
            item = (barrier.filename, barrier.function)
            if item not in seen:
                seen.append(item)
        return seen

    @cached_property
    def slices(self) -> "list[Pairing]":
        """Writer×reader sub-pairings of a broadcast-shaped multi pairing.

        Multi pairings where every function holds exactly one barrier
        are overlapping simple pairs (one protocol, several writers or
        readers); the single-pair checkers run on these slices.  Figure
        5-style pairings (two barriers in one function) are not sliced:
        the seqcount checker owns them.  Built once per pairing, so a
        pairing reused by a later run brings the same slice objects.
        """
        if not self.is_multi:
            return []
        per_function = Counter(
            (b.filename, b.function) for b in self.barriers
        )
        if any(count > 1 for count in per_function.values()):
            return []
        writers = [b for b in self.barriers if b.is_write_barrier]
        readers = [b for b in self.barriers if b.is_read_barrier]
        out = []
        for writer in writers:
            for reader in readers:
                if writer.barrier_id == reader.barrier_id:
                    continue
                common = sorted(
                    writer.keys() & reader.keys() & set(self.common_objects),
                    key=lambda k: (k.struct, k.field),
                )
                if len(common) < 2:
                    continue
                out.append(Pairing(
                    barriers=[writer, reader], common_objects=common,
                    weight=self.weight, parent=self,
                ))
        return out

    def describe(self) -> str:
        members = ", ".join(
            f"{b.function}:{b.primitive}@{b.line}" for b in self.barriers
        )
        objects = ", ".join(str(key) for key in self.common_objects)
        return f"[{members}] via {{{objects}}} (weight {self.weight:g})"


@dataclass
class PairingResult:
    """Output of a full pairing run."""

    pairings: list[Pairing] = field(default_factory=list)
    #: Write barriers left unpaired because an IPC call was closer than
    #: the shared objects (§4.2 implicit barriers).
    implicit_ipc: list[BarrierSite] = field(default_factory=list)
    #: Barriers with no pairing at all.
    unpaired: list[BarrierSite] = field(default_factory=list)

    @property
    def paired_barriers(self) -> set[str]:
        return {
            barrier.barrier_id
            for pairing in self.pairings
            for barrier in pairing.barriers
        }

    def coverage(self, total_barriers: int) -> float:
        """Fraction of barriers that ended up inside a pairing."""
        if total_barriers == 0:
            return 0.0
        return len(self.paired_barriers) / total_barriers
