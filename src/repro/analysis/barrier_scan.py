"""Finding barriers and collecting the objects they may order.

For every function the scanner produces :class:`BarrierSite` records: one
per explicit barrier primitive (Table 1) or per seqcount-style helper that
embeds a barrier (Listing 3).  Each site carries the
:class:`ObjectUse` list — the shared-object candidates accessed within the
bounded exploration window around the barrier, each with its statement
distance (§4.2):

* write barriers explore 5 statements on each side by default, read
  barriers 50 (both configurable via :class:`ScanLimits` — Figures 6 and 7
  sweep them);
* the walk stops at other barriers and at atomic operations with barrier
  semantics;
* calls to functions defined in the same file are inlined one level deep;
  if the window reaches the function boundary, exploration continues into
  the immediate callers around their call sites.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.accesses import (
    AccessExtractor,
    AccessKind,
    MemoryAccess,
    ObjectKey,
)
from repro.cfg.builder import build_cfg
from repro.cfg.model import FunctionCFG, LinearStmt
from repro.cfg.walk import iter_calls, iter_expressions
from repro.cparse import astnodes as ast
from repro.cparse.typesys import TypeRegistry
from repro.kernel.barriers import (
    BARRIER_PRIMITIVES,
    BarrierKind,
    ImpliedAccess,
)
from repro.kernel.semantics import has_barrier_semantics, semantics_of
from repro.kernel.wakeups import is_wakeup_call

#: Helpers that embed a barrier around a sequence-counter access
#: (Listing 3).  Maps name -> (barrier kind, seq-object side).
SEQCOUNT_BARRIERS: dict[str, tuple[BarrierKind, str]] = {
    "read_seqcount_begin": (BarrierKind.READ, "before"),
    "read_seqcount_retry": (BarrierKind.READ, "after"),
    "write_seqcount_begin": (BarrierKind.WRITE, "before"),
    "write_seqcount_end": (BarrierKind.WRITE, "after"),
    "xt_write_recseq_begin": (BarrierKind.WRITE, "before"),
    "xt_write_recseq_end": (BarrierKind.WRITE, "after"),
}

#: RCU publication primitives (§1: "over 6000 [functions] use kernel
#: APIs that rely on barriers for correctness (e.g., RCU)").
#: ``rcu_assign_pointer`` is a release store (barrier, then the pointer
#: write); ``rcu_dereference`` reads the pointer and orders the
#: dependent accesses after it.  Maps name -> (kind, pointer side).
RCU_BARRIERS: dict[str, tuple[BarrierKind, str]] = {
    "rcu_assign_pointer": (BarrierKind.WRITE, "after"),
    "rcu_dereference": (BarrierKind.READ, "before"),
    "rcu_dereference_protected": (BarrierKind.READ, "before"),
    "rcu_dereference_check": (BarrierKind.READ, "before"),
}

#: All helper calls that act as barrier sites, with the side of their
#: own object access relative to the embedded barrier.
HELPER_BARRIERS: dict[str, tuple[BarrierKind, str]] = {
    **SEQCOUNT_BARRIERS,
    **RCU_BARRIERS,
}


@dataclass
class ScanLimits:
    """Exploration windows (§4.2): statements explored around barriers."""

    write_window: int = 5
    read_window: int = 50

    def window_for(self, kind: BarrierKind) -> int:
        if kind is BarrierKind.WRITE:
            return self.write_window
        return self.read_window


@dataclass(slots=True)
class ObjectUse:
    """One shared-object access within a barrier's window."""

    key: ObjectKey
    side: str  # "before" | "after"
    distance: int
    access: MemoryAccess
    stmt_id: int
    #: Set when the access came from an inlined callee or a caller.
    inlined_from: str | None = None

    @property
    def kind(self) -> AccessKind:
        return self.access.kind


@dataclass(slots=True)
class BarrierSite:
    """A barrier call site plus everything the pairing stage needs."""

    filename: str
    function: str
    stmt_id: int
    line: int
    primitive: str
    kind: BarrierKind
    uses: list[ObjectUse] = field(default_factory=list)
    #: Nearest wake-up/IPC call after the barrier: (name, distance).
    wakeup_after: tuple[str, int] | None = None
    #: Name + distance of a barrier-semantics call directly after (§5.1).
    redundant_with: tuple[str, int] | None = None
    is_seqcount_helper: bool = False
    #: ``file:function:stmt_id``, built once: pairing reads it per site
    #: many times a run.
    barrier_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.barrier_id = f"{self.filename}:{self.function}:{self.stmt_id}"

    @property
    def is_write_barrier(self) -> bool:
        return self.kind.orders_writes

    @property
    def is_read_barrier(self) -> bool:
        return self.kind.orders_reads

    def uses_on(self, side: str) -> list[ObjectUse]:
        return [u for u in self.uses if u.side == side]

    def keys(self) -> set[ObjectKey]:
        return {u.key for u in self.uses}

    def best_use(self, key: ObjectKey) -> ObjectUse | None:
        """Closest use of ``key`` in this site's window."""
        best: ObjectUse | None = None
        for use in self.uses:
            if use.key == key and (best is None or use.distance < best.distance):
                best = use
        return best

    def orders(self, key1: ObjectKey, key2: ObjectKey) -> bool:
        """Does this barrier order key1 and key2 (one per side, §4.2)?"""
        sides1 = {u.side for u in self.uses if u.key == key1}
        sides2 = {u.side for u in self.uses if u.key == key2}
        return ("before" in sides1 and "after" in sides2) or (
            "before" in sides2 and "after" in sides1
        )


@dataclass
class FunctionScan:
    """Cached per-function artifacts for one file scan."""

    cfg: FunctionCFG
    #: stmt_id -> classified accesses in that statement.
    accesses: dict[int, list[MemoryAccess]] = field(default_factory=dict)
    #: stmt_id -> names of functions called by that statement.
    calls: dict[int, list[str]] = field(default_factory=dict)
    barrier_stmts: list[int] = field(default_factory=list)


class BarrierScanner:
    """Scans one translation unit for barrier sites.

    The scanner owns a :class:`TypeRegistry` populated from the unit (and
    any headers merged into it) so member accesses resolve to struct tags.
    """

    def __init__(
        self,
        unit: ast.TranslationUnit,
        registry: TypeRegistry | None = None,
        limits: ScanLimits | None = None,
        filename: str | None = None,
    ):
        self._unit = unit
        self._registry = registry if registry is not None else TypeRegistry()
        if registry is None:
            self._registry.add_unit(unit)
        self._limits = limits if limits is not None else ScanLimits()
        self._filename = filename or unit.filename
        self._scans: dict[str, FunctionScan] = {}
        #: callee name -> [(caller name, call stmt_id)]
        self._callers: dict[str, list[tuple[str, int]]] = defaultdict(list)
        self._prepare()

    @property
    def registry(self) -> TypeRegistry:
        return self._registry

    @property
    def limits(self) -> ScanLimits:
        return self._limits

    def function_scan(self, name: str) -> FunctionScan | None:
        return self._scans.get(name)

    # -- preparation ------------------------------------------------------------

    def _prepare(self) -> None:
        for fn in self._unit.functions:
            scan = FunctionScan(cfg=build_cfg(fn))
            extractor = AccessExtractor(self._registry)
            extractor.declare_params(fn)
            for stmt in scan.cfg.linear:
                if isinstance(stmt.node, ast.DeclStmt):
                    extractor.declare_locals(stmt.node)
                accesses: list[MemoryAccess] = []
                calls: list[str] = []
                for expr in iter_expressions(stmt):
                    accesses.extend(extractor.extract(expr))
                    for call in iter_calls(expr):
                        name = call.callee_name
                        if name is not None:
                            calls.append(name)
                scan.accesses[stmt.stmt_id] = accesses
                scan.calls[stmt.stmt_id] = calls
                if any(
                    c in BARRIER_PRIMITIVES or c in HELPER_BARRIERS
                    for c in calls
                ):
                    scan.barrier_stmts.append(stmt.stmt_id)
            self._scans[fn.name] = scan
        for caller, scan in self._scans.items():
            for stmt_id, calls in scan.calls.items():
                for callee in calls:
                    if callee in self._scans and callee != caller:
                        self._callers[callee].append((caller, stmt_id))

    # -- scanning ----------------------------------------------------------------

    def scan(self) -> list[BarrierSite]:
        """All barrier sites in the unit, with windows collected."""
        sites: list[BarrierSite] = []
        for fn in self._unit.functions:
            sites.extend(self.scan_function(fn.name))
        return sites

    def scan_function(self, name: str) -> list[BarrierSite]:
        scan = self._scans.get(name)
        if scan is None:
            return []
        sites: list[BarrierSite] = []
        for stmt_id in scan.barrier_stmts:
            for call_name in scan.calls[stmt_id]:
                site = self._make_site(name, scan, stmt_id, call_name)
                if site is not None:
                    sites.append(site)
        return sites

    def _make_site(
        self, fn_name: str, scan: FunctionScan, stmt_id: int, call_name: str
    ) -> BarrierSite | None:
        stmt = scan.cfg.stmt(stmt_id)
        seq = HELPER_BARRIERS.get(call_name)
        spec = BARRIER_PRIMITIVES.get(call_name)
        if seq is None and spec is None:
            return None
        kind = seq[0] if seq is not None else spec.kind
        site = BarrierSite(
            filename=self._filename,
            function=fn_name,
            stmt_id=stmt_id,
            line=stmt.line,
            primitive=call_name,
            kind=kind,
            is_seqcount_helper=seq is not None,
        )
        window = self._limits.window_for(kind)
        self._collect_side(site, scan, stmt_id, window, side="before")
        self._collect_side(site, scan, stmt_id, window, side="after")
        self._attach_same_stmt_accesses(site, scan, stmt_id, call_name)
        self._find_wakeup_and_redundancy(site, scan, stmt_id)
        return site

    # -- window collection ----------------------------------------------------------

    def _collect_side(
        self,
        site: BarrierSite,
        scan: FunctionScan,
        stmt_id: int,
        window: int,
        side: str,
    ) -> None:
        step = 1 if side == "after" else -1
        distance = 0
        current = stmt_id + step
        linear = scan.cfg.linear
        while 0 <= current < len(linear) and distance < window:
            stmt = linear[current]
            if self._is_boundary(scan, stmt):
                return
            distance += 1
            self._record_stmt(site, scan, stmt, distance, side)
            self._inline_callees(site, scan, stmt, distance, side)
            current += step
        # Window reached the function boundary with budget to spare:
        # continue into immediate callers (§4.2).
        if 0 <= current < len(linear) or distance >= window:
            return
        remaining = window - distance
        self._extend_into_callers(site, distance, remaining, side)

    def _is_boundary(self, scan: FunctionScan, stmt: LinearStmt) -> bool:
        """Other barriers and barrier-semantics atomics bound the window."""
        from repro.kernel.semantics import bounds_exploration_window

        for name in scan.calls.get(stmt.stmt_id, ()):
            if name in BARRIER_PRIMITIVES or name in HELPER_BARRIERS:
                return True
            if bounds_exploration_window(name):
                semantics = semantics_of(name)
                if semantics is not None and not semantics.is_wakeup:
                    return True
        return False

    def _record_stmt(
        self,
        site: BarrierSite,
        scan: FunctionScan,
        stmt: LinearStmt,
        distance: int,
        side: str,
        inlined_from: str | None = None,
    ) -> None:
        for access in scan.accesses.get(stmt.stmt_id, ()):
            site.uses.append(
                ObjectUse(
                    key=access.key,
                    side=side,
                    distance=distance,
                    access=access,
                    stmt_id=stmt.stmt_id,
                    inlined_from=inlined_from,
                )
            )

    def _inline_callees(
        self,
        site: BarrierSite,
        scan: FunctionScan,
        stmt: LinearStmt,
        distance: int,
        side: str,
    ) -> None:
        for callee in scan.calls.get(stmt.stmt_id, ()):
            callee_scan = self._scans.get(callee)
            if callee_scan is None or callee == site.function:
                continue
            for sid, accesses in callee_scan.accesses.items():
                for access in accesses:
                    site.uses.append(
                        ObjectUse(
                            key=access.key,
                            side=side,
                            distance=distance,
                            access=access,
                            stmt_id=sid,
                            inlined_from=callee,
                        )
                    )

    def _extend_into_callers(
        self, site: BarrierSite, base_distance: int, remaining: int, side: str
    ) -> None:
        for caller, call_stmt in self._callers.get(site.function, ()):
            caller_scan = self._scans[caller]
            step = 1 if side == "after" else -1
            current = call_stmt + step
            distance = base_distance
            budget = remaining
            linear = caller_scan.cfg.linear
            while 0 <= current < len(linear) and budget > 0:
                stmt = linear[current]
                if self._is_boundary(caller_scan, stmt):
                    break
                distance += 1
                budget -= 1
                self._record_stmt(
                    site, caller_scan, stmt, distance, side,
                    inlined_from=caller,
                )
                current += step

    def _attach_same_stmt_accesses(
        self, site: BarrierSite, scan: FunctionScan, stmt_id: int, call_name: str
    ) -> None:
        """Accesses implied by the primitive itself (store_release & co.)."""
        spec = BARRIER_PRIMITIVES.get(call_name)
        seq = HELPER_BARRIERS.get(call_name)
        for access in scan.accesses.get(stmt_id, ()):
            if access.via == call_name and spec is not None:
                side = {
                    ImpliedAccess.STORE_BEFORE: "before",
                    ImpliedAccess.STORE_AFTER: "after",
                    ImpliedAccess.LOAD_BEFORE: "before",
                }.get(spec.implied_access)
                if side is not None:
                    site.uses.append(
                        ObjectUse(
                            key=access.key, side=side, distance=1,
                            access=access, stmt_id=stmt_id,
                        )
                    )
            elif seq is not None:
                # The seq object itself sits on the helper's access side.
                site.uses.append(
                    ObjectUse(
                        key=access.key, side=seq[1], distance=1,
                        access=access, stmt_id=stmt_id,
                    )
                )

    def _find_wakeup_and_redundancy(
        self, site: BarrierSite, scan: FunctionScan, stmt_id: int
    ) -> None:
        """Record the nearest wake-up call and any immediate barrier-
        semantics call after the barrier (§3 implicit barriers, §5.1)."""
        linear = scan.cfg.linear
        distance = 0
        for current in range(stmt_id + 1, len(linear)):
            distance += 1
            names = scan.calls.get(linear[current].stmt_id, ())
            for name in names:
                if site.wakeup_after is None and is_wakeup_call(name):
                    site.wakeup_after = (name, distance)
                if site.redundant_with is None and (
                    name in BARRIER_PRIMITIVES or has_barrier_semantics(name)
                ):
                    site.redundant_with = (name, distance)
            if site.wakeup_after is not None and site.redundant_with is not None:
                return
            if distance >= self._limits.read_window:
                return
