"""Algorithm 1 — pairing barriers via common shared objects.

The implementation follows the paper's pseudocode:

1. build a hashmap from shared-object keys to the barriers whose windows
   contain them;
2. for each *write* barrier, enumerate pairs of distinct objects in its
   window, find the other barrier minimizing
   ``weight = d(o1)·d(o2) (self) × d(o1)·d(o2) (candidate)``, and require
   that at least one of the two barriers actually *orders* the pair (one
   object before it, the other after);
3. when a barrier appears in several candidate pairings, keep the one
   with the lowest weight;
4. grow each surviving pairing with unpaired barriers whose windows
   contain all of the pairing's common objects (multi-barrier pairings).

The IPC special case (§4.2) is applied before pairing: a write barrier
whose nearest wake-up call is closer than its matched shared objects is
left unpaired — the IPC acts as the implicit read barrier.

The hashmap of step 1 lives in a :class:`PairingIndex` that supports
file-level deltas (``remove_file`` / ``add_sites``): the engine keeps one
index alive across runs and only touches the entries of files whose scan
results changed, so an incremental re-analysis pays O(changed sites)
instead of O(all sites) to prepare pairing.  The index also memoizes the
best candidate per write barrier, invalidated by shared-object key when a
delta touches any object in that barrier's window, and the last run's
:class:`Pairing` per writer: a pairing whose candidate and members are
unchanged is the same object in the next result, and step 4 re-runs only
for pairings whose common objects meet a key a delta touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.accesses import ObjectKey
from repro.analysis.barrier_scan import BarrierSite
from repro.pairing.model import Pairing, PairingResult


@dataclass
class _Candidate:
    writer: BarrierSite
    match: BarrierSite
    o1: ObjectKey
    o2: ObjectKey
    weight: float


@dataclass
class PairingIndex:
    """Incrementally maintained ``shared object -> barriers`` map.

    Sites are registered per file; ``add_sites``/``remove_file`` update
    the object map and the per-writer candidate cache by delta.  All
    orderings derived from the index are canonical (files in sorted
    order, sites in scan order within a file), so a sequence of deltas
    and a from-scratch build produce identical pairing results.
    """

    include_unresolved: bool = False
    #: path -> that file's sites, in scan order (the list object is the
    #: change token: ``update_file`` is a no-op for the same list).
    _file_sites: dict[str, list[BarrierSite]] = field(default_factory=dict, repr=False)
    _obj_map: dict[ObjectKey, list[BarrierSite]] = field(default_factory=dict, repr=False)
    #: id(site) -> (path, position-in-file); the canonical sort key.
    _order: dict[int, tuple[str, int]] = field(default_factory=dict, repr=False)
    #: barrier_id -> memoized best candidate (None = "no match").
    _candidates: dict[str, _Candidate | None] = field(default_factory=dict, repr=False)
    _candidate_token: tuple | None = None
    #: writer barrier_id -> the pairing the last run built from it.
    _pairings: dict[str, Pairing] = field(default_factory=dict, repr=False)
    #: Object keys whose barrier lists a delta changed since ``_pairings``
    #: was stored.
    _touched: set[ObjectKey] = field(default_factory=set, repr=False)
    #: Count of delta operations applied (observability/tests).
    updates: int = 0

    # -- queries -----------------------------------------------------------

    def files(self) -> list[str]:
        return list(self._file_sites)

    def file_sites(self, path: str) -> list[BarrierSite]:
        return self._file_sites.get(path, [])

    def site_count(self) -> int:
        return sum(len(sites) for sites in self._file_sites.values())

    def sites(self):
        """All sites in canonical order (sorted paths, scan order)."""
        for path in sorted(self._file_sites):
            yield from self._file_sites[path]

    def barriers_for(self, key: ObjectKey) -> list[BarrierSite]:
        return self._obj_map.get(key, [])

    def order_key(self, site: BarrierSite) -> tuple[str, int]:
        return self._order.get(id(site), (site.filename, 1 << 30))

    # -- deltas ------------------------------------------------------------

    def _tracks(self, key: ObjectKey) -> bool:
        return self.include_unresolved or key.is_resolved

    def add_sites(self, path: str, sites: list[BarrierSite]) -> None:
        if path in self._file_sites:
            self.remove_file(path)
        self._file_sites[path] = sites
        changed: set[ObjectKey] = set()
        for position, site in enumerate(sites):
            self._order[id(site)] = (path, position)
            for key in site.keys():
                if self._tracks(key):
                    self._obj_map.setdefault(key, []).append(site)
                    changed.add(key)
        self._invalidate(changed)
        self.updates += 1

    def remove_file(self, path: str) -> None:
        sites = self._file_sites.pop(path, None)
        if not sites:
            return
        removed = {id(site) for site in sites}
        changed: set[ObjectKey] = set()
        for site in sites:
            self._order.pop(id(site), None)
            self._candidates.pop(site.barrier_id, None)
            for key in site.keys():
                if self._tracks(key):
                    changed.add(key)
        for key in changed:
            remaining = [
                site for site in self._obj_map.get(key, ())
                if id(site) not in removed
            ]
            if remaining:
                self._obj_map[key] = remaining
            else:
                self._obj_map.pop(key, None)
        self._invalidate(changed)
        self.updates += 1

    def update_file(self, path: str, sites: list[BarrierSite]) -> bool:
        """Replace ``path``'s sites; no-op (False) for the same list."""
        if self._file_sites.get(path) is sites:
            return False
        self.add_sites(path, sites)
        return True

    def _invalidate(self, keys: set[ObjectKey]) -> None:
        """Drop memoized candidates of barriers whose windows contain a
        changed object key — exactly the set whose best match can move."""
        self._touched |= keys
        for key in keys:
            for site in self._obj_map.get(key, ()):
                self._candidates.pop(site.barrier_id, None)

    def candidate_cache(self, token: tuple) -> dict[str, _Candidate | None]:
        """The memo dict, valid for one pairing configuration only."""
        if token != self._candidate_token:
            self._candidates = {}
            self._pairings = {}
            self._candidate_token = token
        return self._candidates

    def swap_pairings(
        self, pairings: dict[str, Pairing]
    ) -> tuple[dict[str, Pairing], set[ObjectKey]]:
        """Store this run's pairings by writer id; return the previous
        run's and the keys touched since.  Valid for the token last
        passed to :meth:`candidate_cache`."""
        previous, touched = self._pairings, self._touched
        self._pairings, self._touched = pairings, set()
        return previous, touched


class PairingEngine:
    """Pairs barrier sites collected across all analyzed files."""

    def __init__(
        self,
        sites: list[BarrierSite] | None = None,
        min_common_objects: int = 2,
        allow_same_function: bool = False,
        include_unresolved: bool = False,
        use_distance_weight: bool = True,
        require_ordering: bool = True,
        index: PairingIndex | None = None,
    ):
        """Create a pairing engine over ``sites`` or a shared ``index``.

        The middle parameters exist for ablation studies:

        * ``min_common_objects=1`` pairs barriers sharing a *single*
          object (the paper requires two);
        * ``use_distance_weight=False`` takes the first candidate
          instead of minimizing the distance product;
        * ``require_ordering=False`` drops the requirement that one
          barrier actually orders the object pair.

        Passing ``index`` reuses a caller-owned :class:`PairingIndex`
        (and its candidate memo) instead of building one from ``sites``
        — the engine's incremental path.
        """
        if index is not None and sites is not None:
            raise ValueError("pass either sites or index, not both")
        self._min_common = min_common_objects
        self._allow_same_function = allow_same_function
        self._include_unresolved = include_unresolved
        self._use_distance_weight = use_distance_weight
        self._require_ordering = require_ordering
        if index is None:
            index = PairingIndex(include_unresolved=include_unresolved)
            by_file: dict[str, list[BarrierSite]] = {}
            for site in sites or []:
                by_file.setdefault(site.filename, []).append(site)
            for path, group in by_file.items():
                index.add_sites(path, group)
        elif index.include_unresolved != include_unresolved:
            rebuilt = PairingIndex(include_unresolved=include_unresolved)
            for path in index.files():
                rebuilt.add_sites(path, index.file_sites(path))
            index = rebuilt
        self._index = index
        #: Filled by :meth:`pair`; read by the engine's profiler.
        self.stats: dict[str, int] = {}

    def _config_token(self) -> tuple:
        return (
            self._min_common,
            self._allow_same_function,
            self._include_unresolved,
            self._use_distance_weight,
            self._require_ordering,
        )

    # -- public API ----------------------------------------------------------

    def compute_candidates(
        self, sites: list[BarrierSite]
    ) -> "list[_Candidate | None]":
        """Best candidate per site, through the index's memo.

        The executor's worker processes call this over a shard of write
        barriers: it is exactly the candidate-search half of
        :meth:`pair` (memo included, so warm workers reuse prior
        answers) without the global resolve/extend phases, which stay in
        the parent.
        """
        cache = self._index.candidate_cache(self._config_token())
        self.stats = {"candidates_reused": 0, "candidates_computed": 0}
        out: list[_Candidate | None] = []
        for site in sites:
            if site.barrier_id in cache:
                best = cache[site.barrier_id]
                self.stats["candidates_reused"] += 1
            else:
                best = self._best_candidate(site)
                cache[site.barrier_id] = best
                self.stats["candidates_computed"] += 1
            out.append(best)
        return out

    def pair(self, candidate_provider=None) -> PairingResult:
        """Run Algorithm 1 over the index.

        ``candidate_provider`` is the parallel-offload hook: called with
        the write barriers whose best candidate is not memoized, it may
        return ``{barrier_id: _Candidate | None}`` computed elsewhere
        (worker processes) — or ``None`` to decline, in which case the
        candidates are computed serially here.  Provided entries seed
        the memo, so the rest of the algorithm is identical either way.
        """
        result = PairingResult()
        candidates: list[_Candidate] = []
        deferred_ipc: set[str] = set()
        cache = self._index.candidate_cache(self._config_token())
        self.stats = {"candidates_reused": 0, "candidates_computed": 0}

        writers = [
            site for site in self._index.sites() if site.is_write_barrier
        ]
        if candidate_provider is not None:
            missing = [
                site for site in writers if site.barrier_id not in cache
            ]
            if missing:
                provided = candidate_provider(missing)
                if provided is not None:
                    for site in missing:
                        if site.barrier_id in provided:
                            cache[site.barrier_id] = provided[site.barrier_id]
                    self.stats["candidates_offloaded"] = len(provided)

        for site in writers:
            if site.barrier_id in cache:
                best = cache[site.barrier_id]
                self.stats["candidates_reused"] += 1
            else:
                best = self._best_candidate(site)
                cache[site.barrier_id] = best
                self.stats["candidates_computed"] += 1
            if best is None:
                if site.wakeup_after is not None:
                    deferred_ipc.add(site.barrier_id)
                    result.implicit_ipc.append(site)
                continue
            if self._ipc_is_closer(site, best):
                deferred_ipc.add(site.barrier_id)
                result.implicit_ipc.append(site)
                continue
            candidates.append(best)

        result.pairings = _drop_subsumed(self._build(self._resolve(candidates)))

        paired = result.paired_barriers
        for site in self._index.sites():
            if site.barrier_id not in paired and site.barrier_id not in deferred_ipc:
                result.unpaired.append(site)
        return result

    # -- candidate search ------------------------------------------------------

    def _best_candidate(self, site: BarrierSite) -> _Candidate | None:
        best: _Candidate | None = None
        for o1, o2, my_weight in self._candidate_object_pairs(site):
            match, pair_weight = self._get_pair(site, o1, o2)
            if match is None:
                continue
            if self._require_ordering and o1 != o2 and not (
                site.orders(o1, o2) or match.orders(o1, o2)
            ):
                continue
            weight = my_weight * pair_weight
            if best is None or weight < best.weight:
                best = _Candidate(site, match, o1, o2, weight)
                if not self._use_distance_weight:
                    return best  # ablation: first candidate wins
        return best

    def _candidate_object_pairs(self, site: BarrierSite):
        yield from self._make_pairs(site)
        if self._min_common < 2:
            # Ablation: single-object candidates (o1 == o2).
            keys: dict[ObjectKey, int] = {}
            for use in site.uses:
                if not self._include_unresolved and not use.key.is_resolved:
                    continue
                current = keys.get(use.key)
                if current is None or use.distance < current:
                    keys[use.key] = use.distance
            for key, distance in sorted(
                keys.items(), key=lambda kv: (kv[0].struct, kv[0].field)
            ):
                yield key, key, float(distance * distance)

    def _make_pairs(self, site: BarrierSite):
        """Distinct object-key pairs from a barrier's window, with the
        product of their closest distances (``make_pairs`` in Algorithm 1)."""
        keys: dict[ObjectKey, int] = {}
        for use in site.uses:
            if not self._include_unresolved and not use.key.is_resolved:
                continue
            current = keys.get(use.key)
            if current is None or use.distance < current:
                keys[use.key] = use.distance
        items = sorted(keys.items(), key=lambda kv: (kv[0].struct, kv[0].field))
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                (k1, d1), (k2, d2) = items[i], items[j]
                yield k1, k2, float(d1 * d2)

    def _get_pair(
        self, site: BarrierSite, o1: ObjectKey, o2: ObjectKey
    ) -> tuple[BarrierSite | None, float]:
        """Other barriers whose windows contain both o1 and o2; pick the one
        with the smallest distance product (``get_pair`` in Algorithm 1).
        Ties go to the candidate earliest in canonical site order, keeping
        incremental runs identical to from-scratch runs."""
        set1 = self._index.barriers_for(o1)
        set2 = {b.barrier_id for b in self._index.barriers_for(o2)}
        best: BarrierSite | None = None
        best_weight = math.inf
        best_order: tuple[str, int] | None = None
        for other in set1:
            if other.barrier_id == site.barrier_id:
                continue
            if other.barrier_id not in set2:
                continue
            if not self._allow_same_function and (
                other.filename == site.filename
                and other.function == site.function
            ):
                continue
            use1 = other.best_use(o1)
            use2 = other.best_use(o2)
            if use1 is None or use2 is None:
                continue
            weight = float(use1.distance * use2.distance)
            if not self._use_distance_weight:
                return other, weight  # ablation: first match wins
            order = self._index.order_key(other)
            if weight < best_weight or (
                weight == best_weight
                and best_order is not None
                and order < best_order
            ):
                best, best_weight, best_order = other, weight, order
        return best, best_weight

    def _ipc_is_closer(self, site: BarrierSite, candidate: _Candidate) -> bool:
        """§4.2: a wake-up call closer than the matched objects means the
        barrier orders memory against the IPC, not against another barrier."""
        if site.wakeup_after is None:
            return False
        wakeup_distance = site.wakeup_after[1]
        use1 = site.best_use(candidate.o1)
        use2 = site.best_use(candidate.o2)
        closest_obj = min(
            use.distance for use in (use1, use2) if use is not None
        ) if (use1 or use2) else math.inf
        return wakeup_distance < closest_obj

    # -- conflict resolution and extension ------------------------------------------

    def _resolve(self, candidates: list[_Candidate]) -> list[_Candidate]:
        """Keep, per barrier, only the lowest-weight candidate."""
        taken: set[str] = set()
        kept: list[_Candidate] = []
        ordered = sorted(
            candidates,
            key=lambda c: (c.weight, self._index.order_key(c.writer)),
        )
        for cand in ordered:
            if cand.writer.barrier_id in taken or cand.match.barrier_id in taken:
                continue
            taken.add(cand.writer.barrier_id)
            taken.add(cand.match.barrier_id)
            kept.append(cand)
        return kept

    def _build(self, resolved: list[_Candidate]) -> list[Pairing]:
        """One pairing per resolved candidate, extended (step 4).

        The previous run's pairing for the same writer is returned again
        when its match and weight are unchanged and its extended member
        list comes out the same.  The extension is recomputed only when
        a delta touched one of its common objects: every joiner is found
        under those keys.  No pairing a result returned is mutated.
        """
        built: dict[str, Pairing] = {}
        previous, touched = self._index.swap_pairings(built)
        reused = 0
        for cand in resolved:
            old = previous.get(cand.writer.barrier_id)
            if old is not None and not (
                old.barriers[0] is cand.writer
                and old.barriers[1] is cand.match
                and old.weight == cand.weight
            ):
                old = None
            if old is not None and touched.isdisjoint(old.common_objects):
                pairing = old
            else:
                common = old.common_objects if old is not None else sorted(
                    self._common_keys(cand.writer, cand.match),
                    key=lambda k: (k.struct, k.field),
                )
                members = self._extend(cand.writer, cand.match, common)
                if old is not None and len(members) == len(old.barriers) \
                        and all(a is b for a, b in zip(members, old.barriers)):
                    pairing = old
                else:
                    pairing = Pairing(
                        barriers=members, common_objects=common,
                        weight=cand.weight,
                    )
            reused += pairing is old
            built[cand.writer.barrier_id] = pairing
        self.stats["pairings_reused"] = reused
        self.stats["pairings_built"] = len(built) - reused
        return list(built.values())

    def _common_keys(
        self, first: BarrierSite, second: BarrierSite
    ) -> set[ObjectKey]:
        keys = {
            k for k in first.keys()
            if self._include_unresolved or k.is_resolved
        }
        return keys & second.keys()

    def _extend(
        self, writer: BarrierSite, match: BarrierSite,
        common: list[ObjectKey],
    ) -> list[BarrierSite]:
        """``[writer, match]`` grown with the other barriers whose
        windows contain all common objects (lines 44-53 of Algorithm 1).

        A barrier already paired elsewhere may still join when its window
        contains the full common-object set — this is how the four
        seqcount barriers of Figure 5 coalesce.  Candidates come from the
        object map (any barrier containing all common objects must appear
        under each of them), so only the smallest per-key barrier list is
        scanned instead of every site.
        """
        members = [writer, match]
        needed = set(common)
        if not needed:
            return members
        member_ids = {writer.barrier_id, match.barrier_id}
        smallest = min(
            (self._index.barriers_for(key) for key in needed), key=len,
        )
        joiners = sorted(
            (
                site for site in smallest
                if site.barrier_id not in member_ids
                and needed <= site.keys()
            ),
            key=self._index.order_key,
        )
        for site in joiners:
            if site.barrier_id in member_ids:
                continue
            members.append(site)
            member_ids.add(site.barrier_id)
        return members


def _drop_subsumed(pairings: list[Pairing]) -> list[Pairing]:
    """``pairings`` by weight, without those whose barrier set is
    contained in an earlier (lower-weight) kept pairing's.

    A containing set holds the writer's id too, so only the kept sets
    listed under that id are tested.
    """
    kept: list[Pairing] = []
    sets_with: dict[str, list[set[str]]] = {}
    for pairing in sorted(pairings, key=lambda p: p.weight):
        ids = {b.barrier_id for b in pairing.barriers}
        if any(ids <= other for other in
               sets_with.get(pairing.barriers[0].barrier_id, ())):
            continue
        kept.append(pairing)
        for barrier_id in ids:
            sets_with.setdefault(barrier_id, []).append(ids)
    return kept
