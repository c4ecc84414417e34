"""Vector bin-packing feasibility for CU allocation.

The beta = 0 variant of the paper's MINLP ("MINLP" curves in Figs. 3-5)
decomposes exactly: the initiation interval depends only on the total CU
counts ``N_k``, and a choice of counts is realisable iff the multiset of CUs
(each CU of kernel ``k`` occupying the vector ``R_k`` plus bandwidth ``B_k``)
packs into ``F`` bins.  The bins are identical on the paper's homogeneous
platform; on a heterogeneous platform each bin carries its own capacity
vector (``bin_capacities``, one row per FPGA in platform order).  This module
provides that feasibility test: fast first-fit-decreasing, and an exact
depth-first search with pruning when the heuristic fails.

The exact search keeps its load state in a NumPy ``(bins x dims)`` matrix and
prunes three ways:

* **aggregate slack** -- the per-dimension demand of every item still to be
  placed (a suffix sum precomputed once per search) must fit into the total
  remaining slack, tracked incrementally in O(dims) per node;
* **equal-bin symmetry breaking** -- whenever a bin has the same capacity as
  the previous bin (always, with identical bins; within one device class on
  a mixed platform) and its load equals the previous bin's load *before* the
  current item type was placed there, the current bin may receive at most as
  many CUs as the previous one (for the first item type all bins of a class
  are empty, so its CUs can only open bins in canonical non-increasing prefix
  order per class);
* a **node budget** bounding worst-case effort; if it is exhausted a reported
  infeasibility is flagged as not proven (``PackingResult.exact == False``).

Because the same CU count vector is probed repeatedly -- by the binary search
over candidate II values, by branch-and-bound nodes and by design-space sweep
re-solves -- feasibility results can be memoized in a :class:`PackingMemo`
shared across packer instances (mirroring the ``RelaxationCache`` of
:mod:`repro.minlp.branch_and_bound`).  On top of the exact-key lookup the
memo answers by *dominance*: packing feasibility is monotone in the count
vector (remove CUs from a feasible packing and it stays feasible; add CUs to
a proven-infeasible multiset and it stays infeasible), so a count vector
packs if any componentwise-larger memoized vector packed and fails if a
componentwise-smaller one provably failed.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..obs.memo import BoundedMemo
from ..obs.trace import span
from . import _packcore

_ENV_STRATEGY = "REPRO_PACKER_STRATEGY"


@dataclass(frozen=True)
class PackingItemType:
    """A group of identical items (the CUs of one kernel)."""

    name: str
    count: int
    size: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if any(s < 0 for s in self.size):
            raise ValueError("item sizes must be non-negative")


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a packing attempt."""

    feasible: bool
    assignment: Mapping[str, tuple[int, ...]]  # kernel name -> CUs per bin
    exact: bool  # True if infeasibility (when reported) is proven
    nodes: int = 0  # exact-search nodes expended (0: screens/heuristic answered)
    completion_nodes: int = 0  # bin-completion engine nodes (0: not consulted)

    @classmethod
    def infeasible(
        cls, exact: bool, nodes: int = 0, completion_nodes: int = 0
    ) -> "PackingResult":
        return cls(
            feasible=False,
            assignment={},
            exact=exact,
            nodes=nodes,
            completion_nodes=completion_nodes,
        )


class PackingMemo:
    """Memo of packing results keyed on the CU count vector of the request.

    One packer configuration (bin count, capacities, placement, node budget)
    maps a given item multiset to a deterministic result, so results can be
    reused across packer instances: the binary search of the exact minimum-II
    solver probes overlapping count vectors for adjacent candidate II values,
    and sweep re-solves repeat them wholesale.  Use :func:`shared_packing_memo`
    with the packer's configuration key to get that sharing.  Eviction is FIFO
    with a bounded entry count.

    Beyond exact keys the memo exploits *dominance*: entries are bucketed by
    their item signature (names and sizes, without counts), and
    :meth:`get_dominated` answers a query from any memoized count vector that
    is componentwise larger and packed (the stored assignment minus the
    surplus CUs is a valid packing) or componentwise smaller and provably
    failed (adding CUs cannot help).  This reuses monotone information across
    the minimum-II binary search's candidates and across sweep re-solves.
    """

    #: Per-signature cap on the dominance index.  Exact-key entries are
    #: unlimited (up to ``max_entries``); the dominance scan is linear in the
    #: bucket and runs under the memo lock, so it stays bounded regardless of
    #: how many count vectors one workload probes.
    DOMINANCE_BUCKET_LIMIT = 256

    def __init__(self, max_entries: int = 16384):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        #: full key -> (signature, counts, result); FIFO order for eviction.
        self._entries: "OrderedDict[tuple, tuple[tuple, tuple, PackingResult]]" = OrderedDict()
        #: signature -> {counts: result}, the (bounded) dominance index.
        self._by_signature: dict[tuple, dict[tuple, PackingResult]] = {}
        # Shared memos are hit concurrently by the threaded HTTP service;
        # the lock keeps eviction-during-insert and counter updates safe.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.dominance_hits = 0

    @staticmethod
    def key_of(items: Sequence[PackingItemType]) -> tuple:
        return tuple((item.name, item.count, item.size) for item in items)

    @staticmethod
    def signature_of(items: Sequence[PackingItemType]) -> tuple:
        """The count-free part of the key: item names and sizes, in order."""
        return tuple((item.name, item.size) for item in items)

    @staticmethod
    def counts_of(items: Sequence[PackingItemType]) -> tuple[int, ...]:
        return tuple(item.count for item in items)

    def get(self, items: Sequence[PackingItemType]) -> "PackingResult | None":
        key = self.key_of(items)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry[2]

    def get_dominated(self, items: Sequence[PackingItemType]) -> "PackingResult | None":
        """Answer a query by dominance against the memoized count vectors.

        Returns a derived :class:`PackingResult` (counted as a
        ``dominance_hit``) or ``None`` when no stored vector dominates the
        query.  Feasible answers carry an assignment obtained by stripping
        the surplus CUs from the dominating packing; infeasible answers are
        only derived from *proven* (``exact``) failures.
        """
        signature = self.signature_of(items)
        counts = self.counts_of(items)
        with self._lock:
            bucket = self._by_signature.get(signature)
            if not bucket:
                return None
            for stored_counts, result in bucket.items():
                if result.feasible and all(
                    stored >= wanted for stored, wanted in zip(stored_counts, counts)
                ):
                    derived = PackingResult(
                        feasible=True,
                        assignment=_strip_assignment(
                            result.assignment, stored_counts, counts, items
                        ),
                        exact=True,
                    )
                    self.dominance_hits += 1
                    return derived
                if (
                    not result.feasible
                    and result.exact
                    and all(
                        stored <= wanted for stored, wanted in zip(stored_counts, counts)
                    )
                ):
                    self.dominance_hits += 1
                    return PackingResult.infeasible(exact=True)
        return None

    def put(self, items: Sequence[PackingItemType], result: PackingResult) -> None:
        key = self.key_of(items)
        signature = self.signature_of(items)
        counts = self.counts_of(items)
        with self._lock:
            if key not in self._entries and len(self._entries) >= self._max_entries:
                _, (old_signature, old_counts, _) = self._entries.popitem(last=False)
                old_bucket = self._by_signature.get(old_signature)
                if old_bucket is not None:
                    old_bucket.pop(old_counts, None)
                    if not old_bucket:
                        self._by_signature.pop(old_signature, None)
            self._entries[key] = (signature, counts, result)
            bucket = self._by_signature.setdefault(signature, {})
            if counts in bucket or len(bucket) < self.DOMINANCE_BUCKET_LIMIT:
                bucket[counts] = result

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_signature.clear()
            self.hits = 0
            self.misses = 0
            self.dominance_hits = 0


def _strip_assignment(
    assignment: Mapping[str, tuple[int, ...]],
    stored_counts: Sequence[int],
    wanted_counts: Sequence[int],
    items: Sequence[PackingItemType],
) -> dict[str, tuple[int, ...]]:
    """Remove surplus CUs from a dominating packing (highest bins first).

    Removing items from a feasible packing keeps every bin within capacity,
    so any deterministic removal order yields a valid assignment; stripping
    from the highest-indexed bins first keeps the canonical consolidated
    prefix shape the exact search emits.
    """
    stripped: dict[str, tuple[int, ...]] = {}
    for item, stored, wanted in zip(items, stored_counts, wanted_counts):
        per_bin = list(assignment.get(item.name, ()))
        surplus = stored - wanted
        for bin_index in range(len(per_bin) - 1, -1, -1):
            if surplus <= 0:
                break
            take = min(per_bin[bin_index], surplus)
            per_bin[bin_index] -= take
            surplus -= take
        stripped[item.name] = tuple(per_bin)
    return stripped


#: Bounded registry of packing memos shared across packer instances, keyed by
#: the packer configuration (value-based, so equivalent problems share).
_SHARED_MEMOS: "BoundedMemo[PackingMemo]" = BoundedMemo(64, name="packing_memos")
#: Drop every shared packing memo (used by tests and benchmarks).
shared_packing_memos_clear = _SHARED_MEMOS.clear


def shared_packing_memo(key: tuple, max_entries: int = 16384) -> PackingMemo:
    """Packing memo shared by every packer with the same configuration key."""
    return _SHARED_MEMOS.get_or_create(key, lambda: PackingMemo(max_entries=max_entries))


class VectorBinPacker:
    """Pack groups of identical multi-dimensional items into bins.

    Bins are identical by default (``capacity`` is the shared capacity
    vector, the paper's homogeneous platform); ``bin_capacities`` instead
    gives every bin its own capacity row (a heterogeneous platform, one row
    per FPGA in class-major platform order so equal-capacity bins are
    adjacent and symmetry breaking stays effective within each class).
    """

    def __init__(
        self,
        num_bins: int,
        capacity: Sequence[float] | None = None,
        tolerance: float = 1e-9,
        max_backtrack_nodes: int = 200_000,
        placement: str = "consolidate",
        memo: PackingMemo | None = None,
        bin_capacities: "Sequence[Sequence[float]] | None" = None,
        strategy: str | None = None,
    ):
        if num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if placement not in ("consolidate", "balance"):
            raise ValueError("placement must be 'consolidate' or 'balance'")
        if strategy is None:
            strategy = os.environ.get(_ENV_STRATEGY, "completion")
        strategy = strategy.strip().lower() or "completion"
        if strategy not in ("completion", "branching"):
            raise ValueError("strategy must be 'completion' or 'branching'")
        if (capacity is None) == (bin_capacities is None):
            raise ValueError("pass exactly one of capacity or bin_capacities")
        if bin_capacities is not None:
            rows = tuple(tuple(float(c) for c in row) for row in bin_capacities)
            if len(rows) != num_bins:
                raise ValueError(
                    f"bin_capacities has {len(rows)} rows, expected {num_bins}"
                )
            dims = {len(row) for row in rows}
            if len(dims) != 1:
                raise ValueError("every bin needs the same number of dimensions")
            if any(c < 0 for row in rows for c in row):
                raise ValueError("capacities must be non-negative")
            self.uniform = all(row == rows[0] for row in rows)
            self.bin_capacities = rows
            #: Per-dimension ceiling over the bins (the uniform capacity when
            #: all bins are identical) -- used by ordering heuristics only.
            self.capacity = (
                rows[0] if self.uniform else tuple(max(column) for column in zip(*rows))
            )
        else:
            assert capacity is not None
            if any(c < 0 for c in capacity):
                raise ValueError("capacities must be non-negative")
            self.uniform = True
            self.capacity = tuple(float(c) for c in capacity)
            self.bin_capacities = (self.capacity,) * num_bins
        self.num_bins = num_bins
        self.tolerance = tolerance
        self.max_backtrack_nodes = max_backtrack_nodes
        #: "consolidate" fills the fullest bin that still fits (few bins used);
        #: "balance" fills the emptiest bin first, mimicking the spread-out
        #: allocations that a pure II-minimising MINLP solver typically emits.
        self.placement = placement
        #: "completion" (default) proves feasibility with the bin-completion
        #: engine and extracts the canonical assignment through the branching
        #: search pruned by completion-based infeasibility proofs; "branching"
        #: is the historical item-at-a-time search kept as parity reference.
        self.strategy = strategy
        self.memo = memo
        #: Exact-search nodes expended by the last :meth:`pack` call.
        self.last_nodes = 0
        #: Bin-completion engine nodes expended by the last :meth:`pack` call.
        self.last_completion_nodes = 0
        #: Memo traffic of THIS packer instance.  Shared memos also keep
        #: global ``hits``/``misses``, but those interleave across concurrent
        #: solves; per-solve accounting must read the packer-local counters.
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_dominance_hits = 0

    def config_key(self) -> tuple:
        """Value key identifying this configuration (for shared memos)."""
        key = (
            "pack",
            self.num_bins,
            self.capacity,
            self.placement,
            self.max_backtrack_nodes,
            self.tolerance,
            self.strategy,
        )
        if not self.uniform:
            key = key + (self.bin_capacities,)
        return key

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def pack(self, items: Sequence[PackingItemType]) -> PackingResult:
        """Try to pack all items; memo and heuristics first, exact search last."""
        dims = len(self.capacity)
        for item in items:
            if len(item.size) != dims:
                raise ValueError(
                    f"item {item.name!r} has {len(item.size)} dimensions, expected {dims}"
                )

        self.last_nodes = 0
        self.last_completion_nodes = 0
        with span("bin_pack") as trace_span:
            if self.memo is not None:
                cached = self.memo.get(items)
                if cached is not None:
                    self.memo_hits += 1
                    if trace_span is not None:
                        trace_span.attributes["cached"] = True
                    return cached
                dominated = self.memo.get_dominated(items)
                if dominated is not None:
                    self.memo_dominance_hits += 1
                    # Promote to an exact entry so identical re-probes hit
                    # directly.
                    self.memo.put(items, dominated)
                    if trace_span is not None:
                        trace_span.attributes["cached"] = True
                    return dominated
                self.memo_misses += 1
            result = self._pack_uncached(items)
            if self.memo is not None:
                self.memo.put(items, result)
            if trace_span is not None:
                trace_span.attributes["nodes"] = self.last_nodes
                trace_span.attributes["completion_nodes"] = self.last_completion_nodes
            return result

    def _pack_uncached(self, items: Sequence[PackingItemType]) -> PackingResult:
        if not self._aggregate_feasible(items):
            return PackingResult.infeasible(exact=True)
        if not self._single_item_feasible(items):
            return PackingResult.infeasible(exact=True)
        if not self._counting_feasible(items):
            return PackingResult.infeasible(exact=True)

        heuristic = self._first_fit_decreasing(items)
        if heuristic is not None:
            return PackingResult(feasible=True, assignment=heuristic, exact=True)

        return self._exact_search(items)

    # ------------------------------------------------------------------ #
    # Quick necessary conditions
    # ------------------------------------------------------------------ #
    def _aggregate_feasible(self, items: Sequence[PackingItemType]) -> bool:
        for dim in range(len(self.capacity)):
            total = sum(item.count * item.size[dim] for item in items)
            if self.uniform:
                slack = self.num_bins * self.capacity[dim]
            else:
                slack = sum(row[dim] for row in self.bin_capacities)
            if total > slack + self.tolerance:
                return False
        return True

    def _single_item_feasible(self, items: Sequence[PackingItemType]) -> bool:
        for item in items:
            if item.count == 0:
                continue
            if self.uniform:
                for dim in range(len(self.capacity)):
                    if item.size[dim] > self.capacity[dim] + self.tolerance:
                        return False
            else:
                # Mixed bins: the item must fit whole into at least one bin.
                if not any(
                    all(
                        item.size[dim] <= row[dim] + self.tolerance
                        for dim in range(len(self.capacity))
                    )
                    for row in self.bin_capacities
                ):
                    return False
        return True

    def _counting_feasible(self, items: Sequence[PackingItemType]) -> bool:
        """Per-dimension slot-counting bound.

        Identical bins: a bin cannot hold ``m + 1`` items each larger than
        ``C / (m + 1)`` (their sizes would sum past the capacity ``C``), so in
        any packing ``#{CUs with size > C / (m + 1)} <= m * num_bins``.  This
        proves infeasible many near-capacity instances on which the aggregate
        bound is silent -- e.g. 33 CUs of size ~15 against 8 bins of capacity
        70 -- without expanding a single search node.

        Mixed bins: the bound is applied per device class through its dual
        form -- for every item size ``s``, bin ``b`` holds at most
        ``floor(C_b / s)`` items at least that large, so
        ``#{CUs with size >= s} <= sum_b floor(C_b / s)``.
        """
        if self.uniform:
            total = sum(item.count for item in items)
            # Larger m cannot violate the bound: the big-item count is <= total.
            max_m = total // self.num_bins
            for dim in range(len(self.capacity)):
                cap = self.capacity[dim]
                if cap <= 0:
                    continue  # a positive size never fits; _single_item_feasible caught it
                sizes = sorted(
                    ((item.size[dim], item.count) for item in items if item.count),
                    reverse=True,
                )
                for m in range(1, max_m + 1):
                    threshold = cap / (m + 1) + self.tolerance
                    count = 0
                    for size, item_count in sizes:
                        if size <= threshold:
                            break
                        count += item_count
                    if count > m * self.num_bins:
                        return False
            return True
        for dim in range(len(self.capacity)):
            sizes = sorted(
                ((item.size[dim], item.count) for item in items if item.count),
                reverse=True,
            )
            cumulative = 0
            for size, item_count in sizes:
                cumulative += item_count
                if size <= 0:
                    break
                slots = sum(
                    int(math.floor((row[dim] + self.tolerance) / size))
                    for row in self.bin_capacities
                )
                if cumulative > slots:
                    return False
        return True

    # ------------------------------------------------------------------ #
    # First-fit decreasing
    # ------------------------------------------------------------------ #
    def _first_fit_decreasing(
        self, items: Sequence[PackingItemType]
    ) -> dict[str, tuple[int, ...]] | None:
        """Greedy packing: biggest item groups first, each CU into the
        fullest bin that still fits (best-fit flavour keeps bins consolidated)."""
        order = sorted(
            items,
            key=lambda item: max(
                item.size[dim] / self.capacity[dim] if self.capacity[dim] > 0 else 0.0
                for dim in range(len(self.capacity))
            ),
            reverse=True,
        )
        loads = [[0.0] * len(self.capacity) for _ in range(self.num_bins)]
        assignment = {item.name: [0] * self.num_bins for item in items}

        # Fullness measure ordering the candidate bins.  Identical bins use
        # absolute load (the historical ordering, kept byte-identical for
        # every homogeneous baseline); a mixed fleet orders by
        # fraction-of-own-capacity, like the allocator's normalized-residual
        # consolidation: a small nearly-full device must outrank a large
        # half-empty one, or its last slack goes unused while the large
        # device burns the contiguous space that only it can offer to the
        # biggest CUs.
        if self.uniform:
            def fullness(bin_index: int) -> float:
                return sum(loads[bin_index])
        else:
            inverse_caps = [
                tuple(1.0 / c if c > 0 else 0.0 for c in row)
                for row in self.bin_capacities
            ]

            def fullness(bin_index: int) -> float:
                return sum(
                    load * inverse
                    for load, inverse in zip(loads[bin_index], inverse_caps[bin_index])
                )

        for item in order:
            for _ in range(item.count):
                placed = False
                if self.placement == "consolidate":
                    candidates = sorted(range(self.num_bins), key=lambda b: -fullness(b))
                else:
                    candidates = sorted(range(self.num_bins), key=fullness)
                for bin_index in candidates:
                    if self._fits(loads[bin_index], item.size, bin_index):
                        for dim in range(len(self.capacity)):
                            loads[bin_index][dim] += item.size[dim]
                        assignment[item.name][bin_index] += 1
                        placed = True
                        break
                if not placed:
                    return None
        return {name: tuple(counts) for name, counts in assignment.items()}

    def _fits(self, load: Sequence[float], size: Sequence[float], bin_index: int) -> bool:
        capacity = self.bin_capacities[bin_index]
        return all(
            load[dim] + size[dim] <= capacity[dim] + self.tolerance
            for dim in range(len(self.capacity))
        )

    # ------------------------------------------------------------------ #
    # Exact search
    # ------------------------------------------------------------------ #
    def _exact_search(self, items: Sequence[PackingItemType]) -> PackingResult:
        if self.strategy == "completion":
            return self._exact_search_completion(items)
        return self._exact_search_branching(items)

    def _search_order(
        self, items: Sequence[PackingItemType]
    ) -> list[PackingItemType]:
        """Item types in the canonical decreasing-size search order."""
        return sorted(
            (item for item in items if item.count > 0),
            key=lambda item: (max(item.size), item.count),
            reverse=True,
        )

    def _exact_search_completion(
        self, items: Sequence[PackingItemType]
    ) -> PackingResult:
        """Bin-completion strategy: prove feasibility near the root, then
        extract the branching search's canonical assignment under pruning.

        The completion engine (:mod:`repro.minlp._packcore`) decides
        feasibility by closing bins one at a time with maximal completions.
        A proven-infeasible verdict returns immediately.  A feasible verdict
        re-runs the branching search with a completion-based oracle that
        discards provably dead subtrees before they are entered -- pruning
        solution-free subtrees never changes which assignment the branching
        search reaches first, so the emitted packing is bit-identical to the
        reference strategy at a fraction of the nodes.  An undecided verdict
        (engine node budget exhausted) falls back to the plain branching
        search, preserving its budget-exhaustion contract.
        """
        order = self._search_order(items)
        if not order:
            return self._exact_search_branching(items)
        dims = len(self.capacity)
        sizes = np.array([item.size for item in order], dtype=float).reshape(
            len(order), dims
        )
        counts = np.array([item.count for item in order], dtype=np.int64)
        bin_caps = np.array(self.bin_capacities, dtype=float).reshape(
            self.num_bins, dims
        )
        budget = self.max_backtrack_nodes
        tolerance = self.tolerance

        # Two bins: feasibility is a box query over sub-multiset load vectors
        # (whatever bin 0 receives, bin 1 gets the rest), decided exactly by
        # the meet-in-the-middle tables -- no search, no budget, and the same
        # tables answer every residual oracle query below.
        two_bin = (
            _packcore.two_bin_tables(sizes, counts) if self.num_bins == 2 else None
        )
        # The filtered half-tables and residual demand depend only on the
        # residual count vector; the oracle probes each one under many load
        # states, so both are cached per (kernel index, remaining copies).
        filtered_cache: dict[tuple[int, int], tuple] = {}

        def decide(residual_counts: np.ndarray, residual_caps: np.ndarray) -> int:
            """Exact verdict for a residual instance via the two-bin tables."""
            residual_demand = residual_counts @ sizes
            lower = residual_demand - (residual_caps[1] + tolerance)
            upper = residual_caps[0] + tolerance
            return _packcore.two_bin_feasible(two_bin, residual_counts, lower, upper)

        def decide_cached(
            kernel_index: int,
            remaining: int,
            residual_counts: np.ndarray,
            residual_caps: np.ndarray,
        ) -> int:
            state = (kernel_index, remaining)
            entry = filtered_cache.get(state)
            if entry is None:
                entry = (
                    _packcore.two_bin_filter(two_bin, residual_counts),
                    residual_counts @ sizes,
                )
                filtered_cache[state] = entry
            (sums_a, sums_b), residual_demand = entry
            lower = residual_demand - (residual_caps[1] + tolerance)
            upper = residual_caps[0] + tolerance
            return _packcore.two_bin_box_feasible(sums_a, sums_b, lower, upper)

        if two_bin is not None:
            verdict = decide(counts, bin_caps)
            engine_nodes = 0
        else:
            # The root proof gets a slice of the node budget: an undecided
            # root falls back to the branching search with the FULL budget,
            # so the worst case stays bounded by roughly the historical cost
            # instead of doubling it on instances both searches find hard.
            root_budget = max(1, budget // 4)
            verdict, engine_nodes = _packcore.completion_feasible(
                sizes, counts, bin_caps, tolerance, root_budget
            )
        self.last_completion_nodes = engine_nodes
        if verdict == _packcore.INFEASIBLE:
            self.last_nodes = 0
            return PackingResult.infeasible(
                exact=True, nodes=0, completion_nodes=engine_nodes
            )
        if verdict == _packcore.UNDECIDED:
            return self._exact_search_branching(items)

        # Feasible: extract the canonical assignment.  The oracle relaxes the
        # mid-item bin restriction (CUs of the in-flight item may land in any
        # bin), so "infeasible" answers remain sound prunes while "feasible"
        # answers merely decline to prune.
        oracle_memo: dict[tuple, bool] = {}

        def oracle(
            kernel_index: int, remaining: int, loads: np.ndarray
        ) -> bool:
            key = (kernel_index, remaining, loads.tobytes())
            cached = oracle_memo.get(key)
            if cached is not None:
                return cached
            residual_counts = counts.copy()
            residual_counts[:kernel_index] = 0
            residual_counts[kernel_index] = remaining
            residual_caps = np.maximum(bin_caps - loads, 0.0)
            # Most residual states along the canonical path pack greedily;
            # a found witness answers without the exact machinery.
            if _packcore.greedy_feasible(
                sizes, residual_counts, residual_caps, tolerance
            ):
                oracle_memo[key] = True
                return True
            if two_bin is not None:
                answer = (
                    decide_cached(kernel_index, remaining, residual_counts, residual_caps)
                    == _packcore.FEASIBLE
                )
                oracle_memo[key] = answer
                return answer
            spent = self.last_completion_nodes
            if spent >= 2 * budget:
                return True  # oracle budget drained; stop consulting
            sub_verdict, sub_nodes = _packcore.completion_feasible(
                sizes,
                residual_counts,
                residual_caps,
                tolerance,
                min(budget, 2 * budget - spent),
            )
            self.last_completion_nodes = spent + sub_nodes
            answer = sub_verdict != _packcore.INFEASIBLE
            oracle_memo[key] = answer
            return answer

        return self._exact_search_branching(items, oracle=oracle)

    def _exact_search_branching(
        self, items: Sequence[PackingItemType], oracle=None
    ) -> PackingResult:
        """Depth-first search over per-kernel distributions with pruning.

        Item types are processed in decreasing size order; for each type the
        search enumerates how many of its CUs go into each bin, bins visited
        left to right with the symmetry and slack pruning described in the
        module docstring.  The node budget bounds worst-case effort; if it is
        exhausted the result is reported as not proven exact.

        ``oracle(kernel_index, remaining, loads)`` (optional) may veto a
        recursion by returning ``False`` when the state is provably
        infeasible; it must never veto a state that has a completion.
        """
        order = self._search_order(items)
        num_items = len(order)
        dims = len(self.capacity)
        num_bins = self.num_bins
        tolerance = self.tolerance

        sizes = np.array([item.size for item in order], dtype=float).reshape(num_items, dims)
        counts = np.array([item.count for item in order], dtype=float)
        # Per-dimension demand of item types i..end, computed once per search
        # (suffix[i] serves every node at depth i; the old per-node re-summation
        # over ``order[kernel_index + 1:]`` dominated the whole search).
        suffix = np.zeros((num_items + 1, dims))
        if num_items:
            suffix[:-1] = np.cumsum((sizes * counts[:, None])[::-1], axis=0)[::-1]
        positive = [np.flatnonzero(sizes[i] > 0) for i in range(num_items)]

        bin_caps = np.array(self.bin_capacities, dtype=float).reshape(num_bins, dims)
        capacity_tol = bin_caps + tolerance
        if self.uniform:
            total_capacity = np.asarray(self.capacity, dtype=float) * num_bins
        else:
            total_capacity = bin_caps.sum(axis=0)
        # Symmetry breaking between a bin and its predecessor is only valid
        # when the two bins are interchangeable, i.e. identically sized.
        same_caps_as_previous = [False] + [
            bool(np.array_equal(bin_caps[b], bin_caps[b - 1])) for b in range(1, num_bins)
        ]
        slack_tolerance = tolerance * num_bins
        loads = np.zeros((num_bins, dims))
        total_load = np.zeros(dims)
        assignment: dict[str, list[int]] = {item.name: [0] * num_bins for item in items}
        nodes = 0
        exhausted = False

        def place_kernel(kernel_index: int) -> bool:
            if kernel_index == num_items:
                return True
            return distribute(
                kernel_index, 0, int(counts[kernel_index]), math.inf, None
            )

        def distribute(
            kernel_index: int,
            bin_index: int,
            remaining: int,
            prev_count: float,
            prev_before: "np.ndarray | None",
        ) -> bool:
            nonlocal nodes, exhausted, total_load
            nodes += 1
            if nodes > self.max_backtrack_nodes:
                exhausted = True
                return False
            if remaining == 0:
                return place_kernel(kernel_index + 1)
            if bin_index == num_bins:
                return False
            size = sizes[kernel_index]
            active = positive[kernel_index]
            load_before = loads[bin_index].copy()
            max_here = remaining
            if active.size:
                limit = (
                    (capacity_tol[bin_index, active] - load_before[active]) / size[active]
                ).min()
                if limit < remaining:  # guards the int() against inf for tiny sizes
                    max_here = int(math.floor(limit + 1e-12))
            max_here = max(0, max_here)
            # Symmetry: the previous bin is the same size and looked identical
            # before it received this item type, so only canonical
            # non-increasing counts are tried.
            if (
                prev_before is not None
                and same_caps_as_previous[bin_index]
                and np.array_equal(load_before, prev_before)
            ):
                max_here = min(max_here, int(prev_count))
            item_name = order[kernel_index].name
            # Try putting as many as possible first (consolidation bias), down to zero.
            for count in range(max_here, -1, -1):
                if count:
                    placed = count * size
                    loads[bin_index] += placed
                    total_load += placed
                    assignment[item_name][bin_index] += count
                # Aggregate-slack pruning: everything still unplaced must fit
                # into the total remaining slack (O(dims) via the suffix sums).
                demand = suffix[kernel_index + 1] + (remaining - count) * size
                if np.all(demand <= total_capacity - total_load + slack_tolerance) and (
                    oracle is None
                    or oracle(kernel_index, remaining - count, loads)
                ):
                    if distribute(
                        kernel_index, bin_index + 1, remaining - count, count, load_before
                    ):
                        return True
                if count:
                    loads[bin_index] -= placed
                    total_load -= placed
                    assignment[item_name][bin_index] -= count
            return False

        feasible = place_kernel(0)
        self.last_nodes = nodes
        if feasible:
            return PackingResult(
                feasible=True,
                assignment={name: tuple(values) for name, values in assignment.items()},
                exact=True,
                nodes=nodes,
                completion_nodes=self.last_completion_nodes,
            )
        return PackingResult.infeasible(
            exact=not exhausted,
            nodes=nodes,
            completion_nodes=self.last_completion_nodes,
        )
