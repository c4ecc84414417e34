"""Second-step discretisation of the GP result (Section 3.2.2).

The GP step produces fractional totals ``N̂_k``.  Before allocation they must
become integers ``N_k``.  The paper enforces integrality "by a
branch-and-bound technique similar to those used in ILP": two subproblems
with ``N_k <= floor(N̂_k)`` and ``N_k >= ceil(N̂_k)``, pruning subproblems
whose (relaxed) cost exceeds the best cost found.

This module runs that search as a best-first branch-and-bound written for
this one problem.  It follows the rules of the generic engine in
:mod:`repro.minlp.branch_and_bound` node for node (heap order, pruning,
rounding proposals, most-fractional branching, the optimality gap), but
holds each node's box as two float64 vectors ``(lower, upper)``:

* each node's relaxation is solved by the **vectorized** min-max kernel
  (:class:`repro.gp.minmax.VectorizedMinMaxProblem`) straight from those
  vectors -- the root by bisection, so its bound is bit-compatible with the
  standalone GP step, children by the closed-form breakpoint path;
* node relaxations are **cached** per problem in the shared relaxation
  registry, keyed by the box's raw bytes, so repeated discretisations of
  one problem replay earlier nodes;
* whole results are **memoized** across calls keyed on the problem and the
  fractional totals, because design-space sweeps (e.g. the Figure 2 T-sweep)
  re-discretise the identical GP optimum for every heuristic parameter.

A naive rounding fallback is also provided for ablation.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..gp.errors import InfeasibleError
from ..minlp.branch_and_bound import (
    INTEGRALITY_TOLERANCE,
    BBSettings,
    shared_relaxation_cache,
)
from ..obs.memo import BoundedMemo
from .gp_step import build_vectorized_minmax
from .problem import AllocationProblem

#: Relative pruning tolerance of the search (the engine's default gap).
_PRUNE_TOLERANCE = BBSettings.gap_tolerance
#: A finished search is proven optimal when its relative gap is within this.
_OPTIMAL_GAP = max(_PRUNE_TOLERANCE, 1e-9) * 10
#: Cached relaxation of an infeasible box.
_INFEASIBLE = (math.inf, None)


@dataclass(frozen=True)
class DiscretizationResult:
    """Integer totals ``N_k`` together with the II they achieve."""

    counts: Mapping[str, int]
    ii: float
    nodes_explored: int
    proven_optimal: bool
    cache_hits: int = 0
    cache_misses: int = 0


class DiscretizationError(Exception):
    """Raised when no feasible integer totals exist."""


# --------------------------------------------------------------------------- #
# Cross-call memo: sweeps re-discretise identical GP optima many times
# --------------------------------------------------------------------------- #
_memo: "BoundedMemo[DiscretizationResult]" = BoundedMemo(512, name="discretize")
#: Hit/miss/size counters of the cross-call discretisation memo.
discretization_cache_info = _memo.stats
#: Empty the cross-call memo (used by tests and benchmarks).
discretization_cache_clear = _memo.clear


def _aggregate_feasible(problem: AllocationProblem, counts: Mapping[str, int]) -> bool:
    """Check the aggregated capacity constraints (eqs. 17-18) for integer totals."""
    arrays = problem.arrays()
    vector = arrays.vector(counts)
    return arrays.aggregate_feasible(vector, problem.num_fpgas)


def _achieved_ii(problem: AllocationProblem, counts: Mapping[str, int]) -> float:
    return max(problem.wcet[name] / counts[name] for name in problem.kernel_names)


def discretize_counts(
    problem: AllocationProblem,
    counts_hat: Mapping[str, float],
    max_nodes: int = 20_000,
    time_limit_seconds: float = 30.0,
    use_cache: bool = True,
) -> DiscretizationResult:
    """Branch-and-bound discretisation of the fractional GP totals.

    Finds integer ``N_k >= 1`` minimising ``max_k WCET_k / N_k`` subject to
    the aggregated capacity constraints, starting the search from the
    fractional optimum (floor/ceil branching as in the paper).

    ``use_cache=False`` bypasses the cross-call memo (the per-problem node
    relaxation cache is always active).

    Raises
    ------
    DiscretizationError
        If no feasible integer assignment exists.
    """
    memo_key = (
        problem.pipeline,
        problem.platform,
        tuple(sorted(counts_hat.items())),
        max_nodes,
        time_limit_seconds,
    )
    if use_cache:
        cached = _memo.get(memo_key)
        if cached is not None:
            return cached

    names = problem.kernel_names
    upper = np.asarray([max(1, problem.max_total_cus(name)) for name in names], dtype=np.float64)
    seed = {name: max(1, int(math.floor(counts_hat.get(name, 1.0)))) for name in names}
    if not _aggregate_feasible(problem, seed):
        seed = {name: 1 for name in names}
    search = _BoxSearch(
        problem,
        # Node relaxations depend only on (problem, node box) -- not on the
        # fractional totals being discretised -- so every discretisation of
        # the same problem shares one cache.
        shared_relaxation_cache(("discretize", problem.pipeline, problem.platform)),
    )
    vector, nodes_explored, proven_optimal, hits, misses = search.run(
        np.ones_like(upper),
        upper,
        np.asarray([seed[name] for name in names], dtype=np.float64),
        max_nodes,
        time_limit_seconds,
    )
    counts = {name: int(value) for name, value in zip(names, vector)}
    discretization = DiscretizationResult(
        counts=counts,
        ii=_achieved_ii(problem, counts),
        nodes_explored=nodes_explored,
        proven_optimal=proven_optimal,
        cache_hits=hits,
        cache_misses=misses,
    )
    if use_cache and discretization.proven_optimal:
        # Only proven optima are memoized: a result truncated by the node or
        # time limit must not pin a machine-load-dependent II for every
        # later identical call.
        _memo.put(memo_key, discretization)
    return discretization


class _BoxSearch:
    """Best-first branch-and-bound over integer boxes ``lower <= N <= upper``.

    Visits nodes in exactly the order of
    :class:`~repro.minlp.branch_and_bound.BranchAndBoundSolver` with the
    default settings: a heap ordered by (relaxation bound, push sequence),
    pruning against the incumbent with the engine's relative tolerance, the
    ceil- then floor-rounding proposals at every fractional node, and
    most-fractional branching (the first kernel wins ties) into a floor
    child and a ceiling child, in that order.
    """

    def __init__(self, problem: AllocationProblem, cache: BoundedMemo):
        arrays = problem.arrays()
        self.minmax = build_vectorized_minmax(problem)
        self.wcet = arrays.wcet
        self.weights = arrays.weights
        self.capacity_slack = arrays.aggregate_capacity + 1e-9
        self.cache = cache

    def evaluate(self, counts: np.ndarray) -> float:
        """The II of integer totals, ``inf`` when they break a capacity.

        Every candidate lies in a box whose lower bounds are at least 1,
        so only the capacities can reject it.
        """
        if not (self.weights @ counts <= self.capacity_slack).all():
            return math.inf
        return float((self.wcet / counts).max())

    def relax(self, lower: np.ndarray, upper: np.ndarray, root: bool) -> tuple:
        """``(bound, fractional counts)`` of one box, through the cache."""
        key = lower.tobytes() + upper.tobytes()
        # The registry hands out RelaxationCache objects, whose own get/put
        # take VariableBounds; raw byte keys go through the memo underneath.
        cached = BoundedMemo.get(self.cache, key)
        if cached is not None:
            return cached
        try:
            if root:
                result = self.minmax.solve(min_counts=lower, max_counts=upper)
            else:
                result = self.minmax.solve_exact(min_counts=lower, max_counts=upper)
        except InfeasibleError:
            result = _INFEASIBLE
        BoundedMemo.put(self.cache, key, result)
        return result

    def run(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        seed: np.ndarray,
        max_nodes: int,
        time_limit_seconds: float,
    ) -> tuple[np.ndarray, int, bool, int, int]:
        """Search the box; returns ``(counts, nodes explored, proven optimal,
        cache hits, cache misses)``."""
        start = time.perf_counter()
        cache = self.cache
        hits_before, misses_before = cache.hits, cache.misses
        best_value = self.evaluate(seed)
        best = seed if math.isfinite(best_value) else None

        root_bound, root_counts = self.relax(lower, upper, root=True)
        if root_counts is None:
            if best is None:
                raise DiscretizationError("root relaxation is infeasible")
            # The seed is feasible even though the root relaxation is not.
            return best, 0, False, cache.hits - hits_before, cache.misses - misses_before

        heap = [(root_bound, 0, lower, upper, root_counts)]
        sequence = 1
        nodes_explored = 0
        global_lower = root_bound
        while heap:
            if nodes_explored >= max_nodes:
                break
            if time.perf_counter() - start > time_limit_seconds:
                break
            bound, _, lower, upper, x = heapq.heappop(heap)
            global_lower = min(bound, heap[0][0]) if heap else bound
            cutoff = best_value - _PRUNE_TOLERANCE * max(1.0, abs(best_value))
            if bound >= cutoff:
                # Everything remaining is at least as bad as the incumbent.
                global_lower = max(global_lower, bound)
                break
            nodes_explored += 1

            nearest = x.round()
            fractional = np.abs(x - nearest) > INTEGRALITY_TOLERANCE
            if not fractional.any():
                # Integral relaxation: candidate incumbent.
                value = self.evaluate(nearest)
                if value < best_value:
                    best_value, best = value, nearest
                continue

            # Rounding proposals tighten the incumbent early: ceil, then floor.
            floor = np.floor(x)
            for proposal in (
                np.minimum(upper, np.maximum(1.0, np.ceil(x - 1e-9))),
                np.maximum(lower, floor),
            ):
                value = self.evaluate(proposal)
                if value < best_value:
                    best_value, best = value, proposal
            cutoff = best_value - _PRUNE_TOLERANCE * max(1.0, abs(best_value))

            # Most-fractional branching; argmin keeps the first index on ties.
            distance = np.where(fractional, np.abs(x - floor - 0.5), np.inf)
            k = int(distance.argmin())
            split = floor[k]
            children = []
            if split >= lower[k]:
                child_upper = upper.copy()
                child_upper[k] = min(upper[k], split)
                children.append((lower, child_upper))
            if split + 1 <= upper[k]:
                child_lower = lower.copy()
                child_lower[k] = max(lower[k], split + 1)
                children.append((child_lower, upper))
            for child_lower, child_upper in children:
                child_bound, child_counts = self.relax(child_lower, child_upper, root=False)
                if child_counts is None or child_bound >= cutoff:
                    continue
                heapq.heappush(
                    heap, (child_bound, sequence, child_lower, child_upper, child_counts)
                )
                sequence += 1

        hits, misses = cache.hits - hits_before, cache.misses - misses_before
        if best is None:
            raise DiscretizationError("no feasible integer CU totals found")
        if heap:
            global_lower = min(global_lower, heap[0][0])
        else:
            # Search exhausted: the incumbent is optimal.
            global_lower = best_value
        gap = (best_value - global_lower) / max(1e-12, abs(best_value))
        return best, nodes_explored, gap <= _OPTIMAL_GAP, hits, misses


def round_counts(
    problem: AllocationProblem, counts_hat: Mapping[str, float]
) -> DiscretizationResult:
    """Naive discretisation: ceil everything, floor greedily until feasible.

    Kept as an ablation baseline for the branch-and-bound discretiser: it is
    fast but can be noticeably worse when the capacity is tight.
    """
    names = problem.kernel_names
    counts = {name: max(1, int(math.ceil(counts_hat.get(name, 1.0) - 1e-9))) for name in names}

    def most_reducible() -> str | None:
        candidates = [name for name in names if counts[name] > 1]
        if not candidates:
            return None
        # Reducing the kernel whose ET after reduction stays smallest hurts II least.
        return min(candidates, key=lambda name: problem.wcet[name] / (counts[name] - 1))

    guard = sum(counts.values()) + 1
    while not _aggregate_feasible(problem, counts) and guard > 0:
        guard -= 1
        name = most_reducible()
        if name is None:
            raise DiscretizationError("cannot round the GP solution into the aggregate capacity")
        counts[name] -= 1
    if not _aggregate_feasible(problem, counts):
        raise DiscretizationError("cannot round the GP solution into the aggregate capacity")
    return DiscretizationResult(
        counts=counts,
        ii=_achieved_ii(problem, counts),
        nodes_explored=0,
        proven_optimal=False,
    )
