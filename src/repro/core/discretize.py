"""Second-step discretisation of the GP result (Section 3.2.2).

The GP step produces fractional totals ``N̂_k``.  Before allocation they must
become integers ``N_k``.  The paper enforces integrality "by a
branch-and-bound technique similar to those used in ILP": two subproblems
with ``N_k <= floor(N̂_k)`` and ``N_k >= ceil(N̂_k)``, pruning subproblems
whose (relaxed) cost exceeds the best cost found.

This module runs that search on top of the generic branch-and-bound engine of
:mod:`repro.minlp`.  Three optimisations keep the hot path fast:

* each node's relaxation is solved by the **vectorized** bisection kernel
  (:class:`repro.gp.minmax.VectorizedMinMaxProblem`) over matrices built once
  per call, instead of rebuilding a name-keyed problem per node;
* child nodes are **warm-started** from their parent's relaxation optimum (a
  valid lower bound once the box shrinks), which roughly halves the number
  of bisection iterations, and node relaxations flow through the engine's
  :class:`~repro.minlp.branch_and_bound.RelaxationCache`;
* whole results are **memoized** across calls keyed on the problem and the
  fractional totals, because design-space sweeps (e.g. the Figure 2 T-sweep)
  re-discretise the identical GP optimum for every heuristic parameter.

A naive rounding fallback is also provided for ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..gp.errors import InfeasibleError
from ..minlp.bounds import VariableBounds
from ..minlp.branch_and_bound import (
    BBSettings,
    BBStatus,
    BranchAndBoundSolver,
    RelaxationCache,
    RelaxationResult,
    shared_relaxation_cache,
)
from ..minlp.errors import InfeasibleProblemError
from ..obs.memo import BoundedMemo
from .gp_step import build_vectorized_minmax
from .problem import AllocationProblem


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

    ``use_cache=False`` bypasses the cross-call memo (the in-run relaxation
    cache and warm-starting are always active).

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
    arrays = problem.arrays()
    upper_bounds: dict[str, int] = {}
    for name in names:
        cap = problem.max_total_cus(name)
        # No point in ever exceeding the (rounded-up) fractional optimum by
        # more than the slack the capacity allows; the ceil of the GP value is
        # the natural starting upper bound but the search may go above it, so
        # keep the capacity-driven cap.
        upper_bounds[name] = max(1, cap)
    if any(upper_bounds[name] < 1 for name in names):
        raise DiscretizationError("a kernel cannot fit even one CU on one FPGA")

    bounds = VariableBounds.from_ranges({name: (1, upper_bounds[name]) for name in names})
    minmax = build_vectorized_minmax(problem)
    wcet = arrays.wcet
    aggregate_capacity = arrays.aggregate_capacity
    weight_matrix = arrays.weights

    def relaxation(
        node_bounds: VariableBounds, parent: RelaxationResult | None = None
    ) -> RelaxationResult:
        min_counts = np.asarray([node_bounds.lower(name) for name in names], dtype=np.float64)
        max_counts = np.asarray([node_bounds.upper(name) for name in names], dtype=np.float64)
        try:
            if parent is None:
                # Root node: the plain bisection, so the root bound is
                # bit-compatible with the standalone GP step.
                ii, count_vector = minmax.solve(min_counts=min_counts, max_counts=max_counts)
            else:
                # Child nodes take the closed-form breakpoint path: exact,
                # iteration-free, and ~20x cheaper than a cold bisection.
                ii, count_vector = minmax.solve_exact(
                    min_counts=min_counts, max_counts=max_counts
                )
        except InfeasibleError:
            return RelaxationResult.infeasible()
        return RelaxationResult(
            feasible=True, objective=ii, solution=arrays.mapping(count_vector)
        )

    def evaluate(candidate: Mapping[str, int]) -> float | None:
        count_vector = np.asarray([candidate[name] for name in names], dtype=np.float64)
        if np.any(count_vector < 1):
            return None
        if not np.all(weight_matrix @ count_vector <= aggregate_capacity + 1e-9):
            return None
        return float(np.max(wcet / count_vector))

    def rounding(fractional: Mapping[str, float], node_bounds: VariableBounds) -> list[dict[str, int]]:
        floor_candidate = {
            name: int(max(node_bounds.lower(name), math.floor(fractional.get(name, 1.0))))
            for name in names
        }
        ceil_candidate = {
            name: int(
                min(node_bounds.upper(name), max(1, math.ceil(fractional.get(name, 1.0) - 1e-9)))
            )
            for name in names
        }
        return [ceil_candidate, floor_candidate]

    # Node relaxations depend only on (problem, node bounds) -- not on the
    # fractional totals being discretised -- so every discretisation of the
    # same problem shares one cache.  Unhashable (ad hoc) problems get a
    # private per-call cache.
    try:
        relaxation_cache = shared_relaxation_cache(
            ("discretize", problem.pipeline, problem.platform)
        )
    except TypeError:
        relaxation_cache = RelaxationCache()
    solver = BranchAndBoundSolver(
        relaxation_solver=relaxation,
        incumbent_evaluator=evaluate,
        rounding_heuristic=rounding,
        settings=BBSettings(max_nodes=max_nodes, time_limit_seconds=time_limit_seconds),
        relaxation_cache=relaxation_cache,
    )

    seed = {name: max(1, int(math.floor(counts_hat.get(name, 1.0)))) for name in names}
    if not _aggregate_feasible(problem, seed):
        seed = {name: 1 for name in names}
    try:
        result = solver.solve(bounds, initial_incumbent=seed)
    except InfeasibleProblemError as error:
        raise DiscretizationError(str(error)) from error
    if not result.has_solution:
        raise DiscretizationError("no feasible integer CU totals found")
    counts = {name: int(result.solution[name]) for name in names}
    discretization = DiscretizationResult(
        counts=counts,
        ii=_achieved_ii(problem, counts),
        nodes_explored=result.nodes_explored,
        proven_optimal=result.status is BBStatus.OPTIMAL,
        cache_hits=result.relaxation_cache_hits,
        cache_misses=result.relaxation_cache_misses,
    )
    if use_cache and discretization.proven_optimal:
        # Only proven optima are memoized: a result truncated by the node or
        # time limit must not pin a machine-load-dependent II for every
        # later identical call.
        _memo.put(memo_key, discretization)
    return discretization


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
