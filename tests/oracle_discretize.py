"""Reference implementations the array-native discretisation is pinned to.

``discretize_counts`` here is the discretisation step as it ran on the
generic :class:`~repro.minlp.branch_and_bound.BranchAndBoundSolver`, with
name-keyed ``VariableBounds`` boxes, dict callbacks and a private
relaxation cache.  ``LegacyMinMax`` carries the min-max kernels in their
original form (``np.unique`` breakpoints, a per-dimension crossing loop,
``np.*`` reductions).  The identity suites assert that the production code
returns exactly what these return.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.core.discretize import DiscretizationError, DiscretizationResult
from repro.core.gp_step import build_vectorized_minmax
from repro.core.problem import AllocationProblem
from repro.gp.errors import InfeasibleError
from repro.gp.minmax import VectorizedMinMaxProblem
from repro.minlp.bounds import VariableBounds
from repro.minlp.branch_and_bound import (
    BBSettings,
    BBStatus,
    BranchAndBoundSolver,
    RelaxationCache,
    RelaxationResult,
)
from repro.minlp.errors import InfeasibleProblemError


class LegacyMinMax(VectorizedMinMaxProblem):
    """The vectorized min-max kernels before the lean rewrite."""

    @classmethod
    def of(cls, minmax: VectorizedMinMaxProblem) -> "LegacyMinMax":
        return cls(minmax.names, minmax.wcet, minmax.weights, minmax.capacity)

    def is_feasible_ii(self, ii, min_counts, max_counts, tolerance=1e-9):
        counts = self.counts_for_ii(ii, min_counts, max_counts)
        if max_counts is not None:
            if np.any(self.wcet / counts > ii * (1 + 1e-12) + tolerance):
                return False
        return bool(np.all(self.weights @ counts <= self.capacity + tolerance))

    def solve_exact(self, min_counts=None, max_counts=None, tolerance=1e-9):
        if min_counts is None:
            min_counts = np.ones_like(self.wcet)
        if np.any(min_counts <= 0):
            raise ValueError("minimum CU counts must be positive")
        capacity_slack = self.capacity + tolerance
        base_usage = self.weights @ min_counts
        if np.any(base_usage > capacity_slack):
            raise InfeasibleError(
                "minimum CU counts already exceed the platform capacity; "
                "the relaxed allocation problem is infeasible"
            )
        t_limit = 1e12
        if max_counts is not None:
            finite = np.isfinite(max_counts)
            if np.any(finite):
                t_limit = min(t_limit, float(np.min(max_counts[finite] / self.wcet[finite])))
        t_starts = min_counts / self.wcet
        kinks = [t_starts]
        if max_counts is not None:
            ends = max_counts / self.wcet
            kinks.append(ends[np.isfinite(ends)])
        ts = np.unique(np.concatenate(kinks))
        ts = ts[ts <= t_limit]
        if ts.size == 0 or ts[-1] < t_limit:
            ts = np.append(ts, t_limit)
        counts_at = np.outer(ts, self.wcet)
        np.maximum(counts_at, min_counts, out=counts_at)
        if max_counts is not None:
            np.minimum(counts_at, max_counts, out=counts_at)
        usage_at = counts_at @ self.weights.T
        t_best = t_limit
        for dimension in range(self.capacity.size):
            column = usage_at[:, dimension]
            exceeding = np.nonzero(column > capacity_slack[dimension])[0]
            if exceeding.size == 0:
                continue
            first = int(exceeding[0])
            if first == 0:
                t_best = min(t_best, float(ts[0]))
                continue
            run = column[first] - column[first - 1]
            rise = capacity_slack[dimension] - column[first - 1]
            t_cross = ts[first - 1] + (ts[first] - ts[first - 1]) * rise / run
            t_best = min(t_best, float(t_cross))
        ii = 1.0 / t_best
        counts = self.counts_for_ii(ii, min_counts, max_counts)
        return float(np.max(self.wcet / counts)), counts


def _aggregate_feasible(problem: AllocationProblem, counts: Mapping[str, int]) -> bool:
    arrays = problem.arrays()
    return arrays.aggregate_feasible(arrays.vector(counts), problem.num_fpgas)


def discretize_counts(
    problem: AllocationProblem,
    counts_hat: Mapping[str, float],
    max_nodes: int = 20_000,
    time_limit_seconds: float = 30.0,
) -> DiscretizationResult:
    """Engine-based discretisation (no cross-call memo, private node cache)."""
    names = problem.kernel_names
    arrays = problem.arrays()
    upper_bounds = {name: max(1, problem.max_total_cus(name)) for name in names}
    bounds = VariableBounds.from_ranges({name: (1, upper_bounds[name]) for name in names})
    minmax = LegacyMinMax.of(build_vectorized_minmax(problem))
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
                ii, count_vector = minmax.solve(min_counts=min_counts, max_counts=max_counts)
            else:
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

    def rounding(
        fractional: Mapping[str, float], node_bounds: VariableBounds
    ) -> list[dict[str, int]]:
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

    solver = BranchAndBoundSolver(
        relaxation_solver=relaxation,
        incumbent_evaluator=evaluate,
        rounding_heuristic=rounding,
        settings=BBSettings(max_nodes=max_nodes, time_limit_seconds=time_limit_seconds),
        relaxation_cache=RelaxationCache(),
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
    return DiscretizationResult(
        counts=counts,
        ii=max(problem.wcet[name] / counts[name] for name in names),
        nodes_explored=result.nodes_explored,
        proven_optimal=result.status is BBStatus.OPTIMAL,
        cache_hits=result.relaxation_cache_hits,
        cache_misses=result.relaxation_cache_misses,
    )
