"""Relaxation caching and warm-start plumbing of the branch-and-bound engine."""

import math

import pytest

from repro.core.discretize import (
    discretization_cache_clear,
    discretization_cache_info,
    discretize_counts,
)
from repro.core.gp_step import solve_gp_step
from repro.minlp.bounds import VariableBounds
from repro.minlp.branch_and_bound import (
    BBSettings,
    BranchAndBoundSolver,
    RelaxationCache,
    RelaxationResult,
    shared_relaxation_cache,
    shared_relaxation_caches_clear,
)
from repro.obs.memo import clear_all
from repro.reporting.experiments import case_study


def _toy_relaxation(bounds: VariableBounds) -> RelaxationResult:
    """Minimise x + y over the box; fractional interior point to force branching."""
    x = bounds.lower("x") + 0.4
    y = bounds.lower("y") + 0.4
    x = min(x, bounds.upper("x"))
    y = min(y, bounds.upper("y"))
    return RelaxationResult(feasible=True, objective=x + y, solution={"x": x, "y": y})


def _toy_evaluate(candidate):
    return float(candidate["x"] + candidate["y"])


class TestRelaxationCache:
    def test_hit_and_miss_accounting(self):
        cache = RelaxationCache()
        bounds = VariableBounds.from_ranges({"x": (1, 5), "y": (1, 5)})
        assert cache.get(bounds) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(bounds, _toy_relaxation(bounds))
        assert cache.get(bounds) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_key_is_order_independent(self):
        cache = RelaxationCache()
        a = VariableBounds.from_ranges({"x": (1, 5), "y": (2, 3)})
        b = VariableBounds.from_ranges({"y": (2, 3), "x": (1, 5)})
        assert RelaxationCache.key_of(a) == RelaxationCache.key_of(b)

    def test_eviction_is_bounded(self):
        cache = RelaxationCache(max_entries=2)
        for lower in range(1, 5):
            bounds = VariableBounds.from_ranges({"x": (lower, lower + 1)})
            cache.put(bounds, RelaxationResult(feasible=True, objective=float(lower)))
        assert len(cache) == 2

    def test_shared_cache_across_solver_runs(self):
        """A second identical solve over a shared cache re-solves nothing."""
        cache = RelaxationCache()
        bounds = VariableBounds.from_ranges({"x": (1, 4), "y": (1, 4)})

        def run():
            solver = BranchAndBoundSolver(
                relaxation_solver=_toy_relaxation,
                incumbent_evaluator=_toy_evaluate,
                settings=BBSettings(max_nodes=100),
                relaxation_cache=cache,
            )
            return solver.solve(bounds)

        first = run()
        assert first.relaxation_cache_hits == 0
        assert first.relaxation_cache_misses > 0
        second = run()
        assert second.objective == first.objective
        assert second.solution == first.solution
        assert second.relaxation_cache_misses == 0
        assert second.relaxation_cache_hits == first.relaxation_cache_misses

    def test_results_identical_with_and_without_cache(self):
        bounds = VariableBounds.from_ranges({"x": (1, 6), "y": (1, 6)})
        plain = BranchAndBoundSolver(
            relaxation_solver=_toy_relaxation, incumbent_evaluator=_toy_evaluate
        ).solve(bounds)
        cached = BranchAndBoundSolver(
            relaxation_solver=_toy_relaxation,
            incumbent_evaluator=_toy_evaluate,
            relaxation_cache=RelaxationCache(),
        ).solve(bounds)
        assert cached.objective == plain.objective
        assert cached.solution == plain.solution


class TestWarmStartPlumbing:
    def test_parent_relaxation_is_passed_to_children(self):
        seen_parents = []

        def relaxation(bounds: VariableBounds, parent=None) -> RelaxationResult:
            seen_parents.append(parent)
            return _toy_relaxation(bounds)

        solver = BranchAndBoundSolver(
            relaxation_solver=relaxation,
            incumbent_evaluator=_toy_evaluate,
            settings=BBSettings(max_nodes=50),
        )
        result = solver.solve(VariableBounds.from_ranges({"x": (1, 4), "y": (1, 4)}))
        assert math.isfinite(result.objective)
        # The root sees no parent; every child node sees a feasible parent
        # whose objective bounds its own from below.
        assert seen_parents[0] is None
        assert len(seen_parents) > 1
        assert all(parent is not None and parent.feasible for parent in seen_parents[1:])

    def test_single_argument_solvers_still_work(self):
        solver = BranchAndBoundSolver(
            relaxation_solver=_toy_relaxation, incumbent_evaluator=_toy_evaluate
        )
        result = solver.solve(VariableBounds.from_ranges({"x": (1, 3), "y": (1, 3)}))
        assert result.solution == {"x": 1, "y": 1}


class TestDiscretizationMemo:
    def test_memo_hits_on_repeated_discretisation(self):
        discretization_cache_clear()
        problem = case_study("alex-16", resource_limit_percent=70.0)
        gp = solve_gp_step(problem)
        first = discretize_counts(problem, gp.counts_hat)
        info = discretization_cache_info()
        assert info["misses"] == 1 and info["hits"] == 0
        second = discretize_counts(problem, gp.counts_hat)
        info = discretization_cache_info()
        assert info["hits"] == 1
        assert second.counts == first.counts
        assert second.ii == first.ii
        discretization_cache_clear()

    def test_memo_distinguishes_constraints(self):
        discretization_cache_clear()
        for constraint in (65.0, 70.0):
            problem = case_study("alex-16", resource_limit_percent=constraint)
            gp = solve_gp_step(problem)
            discretize_counts(problem, gp.counts_hat)
        assert discretization_cache_info()["entries"] == 2
        discretization_cache_clear()

    def test_use_cache_false_bypasses_the_memo(self):
        discretization_cache_clear()
        problem = case_study("alex-16", resource_limit_percent=70.0)
        gp = solve_gp_step(problem)
        discretize_counts(problem, gp.counts_hat, use_cache=False)
        assert discretization_cache_info() == {"hits": 0, "misses": 0, "entries": 0}
        discretization_cache_clear()

    def test_node_relaxation_cache_is_shared_across_runs(self):
        clear_all()
        problem = case_study("vgg-16", resource_limit_percent=70.0)
        gp = solve_gp_step(problem)
        first = discretize_counts(problem, gp.counts_hat, use_cache=False)
        # Boxes within one tree are disjoint, so the first run only misses...
        assert first.cache_misses > 0
        assert first.cache_hits == 0
        # ...but a second discretisation of the same problem replays the
        # same boxes out of the shared per-problem cache.
        second = discretize_counts(problem, gp.counts_hat, use_cache=False)
        assert second.cache_hits > 0
        assert second.counts == first.counts
        assert second.ii == first.ii
        clear_all()

    def test_shared_cache_registry_keys_by_problem(self):
        shared_relaxation_caches_clear()
        a = shared_relaxation_cache(("discretize", "p1"))
        b = shared_relaxation_cache(("discretize", "p2"))
        assert a is not b
        assert shared_relaxation_cache(("discretize", "p1")) is a
        shared_relaxation_caches_clear()


def test_warm_start_used_by_discretisation_changes_nothing():
    """B&B with warm-started vectorized relaxations equals the paper path."""
    discretization_cache_clear()
    for case in ("alex-16", "alex-32", "vgg-16"):
        problem = case_study(case, resource_limit_percent=70.0)
        gp = solve_gp_step(problem)
        result = discretize_counts(problem, gp.counts_hat, use_cache=False)
        assert result.proven_optimal
        assert result.ii == pytest.approx(
            max(problem.wcet[n] / result.counts[n] for n in problem.kernel_names)
        )
    discretization_cache_clear()
