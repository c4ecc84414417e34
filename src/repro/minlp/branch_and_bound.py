"""Generic best-first branch-and-bound engine for convexifiable MINLPs.

The engine is deliberately problem-agnostic: it works with three callbacks,

* a *relaxation solver* mapping integer box bounds to a lower bound and a
  (possibly fractional) solution,
* an *incumbent evaluator* mapping an integer point to its true objective
  (or ``None`` when the point is infeasible for the original problem),
* an optional *rounding heuristic* that proposes integer points near a
  fractional relaxation solution to warm up the incumbent.

The allocation-specific relaxations (the LP + initiation-interval search of
:mod:`repro.core.exact`) plug into this engine; the paper's reference tool
(Couenne) follows the same spatial branch-and-bound architecture.

Two performance features are built into the engine itself:

* **Relaxation caching** -- node relaxations are memoized keyed on the node's
  box bounds (a :class:`RelaxationCache` can also be shared across solver
  instances, e.g. across the points of a design-space sweep, so identical
  subproblems are never re-solved).  Hit/miss counts are reported on
  :class:`BBResult`.
* **Warm-starting** -- when the relaxation solver accepts a second argument,
  each child node receives its parent's :class:`RelaxationResult`, whose
  objective is a valid lower bound for the shrunken box and lets monotone
  solvers (the min-max bisection) start from a much tighter bracket.
"""

from __future__ import annotations

import heapq
import inspect
import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping

from ..obs.memo import BoundedMemo
from ..obs.trace import span
from .bounds import VariableBounds
from .errors import InfeasibleProblemError

#: Tolerance under which a relaxation value is considered integral.
INTEGRALITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RelaxationResult:
    """Outcome of solving one node's continuous relaxation.

    ``metadata`` carries solver-specific warm-start hints (e.g. the optimal
    II of the allocation relaxation); the engine passes the parent's result
    to the relaxation solver, which may read them back.
    """

    feasible: bool
    objective: float
    solution: Mapping[str, float] = field(default_factory=dict)
    metadata: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def infeasible(cls) -> "RelaxationResult":
        return cls(feasible=False, objective=math.inf, solution={})


class BBStatus(Enum):
    """Termination status of a branch-and-bound run."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped at a limit with an incumbent but a gap
    INFEASIBLE = "infeasible"
    NO_SOLUTION = "no-solution"  # stopped at a limit without any incumbent


class RelaxationCache(BoundedMemo):
    """Memo of relaxation results keyed on canonical node bounds.

    Within one tree the boxes of distinct nodes are disjoint, so the payoff
    comes from *sharing* a cache across solver runs: repeated solves of the
    same problem (a sweep re-solving each constraint for several heuristic
    parameters, a root relaxation that equals the already-solved GP step)
    return instantly.  Use :func:`shared_relaxation_cache` with a value-key
    identifying the underlying problem to get that sharing; node bounds
    alone are not a safe key across different problems.
    """

    def __init__(self, max_entries: int = 8192):
        super().__init__(max_entries)

    @staticmethod
    def key_of(bounds: VariableBounds) -> tuple:
        return tuple(sorted((name, *bounds[name]) for name in bounds))

    def get(self, bounds: VariableBounds) -> "RelaxationResult | None":
        return super().get(self.key_of(bounds))

    def put(self, bounds: VariableBounds, result: "RelaxationResult") -> None:
        super().put(self.key_of(bounds), result)


#: Bounded registry of relaxation caches shared across solver runs, keyed by
#: a caller-supplied value-key identifying the underlying problem.
_SHARED_CACHES: "BoundedMemo[RelaxationCache]" = BoundedMemo(64, name="relaxation_caches")
#: Drop every shared relaxation cache (used by tests and benchmarks).
shared_relaxation_caches_clear = _SHARED_CACHES.clear


def shared_relaxation_cache(key: tuple, max_entries: int = 8192) -> RelaxationCache:
    """Relaxation cache shared by every solver run over the same problem.

    Node relaxations depend only on the problem data and the node's box
    bounds, so separate branch-and-bound runs over one problem (repeated
    discretisations, sweep re-solves) can reuse each other's node bounds.
    The caller's ``key`` must identify the problem by value.
    """
    return _SHARED_CACHES.get_or_create(key, lambda: RelaxationCache(max_entries=max_entries))


@dataclass(frozen=True)
class BBResult:
    """Result of a branch-and-bound run."""

    status: BBStatus
    objective: float
    solution: dict[str, int]
    lower_bound: float
    nodes_explored: int
    runtime_seconds: float
    relaxation_cache_hits: int = 0
    relaxation_cache_misses: int = 0
    #: Instrumentation deltas from the relaxation solver's counters (LP
    #: solves, probes, feasibility memo hits, ...) accumulated over this run.
    counters: Mapping[str, int] = field(default_factory=dict)

    @property
    def gap(self) -> float:
        """Relative optimality gap (0 when proven optimal)."""
        if not math.isfinite(self.objective) or not math.isfinite(self.lower_bound):
            return math.inf
        if abs(self.objective) < 1e-12:
            return abs(self.objective - self.lower_bound)
        return max(0.0, (self.objective - self.lower_bound) / abs(self.objective))

    @property
    def has_solution(self) -> bool:
        return bool(self.solution) and math.isfinite(self.objective)


@dataclass(frozen=True)
class BBSettings:
    """Limits and tolerances of the search.

    ``child_order`` controls the order in which a node's children enter the
    frontier: ``"fixed"`` (the historical floor-then-ceiling order) or
    ``"bound"`` (children sorted by their relaxation lower bound, so among
    equal-bound frontier entries the better-bounded child is expanded
    first).  The best-first heap makes this a tie-breaking refinement; it
    changes the search path -- and with it which optimal incumbent is found
    -- only when bounds tie, which is why ``"fixed"`` stays the default.
    """

    max_nodes: int = 20_000
    time_limit_seconds: float = 120.0
    gap_tolerance: float = 1e-6
    integrality_tolerance: float = INTEGRALITY_TOLERANCE
    child_order: str = "fixed"

    def __post_init__(self) -> None:
        if self.child_order not in ("fixed", "bound"):
            raise ValueError("child_order must be 'fixed' or 'bound'")


#: A relaxation solver maps node bounds to a bound + fractional solution; it
#: may optionally accept the parent node's relaxation as a second positional
#: argument to warm-start (``None`` at the root).
RelaxationSolver = Callable[..., RelaxationResult]
IncumbentEvaluator = Callable[[Mapping[str, int]], float | None]
RoundingHeuristic = Callable[[Mapping[str, float], VariableBounds], Iterable[Mapping[str, int]]]


def _accepts_parent(solver: RelaxationSolver) -> bool:
    """Whether a relaxation solver takes a (bounds, parent) pair."""
    try:
        parameters = inspect.signature(solver).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/C callables
        return False
    positional = [
        parameter
        for parameter in parameters.values()
        if parameter.kind
        in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    ]
    if any(
        parameter.kind is inspect.Parameter.VAR_POSITIONAL for parameter in parameters.values()
    ):
        return True
    return len(positional) >= 2


@dataclass(order=True)
class _Node:
    """Priority-queue entry; ordered by relaxation bound (best-first)."""

    bound: float
    sequence: int
    bounds: VariableBounds = field(compare=False)
    relaxation: RelaxationResult = field(compare=False)
    depth: int = field(compare=False, default=0)


class BranchAndBoundSolver:
    """Best-first branch-and-bound over integer box bounds."""

    def __init__(
        self,
        relaxation_solver: RelaxationSolver,
        incumbent_evaluator: IncumbentEvaluator,
        rounding_heuristic: RoundingHeuristic | None = None,
        settings: BBSettings = BBSettings(),
        relaxation_cache: RelaxationCache | None = None,
        counters_provider: "Callable[[], Mapping[str, int]] | None" = None,
    ):
        self._relax = relaxation_solver
        self._relax_takes_parent = _accepts_parent(relaxation_solver)
        self._evaluate = incumbent_evaluator
        self._round = rounding_heuristic
        self._settings = settings
        self._cache = relaxation_cache
        #: Optional callable returning monotone instrumentation counters of
        #: the relaxation solver; the per-run delta lands on ``BBResult``.
        self._counters_provider = counters_provider

    def _solve_relaxation(
        self, bounds: VariableBounds, parent: RelaxationResult | None = None
    ) -> RelaxationResult:
        """Solve one node's relaxation through the cache and warm start."""
        if self._cache is not None:
            cached = self._cache.get(bounds)
            if cached is not None:
                return cached
        if self._relax_takes_parent:
            result = self._relax(bounds, parent)
        else:
            result = self._relax(bounds)
        if self._cache is not None:
            self._cache.put(bounds, result)
        return result

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(
        self,
        initial_bounds: VariableBounds,
        initial_incumbent: Mapping[str, int] | None = None,
    ) -> BBResult:
        """Run the search starting from ``initial_bounds``.

        ``initial_incumbent`` may seed the search with a known feasible point
        (e.g. the GP+A heuristic solution), which dramatically improves
        pruning on symmetric instances.
        """
        start = time.perf_counter()
        settings = self._settings
        counter = itertools.count()
        hits_before = self._cache.hits if self._cache is not None else 0
        misses_before = self._cache.misses if self._cache is not None else 0

        def cache_stats() -> tuple[int, int]:
            if self._cache is None:
                return 0, 0
            return self._cache.hits - hits_before, self._cache.misses - misses_before

        counters_before = (
            dict(self._counters_provider()) if self._counters_provider is not None else {}
        )

        def counter_deltas() -> dict[str, int]:
            if self._counters_provider is None:
                return {}
            return {
                name: value - counters_before.get(name, 0)
                for name, value in self._counters_provider().items()
            }

        best_objective = math.inf
        best_solution: dict[str, int] = {}
        if initial_incumbent is not None:
            seeded = {name: int(round(value)) for name, value in initial_incumbent.items()}
            value = self._evaluate(seeded)
            if value is not None:
                best_objective = value
                best_solution = seeded

        root_relaxation = self._solve_relaxation(initial_bounds)
        if not root_relaxation.feasible:
            if best_solution:
                # The caller's incumbent is feasible even though the root
                # relaxation is not (should not happen for exact relaxations).
                hits, misses = cache_stats()
                return BBResult(
                    status=BBStatus.FEASIBLE,
                    objective=best_objective,
                    solution=best_solution,
                    lower_bound=-math.inf,
                    nodes_explored=0,
                    runtime_seconds=time.perf_counter() - start,
                    relaxation_cache_hits=hits,
                    relaxation_cache_misses=misses,
                    counters=counter_deltas(),
                )
            raise InfeasibleProblemError("root relaxation is infeasible")

        heap: list[_Node] = [
            _Node(
                bound=root_relaxation.objective,
                sequence=next(counter),
                bounds=initial_bounds,
                relaxation=root_relaxation,
            )
        ]
        nodes_explored = 0
        global_lower = root_relaxation.objective

        while heap:
            if nodes_explored >= settings.max_nodes:
                break
            if time.perf_counter() - start > settings.time_limit_seconds:
                break

            with span("bb_node"):
                node = heapq.heappop(heap)
                global_lower = node.bound if not heap else min(node.bound, heap[0].bound)
                if node.bound >= best_objective - settings.gap_tolerance * max(1.0, abs(best_objective)):
                    # Everything remaining is at least as bad as the incumbent.
                    global_lower = max(global_lower, node.bound)
                    break
                nodes_explored += 1

                fractional = self._fractional_variables(node.relaxation.solution, node.bounds)
                if not fractional:
                    # Integral relaxation: candidate incumbent.
                    candidate = {
                        name: int(round(node.relaxation.solution.get(name, node.bounds.lower(name))))
                        for name in node.bounds
                    }
                    value = self._evaluate(candidate)
                    if value is not None and value < best_objective:
                        best_objective = value
                        best_solution = candidate
                    continue

                # Try rounding heuristics to tighten the incumbent early.
                if self._round is not None:
                    for proposal in self._round(node.relaxation.solution, node.bounds):
                        candidate = {name: int(proposal[name]) for name in proposal}
                        value = self._evaluate(candidate)
                        if value is not None and value < best_objective:
                            best_objective = value
                            best_solution = candidate

                branch_name, branch_value = self._select_branching(fractional)
                floor_value = int(math.floor(branch_value))
                children = []
                lower, upper = node.bounds[branch_name]
                if floor_value >= lower:
                    children.append(node.bounds.with_upper(branch_name, floor_value))
                if floor_value + 1 <= upper:
                    children.append(node.bounds.with_lower(branch_name, floor_value + 1))

                solved_children = []
                for child_bounds in children:
                    relaxation = self._solve_relaxation(child_bounds, node.relaxation)
                    if not relaxation.feasible:
                        continue
                    if relaxation.objective >= best_objective - settings.gap_tolerance * max(
                        1.0, abs(best_objective)
                    ):
                        continue
                    solved_children.append((child_bounds, relaxation))
                if settings.child_order == "bound":
                    # Lower-bound-guided ordering: the better-bounded child
                    # gets the smaller sequence number, so it wins heap ties
                    # against its sibling (and any other equal-bound frontier
                    # node).
                    solved_children.sort(key=lambda entry: entry[1].objective)
                for child_bounds, relaxation in solved_children:
                    heapq.heappush(
                        heap,
                        _Node(
                            bound=relaxation.objective,
                            sequence=next(counter),
                            bounds=child_bounds,
                            relaxation=relaxation,
                            depth=node.depth + 1,
                        ),
                    )

        runtime = time.perf_counter() - start
        if heap:
            global_lower = min(global_lower, heap[0].bound)
        else:
            # Search exhausted: the incumbent (if any) is optimal.
            global_lower = best_objective if math.isfinite(best_objective) else global_lower

        hits, misses = cache_stats()
        if not math.isfinite(best_objective):
            status = BBStatus.NO_SOLUTION if (heap or nodes_explored) else BBStatus.INFEASIBLE
            return BBResult(
                status=status,
                objective=math.inf,
                solution={},
                lower_bound=global_lower,
                nodes_explored=nodes_explored,
                runtime_seconds=runtime,
                relaxation_cache_hits=hits,
                relaxation_cache_misses=misses,
                counters=counter_deltas(),
            )

        gap = (best_objective - global_lower) / max(1e-12, abs(best_objective))
        status = BBStatus.OPTIMAL if gap <= max(settings.gap_tolerance, 1e-9) * 10 else BBStatus.FEASIBLE
        return BBResult(
            status=status,
            objective=best_objective,
            solution=best_solution,
            lower_bound=min(global_lower, best_objective),
            nodes_explored=nodes_explored,
            runtime_seconds=runtime,
            relaxation_cache_hits=hits,
            relaxation_cache_misses=misses,
            counters=counter_deltas(),
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _fractional_variables(
        self, solution: Mapping[str, float], bounds: VariableBounds
    ) -> dict[str, float]:
        """Variables whose relaxation value is not (nearly) integral."""
        tolerance = self._settings.integrality_tolerance
        fractional: dict[str, float] = {}
        for name in bounds:
            value = solution.get(name)
            if value is None:
                continue
            if abs(value - round(value)) > tolerance:
                fractional[name] = value
        return fractional

    @staticmethod
    def _select_branching(fractional: Mapping[str, float]) -> tuple[str, float]:
        """Most-fractional branching rule."""
        def distance(item: tuple[str, float]) -> float:
            _, value = item
            return abs(value - math.floor(value) - 0.5)

        name, value = min(fractional.items(), key=distance)
        return name, value
