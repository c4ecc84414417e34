"""Identity of the array-native discretisation with the engine-based search.

The discretisation step runs its own best-first search over ``(lower,
upper)`` vectors and the min-max kernels run in a lean form.  Both must
return exactly what the reference implementations in
:mod:`oracle_discretize` return: the same integer totals, II, node count,
optimality flag and number of relaxations requested (or the same
:class:`DiscretizationError`), and bit-identical relaxation optima.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_discretize as oracle
from repro.core.discretize import DiscretizationError, discretize_counts
from repro.core.gp_step import build_vectorized_minmax, solve_gp_step
from repro.core.problem import AllocationProblem
from repro.gp.errors import InfeasibleError
from repro.gp.minmax import VectorizedMinMaxProblem
from repro.platform.presets import aws_f1, mixed_fleet
from repro.reporting.experiments import case_study
from repro.workloads.pipeline import Pipeline
from repro.workloads.synthetic import SyntheticSpec, random_pipeline

CASES = ("alex-16", "alex-32", "vgg-16")
CONSTRAINTS = tuple(float(percent) for percent in range(55, 100, 5))


def _outcome(solve):
    """The compared fields of a discretisation, or its error message."""
    try:
        result = solve()
    except DiscretizationError as error:
        return ("error", str(error))
    return (
        dict(result.counts),
        result.ii,
        result.nodes_explored,
        result.proven_optimal,
        result.cache_hits + result.cache_misses,
    )


def _assert_identical(problem, counts_hat, max_nodes=20_000, time_limit_seconds=30.0):
    expected = _outcome(
        lambda: oracle.discretize_counts(problem, counts_hat, max_nodes, time_limit_seconds)
    )
    actual = _outcome(
        lambda: discretize_counts(
            problem, counts_hat, max_nodes, time_limit_seconds, use_cache=False
        )
    )
    assert actual == expected
    return actual


@st.composite
def problems(draw):
    """Random pipelines (some kernels CU-capped) on F1 or mixed fleets."""
    limit = draw(st.floats(min_value=35.0, max_value=100.0))
    if draw(st.booleans()):
        platform = aws_f1(num_fpgas=draw(st.integers(1, 8)), resource_limit_percent=limit)
    else:
        platform = mixed_fleet(
            num_large=draw(st.integers(1, 4)),
            num_small=draw(st.integers(1, 4)),
            resource_limit_percent=limit,
        )
    # About two kernels per FPGA keeps most draws feasible; the rest cover
    # the infeasible root.  Identical copies of a kernel tie on their
    # fractional parts, which exercises the branching tie-break.
    copies = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.integers(min_value=1, max_value=max(1, (2 * platform.num_fpgas + 2) // copies)))
    base = random_pipeline(SyntheticSpec(num_kernels=size), seed=draw(st.integers(0, 10_000)))
    caps = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
            min_size=size,
            max_size=size,
        )
    )
    pipeline = Pipeline(
        name=base.name,
        kernels=[
            dataclasses.replace(kernel, name=f"{kernel.name}.{copy}", max_cus=cap)
            for kernel, cap in zip(base.kernels, caps)
            for copy in range(copies)
        ],
    )
    return AllocationProblem(pipeline=pipeline, platform=platform)


LIMITS = st.sampled_from(
    [(20_000, 30.0), (1, 30.0), (2, 30.0), (3, 30.0), (7, 30.0), (20_000, -1.0)]
)


class TestSearchIdentity:
    @settings(max_examples=150, deadline=None)
    @given(problems(), LIMITS)
    def test_gp_optimum_discretizes_identically(self, problem, limits):
        try:
            counts_hat = solve_gp_step(problem).counts_hat
        except Exception:
            # The relaxation itself is infeasible: discretise from ones,
            # which must fail the same way on both paths.
            counts_hat = {name: 1.0 for name in problem.kernel_names}
        _assert_identical(problem, counts_hat, *limits)

    @settings(max_examples=100, deadline=None)
    @given(problems(), st.data(), LIMITS)
    def test_arbitrary_fractional_totals_discretize_identically(self, problem, data, limits):
        """Off-optimum totals move the seed incumbent, including to an
        infeasible one."""
        counts_hat = {
            name: data.draw(st.floats(min_value=0.0, max_value=40.0))
            for name in problem.kernel_names
        }
        _assert_identical(problem, counts_hat, *limits)

    def test_infeasible_root_raises_the_same_error(self, tiny_pipeline):
        problem = AllocationProblem(
            pipeline=tiny_pipeline, platform=aws_f1(num_fpgas=1, resource_limit_percent=1.0)
        )
        outcome = _assert_identical(problem, {name: 1.0 for name in problem.kernel_names})
        assert outcome == ("error", "root relaxation is infeasible")

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_case_studies(self, case, constraint):
        problem = case_study(case, resource_limit_percent=constraint)
        counts_hat = solve_gp_step(problem).counts_hat
        outcome = _assert_identical(problem, counts_hat)
        assert outcome[3], "the default budget proves every case study optimal"
        _assert_identical(problem, counts_hat, max_nodes=2)

    @pytest.mark.parametrize(
        "seed, platform",
        [
            (5, mixed_fleet(2, 3, resource_limit_percent=50.0)),
            (5, mixed_fleet(2, 3, resource_limit_percent=70.0)),
            (18, mixed_fleet(2, 3, resource_limit_percent=90.0)),
            (19, aws_f1(4, resource_limit_percent=90.0)),
        ],
    )
    def test_branching_tie_goes_to_the_first_kernel(self, seed, platform):
        """Three copies of each kernel tie on their fractional parts; which
        copy is branched on first decides which one ends up with the extra
        CU in these optima."""
        base = random_pipeline(SyntheticSpec(num_kernels=4), seed=seed)
        pipeline = Pipeline(
            name=base.name,
            kernels=[
                dataclasses.replace(kernel, name=f"{kernel.name}.{copy}")
                for kernel in base.kernels
                for copy in range(3)
            ],
        )
        problem = AllocationProblem(pipeline=pipeline, platform=platform)
        outcome = _assert_identical(problem, solve_gp_step(problem).counts_hat)
        assert outcome[2] > 1

    def test_shared_node_cache_replays_identically(self):
        """A second run answers its nodes from the shared cache and still
        matches the reference node for node."""
        problem = case_study("vgg-16", resource_limit_percent=70.0)
        counts_hat = solve_gp_step(problem).counts_hat
        first = discretize_counts(problem, counts_hat, use_cache=False)
        second = discretize_counts(problem, counts_hat, use_cache=False)
        assert second.cache_hits > 0
        assert _outcome(lambda: second) == _outcome(lambda: first)
        assert _outcome(lambda: second) == _outcome(
            lambda: oracle.discretize_counts(problem, counts_hat)
        )


# --------------------------------------------------------------------------- #
# Lean min-max kernels: bit-identical to the originals
# --------------------------------------------------------------------------- #
@st.composite
def boxes(draw):
    """A random min-max problem plus one box (``inf`` uppers allowed)."""
    size = draw(st.integers(min_value=1, max_value=8))
    dims = draw(st.integers(min_value=1, max_value=4))
    floats = lambda low, high: st.floats(min_value=low, max_value=high)  # noqa: E731
    wcet = np.asarray(draw(st.lists(floats(0.1, 60.0), min_size=size, max_size=size)))
    weights = np.asarray(
        draw(
            st.lists(
                st.one_of(st.just(0.0), floats(0.0, 30.0)),
                min_size=size * dims,
                max_size=size * dims,
            )
        )
    ).reshape(dims, size)
    capacity = np.asarray(draw(st.lists(floats(0.0, 400.0), min_size=dims, max_size=dims)))
    lower = np.asarray(
        draw(
            st.lists(
                st.one_of(st.integers(1, 6).map(float), floats(0.5, 6.0)),
                min_size=size,
                max_size=size,
            )
        )
    )
    if draw(st.booleans()):
        upper = None
    else:
        extra = draw(
            st.lists(
                st.one_of(st.just(np.inf), st.integers(0, 8).map(float), floats(0.0, 8.0)),
                min_size=size,
                max_size=size,
            )
        )
        upper = lower + np.asarray(extra)
    lean = VectorizedMinMaxProblem(["k%d" % i for i in range(size)], wcet, weights, capacity)
    return lean, oracle.LegacyMinMax.of(lean), lower, upper


def _bits(solve):
    try:
        ii, counts = solve()
    except InfeasibleError as error:
        return ("infeasible", str(error))
    return np.float64(ii).tobytes(), counts.tobytes()


class TestLeanMinMaxIdentity:
    @settings(max_examples=300, deadline=None)
    @given(boxes())
    def test_solve_exact_bitwise(self, box):
        lean, legacy, lower, upper = box
        expected = _bits(lambda: legacy.solve_exact(min_counts=lower, max_counts=upper))
        assert _bits(lambda: lean.solve_exact(min_counts=lower, max_counts=upper)) == expected

    @settings(max_examples=150, deadline=None)
    @given(boxes())
    def test_bisection_bitwise(self, box):
        """``solve`` probes ``is_feasible_ii`` ~40 times per call."""
        lean, legacy, lower, upper = box
        expected = _bits(lambda: legacy.solve(min_counts=lower, max_counts=upper))
        assert _bits(lambda: lean.solve(min_counts=lower, max_counts=upper)) == expected

    @settings(max_examples=200, deadline=None)
    @given(boxes(), st.floats(min_value=1e-3, max_value=200.0))
    def test_is_feasible_ii_identical(self, box, ii):
        lean, legacy, lower, upper = box
        assert lean.is_feasible_ii(ii, lower, upper) is legacy.is_feasible_ii(ii, lower, upper)

    @pytest.mark.parametrize("case", CASES)
    def test_case_study_boxes_bitwise(self, case):
        problem = case_study(case, resource_limit_percent=70.0)
        lean = build_vectorized_minmax(problem)
        legacy = oracle.LegacyMinMax.of(lean)
        rng = np.random.default_rng(20261017)
        for _ in range(200):
            lower = rng.integers(1, 5, size=lean.wcet.size).astype(np.float64)
            upper = lower + rng.integers(0, 7, size=lean.wcet.size)
            expected = _bits(lambda: legacy.solve_exact(min_counts=lower, max_counts=upper))
            actual = _bits(lambda: lean.solve_exact(min_counts=lower, max_counts=upper))
            assert actual == expected
