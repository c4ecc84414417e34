"""The sweep execution engine: chunking, pool/serial parity, fallback."""

import math

import pytest

from repro.explore.executor import (
    ExecutorSettings,
    SolveTask,
    SweepExecutor,
    run_solve_task,
)
from repro.explore.sweep import (
    default_constraint_range,
    resource_constraint_sweep,
    t_parameter_sweep,
)
from repro.reporting.experiments import case_study


def _square(value: int) -> int:
    return value * value


class TestExecutorBasics:
    def test_empty_task_list(self):
        assert SweepExecutor().map(_square, []) == []

    def test_serial_map_preserves_order(self):
        executor = SweepExecutor(ExecutorSettings(parallel=False, chunk_size=2))
        assert executor.map(_square, list(range(7))) == [v * v for v in range(7)]

    def test_parallel_map_matches_serial(self):
        tasks = list(range(10))
        serial = SweepExecutor(ExecutorSettings(parallel=False)).map(_square, tasks)
        parallel = SweepExecutor(
            ExecutorSettings(parallel=True, max_workers=2, chunk_size=3)
        ).map(_square, tasks)
        assert parallel == serial

    def test_unpicklable_function_falls_back_to_serial(self):
        executor = SweepExecutor(ExecutorSettings(parallel=True, max_workers=2))
        assert executor.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]

    def test_chunking_covers_every_task(self):
        executor = SweepExecutor(ExecutorSettings(chunk_size=4))
        chunks = executor._chunked(list(range(10)))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert [item for chunk in chunks for item in chunk] == list(range(10))

    def test_serial_unless_the_caller_asks(self, monkeypatch):
        monkeypatch.setattr("repro.explore.executor.available_workers", lambda: 4)
        assert not ExecutorSettings().should_parallelize()
        assert not ExecutorSettings(parallel=False).should_parallelize()
        assert ExecutorSettings(parallel=True).should_parallelize()
        assert not ExecutorSettings(parallel=True, max_workers=1).should_parallelize()

    def test_executor_settings_workers(self):
        assert ExecutorSettings(max_workers=3).resolved_workers() == 3
        assert ExecutorSettings(max_workers=0).resolved_workers() == 1
        assert ExecutorSettings().resolved_workers() >= 1


class TestSweepParity:
    @pytest.fixture(scope="class")
    def problem(self):
        return case_study("alex-16")

    def test_resource_sweep_serial_vs_parallel(self, problem):
        constraints = [60.0, 70.0, 80.0]
        serial = resource_constraint_sweep(
            problem,
            constraints,
            methods=("gp+a",),
            executor=SweepExecutor(ExecutorSettings(parallel=False)),
        )
        parallel = resource_constraint_sweep(
            problem,
            constraints,
            methods=("gp+a",),
            executor=SweepExecutor(
                ExecutorSettings(parallel=True, max_workers=2, chunk_size=1)
            ),
        )
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            assert (a.resource_constraint, a.method) == (b.resource_constraint, b.method)
            assert a.feasible == b.feasible
            assert a.initiation_interval == pytest.approx(b.initiation_interval, abs=1e-12)

    def test_t_sweep_groups_share_constraint_work(self, problem):
        results = t_parameter_sweep(
            problem,
            constraints=[70.0, 80.0],
            t_values=(0.0, 10.0),
            executor=SweepExecutor(ExecutorSettings(parallel=False)),
        )
        assert set(results) == {0.0, 10.0}
        for points in results.values():
            assert [point.resource_constraint for point in points] == [70.0, 80.0]
            assert all(point.feasible for point in points)

    def test_solve_task_roundtrip(self, problem):
        outcome = run_solve_task(SolveTask(problem=problem.with_resource_constraint(80.0)))
        assert outcome.succeeded


class TestConstraintRange:
    def test_integer_grid_matches_legacy(self):
        assert default_constraint_range(40, 90, 10) == [40, 50, 60, 70, 80, 90]
        assert default_constraint_range() == [float(v) for v in range(40, 95, 5)]

    def test_fractional_step_has_no_drift(self):
        values = default_constraint_range(40.0, 90.0, 0.1)
        # 40.0 .. 90.0 inclusive in 0.1 steps: repeated addition drifts past
        # the stop and drops the final point; the index form must not.
        assert len(values) == 501
        assert values[0] == 40.0
        assert values[-1] == 90.0
        assert all(
            math.isclose(b - a, 0.1, abs_tol=1e-9) for a, b in zip(values, values[1:])
        )

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            default_constraint_range(step=0)
        with pytest.raises(ValueError):
            default_constraint_range(step=-1)

    def test_stop_below_start_gives_empty_grid(self):
        assert default_constraint_range(90.0, 40.0, 5.0) == []
