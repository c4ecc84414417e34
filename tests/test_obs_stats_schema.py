"""Observability surfaces of the service: the pinned ``/stats`` schema,
``/metrics`` exposition over HTTP, ``/trace/<fingerprint>``, job wait/run
timing, and the structured JSON access log.

The schema test is snapshot-style on purpose: dashboards key on these
names and types, so a counter rename must fail here before it silently
breaks a scrape downstream.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro.core.problem import AllocationProblem
from repro.obs.metrics import validate_prometheus_text
from repro.platform.presets import aws_f1
from repro.service import (
    AllocationService,
    ServiceClient,
    ServiceError,
    SolveRequest,
    start_server,
)
from repro.service.jobs import JobQueue
from repro.service.store import ResultStore, StoreLimits


@pytest.fixture
def tiny_problem_at(tiny_pipeline):
    def build(resource: float) -> AllocationProblem:
        return AllocationProblem(
            pipeline=tiny_pipeline,
            platform=aws_f1(num_fpgas=2, resource_limit_percent=resource),
        )

    return build


@pytest.fixture
def traced_service():
    """A tracing-enabled server on an ephemeral port; yields (client, service)."""
    service = AllocationService(tracing=True)
    server, _ = start_server(service, port=0)
    try:
        yield ServiceClient(server.url), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()


#: ``/stats`` keys and their JSON types, pinned.  bool is checked before int
#: (bool is an int subclass in Python).
STATS_SCHEMA = {
    "service": {
        "requests": int,
        "batches": int,
        "solves": int,
        "started_unix": float,
        "uptime_seconds": float,
        "tracing": bool,
        "version": str,
    },
    "jobs": {
        "workers": int,
        "submitted": int,
        "completed": int,
        "failed": int,
        "pruned": int,
        "recovered": int,
        "rejected": int,
        "retained": int,
        "queue_depth": int,
        "wait_seconds_total": float,
        "run_seconds_total": float,
        "queued": int,
        "running": int,
        "done": int,
    },
    "cache": {
        "memory_hits": int,
        "disk_hits": int,
        "misses": int,
        "puts": int,
        "quarantines": int,
        "lookups": int,
        "hit_rate": float,
    },
    "admission": {
        "rejected_429": int,
        "rejected_503": int,
        "rejected_total": int,
    },
    "wal": {
        "enabled": bool,
    },
    "fleet": {
        "tenants": int,
        "devices": int,
        "allocations": int,
        "heuristic_allocations": int,
        "exact_allocations": int,
        "arrivals": int,
        "departures": int,
        "tenant_solves": int,
        "memo_hits": int,
    },
}

#: ``/stats`` ``memos``: one row per process-wide memo, these fields each.
MEMO_NAMES = (
    "gp_step",
    "discretize",
    "allocation",
    "relaxation_caches",
    "packing_memos",
    "decode",
)
MEMO_FIELDS = ("hits", "misses", "entries")


class TestStatsSchema:
    def test_sections_present(self, traced_service):
        client, _ = traced_service
        stats = client.stats()
        for section in (
            "service",
            "cache",
            "cache_sizes",
            "jobs",
            "solver",
            "admission",
            "wal",
            "fleet",
            "memos",
        ):
            assert section in stats, f"/stats lost its {section!r} section"

    def test_memos_section_pinned(self, traced_service, tiny_problem_at):
        client, _ = traced_service
        client.solve(tiny_problem_at(75.0))
        memos = client.stats()["memos"]
        for name in MEMO_NAMES:
            assert name in memos, f"/stats['memos'] lost memo {name!r}"
            assert sorted(memos[name]) == sorted(MEMO_FIELDS)
            for field in MEMO_FIELDS:
                value = memos[name][field]
                assert isinstance(value, int) and not isinstance(value, bool)
        # The cold solve went through the GP step memo.
        assert memos["gp_step"]["hits"] + memos["gp_step"]["misses"] >= 1

    def test_pinned_keys_and_types(self, traced_service, tiny_problem_at):
        client, _ = traced_service
        client.solve(tiny_problem_at(75.0))
        stats = client.stats()
        for section, fields in STATS_SCHEMA.items():
            document = stats[section]
            for key, expected_type in fields.items():
                assert key in document, f"/stats[{section!r}] lost key {key!r}"
                value = document[key]
                if expected_type is bool:
                    assert isinstance(value, bool), f"{section}.{key} is {type(value)}"
                elif expected_type is float:
                    assert isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ), f"{section}.{key} is {type(value)}"
                else:
                    assert (
                        isinstance(value, expected_type)
                        and not isinstance(value, bool)
                    ), f"{section}.{key} is {type(value)}"

    def test_uptime_and_started_unix_consistent(self, traced_service):
        client, service = traced_service
        stats = client.stats()
        assert stats["service"]["started_unix"] == pytest.approx(service.started_unix)
        assert stats["service"]["uptime_seconds"] >= 0.0
        assert stats["service"]["uptime_seconds"] <= time.time() - service.started_unix + 1.0

    def test_cache_sizes_are_int_by_tier(self, traced_service, tiny_problem_at):
        client, _ = traced_service
        client.solve(tiny_problem_at(80.0))
        sizes = client.stats()["cache_sizes"]
        assert sizes["memory"] >= 1
        assert all(isinstance(count, int) for count in sizes.values())


class TestExpiredEntryGauges:
    def test_stats_and_metrics_exclude_expired_entries(self):
        """Regression: expiry is lazy on access, so entries that expired and
        were never queried again kept counting in the cache-size gauges --
        every scrape overreported warm capacity.  Stats/scrape collection
        now sweeps expired entries first and books them as TTL evictions."""
        now = [1000.0]
        store = ResultStore(limits=StoreLimits(ttl_seconds=10.0), clock=lambda: now[0])
        service = AllocationService(store=store, start_job_workers=False)
        try:
            store.put("aaaa0000", "{}")
            store.put("bbbb0000", "{}")
            assert service.stats()["cache_sizes"]["memory"] == 2
            now[0] += 11.0  # both entries expire; nothing touches them again
            stats = service.stats()
            assert stats["cache_sizes"]["memory"] == 0
            assert stats["cache"]["ttl_evictions"] == 2
            assert 'repro_cache_entries{tier="memory"} 0' in service.metrics_text()
        finally:
            service.close()


class TestMetricsEndpoint:
    def test_exposition_valid_and_typed(self, traced_service, tiny_problem_at):
        client, _ = traced_service
        problem = tiny_problem_at(75.0)
        client.solve(problem)  # solver tier
        client.solve(problem)  # memory tier
        request = urllib.request.Request(f"{client.base_url}/metrics")
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert validate_prometheus_text(text) == []

    def test_solve_latency_histograms_populated(self, traced_service, tiny_problem_at):
        client, _ = traced_service
        problem = tiny_problem_at(75.0)
        client.solve(problem)
        client.solve(problem)
        text = client.metrics()
        assert 'repro_solve_latency_seconds_bucket{method="gp+a"' in text
        assert 'repro_solve_latency_seconds_count{method="gp+a"} 1' in text
        assert 'repro_cache_hits_total{tier="memory"} 1' in text
        assert 'repro_cache_hit_latency_seconds_count{tier="memory"} 1' in text
        assert "repro_requests_total 2" in text

    def test_gauges_sampled_at_scrape(self, traced_service, tiny_problem_at):
        client, _ = traced_service
        client.solve(tiny_problem_at(75.0))
        text = client.metrics()
        assert 'repro_cache_entries{tier="memory"} 1' in text
        assert "repro_uptime_seconds" in text
        assert "repro_job_queue_depth 0" in text

    def test_http_request_counter(self, traced_service):
        client, _ = traced_service
        client.health()
        text = client.metrics()
        assert 'repro_http_requests_total{method="GET",status="200"}' in text


class TestTraceEndpoint:
    def test_trace_served_for_solved_fingerprint(self, traced_service, tiny_problem_at):
        client, _ = traced_service
        response = client.solve(tiny_problem_at(75.0))
        document = client.trace(response["fingerprint"])
        assert document["name"] == "solve"
        assert document["root"]["attributes"]["fingerprint"] == response["fingerprint"]
        phases = [child["name"] for child in document["root"]["children"]]
        assert "gp_step" in phases
        assert document["duration_seconds"] > 0.0

    def test_unknown_fingerprint_is_404(self, traced_service):
        client, _ = traced_service
        with pytest.raises(ServiceError, match="no trace"):
            client.trace("deadbeef")

    def test_tracing_off_records_nothing(self, tiny_problem_at, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        service = AllocationService()  # tracing defaults to the env flag: off
        try:
            assert not service.tracing
            outcome, meta = service.solve_request(
                SolveRequest(problem=tiny_problem_at(75.0))
            )
            assert outcome is not None
            assert service.trace(meta["fingerprint"]) is None
        finally:
            service.close()

    def test_env_flag_enables_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        service = AllocationService()
        try:
            assert service.tracing
        finally:
            service.close()


class TestJobTiming:
    def test_wait_and_run_seconds_in_job_document(self):
        clock = {"now": 100.0}
        queue = JobQueue(
            runner=lambda requests: ([], _FakeReport()),
            clock=lambda: clock["now"],
        )
        try:
            document = queue.submit([object()])
            job_id = document["job_id"]
            assert document["wait_seconds"] is None
            assert document["run_seconds"] is None
            finished = queue.wait(job_id, timeout_seconds=10.0)
            assert finished["status"] == "done"
            assert finished["wait_seconds"] >= 0.0
            assert finished["run_seconds"] >= 0.0
            stats = queue.stats()
            assert stats["wait_seconds_total"] >= 0.0
            assert stats["run_seconds_total"] >= 0.0
            assert stats["queue_depth"] == 0
        finally:
            queue.close()

    def test_on_finished_observer_called_and_errors_swallowed(self):
        seen = []

        def observer(job):
            seen.append(job.id)
            raise RuntimeError("observer bug must not kill the worker")

        queue = JobQueue(runner=lambda requests: ([], _FakeReport()), on_finished=observer)
        try:
            first = queue.submit([object()])["job_id"]
            queue.wait(first, timeout_seconds=10.0)
            second = queue.submit([object()])["job_id"]
            document = queue.wait(second, timeout_seconds=10.0)
            assert document["status"] == "done"
            assert seen == [first, second]
        finally:
            queue.close()

    def test_job_timing_over_http(self, traced_service, tiny_problem_at):
        client, _ = traced_service
        submitted = client.solve_batch_async([SolveRequest(problem=tiny_problem_at(75.0))])
        document = client.wait_for_job(submitted["job_id"], timeout_seconds=60.0)
        assert document["status"] == "done"
        assert document["wait_seconds"] >= 0.0
        assert document["run_seconds"] >= 0.0
        text = client.metrics()
        assert "repro_job_wait_seconds_count 1" in text
        assert "repro_job_run_seconds_count 1" in text


class _FakeReport:
    """Minimal stand-in for a BatchReport in job-queue unit tests."""

    fingerprints: list = []
    solver_counters: dict = {}

    def as_dict(self):
        return {"total": 0}


class TestStructuredAccessLog:
    def test_json_line_per_request_with_fingerprint(self, tiny_problem_at, capfd):
        service = AllocationService(tracing=False)
        server, _ = start_server(service, port=0, quiet=False)
        try:
            client = ServiceClient(server.url)
            client.health()
            response = client.solve(tiny_problem_at(75.0))
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        lines = [
            json.loads(line)
            for line in capfd.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        assert len(lines) == 2
        health_line, solve_line = lines
        assert health_line["method"] == "GET"
        assert health_line["path"] == "/health"
        assert health_line["status"] == 200
        assert health_line["latency_ms"] >= 0.0
        assert "fingerprint" not in health_line
        assert solve_line["method"] == "POST"
        assert solve_line["path"] == "/solve"
        assert solve_line["fingerprint"] == response["fingerprint"]

    def test_quiet_silences_the_log(self, tiny_problem_at, capfd):
        service = AllocationService(tracing=False)
        server, _ = start_server(service, port=0, quiet=True)
        try:
            client = ServiceClient(server.url)
            client.health()
            client.solve(tiny_problem_at(75.0))
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert capfd.readouterr().err.strip() == ""
