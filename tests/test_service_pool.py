"""Worker pool + routing front-end: the multi-process serving topology.

A :class:`~repro.service.pool.WorkerPool` spawns one process per shard
group (each owning its group's store, WAL and job queue) and a
:class:`~repro.service.router.RouterService` splits every request stream
across them by consistent hashing.  None of that may be observable in the
answers: sync batches, async composite jobs and raw ``/solve`` calls
through the router must match a single-process service byte-for-byte
(minus the wall clock), a ``SIGKILL``-ed worker must restart and finish
every acknowledged job, and an online resize may re-solve *only* the keys
the ring actually moved.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.core.problem import AllocationProblem
from repro.obs.memo import clear_all
from repro.obs.metrics import validate_prometheus_text
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.service import (
    AllocationService,
    ResultStore,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    SolveRequest,
    WorkerPool,
    WorkerSpec,
    decode_records,
    ring,
)
from repro.service.pool import build_worker_service, group_dir
from repro.service.router import (
    RouterService,
    inject_label,
    merge_prometheus,
    start_router,
)
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline

# --------------------------------------------------------------------------- #
# Request pool (distinct fingerprints so they spread across groups)
# --------------------------------------------------------------------------- #


def _request(index: int, method: str = "gp+a") -> SolveRequest:
    pipeline = Pipeline(
        name=f"pipe{index}",
        kernels=[
            Kernel(
                "A",
                ResourceVector(bram=10.0 + index, dsp=20.0),
                bandwidth=5.0,
                wcet_ms=10.0,
            ),
            Kernel(
                "B",
                ResourceVector(bram=5.0, dsp=10.0 + index),
                bandwidth=2.0,
                wcet_ms=4.0,
            ),
            Kernel("C", ResourceVector(bram=2.0, dsp=30.0), bandwidth=3.0, wcet_ms=12.0),
        ],
    )
    problem = AllocationProblem(
        pipeline=pipeline,
        platform=aws_f1(num_fpgas=2, resource_limit_percent=65.0 + index),
    )
    return SolveRequest(problem=problem, method=method)


POOL_REQUESTS = [_request(index) for index in range(8)]


def _comparable(document: dict) -> str:
    trimmed = dict(document)
    trimmed.pop("runtime_seconds", None)
    return json.dumps(trimmed, sort_keys=True)


def _reference_documents() -> list[str]:
    """Comparable outcomes of the request pool from a single-process run."""
    clear_all()
    service = AllocationService(store=ResultStore())
    try:
        outcomes, _ = service.solve_batch(POOL_REQUESTS)
        return [_comparable(outcome.to_dict()) for outcome in outcomes]
    finally:
        service.close()


REFERENCE = _reference_documents()


def _client(port: int, retries: int = 10) -> ServiceClient:
    return ServiceClient(
        f"http://127.0.0.1:{port}",
        timeout_seconds=60.0,
        retry_policy=RetryPolicy(retries=retries, backoff_base_seconds=0.1),
    )


def _start_topology(tmp_path, num_groups: int = 2, **pool_kwargs):
    spec = WorkerSpec(group=0, data_dir=str(tmp_path))
    pool = WorkerPool(num_groups, str(tmp_path), spec=spec, **pool_kwargs)
    pool.start()
    router = RouterService(pool)
    server, thread = start_router(router, "127.0.0.1", 0)
    port = server.server_address[1]
    return pool, router, server, thread, _client(port)


def _stop_topology(router, server, thread) -> None:
    server.shutdown()
    thread.join(timeout=30.0)
    server.server_close()
    router.close()  # closes the pool too (own_pool=True)


# --------------------------------------------------------------------------- #
# A shared read-mostly topology for the routing equivalence tests
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def topology(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pool")
    pool, router, server, thread, client = _start_topology(tmp_path, num_groups=2)
    try:
        yield pool, router, client
    finally:
        _stop_topology(router, server, thread)


def _cold_batch_in_worker_service(data_dir: str) -> None:
    """Body of the daemon process below: a 6-unique cold batch."""
    service = build_worker_service(WorkerSpec(group=0, data_dir=data_dir))
    try:
        _, report = service.solve_batch(POOL_REQUESTS[:6])
    finally:
        service.close()
    assert report.solves == 6


class TestWorkerProcessParallelism:
    def test_cold_batch_in_daemon_worker_on_multi_cpu_host(self, tmp_path, monkeypatch):
        """Pool workers are daemon processes, which may not have children.
        A worker's service must solve a cold batch in-process however many
        CPUs the host reports (the forked child inherits the patch)."""
        monkeypatch.setattr("repro.explore.executor.available_workers", lambda: 4)
        clear_all()
        process = multiprocessing.get_context("fork").Process(
            target=_cold_batch_in_worker_service, args=(str(tmp_path),), daemon=True
        )
        process.start()
        process.join(timeout=120.0)
        assert process.exitcode == 0


class TestRoutingEquivalence:
    def test_health_and_worker_status(self, topology):
        pool, router, client = topology
        health = client.health()
        assert health["status"] == "ok"
        assert health["groups"] == 2
        assert health["healthy_groups"] == 2
        rows = pool.worker_status()
        assert [row["group"] for row in rows] == [0, 1]
        assert all(row["healthy"] and row["pid"] for row in rows)

    def test_sync_batch_matches_single_process(self, topology):
        _, _, client = topology
        response = client.solve_batch(POOL_REQUESTS)
        assert [_comparable(doc) for doc in response["outcomes"]] == REFERENCE
        report = response["report"]
        assert report["total"] == len(POOL_REQUESTS)
        assert report["unique"] == len(POOL_REQUESTS)
        # The split really used both workers (8 distinct fingerprints on a
        # 2-group ring collide onto one group with probability 2^-7).
        owned = ring(2).partition(response["fingerprints"])
        assert len(owned) == 2

    def test_async_composite_job_matches_sync(self, topology):
        _, router, client = topology
        ack = client.solve_batch_async(POOL_REQUESTS)
        assert ack["status"] == "queued"
        assert ack["job_id"].startswith("rjob-")
        assert sum(part["count"] for part in ack["parts"]) == len(POOL_REQUESTS)
        document = client.wait_for_job(ack["job_id"], timeout_seconds=120.0)
        assert document["status"] == "done"
        assert [_comparable(doc) for doc in document["outcomes"]] == REFERENCE
        assert document["report"]["total"] == len(POOL_REQUESTS)
        # Polls are idempotent and the job is listed.
        again = client.job(ack["job_id"])
        assert [_comparable(doc) for doc in again["outcomes"]] == REFERENCE
        assert any(row["job_id"] == ack["job_id"] for row in client.jobs())

    def test_raw_solve_routes_to_owner_and_caches(self, topology):
        _, _, client = topology
        request = POOL_REQUESTS[0]
        first = client.solve(request.problem, method=request.method)
        assert _comparable(first["outcome"]) == REFERENCE[0]
        second = client.solve(request.problem, method=request.method)
        # Same fingerprint -> same group -> warm store.
        assert second["cache"] in ("memory", "disk")
        assert _comparable(second["outcome"]) == REFERENCE[0]

    def test_stats_aggregate_across_workers(self, topology):
        _, router, client = topology
        stats = client.stats()
        assert stats["router"]["num_groups"] == 2
        assert stats["router"]["requests"] >= len(POOL_REQUESTS)
        assert len(stats["pool"]) == 2
        assert len(stats["workers"]) == 2
        assert stats["unreachable_groups"] == []
        # Sums really aggregate: every fingerprint is owned by exactly one
        # group, so the workers' solve counters add up to the total.
        per_worker_solves = sum(
            row["service"]["solves"] for row in stats["workers"].values()
        )
        assert stats["service"]["solves"] == per_worker_solves
        assert stats["wal"]["fsyncs"] >= 1
        # Memo counters sum the same way; the router adds its routing memo.
        per_worker_gp_misses = sum(
            row["memos"]["gp_step"]["misses"] for row in stats["workers"].values()
        )
        assert stats["memos"]["gp_step"]["misses"] == per_worker_gp_misses
        routing = stats["memos"]["router_fingerprint"]
        assert routing["hits"] == stats["router"]["fingerprint_memo_hits"]
        assert routing["misses"] == stats["router"]["fingerprint_memo_misses"]

    def test_metrics_merged_with_worker_labels(self, topology):
        _, _, client = topology
        text = client.metrics()
        assert validate_prometheus_text(text) == []
        assert 'worker="g0"' in text
        assert 'worker="g1"' in text
        assert 'worker="router"' in text
        # HELP/TYPE stated once per family even though every worker emits it.
        assert text.count("# TYPE repro_http_requests_total") == 1

    def test_unknown_job_is_a_clean_404(self, topology):
        _, _, client = topology
        with pytest.raises(ServiceError) as excinfo:
            client.job("rjob-99999999")
        assert excinfo.value.status == 404

    def test_trace_proxied_to_owner(self, topology):
        # Tracing is off in the workers, so the owner's 404 must propagate
        # through the router untranslated (proving /trace is proxied, not
        # answered locally).
        _, router, client = topology
        response = client.solve_batch([POOL_REQUESTS[0]])
        fingerprint = response["fingerprints"][0]
        with pytest.raises(ServiceError) as excinfo:
            client.trace(fingerprint)
        assert excinfo.value.status == 404


# --------------------------------------------------------------------------- #
# Crash / restart / unavailability
# --------------------------------------------------------------------------- #


class TestCrashRecovery:
    def test_kill_mid_async_job_restarts_and_converges(self, tmp_path):
        """Zero lost acked jobs: a SIGKILL-ed worker restarts, and the
        composite job converges with byte-identical outcomes (a part whose
        job document died with the worker is re-submitted by the router and
        answered from the durable store)."""
        pool, router, server, thread, client = _start_topology(
            tmp_path, num_groups=2, heartbeat_seconds=0.2
        )
        try:
            ack = client.solve_batch_async(POOL_REQUESTS)
            groups = [part["group"] for part in ack["parts"]]
            assert len(groups) == 2
            time.sleep(0.2)
            pool.kill(groups[0])
            document = client.wait_for_job(ack["job_id"], timeout_seconds=120.0)
            assert document["status"] == "done"
            assert [_comparable(doc) for doc in document["outcomes"]] == REFERENCE
            status = {row["group"]: row for row in pool.worker_status()}
            assert status[groups[0]]["restarts"] == 1
            assert status[groups[0]]["healthy"] is True
            # Nothing is re-solved when the whole stream is replayed.
            replay = client.solve_batch(POOL_REQUESTS)
            assert replay["report"]["solves"] == 0
            assert [_comparable(doc) for doc in replay["outcomes"]] == REFERENCE
        finally:
            _stop_topology(router, server, thread)

    def test_worker_down_sheds_503_with_retry_after(self, tmp_path):
        pool, router, server, thread, client = _start_topology(
            tmp_path, num_groups=2, auto_restart=False, heartbeat_seconds=0.2
        )
        try:
            response = client.solve_batch(POOL_REQUESTS)
            owned = ring(2).partition(response["fingerprints"])
            victim = sorted(owned)[0]
            index = owned[victim][0]
            pool.kill(victim)
            impatient = _client(server.server_address[1], retries=0)
            with pytest.raises(ServiceError) as excinfo:
                impatient.solve_batch([POOL_REQUESTS[index]])
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after_seconds >= 1.0
            stats = client.stats()
            assert victim in stats["unreachable_groups"]
            assert stats["admission"]["rejected_503"] >= 1
            # The surviving group still answers.
            survivor = sorted(owned)[1]
            alive = [POOL_REQUESTS[i] for i in owned[survivor]]
            assert client.solve_batch(alive)["report"]["solves"] == 0
        finally:
            _stop_topology(router, server, thread)


# --------------------------------------------------------------------------- #
# Online resize
# --------------------------------------------------------------------------- #


class TestOnlineResize:
    def test_resize_re_solves_only_moved_keys(self, tmp_path):
        pool, router, server, thread, client = _start_topology(tmp_path, num_groups=2)
        try:
            warm = client.solve_batch(POOL_REQUESTS)
            fingerprints = warm["fingerprints"]
            assert warm["report"]["solves"] == len(POOL_REQUESTS)

            result = router.resize(3)
            assert result["num_groups"] == 3
            assert result["added_groups"] == [2]
            assert client.health()["groups"] == 3

            moved = ring(2).moved_keys(ring(3), fingerprints)
            replay = client.solve_batch(POOL_REQUESTS)
            # Only the keys the ring moved went cold; every moved key now
            # belongs to the new group.
            assert replay["report"]["solves"] == len(moved)
            assert all(ring(3).group_of(f) == 2 for f in moved)
            assert [_comparable(doc) for doc in replay["outcomes"]] == REFERENCE
            # A second replay is fully warm again.
            assert client.solve_batch(POOL_REQUESTS)["report"]["solves"] == 0
        finally:
            _stop_topology(router, server, thread)

    def test_resize_races_inflight_composite_job(self, tmp_path):
        """A resize landing while a composite async job is in flight must
        not corrupt it: the job's parts were split on the old ring and keep
        their owners, so the job converges byte-identical to the reference,
        and a replay afterwards re-solves exactly the keys the ring moved
        (the in-flight solves landed in the old owners' stores)."""
        pool, router, server, thread, client = _start_topology(tmp_path, num_groups=2)
        try:
            ack = client.solve_batch_async(POOL_REQUESTS)
            assert ack["status"] == "queued"

            result = router.resize(3)  # while the job is still being solved
            assert result["num_groups"] == 3
            assert client.health()["groups"] == 3

            document = client.wait_for_job(ack["job_id"], timeout_seconds=120.0)
            assert document["status"] == "done"
            assert document["report"]["total"] == len(POOL_REQUESTS)
            assert [_comparable(doc) for doc in document["outcomes"]] == REFERENCE

            # The job's answers are owned by the OLD ring's groups; only the
            # keys the resize moved go cold on replay, and they all belong
            # to the new group.
            fingerprints = document["fingerprints"]
            moved = ring(2).moved_keys(ring(3), fingerprints)
            replay = client.solve_batch(POOL_REQUESTS)
            assert replay["report"]["solves"] == len(moved)
            assert all(ring(3).group_of(f) == 2 for f in moved)
            assert [_comparable(doc) for doc in replay["outcomes"]] == REFERENCE
            assert client.solve_batch(POOL_REQUESTS)["report"]["solves"] == 0
        finally:
            _stop_topology(router, server, thread)

    def test_resize_rejects_shrink(self, tmp_path):
        pool, router, server, thread, client = _start_topology(tmp_path, num_groups=2)
        try:
            with pytest.raises(ValueError):
                router.resize(1)
        finally:
            _stop_topology(router, server, thread)


# --------------------------------------------------------------------------- #
# Graceful shutdown
# --------------------------------------------------------------------------- #


class TestGracefulShutdown:
    def test_close_drains_workers_and_leaves_no_torn_wal(self, tmp_path):
        pool, router, server, thread, client = _start_topology(tmp_path, num_groups=2)
        pids = [row["pid"] for row in pool.worker_status()]
        try:
            client.solve_batch_async(POOL_REQUESTS)
            client.wait_for_job("rjob-00000001", timeout_seconds=120.0)
        finally:
            _stop_topology(router, server, thread)
        # Workers exited (SIGTERM drain, not SIGKILL).
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)
        # Every WAL segment on disk decodes to its full length: the final
        # fsync-on-close left no torn tail.
        segments = list(tmp_path.glob("group-*/wal/wal-*.log"))
        assert segments, "workers wrote no WAL segments"
        for segment in segments:
            data = segment.read_bytes()
            records, valid = decode_records(data)
            assert valid == len(data), f"torn tail in {segment}"

    def test_per_group_directories_are_disjoint(self, tmp_path):
        pool, router, server, thread, client = _start_topology(tmp_path, num_groups=2)
        try:
            client.solve_batch(POOL_REQUESTS)
            for group in (0, 1):
                root = group_dir(str(tmp_path), group)
                assert (root / "cache").is_dir()
                assert (root / "wal").is_dir()
        finally:
            _stop_topology(router, server, thread)


# --------------------------------------------------------------------------- #
# Prometheus merging (pure units, no processes)
# --------------------------------------------------------------------------- #


class TestMergePrometheus:
    EXPOSITION_A = (
        "# HELP repro_requests_total Requests.\n"
        "# TYPE repro_requests_total counter\n"
        "repro_requests_total 3\n"
        "# HELP repro_latency_seconds Latency.\n"
        "# TYPE repro_latency_seconds histogram\n"
        'repro_latency_seconds_bucket{le="0.1"} 2\n'
        'repro_latency_seconds_bucket{le="+Inf"} 3\n'
        "repro_latency_seconds_sum 0.2\n"
        "repro_latency_seconds_count 3\n"
    )
    EXPOSITION_B = (
        "# HELP repro_requests_total Requests.\n"
        "# TYPE repro_requests_total counter\n"
        'repro_requests_total{method="GET"} 5\n'
    )

    def test_inject_label_wraps_bare_and_extends_labeled_samples(self):
        assert (
            inject_label("repro_requests_total 3", "worker", "g0")
            == 'repro_requests_total{worker="g0"} 3'
        )
        assert (
            inject_label('repro_requests_total{method="GET"} 5', "worker", "g1")
            == 'repro_requests_total{worker="g1",method="GET"} 5'
        )

    def test_merge_states_help_and_type_once_and_keeps_families_contiguous(self):
        merged = merge_prometheus(
            [("g0", self.EXPOSITION_A), ("g1", self.EXPOSITION_B)]
        )
        assert merged.count("# TYPE repro_requests_total") == 1
        assert merged.count("# HELP repro_requests_total") == 1
        assert 'repro_requests_total{worker="g0"} 3' in merged
        assert 'repro_requests_total{worker="g1",method="GET"} 5' in merged
        # Histogram suffix samples stay attached to their family.
        assert 'repro_latency_seconds_bucket{worker="g0",le="0.1"} 2' in merged
        assert validate_prometheus_text(merged) == []

    def test_merged_families_keep_first_writer_order(self):
        merged = merge_prometheus(
            [("g0", self.EXPOSITION_A), ("g1", self.EXPOSITION_B)]
        )
        first = merged.index("repro_requests_total")
        second = merged.index("repro_latency_seconds")
        assert first < second
