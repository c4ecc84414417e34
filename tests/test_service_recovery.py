"""Crash recovery, backpressure and quarantine: the durability contract.

The acceptance bar of the WAL work is differential: a service that crashes
after acknowledging jobs and replays them on restart must produce **byte
identical** outcome documents (modulo the wall clock) and the same dedupe
counters as a service that never crashed.  The in-process "crash" here is a
job queue whose workers are never started -- submissions are journaled and
acknowledged, then the process state is abandoned, exactly what ``kill -9``
after the ack leaves behind.  Real subprocess kills live in
``test_service_chaos.py``.
"""

from __future__ import annotations

import json
import os as _os
import random
import signal as _signal
import sqlite3
import subprocess as _subprocess
import sys as _sys
import threading
import time as _time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.problem import AllocationProblem
from repro.obs.memo import clear_all
from repro.platform.presets import aws_f1
from repro.service import (
    AllocationService,
    BackpressureError,
    ResultStore,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ShardedResultStore,
    SolveRequest,
    start_server,
)
from repro.service.store import SQLITE_FILENAME, SqliteTier
from repro.service.wal import JobWal, decode_records
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline
from repro.platform.resources import ResourceVector


def _pipeline() -> Pipeline:
    return Pipeline(
        name="tiny",
        kernels=[
            Kernel("A", ResourceVector(bram=10.0, dsp=20.0), bandwidth=5.0, wcet_ms=10.0),
            Kernel("B", ResourceVector(bram=5.0, dsp=10.0), bandwidth=2.0, wcet_ms=4.0),
            Kernel("C", ResourceVector(bram=2.0, dsp=30.0), bandwidth=3.0, wcet_ms=12.0),
        ],
    )


def _pool() -> list[SolveRequest]:
    pipeline = _pipeline()
    pool = []
    for resource in (65.0, 75.0, 85.0):
        problem = AllocationProblem(
            pipeline=pipeline,
            platform=aws_f1(num_fpgas=2, resource_limit_percent=resource),
        )
        pool.append(SolveRequest(problem=problem, method="gp+a"))
        pool.append(SolveRequest(problem=problem, method="minlp"))
    return pool


POOL = _pool()

#: Batches submitted by both sides of the differential -- duplicates across
#: batches on purpose, so replay exercises the dedupe path.
BATCHES = [
    [0, 1, 0],
    [2, 3],
    [4, 5, 2, 0],
    [1],
]


def _comparable(document: dict) -> str:
    trimmed = dict(document)
    trimmed.pop("runtime_seconds", None)
    return json.dumps(trimmed, sort_keys=True)


def _comparable_report(report: dict) -> str:
    trimmed = dict(report)
    trimmed.pop("runtime_seconds", None)
    return json.dumps(trimmed, sort_keys=True)


class TestCrashRecoveryDifferential:
    def test_replay_after_restart_equals_uninterrupted_run(self, tmp_path):
        requests = [[POOL[index] for index in batch] for batch in BATCHES]

        # Reference: an uninterrupted service answers every batch.
        clear_all()
        reference = AllocationService(store=ResultStore(), job_workers=1)
        reference_documents: list[list[str]] = []
        reference_reports: list[str] = []
        try:
            for batch in requests:
                job_id = reference.submit_batch(batch)["job_id"]
                finished = reference.jobs.wait(job_id, timeout_seconds=120.0)
                assert finished["status"] == "done"
                reference_documents.append(
                    [_comparable(doc) for doc in finished["outcomes"]]
                )
                reference_reports.append(_comparable_report(finished["report"]))
        finally:
            reference.close()

        # Crashed run: every batch acked + journaled, none executed.
        clear_all()
        wal_dir = tmp_path / "wal"
        crashed = AllocationService(
            store=ResultStore(), wal=wal_dir, start_job_workers=False
        )
        acked_ids = [crashed.submit_batch(batch)["job_id"] for batch in requests]
        crashed.wal.close()  # abandon: no drain, no close() of the queue

        # Restart on the same WAL directory: recovery replays everything.
        recovered = AllocationService(store=ResultStore(), wal=wal_dir, job_workers=1)
        try:
            assert recovered.recovered_jobs == len(BATCHES)
            for job_id, expected_docs, expected_report in zip(
                acked_ids, reference_documents, reference_reports
            ):
                finished = recovered.jobs.wait(job_id, timeout_seconds=120.0)
                assert finished["status"] == "done"
                assert finished["recovered"] is True
                assert [_comparable(d) for d in finished["outcomes"]] == expected_docs
                assert _comparable_report(finished["report"]) == expected_report
            # The WAL is drained: nothing would replay on a second restart.
            assert recovered.wal.stats()["live_jobs"] == 0
        finally:
            recovered.close()

    def test_job_ids_survive_restart_and_never_collide(self, tmp_path):
        wal_dir = tmp_path / "wal"
        crashed = AllocationService(
            store=ResultStore(), wal=wal_dir, start_job_workers=False
        )
        first = crashed.submit_batch([POOL[0]])["job_id"]
        second = crashed.submit_batch([POOL[1]])["job_id"]
        crashed.wal.close()

        recovered = AllocationService(store=ResultStore(), wal=wal_dir, job_workers=1)
        try:
            assert recovered.jobs.wait(first, timeout_seconds=60.0)["status"] == "done"
            assert recovered.jobs.wait(second, timeout_seconds=60.0)["status"] == "done"
            fresh = recovered.submit_batch([POOL[2]])["job_id"]
            assert fresh not in (first, second)  # the id counter resumed past the WAL
            assert recovered.jobs.wait(fresh, timeout_seconds=60.0)["status"] == "done"
        finally:
            recovered.close()

    def test_completed_jobs_do_not_replay(self, tmp_path):
        wal_dir = tmp_path / "wal"
        first = AllocationService(store=ResultStore(), wal=wal_dir, job_workers=1)
        job_id = first.submit_batch([POOL[0]])["job_id"]
        assert first.jobs.wait(job_id, timeout_seconds=60.0)["status"] == "done"
        first.close()
        second = AllocationService(store=ResultStore(), wal=wal_dir)
        try:
            assert second.recovered_jobs == 0
        finally:
            second.close()


class TestSubmitDuringReplayStress:
    def test_eight_thread_submit_during_replay(self, tmp_path):
        """Recovery racing live submissions loses nothing and duplicates
        nothing: every pre-crash job and every new job completes exactly
        once, under distinct ids."""
        wal_dir = tmp_path / "wal"
        pre_crash = 12
        crashed = AllocationService(
            store=ResultStore(), wal=wal_dir, start_job_workers=False
        )
        pre_ids = [
            crashed.submit_batch([POOL[index % len(POOL)]])["job_id"]
            for index in range(pre_crash)
        ]
        crashed.wal.close()

        service = AllocationService(
            store=ResultStore(),
            wal=wal_dir,
            job_workers=2,
            job_retention=512,
            recover=False,  # recovery is driven manually, racing the submits
        )
        threads = 8
        per_thread = 3
        barrier = threading.Barrier(threads + 1)
        submitted_ids: list[list[str]] = [[] for _ in range(threads)]
        errors: list[BaseException] = []

        def submitter(slot: int) -> None:
            rng = random.Random(slot)
            try:
                barrier.wait()
                for _ in range(per_thread):
                    request = POOL[rng.randrange(len(POOL))]
                    submitted_ids[slot].append(
                        service.submit_batch([request])["job_id"]
                    )
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        workers = [
            threading.Thread(target=submitter, args=(slot,)) for slot in range(threads)
        ]
        for worker in workers:
            worker.start()
        barrier.wait()
        recovered = service.jobs.recover()
        for worker in workers:
            worker.join()
        try:
            assert not errors
            assert recovered == pre_crash
            new_ids = [job_id for slot in submitted_ids for job_id in slot]
            all_ids = pre_ids + new_ids
            # No duplicates: pre-crash and fresh ids never collide.
            assert len(set(all_ids)) == len(all_ids)
            # No losses: every single job reaches done.
            for job_id in all_ids:
                document = service.jobs.wait(job_id, timeout_seconds=120.0)
                assert document["status"] == "done", document
            stats = service.jobs.stats()
            assert stats["submitted"] == pre_crash + threads * per_thread
            assert stats["completed"] == pre_crash + threads * per_thread
            assert stats["recovered"] == pre_crash
        finally:
            service.close()


class TestBackpressure:
    def test_queue_full_raises_429_with_retry_hint(self):
        service = AllocationService(max_queue_depth=2, start_job_workers=False)
        service.submit_batch([POOL[0]])
        service.submit_batch([POOL[1]])
        with pytest.raises(BackpressureError) as excinfo:
            service.submit_batch([POOL[2]])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_seconds >= 1.0
        stats = service.stats()
        assert stats["admission"]["rejected_429"] == 1
        assert stats["jobs"]["rejected"] == 1

    def test_retry_after_floor_when_no_job_has_finished(self):
        """A cold queue has no observed mean run time to scale by: the hint
        must be the 1 s floor, not ``depth`` seconds of a fabricated
        1 s/job guess -- a deep backlog on a fresh server must not tell its
        first overflowing client to stay away for half a minute."""
        service = AllocationService(max_queue_depth=64, start_job_workers=False)
        assert service._retry_after_seconds(1) == 1.0
        assert service._retry_after_seconds(50) == 1.0
        # Once jobs have finished, the hint scales with the backlog but
        # stays inside the [1, 30] clamp.
        warm = AllocationService(max_queue_depth=64)
        try:
            submitted = warm.submit_batch([POOL[0]])
            warm.jobs.wait(submitted["job_id"], timeout_seconds=60.0)
            for depth in (1, 10, 1000):
                hint = warm._retry_after_seconds(depth)
                assert 1.0 <= hint <= 30.0
        finally:
            warm.close()

    def test_http_429_carries_retry_after_header(self):
        service = AllocationService(max_queue_depth=1, start_job_workers=False)
        server, _ = start_server(service, port=0)
        try:
            payload = json.dumps(
                {
                    "mode": "async",
                    "requests": [
                        {"problem": _problem_doc(), "method": "gp+a"}
                    ],
                }
            ).encode("utf-8")

            def post() -> urllib.request.Request:
                return urllib.request.Request(
                    f"{server.url}/solve_batch",
                    data=payload,
                    headers={"Content-Type": "application/json"},
                )

            with urllib.request.urlopen(post(), timeout=10.0) as response:
                assert response.status == 202  # fills the queue
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(post(), timeout=10.0)
            error = excinfo.value
            assert error.code == 429
            assert int(error.headers["Retry-After"]) >= 1
            document = json.loads(error.read().decode("utf-8"))
            assert "retry later" in document["error"]
            assert document["retry_after_seconds"] >= 1.0
            metrics = service.metrics_text()
            assert 'repro_admission_rejected_total{code="429"} 1' in metrics
        finally:
            server.shutdown()
            server.server_close()
            service.jobs._closed = True  # workers never started; skip drain
            service.store.close()

    def test_client_backoff_drains_a_full_queue(self):
        """A bounded queue plus a retrying client converges: every submission
        eventually lands, with the 429s visible in the client's counters.
        A latency fault slows the workers so the tiny solves cannot drain
        the queue faster than the test can fill it."""
        from repro.service.faults import FaultInjector, set_injector

        set_injector(FaultInjector("jobs.run.start:latency:ms=60"))
        service = AllocationService(max_queue_depth=1, job_workers=1)
        server, _ = start_server(service, port=0)
        try:
            client = ServiceClient(
                server.url,
                retry_policy=RetryPolicy(
                    retries=8, backoff_base_seconds=0.02, retry_after_cap_seconds=0.2
                ),
            )
            job_ids = [
                client.solve_batch_async([POOL[index % len(POOL)]])["job_id"]
                for index in range(10)
            ]
            assert len(set(job_ids)) == 10
            for job_id in job_ids:
                document = client.wait_for_job(job_id, timeout_seconds=120.0)
                assert document["status"] == "done"
            assert client.retry_stats["rejected_429"] > 0
            assert client.retry_stats["retries"] > 0
            assert client.retry_stats["backoff_seconds"] > 0.0
            assert service.stats()["admission"]["rejected_429"] > 0
        finally:
            set_injector(None)
            server.shutdown()
            server.server_close()
            service.close()

    def test_sync_overload_sheds_503(self):
        service = AllocationService(max_inflight_solves=1)
        server, _ = start_server(service, port=0)
        try:
            with service.sync_admission():  # occupy the only slot
                client = ServiceClient(server.url, retry_policy=RetryPolicy(retries=0))
                with pytest.raises(ServiceError) as excinfo:
                    client.solve(POOL[0].problem)
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after_seconds is not None
            # Slot released: the same request now succeeds.
            response = ServiceClient(server.url).solve(POOL[0].problem)
            assert "outcome" in response
            assert service.stats()["admission"]["rejected_503"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_async_jobs_exempt_from_sync_admission(self):
        service = AllocationService(max_inflight_solves=1, job_workers=1)
        server, _ = start_server(service, port=0)
        try:
            with service.sync_admission():
                client = ServiceClient(server.url, retry_policy=RetryPolicy(retries=0))
                document = client.solve_batch_async([POOL[0]])
                finished = client.wait_for_job(document["job_id"], timeout_seconds=60.0)
                assert finished["status"] == "done"
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestRetryPolicy:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base_seconds=0.1, backoff_cap_seconds=0.4, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay_seconds(attempt, None, rng) for attempt in range(4)]
        assert delays == [0.1, 0.2, 0.4, 0.4]

    def test_retry_after_floor_and_cap(self):
        policy = RetryPolicy(
            backoff_base_seconds=0.1, jitter=0.0, retry_after_cap_seconds=2.0
        )
        rng = random.Random(0)
        assert policy.delay_seconds(0, 1.5, rng) == 1.5  # server hint wins
        assert policy.delay_seconds(0, 60.0, rng) == 2.0  # but is capped

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(backoff_base_seconds=1.0, jitter=0.5, seed=7)
        first = policy.delay_seconds(0, None, random.Random(7))
        second = policy.delay_seconds(0, None, random.Random(7))
        assert first == second
        assert 1.0 <= first <= 1.5

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_connection_errors_consume_retries_then_surface(self):
        sleeps: list[float] = []
        client = ServiceClient(
            "http://127.0.0.1:1",  # nothing listens on port 1
            timeout_seconds=0.2,
            retry_policy=RetryPolicy(retries=2, backoff_base_seconds=0.001),
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert client.retry_stats["attempts"] == 3
        assert client.retry_stats["connection_errors"] == 3
        assert len(sleeps) == 2


class TestQuarantine:
    def test_corrupt_database_quarantined_at_open(self, tmp_path):
        db_path = tmp_path / SQLITE_FILENAME
        db_path.write_bytes(b"this is definitely not a sqlite database" * 100)
        store = ResultStore(cache_dir=tmp_path)
        try:
            # The corrupt file was moved aside and a fresh tier opened cold.
            assert (tmp_path / f"{SQLITE_FILENAME}.corrupt-0").exists()
            assert store.stats().quarantines == 1
            store.put("print", "{}")
            assert store.get("print").tier == "memory"
        finally:
            store.close()

    def test_corrupt_shard_quarantined_others_untouched(self, tmp_path):
        seeded = ShardedResultStore(cache_dir=tmp_path, num_shards=2)
        seeded.put("00aaaaaa", '{"x": 1}')  # shard 0
        seeded.put("01bbbbbb", '{"y": 2}')  # shard 1
        seeded.close()
        (tmp_path / "shard-00" / SQLITE_FILENAME).write_bytes(b"garbage" * 500)
        store = ShardedResultStore(cache_dir=tmp_path, num_shards=2)
        try:
            assert store.stats().quarantines == 1
            assert not store.get("00aaaaaa").hit  # shard 0 rebuilt cold
            assert store.get("01bbbbbb").hit  # shard 1 intact
            store.put("00aaaaaa", '{"x": 1}')  # recompute path works
            assert store.get("00aaaaaa").hit
        finally:
            store.close()

    def test_runtime_corruption_degrades_to_miss_and_put_retries(self, tmp_path):
        tier = SqliteTier(tmp_path / SQLITE_FILENAME)
        tier.put("print", "{}")

        class _Corrupt:
            def execute(self, *args, **kwargs):
                raise sqlite3.DatabaseError("database disk image is malformed")

            def close(self):
                pass

        tier._connection = _Corrupt()
        assert tier.get_entry("print") is None  # miss, not an exception
        assert tier.quarantines == 1
        tier.put("print", '{"fresh": true}')  # retried against the new file
        assert tier.get("print") == '{"fresh": true}'
        tier.close()

    def test_service_rides_through_corrupt_shard(self, tmp_path):
        """End to end: a service whose disk shard is corrupt answers by
        recompute and reports the quarantine in /stats."""
        cache_dir = tmp_path / "cache"
        warm = AllocationService(store=ResultStore(cache_dir=cache_dir))
        warm.solve_request(POOL[0])
        warm.close()
        (cache_dir / SQLITE_FILENAME).write_bytes(b"\x00" * 4096)
        service = AllocationService(store=ResultStore(cache_dir=cache_dir))
        try:
            outcome, meta = service.solve_request(POOL[0])
            assert meta["cache"] == "solver"  # the warm entry died with the shard
            assert outcome is not None
            assert service.stats()["cache"]["quarantines"] == 1
        finally:
            service.close()


def _problem_doc() -> dict:
    from repro.workloads.serialization import problem_to_dict

    return problem_to_dict(POOL[0].problem)


# --------------------------------------------------------------------------- #
# Graceful shutdown: SIGTERM/SIGINT drain, close the WAL, leave no torn tail
# --------------------------------------------------------------------------- #


class TestGracefulShutdown:
    @pytest.mark.parametrize("signum", [_signal.SIGTERM, _signal.SIGINT])
    def test_signal_drains_and_leaves_no_torn_wal_tail(self, tmp_path, signum):
        """A signalled server exits cleanly: the WAL's buffered records are
        flushed and final-fsynced on close, so every segment on disk decodes
        to its full length -- no torn tail for the next recovery to skip."""
        import socket as _socket

        with _socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = {**_os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        env.pop("REPRO_FAULTS", None)
        server = _subprocess.Popen(
            [
                _sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", str(port), "--quiet",
                "--workers", "1",
                "--wal-dir", str(tmp_path / "wal"),
                "--cache-dir", str(tmp_path / "cache"),
            ],
            env=env,
            stdout=_subprocess.DEVNULL,
            stderr=_subprocess.DEVNULL,
        )
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{port}",
                retry_policy=RetryPolicy(retries=10, backoff_base_seconds=0.1),
            )
            deadline = _time.monotonic() + 30.0
            while True:
                try:
                    client.health()
                    break
                except ServiceError:
                    if _time.monotonic() > deadline:
                        raise
                    _time.sleep(0.1)
            for batch in (POOL[:2], POOL[2:]):
                submitted = client.solve_batch_async(batch)
                client.wait_for_job(submitted["job_id"], timeout_seconds=60.0)

            _os.kill(server.pid, signum)
            assert server.wait(timeout=30.0) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30.0)

        segments = sorted((tmp_path / "wal").glob("wal-*.log"))
        assert segments, "the server wrote no WAL segments"
        for segment in segments:
            data = segment.read_bytes()
            records, valid = decode_records(data)
            assert valid == len(data), f"torn tail in {segment.name}"
        # The buffered completion markers (never fsynced in normal
        # operation) made it to disk: the close path flushed them, so a
        # restart on this directory would replay nothing.
        finished = {r["job_id"] for segment in segments
                    for r in decode_records(segment.read_bytes())[0]
                    if r.get("type") == "complete"}
        journaled = {r["job_id"] for segment in segments
                     for r in decode_records(segment.read_bytes())[0]
                     if r.get("type") == "submit"}
        assert journaled <= finished
