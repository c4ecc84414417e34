"""Chaos differential: a real ``repro serve`` process killed -9 mid-batch.

The in-process recovery suite proves the mechanism; this suite proves the
*process*.  A real server subprocess is started with a WAL and an on-disk
cache, acknowledged async batches are interrupted by ``SIGKILL`` (or by a
``REPRO_FAULTS`` crash plan inside the server itself), and a restart on the
same directories must finish every acknowledged job with outcome documents
byte-identical to an uninterrupted reference run -- and a final synchronous
re-submit of the whole stream must report ``solves == 0``: zero work lost,
zero work repeated.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.problem import AllocationProblem
from repro.obs.memo import clear_all
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.service import (
    AllocationService,
    ResultStore,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    SolveRequest,
)
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    for resource in (60.0, 70.0, 80.0):
        problem = AllocationProblem(
            pipeline=pipeline,
            platform=aws_f1(num_fpgas=2, resource_limit_percent=resource),
        )
        pool.append(SolveRequest(problem=problem, method="gp+a"))
    pool.append(
        SolveRequest(
            problem=AllocationProblem(
                pipeline=pipeline,
                platform=aws_f1(num_fpgas=1, resource_limit_percent=90.0),
            ),
            method="gp+a",
        )
    )
    return pool


POOL = _pool()

#: Three async batches with duplicates across them (24 requests, 4 unique).
BATCHES = [
    [0, 1, 2, 0, 1, 3, 2, 0],
    [3, 2, 1, 0, 3, 3, 1, 2],
    [0, 0, 1, 2, 3, 1, 0, 2],
]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _comparable(document: dict) -> str:
    trimmed = dict(document)
    trimmed.pop("runtime_seconds", None)
    return json.dumps(trimmed, sort_keys=True)


def _serve(
    port: int, wal_dir: Path, cache_dir: Path, faults: str | None = None
) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": REPO_SRC}
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--quiet",
            "--workers",
            "1",
            "--wal-dir",
            str(wal_dir),
            "--cache-dir",
            str(cache_dir),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _client(port: int) -> ServiceClient:
    # Patient retries: the client must ride through server restarts.
    return ServiceClient(
        f"http://127.0.0.1:{port}",
        timeout_seconds=30.0,
        retry_policy=RetryPolicy(retries=10, backoff_base_seconds=0.1),
    )


def _wait_health(port: int, timeout_seconds: float = 30.0) -> ServiceClient:
    client = _client(port)
    deadline = time.monotonic() + timeout_seconds
    while True:
        try:
            client.health()
            return client
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait(timeout=30.0)


def _reference_documents() -> dict[int, str]:
    """Comparable outcome document per pool index from an in-process run."""
    clear_all()
    service = AllocationService(store=ResultStore())
    try:
        outcomes, _ = service.solve_batch([POOL[index] for index in range(len(POOL))])
        return {
            index: _comparable(outcome.to_dict()) for index, outcome in enumerate(outcomes)
        }
    finally:
        service.close()


class TestKillNineMidBatch:
    def test_sigkill_mid_batch_then_restart_converges(self, tmp_path):
        reference = _reference_documents()
        port = _free_port()
        wal_dir, cache_dir = tmp_path / "wal", tmp_path / "cache"
        # Each job sleeps 300 ms at pickup so the kill lands mid-stream.
        server = _serve(
            port, wal_dir, cache_dir, faults="jobs.run.start:latency:ms=300"
        )
        try:
            client = _wait_health(port)
            acked: list[tuple[str, list[int]]] = []
            for batch in BATCHES:
                document = client.solve_batch_async([POOL[index] for index in batch])
                assert document["status"] == "queued"
                acked.append((document["job_id"], batch))
            # Let the worker get into (but not through) the stream, then
            # kill -9: no shutdown hooks, no flush, a real crash.
            done_before_kill: set[str] = set()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                stats = client.stats()
                if stats["jobs"]["completed"] >= 1:
                    break
                time.sleep(0.05)
            for job_id, _ in acked:
                try:
                    if client.job(job_id)["status"] == "done":
                        done_before_kill.add(job_id)
                except ServiceError:
                    pass
            os.kill(server.pid, signal.SIGKILL)
            server.wait(timeout=30.0)
            assert len(done_before_kill) < len(acked), "kill landed after the batch"

            # Restart on the same directories, no faults: recovery replays.
            server = _serve(port, wal_dir, cache_dir)
            client = _wait_health(port)
            for job_id, batch in acked:
                if job_id in done_before_kill:
                    # Its buffered completion marker may or may not have hit
                    # disk; either way the job was answered before the kill.
                    continue
                document = client.wait_for_job(job_id, timeout_seconds=120.0)
                assert document["status"] == "done", document
                assert document.get("recovered") is True
                assert [_comparable(doc) for doc in document["outcomes"]] == [
                    reference[index] for index in batch
                ]
            stats = client.stats()
            assert stats["wal"]["enabled"] is True
            assert stats["wal"]["replays"] >= 1
            assert stats["jobs"]["recovered"] >= len(acked) - len(done_before_kill)

            # Zero lost work: the whole stream re-submitted synchronously is
            # answered entirely from the caches -- not one solve repeated.
            flat = [POOL[index] for batch in BATCHES for index in batch]
            response = client.solve_batch(flat)
            assert response["report"]["solves"] == 0
            assert [_comparable(doc) for doc in response["outcomes"]] == [
                reference[index] for batch in BATCHES for index in batch
            ]
            metrics = client.metrics()
            assert "repro_wal_replays 1" in metrics
        finally:
            _stop(server)

    def test_self_inflicted_crash_before_completion_marker(self, tmp_path):
        """A REPRO_FAULTS crash plan kills the server from the inside at the
        worst instrumented site: the job solved but its completion marker
        never hit the journal.  Replay must re-run it idempotently."""
        reference = _reference_documents()
        port = _free_port()
        wal_dir, cache_dir = tmp_path / "wal", tmp_path / "cache"
        server = _serve(
            port, wal_dir, cache_dir, faults="jobs.run.complete:crash:nth=1"
        )
        try:
            client = _wait_health(port)
            batch = BATCHES[0]
            document = client.solve_batch_async([POOL[index] for index in batch])
            job_id = document["job_id"]
            server.wait(timeout=60.0)  # the fault fires: exit code 137
            assert server.returncode == 137

            server = _serve(port, wal_dir, cache_dir)
            client = _wait_health(port)
            finished = client.wait_for_job(job_id, timeout_seconds=120.0)
            assert finished["status"] == "done"
            assert finished.get("recovered") is True
            assert [_comparable(doc) for doc in finished["outcomes"]] == [
                reference[index] for index in batch
            ]
            # The pre-crash run already cached every unique solve, so the
            # replayed job re-did nothing.
            assert finished["report"]["solves"] == 0
        finally:
            _stop(server)


class TestAckBoundary:
    def test_crash_before_journal_recovers_nothing(self, tmp_path):
        """A crash *before* the submit record is journaled lost no promise:
        the client never got an ack, and the restart replays nothing."""
        port = _free_port()
        wal_dir, cache_dir = tmp_path / "wal", tmp_path / "cache"
        server = _serve(
            port, wal_dir, cache_dir, faults="jobs.submit.journal:crash:nth=1"
        )
        try:
            client = _wait_health(port)
            quick = ServiceClient(
                f"http://127.0.0.1:{port}", retry_policy=RetryPolicy(retries=0)
            )
            with pytest.raises(ServiceError):
                quick.solve_batch_async([POOL[0]])
            server.wait(timeout=60.0)
            assert server.returncode == 137

            server = _serve(port, wal_dir, cache_dir)
            client = _wait_health(port)
            stats = client.stats()
            assert stats["jobs"]["recovered"] == 0
            assert stats["wal"]["live_jobs"] == 0
        finally:
            _stop(server)

    def test_crash_after_journal_before_ack_recovers_the_job(self, tmp_path):
        """The mirror case: the journal fsync landed but the ack never left
        the process.  The job is recovered anyway -- the at-least-once side
        of the ack boundary, answered by fingerprint-level dedupe."""
        port = _free_port()
        wal_dir, cache_dir = tmp_path / "wal", tmp_path / "cache"
        server = _serve(
            port, wal_dir, cache_dir, faults="jobs.submit.ack:crash:nth=1"
        )
        try:
            client = _wait_health(port)
            quick = ServiceClient(
                f"http://127.0.0.1:{port}", retry_policy=RetryPolicy(retries=0)
            )
            with pytest.raises(ServiceError):
                quick.solve_batch_async([POOL[0]])
            server.wait(timeout=60.0)
            assert server.returncode == 137

            server = _serve(port, wal_dir, cache_dir)
            client = _wait_health(port)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                stats = client.stats()
                if stats["jobs"]["recovered"] == 1 and stats["jobs"]["completed"] == 1:
                    break
                time.sleep(0.1)
            stats = client.stats()
            assert stats["jobs"]["recovered"] == 1
            assert stats["jobs"]["completed"] == 1
        finally:
            _stop(server)


# --------------------------------------------------------------------------- #
# Multi-process pool: a shard-group worker killed -9 behind the router
# --------------------------------------------------------------------------- #


def _serve_pool(
    port: int, data_dir: Path, worker_processes: int = 2, faults: str | None = None
) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": REPO_SRC}
    env.pop("REPRO_FAULTS", None)
    if faults:
        # Workers inherit the plan: the service layer arms REPRO_FAULTS at
        # import in every spawned process.
        env["REPRO_FAULTS"] = faults
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--quiet",
            "--workers",
            "1",
            "--worker-processes",
            str(worker_processes),
            "--data-dir",
            str(data_dir),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestPoolWorkerKillNine:
    def test_sigkill_one_worker_mid_stream_loses_no_acked_job(self, tmp_path):
        """SIGKILL a shard-group worker process (not the front-end) while
        acknowledged async batches are in flight.  The pool must restart it,
        every acked composite job must converge to ``done`` with outcome
        documents byte-identical to the single-process reference, and a
        final synchronous replay of the whole stream must re-solve nothing.
        """
        reference = _reference_documents()
        port = _free_port()
        # Each job sleeps 200 ms at pickup so the kill lands mid-stream.
        server = _serve_pool(
            port, tmp_path, faults="jobs.run.start:latency:ms=200"
        )
        try:
            client = _wait_health(port)
            acked: list[tuple[str, list[int]]] = []
            part_groups: set[int] = set()
            for batch in BATCHES:
                document = client.solve_batch_async([POOL[index] for index in batch])
                assert document["status"] == "queued"
                assert document["job_id"].startswith("rjob-")
                part_groups.update(part["group"] for part in document["parts"])
                acked.append((document["job_id"], batch))

            stats = client.stats()
            rows = {row["group"]: row for row in stats["pool"]}
            assert sorted(rows) == [0, 1]
            # Kill a worker that owns part of the stream, from the outside.
            victim = sorted(part_groups)[0]
            os.kill(rows[victim]["pid"], signal.SIGKILL)

            for job_id, batch in acked:
                document = client.wait_for_job(job_id, timeout_seconds=120.0)
                assert document["status"] == "done", document
                assert [_comparable(doc) for doc in document["outcomes"]] == [
                    reference[index] for index in batch
                ]

            # The monitor restarts the victim within a heartbeat or two.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                rows = {row["group"]: row for row in client.stats()["pool"]}
                if rows[victim]["healthy"] and rows[victim]["restarts"] >= 1:
                    break
                time.sleep(0.1)
            assert rows[victim]["healthy"] is True
            assert rows[victim]["restarts"] >= 1

            # Zero lost, zero repeated: the full stream re-submitted
            # synchronously is answered entirely from the group stores.
            flat = [POOL[index] for batch in BATCHES for index in batch]
            response = client.solve_batch(flat)
            assert response["report"]["solves"] == 0
            assert [_comparable(doc) for doc in response["outcomes"]] == [
                reference[index] for batch in BATCHES for index in batch
            ]

            # The merged exposition still validates and carries per-worker
            # labels for both groups plus the router itself.
            metrics = client.metrics()
            assert 'worker="g0"' in metrics
            assert 'worker="g1"' in metrics
            assert 'worker="router"' in metrics
        finally:
            _stop(server)


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
class TestRouterKillNine:
    def test_sigkill_router_leaves_no_orphaned_worker(self, tmp_path):
        """SIGKILL the router itself: its workers notice the parent's death
        (a getppid change), drain and exit instead of serving on, orphaned,
        with their group WALs open."""
        port = _free_port()
        server = _serve_pool(port, tmp_path)
        try:
            client = _wait_health(port)
            pids = [row["pid"] for row in client.stats()["pool"]]
            assert len(pids) == 2 and all(pids)
            server.kill()
            server.wait(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.1)
            survivors = [pid for pid in pids if _alive(pid)]
        finally:
            _stop(server)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == [], f"workers {survivors} outlived their router"
