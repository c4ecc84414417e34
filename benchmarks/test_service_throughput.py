"""Allocation service benchmarks: warm-cache latency, batch dedupe, async queue.

Four service-level numbers matter for the ROADMAP's serving story:

* the request rate a warm cache sustains on ``/solve``-equivalent calls
  (the in-process ``AllocationService.solve_request`` path -- no HTTP, so
  the number isolates fingerprint + cache + decode cost);
* the dedupe ratio of a large batch: 1000 requests over 64 distinct
  problems must cost exactly 64 solves, the rest being cache/dedupe hits;
* the async job queue (PR 5): submitting that same 1000-request batch must
  return a job id in well under 5 ms, the drained job must still perform
  exactly 64 solves, and a warm async replay may cost at most twice the
  synchronous warm replay measured in the same run (the queue may not tax
  the hot path);
* the sharded store must not slow the single-threaded batch path.

The snapshots land in ``BENCH_<rev>.json`` via ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import time

from repro.core.problem import AllocationProblem
from repro.platform.presets import aws_f1
from repro.service import (
    AllocationService,
    ResultStore,
    ShardedResultStore,
    SolveRequest,
    solve_batch,
)
from repro.workloads.alexnet import alexnet_fx16

#: The acceptance scenario of the service PR: 1000 requests, 64 unique.
BATCH_TOTAL = 1000
BATCH_UNIQUE = 64

#: Bound on a warm async replay (submit + drain + poll) relative to the
#: synchronous ``solve_batch`` warm replay of the same batch and store,
#: both measured in one run so the bound does not depend on the host's
#: speed.  A shared 2-vCPU VM measures 2.2-3.3 and fails it: the job's
#: ``to_dict`` of its 64 distinct outcomes (~1 ms) and the hand-off to a
#: worker thread cost about as much as the synchronous replay itself.
ASYNC_OVER_SYNC_WARM_REPLAY = 2.0

#: Synchronous warm replays timed for that reference mean.
SYNC_REFERENCE_ROUNDS = 100

#: Acceptance bound on the async submit path: the job id must come back in
#: under 5 ms (measured ~0.05 ms -- one lock acquisition plus a queue put).
SUBMIT_LATENCY_BOUND_SECONDS = 0.005


def _problems(count: int) -> list[AllocationProblem]:
    base = AllocationProblem(
        pipeline=alexnet_fx16(),
        platform=aws_f1(num_fpgas=2, resource_limit_percent=70.0),
    )
    return [base.with_resource_constraint(40.0 + index * 50.0 / count) for index in range(count)]


def test_warm_cache_solve_latency(benchmark):
    """Requests/sec of a warm in-memory cache hit (the /solve hot path)."""
    service = AllocationService()
    request = SolveRequest(problem=_problems(1)[0])
    service.solve_request(request)  # populate the cache

    outcome, meta = benchmark(service.solve_request, request)
    assert meta["cache"] == "memory"
    assert outcome.succeeded
    # Acceptance: a warm memory hit answers in < 1 ms on the container.
    # (stats is None under --benchmark-disable, where nothing is timed.)
    if benchmark.stats is not None:
        assert benchmark.stats["mean"] < 1e-3


def test_batch_dedupe_1000_requests_64_unique(benchmark):
    """Cold batch of 1000 requests with 64 distinct problems: 64 solves."""
    problems = _problems(BATCH_UNIQUE)
    requests = [SolveRequest(problem=problems[index % BATCH_UNIQUE]) for index in range(BATCH_TOTAL)]

    def run():
        store = ResultStore()  # cold store each round: the benchmark measures dedupe + solves
        return solve_batch(requests, store=store)

    outcomes, report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.total == BATCH_TOTAL
    assert report.unique == BATCH_UNIQUE
    assert report.solves == BATCH_UNIQUE
    assert report.duplicates == BATCH_TOTAL - BATCH_UNIQUE
    assert len(outcomes) == BATCH_TOTAL


def test_batch_warm_replay_throughput(benchmark):
    """Warm replay of the same 1000-request batch: zero solves, pure cache."""
    problems = _problems(BATCH_UNIQUE)
    requests = [SolveRequest(problem=problems[index % BATCH_UNIQUE]) for index in range(BATCH_TOTAL)]
    store = ResultStore()
    solve_batch(requests, store=store)  # warm it

    _, report = benchmark(solve_batch, requests, store=store)
    assert report.solves == 0
    assert report.memory_hits == BATCH_UNIQUE


def test_batch_warm_replay_sharded_store(benchmark):
    """The same warm replay against a 4-shard store: the routing layer must
    not tax the single-threaded hot path (its win is under contention)."""
    problems = _problems(BATCH_UNIQUE)
    requests = [SolveRequest(problem=problems[index % BATCH_UNIQUE]) for index in range(BATCH_TOTAL)]
    store = ShardedResultStore(num_shards=4)
    solve_batch(requests, store=store)

    _, report = benchmark(solve_batch, requests, store=store)
    assert report.solves == 0
    assert report.memory_hits == BATCH_UNIQUE


def test_async_batch_cold_dedupe_and_submit_latency(benchmark):
    """Async 1000-request/64-unique batch: the job id returns in < 5 ms and
    the drained job performs exactly 64 solves (the acceptance scenario)."""
    problems = _problems(BATCH_UNIQUE)
    requests = [SolveRequest(problem=problems[index % BATCH_UNIQUE]) for index in range(BATCH_TOTAL)]

    def run():
        service = AllocationService(store=ShardedResultStore(num_shards=4), job_workers=2)
        try:
            start = time.perf_counter()
            submitted = service.submit_batch(requests)
            submit_seconds = time.perf_counter() - start
            finished = service.jobs.wait(submitted["job_id"], timeout_seconds=300.0)
            return submitted, submit_seconds, finished
        finally:
            service.close()

    submitted, submit_seconds, finished = benchmark.pedantic(run, rounds=1, iterations=1)
    assert submitted["status"] == "queued"
    assert submit_seconds < SUBMIT_LATENCY_BOUND_SECONDS
    assert finished["status"] == "done"
    assert finished["report"]["total"] == BATCH_TOTAL
    assert finished["report"]["unique"] == BATCH_UNIQUE
    assert finished["report"]["solves"] == BATCH_UNIQUE  # async dedupes identically
    assert len(finished["outcomes"]) == BATCH_TOTAL


def test_async_warm_replay_throughput(benchmark):
    """Warm async replay (submit + drain + poll) of the 1000-request batch:
    zero solves, and at most twice the cost of a synchronous warm replay."""
    problems = _problems(BATCH_UNIQUE)
    requests = [SolveRequest(problem=problems[index % BATCH_UNIQUE]) for index in range(BATCH_TOTAL)]
    service = AllocationService(store=ShardedResultStore(num_shards=4), job_workers=2)
    warmup = service.submit_batch(requests)
    service.jobs.wait(warmup["job_id"], timeout_seconds=300.0)

    def replay():
        submitted = service.submit_batch(requests)
        return service.jobs.wait(submitted["job_id"], timeout_seconds=300.0)

    finished = benchmark(replay)
    assert finished["report"]["solves"] == 0
    assert finished["report"]["memory_hits"] == BATCH_UNIQUE
    # (stats is None under --benchmark-disable, where nothing is timed.)
    if benchmark.stats is not None:
        start = time.perf_counter()
        for _ in range(SYNC_REFERENCE_ROUNDS):
            _, report = solve_batch(requests, store=service.store)
        sync_mean = (time.perf_counter() - start) / SYNC_REFERENCE_ROUNDS
        assert report.solves == 0
        assert benchmark.stats["mean"] <= ASYNC_OVER_SYNC_WARM_REPLAY * sync_mean
    service.close()


def test_async_warm_replay_with_wal(benchmark, tmp_path):
    """The durability tax: the same warm async replay with the WAL on.

    Every submit serialises the 1000 request documents (~1.3 MB frame,
    problem documents shared across duplicates), CRC-frames them and pays
    one group-commit fsync before the ack.  The non-durable pinned gate row
    above must stay untouched; this row tracks the absolute WAL cost so a
    regression in framing or fsync batching shows up in the snapshot.
    Measured ~60-110 ms on the container -- the bound below is headroom,
    not a target."""
    problems = _problems(BATCH_UNIQUE)
    requests = [SolveRequest(problem=problems[index % BATCH_UNIQUE]) for index in range(BATCH_TOTAL)]
    service = AllocationService(
        store=ShardedResultStore(num_shards=4), job_workers=2, wal=tmp_path / "wal"
    )
    warmup = service.submit_batch(requests)
    service.jobs.wait(warmup["job_id"], timeout_seconds=300.0)

    def replay():
        submitted = service.submit_batch(requests)
        return service.jobs.wait(submitted["job_id"], timeout_seconds=300.0)

    finished = benchmark(replay)
    assert finished["report"]["solves"] == 0
    assert finished["report"]["memory_hits"] == BATCH_UNIQUE
    wal_stats = service.jobs.wal.stats()
    assert wal_stats["appends"] >= 2  # every replayed submit was journaled
    assert wal_stats["fsyncs"] >= 1
    service.close()
    if benchmark.stats is not None:
        assert benchmark.stats["mean"] < 0.25


def test_async_submit_latency_warm_queue(benchmark):
    """Steady-state submit latency: one lock + one queue put, microseconds."""
    problems = _problems(BATCH_UNIQUE)
    requests = [SolveRequest(problem=problems[index % BATCH_UNIQUE]) for index in range(BATCH_TOTAL)]
    service = AllocationService(store=ShardedResultStore(num_shards=4), job_workers=2)
    warmup = service.submit_batch(requests)
    service.jobs.wait(warmup["job_id"], timeout_seconds=300.0)

    # Bounded rounds: every submission enqueues a real (warm, ~2 ms) batch
    # job, so an unbounded benchmark loop would outpace the drain.
    submitted = benchmark.pedantic(service.submit_batch, args=(requests,), rounds=50, iterations=1)
    assert submitted["status"] == "queued"
    # Jobs drain FIFO: waiting on the last submission drains them all.
    service.jobs.wait(submitted["job_id"], timeout_seconds=300.0)
    service.close()
    if benchmark.stats is not None:
        assert benchmark.stats["mean"] < SUBMIT_LATENCY_BOUND_SECONDS
