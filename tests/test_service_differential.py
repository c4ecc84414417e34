"""Differential harness: the scaled-out service equals the single-store one.

PR 5 rebuilt the service for concurrency -- sharded stores, an async job
queue, bounded caches.  None of that may be *observable* in the answers: a
randomized request stream replayed through

* a single-store synchronous service (the PR 2 design),
* an N-shard synchronous service, and
* an N-shard service driven through the async job queue

must yield byte-identical ``SolveOutcome`` documents for every request and
consistent aggregate hit/miss counters.  The solver stack is deterministic,
so the only field legitimately allowed to differ is the wall clock
(``runtime_seconds``); everything else -- status, allocation, objective,
work counters, details -- is compared as canonical JSON.

Process-wide solver memo tiers (packing memos, relaxation caches, the
discretization cache) are cleared before each configuration replays the
stream, so each replay does the same cold work and records the same
counters.

A separate multi-worker test drains overlapping batches through a real
worker pool; there the scheduling (and hence cache warmth and work
counters) is racy by design, so it compares the *solution* documents only.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import ObjectiveWeights
from repro.core.problem import AllocationProblem
from repro.obs.memo import clear_all
from repro.platform.multi_fpga import DeviceClass, MultiFPGAPlatform
from repro.platform.presets import XCKU115, XCVU9P, aws_f1
from repro.platform.resources import ResourceVector
from repro.service import (
    AllocationService,
    ResultStore,
    ShardedResultStore,
    SolveRequest,
    StoreLimits,
)
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline

# --------------------------------------------------------------------------- #
# The request pool: mixed problems, platforms and methods, small enough that
# every unique solve stays in the low milliseconds.
# --------------------------------------------------------------------------- #


def _tiny_pipeline(name: str = "tiny") -> Pipeline:
    return Pipeline(
        name=name,
        kernels=[
            Kernel("A", ResourceVector(bram=10.0, dsp=20.0), bandwidth=5.0, wcet_ms=10.0),
            Kernel("B", ResourceVector(bram=5.0, dsp=10.0), bandwidth=2.0, wcet_ms=4.0),
            Kernel("C", ResourceVector(bram=2.0, dsp=30.0), bandwidth=3.0, wcet_ms=12.0),
        ],
    )


def _skew_platform(reversed_classes: bool = False) -> MultiFPGAPlatform:
    """A two-class mixed fleet; the reversed spelling is the *same* fleet, so
    the two platforms share one canonical fingerprint and cached outcomes
    must be permuted into each requester's FPGA order."""
    classes = (
        DeviceClass(
            device=XCVU9P,
            count=1,
            resource_limit=ResourceVector.full(70.0),
            bandwidth_limit=70.0,
        ),
        DeviceClass(
            device=XCKU115,
            count=1,
            resource_limit=ResourceVector.full(45.0),
            bandwidth_limit=45.0,
        ),
    )
    if reversed_classes:
        classes = tuple(reversed(classes))
    return MultiFPGAPlatform.from_classes(classes, name="skew")


def _request_pool() -> list[SolveRequest]:
    pipeline = _tiny_pipeline()
    pool: list[SolveRequest] = []
    for resource in (65.0, 75.0, 85.0):
        problem = AllocationProblem(
            pipeline=pipeline,
            platform=aws_f1(num_fpgas=2, resource_limit_percent=resource),
        )
        pool.append(SolveRequest(problem=problem, method="gp+a"))
        pool.append(SolveRequest(problem=problem, method="minlp"))
    pool.append(
        SolveRequest(
            problem=AllocationProblem(
                pipeline=pipeline,
                platform=aws_f1(num_fpgas=1, resource_limit_percent=90.0),
            ),
            method="gp+a",
        )
    )
    # The same heterogeneous fleet spelled in both class orders: duplicate
    # fingerprints behind distinct request objects and FPGA orders.
    for reversed_classes in (False, True):
        pool.append(
            SolveRequest(
                problem=AllocationProblem(
                    pipeline=pipeline, platform=_skew_platform(reversed_classes)
                ),
                method="gp+a",
            )
        )
    return pool


POOL = _request_pool()


def _comparable(document: dict) -> str:
    """Canonical JSON of an outcome document minus the wall clock."""
    trimmed = dict(document)
    trimmed.pop("runtime_seconds", None)
    return json.dumps(trimmed, sort_keys=True)


#: A stream is a sequence of operations: ``("solve", index)`` for a single
#: request, ``("batch", [indices])`` for a batch.
_INDEX = st.integers(min_value=0, max_value=len(POOL) - 1)
_OPERATION = st.one_of(
    st.tuples(st.just("solve"), _INDEX),
    st.tuples(st.just("batch"), st.lists(_INDEX, min_size=1, max_size=6)),
)
_STREAM = st.lists(_OPERATION, min_size=1, max_size=6)


def _replay(stream, make_store, mode: str, poll_seed: int = 0):
    """Run a stream through a fresh service; returns (documents, counters).

    ``mode="sync"`` answers batches with the blocking ``solve_batch``;
    ``mode="async"`` submits each batch to the job queue and polls it to
    completion, then re-reads every finished job in a shuffled
    (out-of-order) sequence and asserts the polls are idempotent.
    """
    clear_all()
    service = AllocationService(store=make_store(), job_workers=1)
    documents: list[str] = []
    job_ids: list[str] = []
    job_documents: dict[str, list[str]] = {}
    try:
        for operation, payload in stream:
            if operation == "solve":
                outcome, _ = service.solve_request(POOL[payload])
                documents.append(_comparable(outcome.to_dict()))
            elif mode == "sync":
                outcomes, _ = service.solve_batch([POOL[index] for index in payload])
                documents.extend(_comparable(outcome.to_dict()) for outcome in outcomes)
            else:
                submitted = service.submit_batch([POOL[index] for index in payload])
                assert submitted["status"] == "queued"
                finished = service.jobs.wait(submitted["job_id"], timeout_seconds=60.0)
                assert finished["status"] == "done"
                batch_documents = [_comparable(doc) for doc in finished["outcomes"]]
                documents.extend(batch_documents)
                job_ids.append(submitted["job_id"])
                job_documents[submitted["job_id"]] = batch_documents
        if mode == "async" and job_ids:
            # Out-of-order re-polls: finished jobs must answer identically
            # regardless of the order (and number of times) they are read.
            shuffled = list(job_ids)
            random.Random(poll_seed).shuffle(shuffled)
            for job_id in shuffled:
                document = service.job(job_id)
                assert document is not None and document["status"] == "done"
                assert [
                    _comparable(doc) for doc in document["outcomes"]
                ] == job_documents[job_id]
        stats = service.stats()
        counters = {
            "requests": stats["service"]["requests"],
            "solves": stats["service"]["solves"],
            "puts": stats["cache"]["puts"],
            "hits": stats["cache"]["memory_hits"] + stats["cache"]["disk_hits"],
            "misses": stats["cache"]["misses"],
        }
        return documents, counters
    finally:
        service.close()


CONFIGURATIONS = (
    ("single-sync", lambda: ResultStore(), "sync"),
    ("sharded-sync", lambda: ShardedResultStore(num_shards=5), "sync"),
    ("sharded-async", lambda: ShardedResultStore(num_shards=3), "async"),
)


@settings(max_examples=12, deadline=None)
@given(stream=_STREAM, poll_seed=st.integers(min_value=0, max_value=2**16))
def test_randomized_streams_are_configuration_invariant(stream, poll_seed):
    """The tentpole contract: {1-shard sync, N-shard sync, N-shard async}
    yield byte-identical outcome documents and identical aggregate
    hit/miss/solve counters on randomized request streams."""
    results = {
        name: _replay(stream, make_store, mode, poll_seed)
        for name, make_store, mode in CONFIGURATIONS
    }
    reference_documents, reference_counters = results["single-sync"]
    assert len(reference_documents) == sum(
        1 if operation == "solve" else len(payload) for operation, payload in stream
    )
    for name, (documents, counters) in results.items():
        assert documents == reference_documents, f"{name} diverged from single-sync"
        assert counters == reference_counters, f"{name} counters diverged"


def test_hetero_class_reorder_dedupes_across_configurations():
    """The two spellings of the mixed fleet share one fingerprint: a batch
    containing both performs one solve, and each requester gets the counts
    permuted into its own FPGA order -- in every configuration."""
    hetero_indices = [len(POOL) - 2, len(POOL) - 1]
    stream = [("batch", hetero_indices * 2)]
    for name, make_store, mode in CONFIGURATIONS:
        documents, counters = _replay(stream, make_store, mode)
        assert counters["solves"] == 1, name
        assert counters["puts"] == 1, name
        # Both spellings answered; the reversed platform sees reversed counts.
        first = json.loads(documents[0])
        second = json.loads(documents[1])
        assert first["status"] == second["status"]
        counts_first = dict(first["solution"]["counts"])
        counts_second = dict(second["solution"]["counts"])
        assert counts_first != counts_second  # permuted, not shared verbatim
        for kernel, per_fpga in counts_first.items():
            assert counts_second[kernel] == list(reversed(per_fpga))


def test_weighted_exact_method_is_configuration_invariant():
    """One minlp+g request (the B&B path with relaxation caching) replays
    identically through all three configurations."""
    problem = AllocationProblem(
        pipeline=_tiny_pipeline(),
        platform=aws_f1(num_fpgas=2, resource_limit_percent=80.0),
        weights=ObjectiveWeights(alpha=1.0, beta=1.0),
    )
    request = SolveRequest(problem=problem, method="minlp+g")
    pool_backup = POOL[0]
    stream = [("batch", [0, 0]), ("solve", 0)]
    try:
        POOL[0] = request
        results = [
            _replay(stream, make_store, mode) for _, make_store, mode in CONFIGURATIONS
        ]
        documents, counters = results[0]
        # The in-batch duplicate dedupes before the store (no lookup); the
        # follow-up single request is the one true cache hit.
        assert counters["solves"] == 1 and counters["hits"] == 1
        for other_documents, other_counters in results[1:]:
            assert other_documents == documents
            assert other_counters == counters
    finally:
        POOL[0] = pool_backup


def test_multi_worker_pool_preserves_solutions():
    """Overlapping batches drained by a 4-worker pool: scheduling (and so
    cache warmth and work counters) is racy, but every answered solution
    document must still equal the synchronous reference."""

    def solution_view(document: str) -> str:
        full = json.loads(document)
        return json.dumps(
            {
                "method": full["method"],
                "status": full["status"],
                "solution": full.get("solution"),
                "lower_bound": full.get("lower_bound"),
            },
            sort_keys=True,
        )

    generator = random.Random(20260727)
    batches = [
        [generator.randrange(len(POOL)) for _ in range(generator.randint(2, 8))]
        for _ in range(6)
    ]

    clear_all()
    reference_service = AllocationService(store=ResultStore())
    try:
        reference: dict[int, list[str]] = {}
        for batch_index, batch in enumerate(batches):
            outcomes, _ = reference_service.solve_batch([POOL[i] for i in batch])
            reference[batch_index] = [
                solution_view(_comparable(outcome.to_dict())) for outcome in outcomes
            ]
    finally:
        reference_service.close()

    clear_all()
    service = AllocationService(store=ShardedResultStore(num_shards=4), job_workers=4)
    try:
        submissions = [
            service.submit_batch([POOL[i] for i in batch])["job_id"] for batch in batches
        ]
        for batch_index, job_id in enumerate(submissions):
            finished = service.jobs.wait(job_id, timeout_seconds=120.0)
            assert finished["status"] == "done"
            assert [
                solution_view(_comparable(doc)) for doc in finished["outcomes"]
            ] == reference[batch_index]
        stats = service.stats()
        assert stats["jobs"]["completed"] == len(batches)
        assert stats["jobs"]["failed"] == 0
    finally:
        service.close()


def test_out_of_order_polls_against_inflight_queue():
    """Polling jobs that are still queued/running (last submitted polled
    first) returns valid lifecycle states and never blocks the queue."""
    service = AllocationService(store=ShardedResultStore(num_shards=2), job_workers=1)
    try:
        job_ids = [
            service.submit_batch([POOL[index % len(POOL)] for index in range(3)])["job_id"]
            for _ in range(4)
        ]
        for job_id in reversed(job_ids):
            document = service.job(job_id, include_outcomes=False)
            assert document is not None
            assert document["status"] in ("queued", "running", "done")
        for job_id in reversed(job_ids):
            finished = service.jobs.wait(job_id, timeout_seconds=60.0)
            assert finished["status"] == "done"
            assert len(finished["outcomes"]) == 3
    finally:
        service.close()


def test_differential_pool_has_nontrivial_coverage():
    """Guard the harness itself: the pool must span >= 2 methods, >= 2
    platform shapes and contain a duplicate-fingerprint pair."""
    methods = {request.method for request in POOL}
    assert {"gp+a", "minlp"} <= methods
    shapes = {request.problem.platform.is_homogeneous for request in POOL}
    assert shapes == {True, False}
    fingerprints = [request.fingerprint() for request in POOL]
    assert len(set(fingerprints)) < len(fingerprints)


# --------------------------------------------------------------------------- #
# Multi-process configurations: the pool + router topology joins the matrix
# --------------------------------------------------------------------------- #


def test_multi_process_pool_is_configuration_invariant(tmp_path):
    """{1-proc sync, N-proc sync, N-proc async, N-proc async with one worker
    SIGKILLed and restarted mid-stream} yield byte-identical outcome
    documents for a fixed duplicate-heavy stream.

    Worker scheduling across processes is racy by design, so (like the
    in-process multi-worker test) this compares solution documents, not
    counters.
    """
    from repro.service import RetryPolicy, ServiceClient, WorkerPool, WorkerSpec
    from repro.service.router import RouterService, start_router

    stream = [0, 1, 2, 0, 3, len(POOL) - 2, len(POOL) - 1, 4, 2, 1]
    requests = [POOL[index] for index in stream]

    # 1-proc sync reference (in-process, cold memos).
    clear_all()
    service = AllocationService(store=ResultStore(), job_workers=1)
    try:
        outcomes, _ = service.solve_batch(requests)
        reference = [_comparable(outcome.to_dict()) for outcome in outcomes]
    finally:
        service.close()

    def pool_topology(root):
        spec = WorkerSpec(group=0, data_dir=str(root))
        pool = WorkerPool(3, str(root), spec=spec, heartbeat_seconds=0.2)
        pool.start()
        router = RouterService(pool)
        server, thread = start_router(router, "127.0.0.1", 0)
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            timeout_seconds=60.0,
            retry_policy=RetryPolicy(retries=10, backoff_base_seconds=0.1),
        )
        return pool, router, server, thread, client

    # N-proc sync.
    pool, router, server, thread, client = pool_topology(tmp_path / "sync")
    try:
        response = client.solve_batch(requests)
        assert [_comparable(doc) for doc in response["outcomes"]] == reference
    finally:
        server.shutdown(); thread.join(timeout=30.0); server.server_close()
        router.close()

    # N-proc async.
    pool, router, server, thread, client = pool_topology(tmp_path / "async")
    try:
        ack = client.solve_batch_async(requests)
        document = client.wait_for_job(ack["job_id"], timeout_seconds=120.0)
        assert document["status"] == "done"
        assert [_comparable(doc) for doc in document["outcomes"]] == reference
    finally:
        server.shutdown(); thread.join(timeout=30.0); server.server_close()
        router.close()

    # N-proc async with one part-owning worker SIGKILLed mid-job.
    pool, router, server, thread, client = pool_topology(tmp_path / "chaos")
    try:
        ack = client.solve_batch_async(requests)
        victim = ack["parts"][0]["group"]
        pool.kill(victim)
        document = client.wait_for_job(ack["job_id"], timeout_seconds=120.0)
        assert document["status"] == "done"
        assert [_comparable(doc) for doc in document["outcomes"]] == reference
        status = {row["group"]: row for row in pool.worker_status()}
        assert status[victim]["restarts"] >= 1
    finally:
        server.shutdown(); thread.join(timeout=30.0); server.server_close()
        router.close()
