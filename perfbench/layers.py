"""Per-layer metrics: an in-process traced replay plus HTTP-level differences.

The replay feeds a workload's generated inputs (a fixed count of its
operations, built by the same generators and seeds as the closed loop)
through in-process ``AllocationService`` objects, calling the steps of the
service's request path one public function at a time: ``request_from_dict``,
``fingerprint``, ``store.get``, ``decode_outcome``, the solver (or the
executor for batches), ``encode_outcome``, ``store.put``, and the service's
``fleet_allocate`` and ``submit_batch``.  Each round replays twice: once
plain, once with a timer around each call and inside
``repro.obs.trace.start_trace``, so the solver's phase spans give each
phase's self time; the wall-time difference is the tracing overhead.

Rounds repeat until ``--seconds`` have passed; each metric is the median
over the traced passes.  Times of the replayed layers are milliseconds per
request of the replay, so they add up to the in-process cost of a request;
counts are totals of one pass and repeat exactly.  The HTTP-level layers
(client, server, router hop) are medians of per-call differences measured
on a real topology with warm requests.  Solves run serially in-process, as
in a single-process ``repro serve``.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator
from urllib.parse import urlsplit

from repro.core.discretize import discretization_cache_clear, discretization_cache_info
from repro.core.gp_step import gp_step_cache_clear, gp_step_cache_info
from repro.core.heuristic import allocation_cache_clear, allocation_cache_info
from repro.core.solvers import solve
from repro.explore.executor import ExecutorSettings, SweepExecutor, run_solve_task
from repro.fleet import fleet_from_dict, fleet_to_dict
from repro.minlp.binpacking import shared_packing_memos_clear
from repro.minlp.branch_and_bound import shared_relaxation_caches_clear
from repro.obs.trace import start_trace
from repro.service import (
    AllocationService,
    JobWal,
    ResultStore,
    ServiceClient,
    ServiceError,
    SolveRequest,
    fingerprint,
    request_from_dict,
    request_to_dict,
    ring_of,
)
from repro.service.batch import decode_outcome, encode_outcome
from repro.service.wal import iter_wal_files

from inputs import EXACT_SETTINGS, cold_batches, exact_cases, exact_fleet, problem_stream, take
from topology import Topology
from workloads import WORKLOADS, Sizes

PER_LAYER_UNITS = {
    "client.overhead_ms": "ms",
    "server.http_ms": "ms",
    "canonical.fingerprint_ms": "ms",
    "batch.parse_ms": "ms",
    "batch.decode_ms": "ms",
    "batch.encode_ms": "ms",
    "batch.dedupe_ratio": "ratio",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "store.hit_ratio": "ratio",
    "router.hop_ms": "ms",
    "router.split_parts": "count",
    "wal.append_ms": "ms",
    "wal.bytes_per_submit": "bytes",
    "wal.fsyncs_per_submit": "count",
    "jobs.wait_ms": "ms",
    "jobs.run_ms": "ms",
    "executor.overhead_ms": "ms",
    "gp_step.self_ms": "ms",
    "gp_step.calls": "count",
    "discretize.self_ms": "ms",
    "allocate.self_ms": "ms",
    "finalize.self_ms": "ms",
    "memo.gp_step.hit_ratio": "ratio",
    "memo.discretize.hit_ratio": "ratio",
    "memo.allocation.hit_ratio": "ratio",
    "bb.nodes": "count",
    "bb_node.self_ms": "ms",
    "relaxation.lp_solves": "count",
    "relaxation.lps_per_node": "ratio",
    "relaxation.self_ms": "ms",
    "relaxation.cache_hit_ratio": "ratio",
    "pack.self_ms": "ms",
    "pack.search_nodes": "count",
    "pack.memo_hit_ratio": "ratio",
    "exact.root_bounds_ms": "ms",
    "exact.heuristic_seed_ms": "ms",
    "fleet.allocate_ms": "ms",
    "fleet.tenant_solves": "count",
    "fleet.memo_hit_ratio": "ratio",
    "tracing.overhead_pct": "%",
}

#: Span names whose *self* time makes up each solver layer.
SELF_TIME_SPANS = {
    "gp_step.self_ms": ("gp_step",),
    "discretize.self_ms": ("discretize",),
    "allocate.self_ms": ("allocate",),
    "finalize.self_ms": ("finalize",),
    "bb_node.self_ms": ("bb_node",),
    "relaxation.self_ms": ("relaxation", "sweep_root_lp"),
    "pack.self_ms": ("pack_search", "bin_pack"),
}
#: Span names whose *whole* duration makes up a layer.
TOTAL_TIME_SPANS = {
    "exact.root_bounds_ms": ("root_bounds",),
    "exact.heuristic_seed_ms": ("heuristic_seed",),
}
#: Layers timed around the benchmark's own calls into the service modules.
TIMED_CALLS = (
    "canonical.fingerprint", "batch.parse", "batch.decode", "batch.encode",
    "store.get", "store.put", "executor.overhead",
)

SERIAL = ExecutorSettings(parallel=False)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _memo_counts() -> dict[str, tuple[int, int]]:
    return {
        name: (info["hits"], info["misses"])
        for name, info in (
            ("gp_step", gp_step_cache_info()),
            ("discretize", discretization_cache_info()),
            ("allocation", allocation_cache_info()),
        )
    }


def clear_memos() -> None:
    """Every solver-side memo, so a cold pass starts cold."""
    gp_step_cache_clear()
    discretization_cache_clear()
    allocation_cache_clear()
    shared_relaxation_caches_clear()
    shared_packing_memos_clear()
    from repro.service.batch import decode_memo_clear

    decode_memo_clear()


# --------------------------------------------------------------------------- #
# Replay plans: the workload's operations as wire documents
# --------------------------------------------------------------------------- #
class Plan:
    """Operations of one replay pass; ``setup`` runs untimed before it.

    An operation is ``("solve", group, document)``, ``("batch", group,
    documents)``, ``("fleet", mode, document)`` or ``("async",
    {group: documents})``.
    """

    def __init__(self, groups: int = 1, fresh_per_pass: bool = True):
        self.groups = groups
        self.fresh_per_pass = fresh_per_pass
        self.setup: list[tuple] = []
        self.ops: list[tuple] = []
        self.probe: list[SolveRequest] = []

    def group_of(self, request: SolveRequest) -> int:
        return ring_of(request.fingerprint(), self.groups)

    def solve(self, request: SolveRequest) -> tuple:
        return ("solve", self.group_of(request), request_to_dict(request))

    def async_batch(self, requests: list[SolveRequest]) -> None:
        parts: dict[int, list] = defaultdict(list)
        for request in requests:
            parts[self.group_of(request)].append(request_to_dict(request))
        self.ops.append(("async", dict(parts)))


def _ack_ops(plan: Plan, requests: list[SolveRequest], count: int, seed: int) -> None:
    rng = random.Random(f"{seed}/ack-probe")
    for _ in range(count):
        plan.async_batch([requests[rng.randrange(len(requests))]])


def build_plan(name: str, seed: int, sizes: Sizes) -> Plan:
    if name == "warm-solve":
        plan = Plan(fresh_per_pass=False)
        keys = [SolveRequest(problem=p) for p in take(problem_stream(seed, "warm-solve"), sizes.warm_keys)]
        plan.setup.append(("batch", 0, [request_to_dict(r) for r in keys]))
        plan.setup += [plan.solve(r) for r in keys]  # decode memo at its steady state
        rng = random.Random(f"{seed}/warm-solve-order")
        plan.ops += [plan.solve(keys[rng.randrange(len(keys))]) for _ in range(sizes.trace_requests)]
        _ack_ops(plan, keys, sizes.trace_acks, seed)
        plan.probe = keys
    elif name == "cold-batch":
        plan = Plan()
        batches = cold_batches(seed, sizes.batch_new, sizes.batch_duplicates, sizes.batch_repeats)
        answered: list[SolveRequest] = []
        for _ in range(sizes.trace_batches):
            requests, _ = next(batches)
            plan.ops.append(("batch", 0, [request_to_dict(r) for r in requests]))
            answered.extend(requests)
        _ack_ops(plan, answered, sizes.trace_acks, seed)
        plan.probe = answered
    elif name == "exact-mix":
        plan = Plan()
        cases = exact_cases(seed)
        gp_requests = []
        for index in range(sizes.trace_cases):
            problem = next(cases)
            for method in ("gp+a", "minlp+g", "minlp"):
                settings = None if method == "gp+a" else EXACT_SETTINGS
                plan.ops.append(plan.solve(SolveRequest(problem=problem, method=method, exact_settings=settings)))
            document = fleet_to_dict(exact_fleet(seed, index))
            plan.ops += [("fleet", mode, document) for mode in ("heuristic", "exact")]
            gp_requests.append(SolveRequest(problem=problem))
        _ack_ops(plan, gp_requests, sizes.trace_acks, seed)
        plan.probe = gp_requests
    elif name == "routed-durable":
        plan = Plan(groups=2)
        keys = [SolveRequest(problem=p) for p in take(problem_stream(seed, "routed-keys"), sizes.routed_keys)]
        plan.setup += [plan.solve(r) for r in keys]
        fresh = problem_stream(seed, "routed-new")
        rng = random.Random(f"{seed}/routed-order")
        for _ in range(sizes.trace_cycles):
            plan.ops += [
                plan.solve(keys[rng.randrange(len(keys))]) for _ in range(sizes.routed_sync_per_cycle)
            ]
            batch = rng.sample(keys, sizes.routed_replay) + [
                SolveRequest(problem=p) for p in take(fresh, sizes.routed_new)
            ]
            rng.shuffle(batch)
            plan.async_batch(batch)
        plan.probe = keys
    else:
        raise KeyError(name)
    return plan


# --------------------------------------------------------------------------- #
# One replay pass
# --------------------------------------------------------------------------- #
class Replayer:
    """In-process services (one per shard group) and the layer timers."""

    def __init__(self, plan: Plan, workdir: Path):
        self.traced = False
        self.services = [
            AllocationService(
                store=ResultStore(cache_dir=workdir / f"cache-{group}"),
                executor=SweepExecutor(SERIAL),
                tracing=False,
                wal=workdir / f"wal-{group}" if plan.groups > 1 else None,
            )
            for group in range(plan.groups)
        ]
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.answers: dict[str, str] = {}

    def close(self) -> None:
        for service in self.services:
            service.close()

    @contextmanager
    def timed(self, layer: str) -> Iterator[None]:
        if not self.traced:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[layer] += time.perf_counter() - start

    def run(self, ops: list[tuple]) -> None:
        for op in ops:
            kind = op[0]
            if kind == "solve":
                self._solve(self.services[op[1]], op[2])
            elif kind == "batch":
                self._batch(self.services[op[1]], op[2])
            elif kind == "fleet":
                with self.timed("fleet.allocate"):
                    self.services[0].fleet_allocate(fleet_from_dict(op[2]), op[1])
                self.counts["fleet.allocations"] += 1
            else:
                self._async(op[1])

    def _record(self, print_: str, outcome: Any) -> None:
        self.answers.setdefault(print_, json.dumps([outcome.status.value, outcome.to_dict()["solution"]]))

    def _solved(self, outcome: Any) -> None:
        self.counts["solves"] += 1
        for name, value in outcome.counters.items():
            self.counts[f"counter.{name}"] += value

    def _solve(self, service: AllocationService, document: dict) -> None:
        """``AllocationService._answer``, one public call at a time."""
        with self.timed("batch.parse"):
            request = request_from_dict(document)
        with self.timed("canonical.fingerprint"):
            print_ = fingerprint(request.problem, request.method, request.heuristic_settings, request.exact_settings)
        with self.timed("store.get"):
            lookup = service.store.get(print_)
        self.counts["store.lookups"] += 1
        self.counts["requests"] += 1
        if lookup.hit:
            self.counts["store.hits"] += 1
            with self.timed("batch.decode"):
                outcome = decode_outcome(lookup.payload, request.problem, fingerprint=print_)
        else:
            with self.timed("solver"):
                outcome = solve(
                    request.problem, method=request.method,
                    heuristic_settings=request.heuristic_settings, exact_settings=request.exact_settings,
                )
            self._solved(outcome)
            with self.timed("batch.encode"):
                payload = encode_outcome(outcome, request.problem)
            with self.timed("store.put"):
                service.store.put(print_, payload)
        self._record(print_, outcome)

    def _batch(self, service: AllocationService, documents: list[dict]) -> None:
        """``repro.service.batch.solve_batch``, one public call at a time."""
        with self.timed("batch.parse"):
            requests = [request_from_dict(d) for d in documents]
        with self.timed("canonical.fingerprint"):
            prints = [
                fingerprint(r.problem, r.method, r.heuristic_settings, r.exact_settings) for r in requests
            ]
        self.counts["requests"] += len(requests)
        first_of: dict[str, SolveRequest] = {}
        for request, print_ in zip(requests, prints):
            first_of.setdefault(print_, request)
        missing = []
        for print_, request in first_of.items():
            with self.timed("store.get"):
                lookup = service.store.get(print_)
            self.counts["store.lookups"] += 1
            if lookup.hit:
                self.counts["store.hits"] += 1
                with self.timed("batch.decode"):
                    self._record(print_, decode_outcome(lookup.payload, request.problem, fingerprint=print_))
            else:
                missing.append((request.group_key(), print_, request))
        if not missing:
            return
        missing.sort(key=lambda item: item[0])
        start = time.perf_counter()
        with self.timed("solver"):
            solved = service.executor.map(run_solve_task, [request.task() for _, _, request in missing])
        self.seconds["executor.overhead"] += (time.perf_counter() - start) - sum(
            outcome.runtime_seconds for outcome in solved
        )
        for (_, print_, request), outcome in zip(missing, solved):
            self._solved(outcome)
            with self.timed("batch.encode"):
                payload = encode_outcome(outcome, request.problem)
            with self.timed("store.put"):
                service.store.put(print_, payload)
            self._record(print_, outcome)

    def _async(self, parts: dict[int, list[dict]]) -> None:
        """One async submission: a job per owning group, each waited for."""
        acks = []
        for group, documents in parts.items():
            with self.timed("batch.parse"):
                requests = [request_from_dict(d) for d in documents]
            acks.append((group, self.services[group].submit_batch(requests, documents=documents)))
        for group, ack in acks:
            job = self.services[group].jobs.wait(ack["job_id"], timeout_seconds=120.0)
            self.counts["jobs"] += 1
            self.seconds["jobs.wait"] += job["wait_seconds"] or 0.0
            self.seconds["jobs.run"] += job["run_seconds"] or 0.0
        self.counts["requests"] += sum(len(documents) for documents in parts.values())


def _span_times(trace_root: Any) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Self and total seconds per layer over a whole span tree, plus the
    number of spans of each name.

    A span is charged to its own name, except the branch-and-bound nodes of
    the heuristic's discretisation step, which belong to ``discretize``;
    ``bb_node`` then measures the exact solvers' search alone.
    """
    self_seconds: dict[str, float] = defaultdict(float)
    total_seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    stack = [(child, None) for child in trace_root.children]
    while stack:
        node, owner = stack.pop()
        layer = owner or node.name
        covered = sum(child.duration_seconds for child in node.children)
        self_seconds[layer] += node.duration_seconds - covered
        total_seconds[node.name] += node.duration_seconds
        calls[node.name] += 1
        inner_owner = owner or ("discretize" if node.name == "discretize" else None)
        stack.extend((child, inner_owner) for child in node.children)
    return {"self": self_seconds, "total": total_seconds}, calls


def _pass(plan: Plan, workdir: Path, traced: bool, shared: "Replayer | None") -> tuple[float, "Replayer", dict]:
    """One replay pass; returns its wall time, the replayer and the
    per-layer values (empty when untraced)."""
    replayer = shared
    if replayer is None:
        clear_memos()
        replayer = Replayer(plan, workdir)
        replayer.run(plan.setup)
    replayer.seconds.clear()
    replayer.counts.clear()
    replayer.traced = traced
    memo_before = _memo_counts()
    with start_trace("replay") if traced else _no_trace() as trace:
        start = time.perf_counter()
        replayer.run(plan.ops)
        wall = time.perf_counter() - start
    if not traced:
        return wall, replayer, {}
    memo_after = _memo_counts()
    spans, span_calls = _span_times(trace.root)
    seconds, counts = replayer.seconds, replayer.counts
    per_request = 1e3 / max(1.0, counts["requests"])
    values = {f"{layer}_ms": seconds[layer] * per_request for layer in TIMED_CALLS}
    for metric, names in SELF_TIME_SPANS.items():
        values[metric] = sum(spans["self"][name] for name in names) * per_request
    for metric, names in TOTAL_TIME_SPANS.items():
        values[metric] = sum(spans["total"][name] for name in names) * per_request
    for memo in ("gp_step", "discretize", "allocation"):
        hits = memo_after[memo][0] - memo_before[memo][0]
        misses = memo_after[memo][1] - memo_before[memo][1]
        values[f"memo.{memo}.hit_ratio"] = _ratio(hits, hits + misses)
    counter = lambda name: counts[f"counter.{name}"]  # noqa: E731
    fleet = replayer.services[0].fleet.stats()
    values.update({
        "batch.dedupe_ratio": _ratio(counts["solves"], counts["requests"]),
        "store.hit_ratio": _ratio(counts["store.hits"], counts["store.lookups"]),
        "jobs.wait_ms": _ratio(seconds["jobs.wait"] * 1e3, counts["jobs"]),
        "jobs.run_ms": _ratio(seconds["jobs.run"] * 1e3, counts["jobs"]),
        "gp_step.calls": span_calls["gp_step"],
        "bb.nodes": counter("bb_nodes"),
        "relaxation.lp_solves": counter("lp_solves"),
        "relaxation.lps_per_node": _ratio(counter("lp_solves"), counter("node_solves")),
        "relaxation.cache_hit_ratio": _ratio(
            counter("relaxation_cache_hits"),
            counter("relaxation_cache_hits") + counter("relaxation_cache_misses"),
        ),
        "pack.search_nodes": counter("packer_search_nodes"),
        "pack.memo_hit_ratio": _ratio(
            counter("packing_memo_hits") + counter("packing_memo_dominance_hits"),
            counter("packing_memo_hits") + counter("packing_memo_dominance_hits") + counter("packing_memo_misses"),
        ),
        "fleet.allocate_ms": _ratio(seconds["fleet.allocate"] * 1e3, counts["fleet.allocations"]),
        "fleet.tenant_solves": fleet["tenant_solves"] if counts["fleet.allocations"] else 0,
        "fleet.memo_hit_ratio": _ratio(fleet["memo_hits"], fleet["memo_hits"] + fleet["tenant_solves"]),
    })
    return wall, replayer, values


@contextmanager
def _no_trace() -> Iterator[None]:
    yield None


def _wal_layer(plan: Plan, workdir: Path) -> dict[str, float]:
    """``JobWal`` append + fsync timed directly on the plan's submit parts."""
    if plan.groups == 1:
        return {"wal.append_ms": 0.0, "wal.bytes_per_submit": 0.0, "wal.fsyncs_per_submit": 0.0}
    directory = workdir / "wal-direct"
    samples = []
    with JobWal(directory) as wal:
        sequence = 0
        for op in plan.ops:
            if op[0] != "async":
                continue
            for documents in op[1].values():
                sequence += 1
                start = time.perf_counter()
                wal.journal_submit(f"bench-{sequence}", sequence, time.time(), documents)
                samples.append(time.perf_counter() - start)
        fsyncs = wal.stats()["fsyncs"]
    written = sum(path.stat().st_size for path in iter_wal_files(directory))
    return {
        "wal.append_ms": statistics.median(samples) * 1e3 if samples else 0.0,
        "wal.bytes_per_submit": _ratio(written, len(samples)),
        "wal.fsyncs_per_submit": _ratio(fsyncs, len(samples)),
    }


# --------------------------------------------------------------------------- #
# HTTP-level differences on a real topology
# --------------------------------------------------------------------------- #
def _post_raw(url: str, path: str, body: bytes) -> None:
    """One ``POST`` over a plain ``http.client`` connection, opened and
    closed per call like the ``ServiceClient``'s, so the difference to it
    is the client library alone.

    Keep-alive is not used: through the router it meets a ~40 ms Nagle /
    delayed-ACK stall on the router's per-thread worker connections, which
    no ``ServiceClient`` call pays.
    """
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=120)
    try:
        connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        response.read()
    finally:
        connection.close()
    if response.status != 200:
        raise ServiceError(f"{path}: HTTP {response.status}", status=response.status)


def _median_ms(functions: dict[str, Any], repeats: int, ledger=None) -> dict[str, float]:
    """Median ms per call of each ``function(index)``, the calls interleaved
    so that drift in the host's load hits every function alike.  With a
    ``ledger`` each call is accounted there and only successes are timed."""
    samples: dict[str, list[float]] = {label: [] for label in functions}
    for index in range(repeats):
        for label, function in functions.items():
            start = time.perf_counter()
            if ledger is None:
                function(index)
            elif ledger.call(f"probe {label} /solve", lambda: function(index) or True, timed=False) is None:
                continue
            samples[label].append(time.perf_counter() - start)
    return {label: statistics.median(values) * 1e3 if values else math.nan for label, values in samples.items()}


def http_layers(root: Path, plan: Plan, sizes: Sizes, workdir: Path, ledger) -> tuple[dict[str, float], list[str]]:
    """Client, server and router-hop costs of warm ``/solve`` calls."""
    probe = plan.probe[:32]
    bodies = [json.dumps(request_to_dict(r)).encode() for r in probe]
    service = AllocationService(executor=SweepExecutor(SERIAL), tracing=False)
    for request in probe:
        service.solve_request(request)
    inprocess = _median_ms(
        {"in-process": lambda i: service.solve_request(request_from_dict(json.loads(bodies[i % len(probe)])))},
        sizes.http_pairs,
    )["in-process"]
    service.close()

    routed = plan.groups > 1
    topology = Topology(root, workdir / "probe", plan.groups)
    split_parts: list[int] = []
    try:
        topology.start()
        client = ServiceClient(topology.url)
        for request in probe:
            ledger.call("probe warm-up /solve", lambda: client.solve(request.problem), timed=False)
        calls = {
            "client": lambda i: client.solve(probe[i % len(probe)].problem),
            "raw": lambda i: _post_raw(topology.url, "/solve", bodies[i % len(probe)]),
        }
        if routed:
            group_urls = {group: topology.worker_url(group) for group in range(plan.groups)}
            owners = [group_urls[plan.group_of(request)] for request in probe]
            calls["direct"] = lambda i: _post_raw(owners[i % len(probe)], "/solve", bodies[i % len(probe)])
        median_ms = _median_ms(calls, sizes.http_pairs, ledger)
        if routed:
            for op in [op for op in plan.ops if op[0] == "async"][: sizes.trace_acks]:
                requests = [request_from_dict(d) for documents in op[1].values() for d in documents]
                ack = ledger.call("probe async submit", lambda: client.solve_batch_async(requests), timed=False)
                if ack is not None:
                    split_parts.append(len(ack.get("parts", [])))
                    ledger.call(
                        "probe async poll",
                        lambda: client.wait_for_job(ack["job_id"], timeout_seconds=120.0, poll_seconds=0.002),
                        timed=False,
                    )
    finally:
        problems = topology.stop()
    server_side = median_ms["direct"] if routed else median_ms["raw"]
    values = {
        "client.overhead_ms": median_ms["client"] - median_ms["raw"],
        "server.http_ms": server_side - inprocess,
        "router.hop_ms": median_ms["raw"] - median_ms["direct"] if routed else 0.0,
        "router.split_parts": statistics.fmean(split_parts) if split_parts else (math.nan if routed else 0.0),
    }
    return values, problems


def trace_workload(root: Path, name: str, seed: int, seconds: float, sizes: Sizes, workdir: Path) -> dict:
    """The per-layer run of one workload (``--trace 1``)."""
    from workloads import Ledger

    plan = build_plan(name, seed, sizes)
    failures: list[str] = []
    untraced_walls, traced_walls, passes = [], [], []
    shared = None
    deadline = time.perf_counter() + seconds
    round_index = 0
    while round_index == 0 or time.perf_counter() < deadline:
        # Alternate which mode goes first so drift does not favour one.
        for traced in ((False, True) if round_index % 2 == 0 else (True, False)):
            passdir = workdir / f"pass-{round_index}-{int(traced)}"
            wall, replayer, values = _pass(plan, passdir, traced, shared)
            if not plan.fresh_per_pass:
                shared = replayer
            (traced_walls if traced else untraced_walls).append(wall)
            if traced:
                passes.append((values, dict(replayer.answers)))
            if plan.fresh_per_pass:
                replayer.close()
        round_index += 1
    if shared is not None:
        shared.close()

    reference = passes[0][1]
    for _, answers in passes[1:]:
        if answers != reference:
            failures.append("traced passes disagree on an answer")
    values = {metric: statistics.median(p[0][metric] for p in passes) for metric in passes[0][0]}
    values["tracing.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    values.update(_wal_layer(plan, workdir))
    ledger = Ledger()
    http_values, problems = http_layers(root, plan, sizes, workdir, ledger)
    values.update(http_values)
    failures += [f"process hygiene: {problem}" for problem in problems]
    metrics = {
        metric: (values[metric], unit, len(passes)) for metric, unit in PER_LAYER_UNITS.items()
    }
    return {
        "cache_state": WORKLOADS[name].cache_state,
        "calls": ledger.calls,
        "errors": ledger.errors,
        "failures": failures,
        "metrics": metrics,
        "notes": {
            "passes": len(passes),
            "untraced_walls": untraced_walls,
            "traced_walls": traced_walls,
        },
    }


# --------------------------------------------------------------------------- #
# The layer table: where one request's time goes, per scenario
# --------------------------------------------------------------------------- #
TABLE_COLUMNS = (
    ("client", "client.overhead_ms"), ("http", "server.http_ms"), ("router", "router.hop_ms"),
    ("parse", "batch.parse_ms"), ("fingerprint", "canonical.fingerprint_ms"),
    ("store get", "store.get_ms"), ("decode", "batch.decode_ms"), ("solver", "solver_ms"),
    ("encode", "batch.encode_ms"), ("store put", "store.put_ms"),
)


def layer_table(root: Path, seed: int, workdir: Path, unique: int = 64, requests: int = 256, repeats: int = 60) -> str:
    """Markdown table of ms per request by layer for warm and cold
    ``/solve`` and warm and cold batches, single-process and routed.

    In-process columns come from one traced replay of each scenario; the
    HTTP columns are medians over ``repeats`` warm calls (a cold call pays
    the same transport), per request of the call.
    """
    keys = [SolveRequest(problem=p) for p in take(problem_stream(seed, "layer-table"), unique)]
    rng = random.Random(f"{seed}/layer-table")
    batch = [keys[rng.randrange(unique)] for _ in range(requests)]
    batch_docs = [request_to_dict(r) for r in batch]
    key_docs = [request_to_dict(r) for r in keys]
    scenarios = {
        "warm /solve": ([("batch", 0, key_docs)] + [("solve", 0, d) for d in key_docs], [("solve", 0, d) for d in batch_docs]),
        "cold /solve": ([], [("solve", 0, d) for d in key_docs]),
        "cold batch": ([], [("batch", 0, batch_docs)]),
        "warm batch": ([("batch", 0, batch_docs)], [("batch", 0, batch_docs)]),
    }
    inprocess = {}
    for name, (setup, ops) in scenarios.items():
        plan = Plan()
        plan.setup, plan.ops = setup, ops
        _, replayer, values = _pass(plan, workdir / f"table-{len(inprocess)}", True, None)
        values["solver_ms"] = replayer.seconds["solver"] * 1e3 / max(1.0, replayer.counts["requests"])
        replayer.close()
        inprocess[name] = values

    service = AllocationService(executor=SweepExecutor(SERIAL), tracing=False)
    service.solve_batch(keys)
    sample = keys[0]
    solve_body = json.dumps(request_to_dict(sample)).encode()
    batch_body = json.dumps({"requests": batch_docs}).encode()
    inproc = _median_ms({
        "solve": lambda _: service.solve_request(request_from_dict(json.loads(solve_body))),
        "batch": lambda _: service.solve_batch([request_from_dict(d) for d in json.loads(batch_body)["requests"]]),
    }, repeats)
    service.close()
    http_costs: dict[str, dict[str, float]] = {}
    problems: list[str] = []
    raw_single: dict[str, float] = {}
    for groups in (1, 2):
        topology = Topology(root, workdir / f"table-server-{groups}", groups)
        try:
            topology.start()
            client = ServiceClient(topology.url)
            for request in keys:
                client.solve(request.problem)
            calls = {
                "raw solve": lambda _: _post_raw(topology.url, "/solve", solve_body),
                "client solve": lambda _: client.solve(sample.problem),
                "raw batch": lambda _: _post_raw(topology.url, "/solve_batch", batch_body),
                "client batch": lambda _: client.solve_batch(batch),
            }
            if groups > 1:
                owner = topology.worker_url(ring_of(sample.fingerprint(), groups))
                calls["direct solve"] = lambda _: _post_raw(owner, "/solve", solve_body)
            medians = _median_ms(calls, repeats)
            raw = {kind: medians[f"raw {kind}"] for kind in ("solve", "batch")}
            via_client = {kind: medians[f"client {kind}"] for kind in ("solve", "batch")}
            if groups == 1:
                raw_single = raw
                server = raw
                hop = {"solve": 0.0, "batch": 0.0}
            else:
                server = {"solve": medians["direct solve"], "batch": raw_single["batch"]}
                hop = {kind: raw[kind] - server[kind] for kind in raw}
        finally:
            problems += topology.stop()
        label = "single" if groups == 1 else "routed"
        for kind, size in (("solve", 1), ("batch", requests)):
            http_costs[f"{label} {kind}"] = {
                "client.overhead_ms": (via_client[kind] - raw[kind]) / size,
                "server.http_ms": (server[kind] - inproc[kind]) / size,
                "router.hop_ms": hop[kind] / size,
            }

    lines = [
        "| scenario | topology | " + " | ".join(label for label, _ in TABLE_COLUMNS) + " | total |",
        "|---|---|" + "---:|" * (len(TABLE_COLUMNS) + 1),
    ]
    for name, values in inprocess.items():
        kind = "solve" if "/solve" in name else "batch"
        for label in ("single", "routed"):
            row = {**values, **http_costs[f"{label} {kind}"]}
            cells = [row[key] for _, key in TABLE_COLUMNS]
            lines.append(
                f"| {name} | {label} | " + " | ".join(f"{cell:.3f}" for cell in cells) + f" | {sum(cells):.3f} |"
            )
    for problem in problems:
        lines.append(f"\nprocess hygiene: {problem}")
    return "\n".join(lines) + "\n"
