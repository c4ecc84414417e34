"""The four closed-loop workloads, measured against a real ``repro serve``.

Every workload drives its server from one client with one request in
flight at a time (a closed loop: design-space callers wait for each reply)
through the repository's own ``ServiceClient``.  Answers are kept during the
timed loop and checked after it, so checking costs no timed wall time.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.solution import SolveOutcome
from repro.core.validate import check_outcome_consistency
from repro.fleet import FleetOutcome, fleet_to_dict
from repro.service import ServiceClient, ServiceError, SolveRequest

from inputs import EXACT_SETTINGS, EXACT_STRATA, cold_batches, exact_cases, exact_fleet, problem_stream, take

#: Relative slack of the objective comparisons (exact vs heuristic).
OBJECTIVE_TOLERANCE = 1e-9
#: ``exact-mix`` cases per round: each case study once per limit stratum.
ROUND_SIZE = 3 * EXACT_STRATA


@dataclass(frozen=True)
class Sizes:
    """How much traffic one run sends; ``SMOKE`` shrinks every knob."""

    setups: int = 3
    warm_keys: int = 192
    batch_new: int = 6
    batch_duplicates: int = 6
    batch_repeats: int = 12
    routed_keys: int = 128
    routed_sync_per_cycle: int = 48
    routed_new: int = 8
    routed_replay: int = 8
    warm_calls_per_ack: int = 25
    # Per-layer run: operations of one replay pass, and HTTP probe pairs.
    trace_requests: int = 300
    trace_batches: int = 8
    trace_cases: int = 4
    trace_cycles: int = 6
    trace_acks: int = 20
    http_pairs: int = 200


FULL = Sizes()
SMOKE = Sizes(
    setups=1, warm_keys=6, batch_new=3, batch_duplicates=2, batch_repeats=3,
    routed_keys=6, routed_sync_per_cycle=2, routed_new=2, routed_replay=2, warm_calls_per_ack=5,
    trace_requests=10, trace_batches=2, trace_cases=1, trace_cycles=2, trace_acks=2, http_pairs=10,
)


@dataclass
class Ledger:
    """Per-kind call accounting plus the samples of the end-to-end metrics."""

    calls: dict[str, dict[str, int]] = field(default_factory=dict)
    latency_ms: list[float] = field(default_factory=list)
    ack_ms: list[float] = field(default_factory=list)
    #: ``[seconds, requests answered]`` per timed call, in order.
    timed: list[list[float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def row(self, kind: str) -> dict[str, int]:
        return self.calls.setdefault(
            kind, {"attempted": 0, "succeeded": 0, "failed": 0, "refused": 0}
        )

    def call(self, kind: str, function: Callable[[], Any], timed: bool = True) -> Any:
        """Run one synchronous call; returns its result, or ``None`` when it
        failed.  Timed calls add their wall time to the loop (failures too)
        and, when successful, one latency sample.
        """
        row = self.row(kind)
        row["attempted"] += 1
        start = time.perf_counter()
        try:
            result = function()
        except ServiceError as error:
            row["refused" if error.status in (429, 503) else "failed"] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {error}")
            result = None
        elapsed = time.perf_counter() - start
        if timed:
            self.timed.append([elapsed, 0])
        if result is not None:
            row["succeeded"] += 1
            if timed:
                self.latency_ms.append(elapsed * 1e3)
        return result

    def answer(self, requests: int = 1) -> None:
        """Credit the last timed call with requests answered correctly."""
        self.timed[-1][1] += requests

    @property
    def answered(self) -> int:
        return int(sum(requests for _, requests in self.timed))

    def totals(self) -> dict[str, int]:
        total = {"attempted": 0, "succeeded": 0, "failed": 0, "refused": 0}
        for row in self.calls.values():
            for key in total:
                total[key] += row[key]
        return total


class Checker:
    """Correctness of every answer: feasible, and stable per fingerprint."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.unsolved = 0
        self._answers: dict[str, tuple[str, Any, dict]] = {}

    def fail(self, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(message)

    def answer(self, fingerprint: str, problem: Any, outcome: dict) -> None:
        """Record one answer; a later answer for the same fingerprint (warm)
        must equal the first one (cold)."""
        key = json.dumps([outcome.get("status"), outcome.get("solution")], sort_keys=True)
        first = self._answers.get(fingerprint)
        if first is None:
            self._answers[fingerprint] = (key, problem, outcome)
        elif first[0] != key:
            self.fail(f"answer for {fingerprint[:12]} differs between calls")

    def outcome(self, fingerprint: str) -> SolveOutcome:
        _, problem, document = self._answers[fingerprint]
        return SolveOutcome.from_dict(document, problem=problem)

    def validate_all(self) -> None:
        """``validate_solution`` on every distinct answer (later answers are
        equal to the first one, so this covers every returned solution)."""
        for fingerprint in self._answers:
            self.validate(fingerprint, self.outcome(fingerprint))

    def validate(self, label: str, outcome: SolveOutcome) -> None:
        """A successful outcome must carry a solution that passes
        ``validate_solution``; an unsuccessful one (the heuristic found no
        allocation) is a legitimate answer with nothing to validate."""
        for issue in check_outcome_consistency(outcome):
            self.fail(f"{label[:12]}: {issue}")
        if not outcome.succeeded:
            self.unsolved += 1

    def gmean_objective(self, fingerprints: list[str]) -> float:
        """Geometric mean objective over the distinct answered problems that
        have a solution."""
        outcomes = [self.outcome(fp) for fp in dict.fromkeys(fingerprints)]
        logs = [math.log(o.objective) for o in outcomes if o.succeeded]
        return math.exp(statistics.fmean(logs)) if logs else math.nan


@dataclass
class Run:
    """What one workload function hands back to the harness."""

    ledger: Ledger
    checker: Checker
    objective_prints: list[str]
    notes: dict[str, Any] = field(default_factory=dict)


def _solver_count(client: ServiceClient) -> int:
    return int(client.stats()["service"]["solves"])


def _async_call(client: ServiceClient, run: Run, requests: list[SolveRequest], timed: bool) -> None:
    """Submit one async batch, record the ack, poll it to a terminal state.

    The single-process workloads interleave untimed submissions of
    already-answered requests through their loop, so ``ack_p50_ms`` samples
    the whole run; ``routed-durable``'s submissions are part of its traffic.
    """
    ledger = run.ledger
    row = ledger.row("solve_batch_async")
    row["attempted"] += 1
    start = time.perf_counter()
    try:
        ack = client.solve_batch_async(requests)
        ledger.ack_ms.append((time.perf_counter() - start) * 1e3)
        document = client.wait_for_job(ack["job_id"], timeout_seconds=120.0, poll_seconds=0.002)
    except ServiceError as error:
        row["refused" if error.status in (429, 503) else "failed"] += 1
        if len(ledger.errors) < 20:
            ledger.errors.append(f"solve_batch_async: {error}")
        document = None
    if timed:
        ledger.timed.append([time.perf_counter() - start, 0])
    if document is None:
        return
    if document.get("status") != "done":
        row["failed"] += 1
        return
    row["succeeded"] += 1
    if timed:
        ledger.answer(len(requests))
    for request, fingerprint, outcome in zip(requests, document["fingerprints"], document["outcomes"]):
        run.checker.answer(fingerprint, request.problem, outcome)


def warm_solve(client: ServiceClient, seed: int, seconds: float, sizes: Sizes) -> Run:
    """Synchronous ``/solve`` over a key set warmed before timing."""
    run = Run(Ledger(), Checker(), [])
    keys = [SolveRequest(problem=p) for p in take(problem_stream(seed, "warm-solve"), sizes.warm_keys)]
    warmed = client.solve_batch(keys)
    if warmed["report"]["solves"] != len(keys):
        run.checker.fail(f"warming solved {warmed['report']['solves']} of {len(keys)} new keys")
    for request, fingerprint, outcome in zip(keys, warmed["fingerprints"], warmed["outcomes"]):
        run.checker.answer(fingerprint, request.problem, outcome)
    run.objective_prints = list(warmed["fingerprints"])

    rng = random.Random(f"{seed}/warm-solve-order")
    answers = []
    solves_before = _solver_count(client)
    deadline = time.perf_counter() + seconds
    calls = 0
    while time.perf_counter() < deadline:
        request = keys[rng.randrange(len(keys))]
        response = run.ledger.call("solve", lambda: client.solve(request.problem))
        if response is not None:
            run.ledger.answer()
            answers.append((request, response))
        calls += 1
        if calls % sizes.warm_calls_per_ack == 0:
            _async_call(client, run, [request], timed=False)
    timed_solves = _solver_count(client) - solves_before
    if timed_solves:
        run.checker.fail(f"the timed warm phase performed {timed_solves} solves")
    for request, response in answers:
        if response["cache"] == "solver":
            run.checker.fail("a warm /solve reached the solver")
        run.checker.answer(response["fingerprint"], request.problem, response["outcome"])
    run.notes["timed_solves"] = timed_solves
    return run


def cold_batch(client: ServiceClient, seed: int, seconds: float, sizes: Sizes) -> Run:
    """Synchronous ``/solve_batch`` of new, duplicate and repeated problems."""
    run = Run(Ledger(), Checker(), [])
    batches = cold_batches(seed, sizes.batch_new, sizes.batch_duplicates, sizes.batch_repeats)
    answered = []
    requests_sent = solves = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        requests, expected = next(batches)
        response = run.ledger.call("solve_batch", lambda: client.solve_batch(requests))
        if response is None:
            continue
        run.ledger.answer(len(requests))
        requests_sent += len(requests)
        solves += response["report"]["solves"]
        if response["report"]["solves"] != expected:
            run.checker.fail(
                f"batch solved {response['report']['solves']} problems, expected {expected} new ones"
            )
        answered.append((requests, response))
        _async_call(client, run, requests[:1], timed=False)
    for requests, response in answered:
        for request, fingerprint, outcome in zip(requests, response["fingerprints"], response["outcomes"]):
            run.checker.answer(fingerprint, request.problem, outcome)
            run.objective_prints.append(fingerprint)
    run.notes["dedupe_ratio"] = solves / requests_sent if requests_sent else math.nan
    return run


def exact_mix(client: ServiceClient, seed: int, seconds: float, sizes: Sizes) -> Run:
    """``gp+a``, ``minlp+g`` and ``minlp`` on case studies, plus fleet
    allocation in heuristic and exact mode, every problem new.

    Calls vary by two orders of magnitude in cost, so the loop stops only
    between complete rounds of cases: every run then sends the same mix.
    """
    run = Run(Ledger(), Checker(), [])
    ledger, checker = run.ledger, run.checker
    cases = exact_cases(seed)
    exact_prints: list[str] = []
    answered = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index % ROUND_SIZE or time.perf_counter() < deadline:
        problem = next(cases)
        answers = {}
        for method in ("gp+a", "minlp+g", "minlp"):
            settings = None if method == "gp+a" else EXACT_SETTINGS
            response = ledger.call(
                f"solve {method}",
                lambda: client.solve(problem, method=method, exact_settings=settings),
            )
            if response is not None:
                ledger.answer()
                checker.answer(response["fingerprint"], problem, response["outcome"])
                answers[method] = response
        fleet = exact_fleet(seed, index)
        document = fleet_to_dict(fleet)
        for mode in ("heuristic", "exact"):
            response = ledger.call(f"fleet {mode}", lambda: client.fleet_allocate(document, mode))
            if response is not None:
                ledger.answer()
                answers[f"fleet {mode}"] = response
        answered.append((fleet, answers))
        if "gp+a" in answers:
            _async_call(client, run, [SolveRequest(problem=problem)], timed=False)
        if "minlp+g" in answers:
            exact_prints.append(answers["minlp+g"]["fingerprint"])
        index += 1
    for fleet, answers in answered:
        _check_exact(checker, answers)
        _check_fleet(checker, fleet, answers)
    run.objective_prints = exact_prints
    return run


def _check_exact(checker: Checker, answers: dict) -> None:
    if not {"gp+a", "minlp+g", "minlp"} <= answers.keys():
        return
    outcome = {
        method: checker.outcome(answers[method]["fingerprint"]) for method in ("gp+a", "minlp+g", "minlp")
    }
    heuristic, exact = outcome["gp+a"].objective, outcome["minlp+g"].objective
    if exact > heuristic * (1 + OBJECTIVE_TOLERANCE) + OBJECTIVE_TOLERANCE:
        checker.fail(f"minlp+g objective {exact} above gp+a {heuristic}")
    for method in ("minlp+g", "minlp"):
        result = outcome[method]
        at_budget = result.nodes_explored >= EXACT_SETTINGS.max_nodes
        if result.status.value != "optimal" and not at_budget:
            checker.fail(
                f"{method} stopped at {result.nodes_explored} nodes with status "
                f"{result.status.value}: not at its node budget"
            )


def _check_fleet(checker: Checker, fleet, answers: dict) -> None:
    objectives = {}
    for mode in ("heuristic", "exact"):
        response = answers.get(f"fleet {mode}")
        if response is None:
            continue
        outcome = FleetOutcome.from_dict(response["allocation"], fleet)
        objectives[mode] = outcome.objective
        for allocation in outcome.allocations:
            checker.validate(f"fleet {mode} {allocation.tenant_id}", allocation.outcome)
    if len(objectives) == 2 and objectives["exact"] > objectives["heuristic"] * (1 + OBJECTIVE_TOLERANCE) + OBJECTIVE_TOLERANCE:
        checker.fail(f"exact fleet objective {objectives['exact']} above heuristic {objectives['heuristic']}")


def routed_durable(client: ServiceClient, seed: int, seconds: float, sizes: Sizes) -> Run:
    """Router + 2 workers: warm ``/solve`` plus WAL-journaled async batches
    mixing replayed and new problems, each polled to completion."""
    run = Run(Ledger(), Checker(), [])
    keys = [SolveRequest(problem=p) for p in take(problem_stream(seed, "routed-keys"), sizes.routed_keys)]
    for request in keys:
        response = client.solve(request.problem)
        run.checker.answer(response["fingerprint"], request.problem, response["outcome"])
        run.objective_prints.append(response["fingerprint"])
    fresh = problem_stream(seed, "routed-new")
    rng = random.Random(f"{seed}/routed-order")
    answers = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(sizes.routed_sync_per_cycle):
            request = keys[rng.randrange(len(keys))]
            response = run.ledger.call("solve", lambda: client.solve(request.problem))
            if response is not None:
                run.ledger.answer()
                answers.append((request, response))
        batch = rng.sample(keys, sizes.routed_replay) + [
            SolveRequest(problem=p) for p in take(fresh, sizes.routed_new)
        ]
        rng.shuffle(batch)
        _async_call(client, run, batch, timed=True)
    for request, response in answers:
        if response["cache"] == "solver":
            run.checker.fail("a warm routed /solve reached the solver")
        run.checker.answer(response["fingerprint"], request.problem, response["outcome"])
    return run


@dataclass(frozen=True)
class Workload:
    """A closed loop, the topology it runs against, and its cache state.
    Why each workload exists is recorded in ``BENCHMARK.json``."""

    function: Callable[[ServiceClient, int, float, Sizes], Run]
    worker_processes: int
    cache_state: str


WORKLOADS: dict[str, Workload] = {
    "warm-solve": Workload(warm_solve, 1, "warm: key set solved before timing, zero solves while timed"),
    "cold-batch": Workload(cold_batch, 1, "cold: fresh server and data directory"),
    "exact-mix": Workload(exact_mix, 1, "cold: fresh server and data directory, every problem new"),
    "routed-durable": Workload(
        routed_durable, 2, "warm sync keys (warmed before timing); async batches half new (cold)"
    ),
}


def _stretches(samples: list, statistic: Callable[[list], float], minimum: int = 2) -> float:
    """Median over consecutive stretches of at least 100 samples (at most
    ten stretches) of ``statistic(stretch)``: a burst of host noise within
    one stretch then moves the figure no more than any single stretch."""
    count = max(1, min(10, len(samples) // 100))
    size = len(samples) // count
    if size < minimum:
        return math.nan
    return statistics.median(statistic(samples[i * size : (i + 1) * size]) for i in range(count))


def _throughput(calls: list) -> float:
    seconds = sum(elapsed for elapsed, _ in calls)
    return sum(requests for _, requests in calls) / seconds if seconds else 0.0


def end_to_end_metrics(run: Run, setups: list[float], rss_mb: float) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` for every end-to-end metric."""
    ledger = run.ledger
    totals = ledger.totals()
    latencies = ledger.latency_ms
    objective = run.checker.gmean_objective(run.objective_prints)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ok_per_s": (_stretches(ledger.timed, _throughput, minimum=1), ledger.answered),
        "p50_ms": (_stretches(latencies, lambda part: statistics.quantiles(part, n=10)[4]), len(latencies)),
        "p90_ms": (_stretches(latencies, lambda part: statistics.quantiles(part, n=10)[8]), len(latencies)),
        "ack_p50_ms": (statistics.median(ledger.ack_ms) if ledger.ack_ms else math.nan, len(ledger.ack_ms)),
        "ok_share": (totals["succeeded"] / totals["attempted"] if totals["attempted"] else 0.0, totals["attempted"]),
        "obj_gmean": (objective, len(dict.fromkeys(run.objective_prints))),
        "rss_peak_mb": (rss_mb, 1),
    }
