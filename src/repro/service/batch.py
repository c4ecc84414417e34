"""Batch solve API: dedupe by fingerprint, fan the rest out, cache results.

``solve_batch`` is the core of the allocation service: given N requests it
performs exactly as many solver invocations as there are *novel* problems --
duplicates collapse onto one fingerprint, cached fingerprints are answered
from the store, and only the remainder is executed (grouped so requests that
share the expensive GP/discretisation work land in the same executor chunk,
reusing the memo caches of :mod:`repro.core.discretize`).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.problem import AllocationProblem
from ..core.solution import SolveOutcome, SolveStatus
from ..core.solvers import METHODS
from ..explore.executor import DEFAULT_EXECUTOR, SolveTask, SweepExecutor, run_solve_task
from ..obs.memo import BoundedMemo
from ..obs.trace import span
from ..workloads.serialization import SerializationError, problem_from_dict, problem_to_dict
from .canonical import canonical_fpga_order
from .canonical import fingerprint as compute_fingerprint
from .canonical import group_key as compute_group_key
from .canonical import outcome_payload_from_canonical, outcome_payload_to_canonical
from .store import ResultStore


def encode_outcome(outcome: SolveOutcome, problem: AllocationProblem) -> str:
    """Serialise an outcome for the result store, in canonical FPGA order.

    Fingerprints of heterogeneous platforms are invariant to the class
    order, so the stored counts must be too; homogeneous payloads are
    byte-identical to a plain ``to_dict`` dump.
    """
    return json.dumps(outcome_payload_to_canonical(outcome.to_dict(), problem))


#: Bounded memo of decoded outcomes.  The store tiers cache *payload
#: strings*; rebinding one to a problem costs a JSON parse plus solution
#: reconstruction, which dominates the warm hit path of large batch
#: replays.  Outcomes are frozen, so one decoded object can answer every
#: request sharing the payload and an equal problem.  Entries keep the
#: payload they were decoded from and only answer byte-identical payloads:
#: two solves of one fingerprint yield semantically equal results but may
#: differ in the wall-clock field, and a warm hit must return exactly what
#: the store holds.
_decode_memo: "BoundedMemo[tuple[str, SolveOutcome]]" = BoundedMemo(4096, name="decode")
#: Drop every memoized decoded outcome (used by tests).
decode_memo_clear = _decode_memo.clear


def decode_outcome(
    payload: str, problem: AllocationProblem, fingerprint: str | None = None
) -> SolveOutcome:
    """Rebind a stored payload to a request's problem (inverting the
    canonical FPGA order for heterogeneous platforms).

    With a ``fingerprint`` the decoded object is memoized: repeat warm hits
    for the same (fingerprint, problem) pair skip the JSON parse entirely.
    """
    key = (fingerprint, problem)
    if fingerprint is not None:
        entry = _decode_memo.get(key)
        if entry is not None and entry[0] == payload:
            return entry[1]
    outcome = SolveOutcome.from_dict(
        outcome_payload_from_canonical(json.loads(payload), problem), problem=problem
    )
    if fingerprint is not None:
        _decode_memo.put(key, (payload, outcome))
    return outcome


def accumulate_counters(target: dict[str, int], source: Mapping[str, Any]) -> None:
    """Sum numeric solver counters into ``target`` (shared by the batch
    report and the service's ``/stats`` aggregate)."""
    for name, value in source.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            target[name] = target.get(name, 0) + int(value)


@dataclass(frozen=True)
class SolveRequest:
    """One allocation request: a problem, a method and optional settings."""

    problem: AllocationProblem
    method: str = "gp+a"
    heuristic_settings: HeuristicSettings | None = None
    exact_settings: ExactSettings | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; options: {METHODS}")

    def fingerprint(self) -> str:
        """Canonical content fingerprint, memoized (the request is frozen)."""
        cached = self.__dict__.get("_cached_fingerprint")
        if cached is None:
            cached = compute_fingerprint(
                self.problem, self.method, self.heuristic_settings, self.exact_settings
            )
            object.__setattr__(self, "_cached_fingerprint", cached)
        return cached

    def group_key(self) -> str:
        cached = self.__dict__.get("_cached_group_key")
        if cached is None:
            cached = compute_group_key(
                self.problem, self.method, self.heuristic_settings, self.exact_settings
            )
            object.__setattr__(self, "_cached_group_key", cached)
        return cached

    def task(self) -> SolveTask:
        return SolveTask(
            problem=self.problem,
            method=self.method,
            heuristic_settings=self.heuristic_settings,
            exact_settings=self.exact_settings,
        )


def _settings_from_dict(cls: type, payload: Mapping[str, Any] | None, label: str):
    """Build a settings dataclass from a JSON mapping, rejecting unknown keys."""
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise SerializationError(f"{label} must be a JSON object")
    known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(payload) - known
    if unknown:
        raise SerializationError(f"unknown {label} fields: {sorted(unknown)}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as error:
        raise SerializationError(f"invalid {label}: {error}") from error


def request_to_dict(request: SolveRequest) -> dict[str, Any]:
    """Serialise a :class:`SolveRequest` into the service wire format (the
    inverse of :func:`request_from_dict`; also the WAL journal format)."""
    payload: dict[str, Any] = {
        "problem": problem_to_dict(request.problem),
        "method": request.method,
    }
    if request.heuristic_settings is not None:
        payload["heuristic_settings"] = asdict(request.heuristic_settings)
    if request.exact_settings is not None:
        payload["exact_settings"] = asdict(request.exact_settings)
    return payload


def requests_to_documents(requests: Sequence[SolveRequest]) -> list[dict[str, Any]]:
    """Serialise a request list for the WAL journal, sharing the problem
    document across duplicates (batches are duplicate-heavy by design, and
    the problem is by far the largest part of the payload)."""
    problem_memo: dict[int, dict[str, Any]] = {}
    documents: list[dict[str, Any]] = []
    for request in requests:
        problem_document = problem_memo.get(id(request.problem))
        if problem_document is None:
            problem_document = problem_to_dict(request.problem)
            problem_memo[id(request.problem)] = problem_document
        payload: dict[str, Any] = {
            "problem": problem_document,
            "method": request.method,
        }
        if request.heuristic_settings is not None:
            payload["heuristic_settings"] = asdict(request.heuristic_settings)
        if request.exact_settings is not None:
            payload["exact_settings"] = asdict(request.exact_settings)
        documents.append(payload)
    return documents


def request_from_dict(payload: Mapping[str, Any]) -> SolveRequest:
    """Build a :class:`SolveRequest` from a service JSON document."""
    if not isinstance(payload, Mapping):
        raise SerializationError("a solve request must be a JSON object")
    if "problem" not in payload:
        raise SerializationError("a solve request needs a 'problem' section")
    method = str(payload.get("method", "gp+a"))
    if method not in METHODS:
        raise SerializationError(f"unknown method {method!r}; options: {METHODS}")
    return SolveRequest(
        problem=problem_from_dict(payload["problem"]),
        method=method,
        heuristic_settings=_settings_from_dict(
            HeuristicSettings, payload.get("heuristic_settings"), "heuristic_settings"
        ),
        exact_settings=_settings_from_dict(
            ExactSettings, payload.get("exact_settings"), "exact_settings"
        ),
    )


@dataclass
class BatchReport:
    """Where each answer of one ``solve_batch`` call came from."""

    total: int = 0
    unique: int = 0
    duplicates: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    solves: int = 0
    groups: int = 0
    runtime_seconds: float = 0.0
    fingerprints: list[str] = field(default_factory=list)
    #: Solver work counters (LP solves, packer nodes, memo hits, ...) summed
    #: over the freshly solved requests of the batch -- cached answers add
    #: nothing, so these measure the actual work the batch caused.
    solver_counters: dict[str, int] = field(default_factory=dict)

    def add_solver_counters(self, counters: Mapping[str, Any]) -> None:
        accumulate_counters(self.solver_counters, counters)

    def as_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "unique": self.unique,
            "duplicates": self.duplicates,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "solves": self.solves,
            "groups": self.groups,
            "runtime_seconds": self.runtime_seconds,
            "solver_counters": dict(self.solver_counters),
        }


def solve_batch(
    requests: Sequence[SolveRequest],
    store: ResultStore | None = None,
    executor: SweepExecutor | None = None,
) -> tuple[list[SolveOutcome], BatchReport]:
    """Answer a batch of requests with the minimum number of solves.

    Returns the outcomes in request order plus a :class:`BatchReport` whose
    counters prove the dedupe: ``solves`` equals the number of distinct
    fingerprints that were in no cache tier.  Outcomes of duplicate requests
    are the *same object* (they are semantically one result).

    Cacheable outcomes (everything but ``ERROR``) are written back to the
    store under their request fingerprint.
    """
    start = time.perf_counter()
    executor = executor or DEFAULT_EXECUTOR
    store = store if store is not None else ResultStore()
    request_list = list(requests)

    report = BatchReport(total=len(request_list))
    with span("batch_fingerprint"):
        fingerprints = [request.fingerprint() for request in request_list]
        report.fingerprints = fingerprints

        # First occurrence of every fingerprint defines the canonical request.
        first_of: dict[str, SolveRequest] = {}
        for request, print_ in zip(request_list, fingerprints):
            first_of.setdefault(print_, request)
        report.unique = len(first_of)
        report.duplicates = report.total - report.unique

    # Tier lookups for the unique fingerprints.
    outcomes_by_print: dict[str, SolveOutcome] = {}
    missing: list[tuple[str, SolveRequest]] = []
    with span("batch_lookup"):
        for print_, request in first_of.items():
            lookup = store.get(print_)
            if lookup.hit:
                assert lookup.payload is not None
                outcomes_by_print[print_] = decode_outcome(
                    lookup.payload, request.problem, fingerprint=print_
                )
                if lookup.tier == "memory":
                    report.memory_hits += 1
                else:
                    report.disk_hits += 1
            else:
                missing.append((print_, request))

    # Solve the remainder, grouped so memo-sharing requests are contiguous
    # (the executor chunks tasks in order; one worker keeps a group's GP and
    # discretisation caches warm).
    if missing:
        with span("batch_solve"):
            keyed = sorted(
                ((request.group_key(), print_, request) for print_, request in missing),
                key=lambda item: item[0],
            )
            report.groups = len({key for key, _, _ in keyed})
            tasks = [request.task() for _, _, request in keyed]
            solved = executor.map(run_solve_task, tasks)
            report.solves = len(solved)
            for (_, print_, request), outcome in zip(keyed, solved):
                outcomes_by_print[print_] = outcome
                report.add_solver_counters(outcome.counters)
                if outcome.status is not SolveStatus.ERROR:
                    store.put(print_, encode_outcome(outcome, request.problem))

    report.runtime_seconds = time.perf_counter() - start
    # Duplicate requests share one outcome object -- unless their platform
    # spells the same fleet with the classes in a different order, in which
    # case the counts must be permuted into *that* request's FPGA order
    # (the same canonicalisation the store roundtrip performs).  Platforms
    # with matching canonical FPGA orders (both identity for homogeneous or
    # already-canonical fleets) agree position-by-position on every cap, so
    # the object can be shared outright.
    results: list[SolveOutcome] = []
    for request, print_ in zip(request_list, fingerprints):
        outcome = outcomes_by_print[print_]
        owner = first_of[print_]
        if (
            request is not owner
            and outcome.solution is not None
            and canonical_fpga_order(request.problem.platform)
            != canonical_fpga_order(owner.problem.platform)
        ):
            outcome = decode_outcome(encode_outcome(outcome, owner.problem), request.problem)
        results.append(outcome)
    return results, report
