"""Small stdlib HTTP client for the allocation service.

Mirrors the server's endpoints.  Problems and settings are serialised with
the same workload serialization layer the server parses with, and the
returned outcome documents can be re-bound to local problem objects::

    client = ServiceClient("http://127.0.0.1:8000")
    response = client.solve(problem)                 # raw JSON document
    outcome = client.solve_outcome(problem)          # bound SolveOutcome

Retry & backoff
---------------
Transient failures are retried with capped exponential backoff plus
deterministic jitter (:class:`RetryPolicy`): 429 (queue full) and 503
(overload shedding) honour the server's ``Retry-After`` hint, and
connection errors -- a restarting server -- are retried the same way, so a
``wait_for_job`` poll loop rides straight through a crash/recovery cycle.
Retrying is safe because the service is idempotent by fingerprint: a solve
re-sent after an ambiguous failure dedupes onto the cached outcome instead
of redoing work.  Everything non-transient (4xx validation errors, 500s)
still surfaces immediately.  Per-client retry counters live in
:attr:`ServiceClient.retry_stats`.

Below the retry policy, calls reuse pooled keep-alive connections
(:class:`ConnectionPool`, shared with the router's worker hop).  A pooled
connection the server dropped while it was idle is replaced by a fresh one
once, inside the same attempt; a server that cannot be reached at all
counts as a connection error.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence
from urllib.parse import urlsplit

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.problem import AllocationProblem
from ..core.solution import SolveOutcome
from .batch import SolveRequest, request_to_dict

__all__ = [
    "ConnectionPool",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "request_to_dict",  # re-exported; lives in .batch since the WAL journals it
]


class ServiceError(RuntimeError):
    """Raised when the service answers with an error document or bad status.

    ``status`` carries the HTTP status code when one was received (``None``
    for connection-level failures); ``retry_after_seconds`` echoes the
    server's ``Retry-After`` hint on 429/503 answers.
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        retry_after_seconds: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after_seconds = retry_after_seconds


#: HTTP statuses that signal "try again later", never "you are wrong".
RETRYABLE_STATUSES = (429, 503)

#: Failures that mean "the server is unreachable or died mid-request" -- all
#: retryable.  A timeout is not among them: it propagates unretried.
CONNECTION_ERRORS = (http.client.HTTPException, OSError)

#: How a reused keep-alive connection fails when the server closed it while
#: it sat idle (``RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempt ``n`` (0-based) sleeps ``min(cap, base * 2**n)`` seconds,
    stretched by up to ``jitter`` (a fraction) drawn from a seeded RNG,
    and never less than the server's ``Retry-After`` (itself capped by
    ``retry_after_cap_seconds`` so a confused server cannot park a client
    for minutes).  ``retries=0`` disables retrying entirely.
    """

    retries: int = 3
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 5.0
    retry_after_cap_seconds: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_seconds <= 0 or self.backoff_cap_seconds <= 0:
            raise ValueError("backoff timings must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_seconds(
        self, attempt: int, retry_after: float | None, rng: random.Random
    ) -> float:
        delay = min(self.backoff_cap_seconds, self.backoff_base_seconds * 2.0**attempt)
        if retry_after is not None:
            delay = max(delay, min(retry_after, self.retry_after_cap_seconds))
        return delay * (1.0 + self.jitter * rng.random())


class _Retryable(Exception):
    """Internal transport signal: wraps a ServiceError worth retrying."""

    def __init__(self, error: ServiceError, reason: str):
        super().__init__(str(error))
        self.error = error
        self.reason = reason  # "429", "503" or "connection"


def _parse_retry_after(headers: Any) -> float | None:
    value = headers.get("Retry-After") if headers is not None else None
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except (TypeError, ValueError):
        return None


def _error_message(response: http.client.HTTPResponse, data: bytes) -> str:
    """The ``error`` field of an error document, else the status line."""
    try:
        return str(json.loads(data.decode("utf-8"))["error"])
    except (ValueError, KeyError, TypeError):
        return f"HTTP Error {response.status}: {response.reason}"


class ConnectionPool:
    """Keep-alive HTTP/1.1 connections, pooled per ``host:port``.

    Idle connections wait under a lock until a thread checks one out, so
    any number of threads may share one pool; a connection carries one
    request at a time.  ``http.client`` sets ``TCP_NODELAY`` and sends a
    request's headers and body in one write, so a reused connection meets
    no Nagle / delayed-ACK stall.

    A reused connection may have been closed by the server while it sat
    idle (a restart or a drain).  If it fails before any response byte
    arrives, the request is sent once more on a fresh socket.  Every other
    failure -- a fresh connection that cannot connect, a reset mid-answer,
    a timeout -- is raised to the caller.
    """

    def __init__(self, timeout_seconds: float):
        self.timeout_seconds = timeout_seconds
        self._idle: dict[str, list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()

    def request(
        self, netloc: str, method: str, path: str, body: bytes | None = None
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One round trip to ``netloc``; returns the response and its body."""
        headers = {"Content-Type": "application/json"} if body else {}

        def exchange(connection: http.client.HTTPConnection) -> http.client.HTTPResponse:
            connection.request(method, path, body=body, headers=headers)
            return connection.getresponse()

        with self._lock:
            idle = self._idle.get(netloc)
            connection = idle.pop() if idle else None
        try:
            if connection is not None:
                try:
                    response = exchange(connection)
                except _STALE_CONNECTION:
                    connection.close()
                    connection = None
            if connection is None:
                connection = http.client.HTTPConnection(netloc, timeout=self.timeout_seconds)
                response = exchange(connection)
            data = response.read()
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.setdefault(netloc, []).append(connection)
        return response, data

    def close(self) -> None:
        """Close every idle connection (the pool stays usable)."""
        with self._lock:
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
        for connection in idle:
            connection.close()


class ServiceClient:
    """Talk to a running allocation service over HTTP.

    Calls reuse keep-alive connections (:class:`ConnectionPool`);
    :meth:`close` (or a ``with`` block) releases the idle sockets.
    """

    def __init__(
        self,
        base_url: str,
        timeout_seconds: float = 60.0,
        retry_policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.netloc:
            raise ValueError(f"expected an http://host:port URL, got {base_url!r}")
        self._netloc = parts.netloc
        self._prefix = parts.path
        self.timeout_seconds = timeout_seconds
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._sleep = sleep
        self._rng = random.Random(self.retry_policy.seed)
        self._pool = ConnectionPool(timeout_seconds)
        #: Cumulative transport retry counters (read by the load generator).
        self.retry_stats: dict[str, float] = {
            "attempts": 0,
            "retries": 0,
            "rejected_429": 0,
            "rejected_503": 0,
            "connection_errors": 0,
            "backoff_seconds": 0.0,
        }

    def close(self) -> None:
        """Close the idle keep-alive connections."""
        self._pool.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _with_retries(self, attempt_once: Callable[[], Any]) -> Any:
        """Run one transport attempt under the retry policy."""
        attempt = 0
        while True:
            self.retry_stats["attempts"] += 1
            try:
                return attempt_once()
            except _Retryable as failure:
                key = {
                    "429": "rejected_429",
                    "503": "rejected_503",
                }.get(failure.reason, "connection_errors")
                self.retry_stats[key] += 1
                if attempt >= self.retry_policy.retries:
                    raise failure.error from failure.__cause__
                delay = self.retry_policy.delay_seconds(
                    attempt, failure.error.retry_after_seconds, self._rng
                )
                self.retry_stats["retries"] += 1
                self.retry_stats["backoff_seconds"] += delay
                self._sleep(delay)
                attempt += 1

    def _call(
        self,
        path: str,
        payload: Mapping[str, Any] | None = None,
        method: str | None = None,
    ) -> bytes:
        """Body of a successful answer; errors become :class:`ServiceError`."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        method = method or ("POST" if body is not None else "GET")
        url = f"{self.base_url}{path}"

        def attempt_once() -> bytes:
            try:
                response, data = self._pool.request(
                    self._netloc, method, self._prefix + path, body
                )
            except TimeoutError:
                raise  # the server may still be working on it: not retried
            except CONNECTION_ERRORS as error:
                raise _Retryable(
                    ServiceError(f"cannot reach {url}: {error}"), "connection"
                ) from error
            if response.status < 400:
                return data
            error = ServiceError(
                f"{path}: {_error_message(response, data)}",
                status=response.status,
                retry_after_seconds=_parse_retry_after(response.headers),
            )
            if response.status in RETRYABLE_STATUSES:
                raise _Retryable(error, str(response.status))
            raise error

        return self._with_retries(attempt_once)

    def _request(
        self,
        path: str,
        payload: Mapping[str, Any] | None = None,
        method: str | None = None,
    ) -> dict[str, Any]:
        document = json.loads(self._call(path, payload, method).decode("utf-8"))
        if isinstance(document, Mapping) and "error" in document:
            raise ServiceError(str(document["error"]))
        return document

    def _request_text(self, path: str) -> str:
        """GET a non-JSON endpoint (the Prometheus ``/metrics`` text)."""
        return self._call(path).decode("utf-8")

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: AllocationProblem,
        method: str = "gp+a",
        heuristic_settings: HeuristicSettings | None = None,
        exact_settings: ExactSettings | None = None,
    ) -> dict[str, Any]:
        """POST /solve; returns the raw response document."""
        request = SolveRequest(
            problem=problem,
            method=method,
            heuristic_settings=heuristic_settings,
            exact_settings=exact_settings,
        )
        return self._request("/solve", request_to_dict(request))

    def solve_outcome(
        self,
        problem: AllocationProblem,
        method: str = "gp+a",
        heuristic_settings: HeuristicSettings | None = None,
        exact_settings: ExactSettings | None = None,
    ) -> SolveOutcome:
        """POST /solve and bind the returned outcome to ``problem``."""
        response = self.solve(problem, method, heuristic_settings, exact_settings)
        return SolveOutcome.from_dict(response["outcome"], problem=problem)

    def solve_batch(self, requests: Sequence[SolveRequest]) -> dict[str, Any]:
        """POST /solve_batch; returns the raw response document."""
        payload = {"requests": [request_to_dict(request) for request in requests]}
        return self._request("/solve_batch", payload)

    # ------------------------------------------------------------------ #
    # Async batches
    # ------------------------------------------------------------------ #
    def solve_batch_async(self, requests: Sequence[SolveRequest]) -> dict[str, Any]:
        """POST /solve_batch with ``mode=async``; returns the queued job
        document (poll :meth:`job` with its ``job_id``)."""
        payload = {
            "mode": "async",
            "requests": [request_to_dict(request) for request in requests],
        }
        return self._request("/solve_batch", payload)

    def job(self, job_id: str) -> dict[str, Any]:
        """GET /jobs/<id>; raises :class:`ServiceError` for unknown ids."""
        return self._request(f"/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        """GET /jobs; summaries of every retained async job."""
        return self._request("/jobs")["jobs"]

    def wait_for_job(
        self,
        job_id: str,
        timeout_seconds: float = 60.0,
        poll_seconds: float = 0.05,
    ) -> dict[str, Any]:
        """Poll ``/jobs/<id>`` until the job is ``done`` or ``failed``."""
        deadline = time.monotonic() + timeout_seconds
        while True:
            document = self.job(job_id)
            if document["status"] in ("done", "failed"):
                return document
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {document['status']} after {timeout_seconds} s"
                )
            time.sleep(poll_seconds)

    def solve_batch_async_outcomes(
        self,
        requests: Sequence[SolveRequest],
        timeout_seconds: float = 60.0,
        poll_seconds: float = 0.05,
    ) -> tuple[list[SolveOutcome], dict[str, Any]]:
        """Submit async, poll to completion, bind outcomes to the requests."""
        job_id = self.solve_batch_async(requests)["job_id"]
        document = self.wait_for_job(job_id, timeout_seconds, poll_seconds)
        if document["status"] != "done":
            raise ServiceError(f"job {job_id} failed: {document.get('error', 'unknown')}")
        outcomes = [
            SolveOutcome.from_dict(outcome_document, problem=request.problem)
            for outcome_document, request in zip(document["outcomes"], requests)
        ]
        return outcomes, document["report"]

    def solve_batch_outcomes(
        self, requests: Sequence[SolveRequest]
    ) -> tuple[list[SolveOutcome], dict[str, Any]]:
        """POST /solve_batch and bind each outcome to its request problem."""
        response = self.solve_batch(requests)
        outcomes = [
            SolveOutcome.from_dict(document, problem=request.problem)
            for document, request in zip(response["outcomes"], requests)
        ]
        return outcomes, response["report"]

    # ------------------------------------------------------------------ #
    # Fleet endpoints
    # ------------------------------------------------------------------ #
    def fleet_allocate(
        self, fleet_document: Mapping[str, Any], mode: str = "heuristic"
    ) -> dict[str, Any]:
        """POST /fleet/allocate; ``fleet_document`` is a ``fleet_to_dict``
        wire document.  Returns the raw response (allocation + metadata)."""
        return self._request(
            "/fleet/allocate", {"fleet": dict(fleet_document), "mode": mode}
        )

    def fleet_arrival(
        self, tenant_document: Mapping[str, Any], mode: str = "heuristic"
    ) -> dict[str, Any]:
        """POST /fleet/tenants (tenant arrival + fleet re-carve)."""
        return self._request(
            "/fleet/tenants", {"tenant": dict(tenant_document), "mode": mode}
        )

    def fleet_departure(self, tenant_id: str) -> dict[str, Any]:
        """DELETE /fleet/tenants/<id> (departure + re-carve of the rest)."""
        return self._request(f"/fleet/tenants/{tenant_id}", method="DELETE")

    def health(self) -> dict[str, Any]:
        """GET /health."""
        return self._request("/health")

    def stats(self) -> dict[str, Any]:
        """GET /stats."""
        return self._request("/stats")

    def metrics(self) -> str:
        """GET /metrics; the raw Prometheus text exposition."""
        return self._request_text("/metrics")

    def trace(self, fingerprint: str) -> dict[str, Any]:
        """GET /trace/<fingerprint>; the retained span tree of one solve."""
        return self._request(f"/trace/{fingerprint}")
