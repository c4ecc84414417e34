"""Keep-alive HTTP on every hop: client -> server and client -> router -> worker.

The contracts here are counters and same-run ratios, never host-absolute
seconds:

* pooled calls reuse one connection (``repro_http_connections_total``);
* a reused connection answers no slower than a fresh one -- the Nagle /
  delayed-ACK stall of a two-write response on a reused connection cost
  ~40 ms per request against ~2 ms fresh;
* every response path leaves the connection at a request boundary (the
  declared body is read, or the connection closes);
* once a server drains, an already-open connection never reaches the job
  queue, WAL or store again.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core.problem import AllocationProblem
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.service import (
    AllocationService,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    SolveRequest,
    WorkerPool,
    WorkerSpec,
    request_to_dict,
    start_server,
)
from repro.service.client import ConnectionPool
from repro.service.router import RouterService, start_router
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline


def _request(index: int) -> SolveRequest:
    pipeline = Pipeline(
        name=f"transport{index}",
        kernels=[
            Kernel("A", ResourceVector(bram=10.0 + index, dsp=20.0), bandwidth=5.0, wcet_ms=10.0),
            Kernel("B", ResourceVector(bram=5.0, dsp=10.0 + index), bandwidth=2.0, wcet_ms=4.0),
            Kernel("C", ResourceVector(bram=2.0, dsp=30.0), bandwidth=3.0, wcet_ms=12.0),
        ],
    )
    problem = AllocationProblem(
        pipeline=pipeline, platform=aws_f1(num_fpgas=2, resource_limit_percent=70.0)
    )
    return SolveRequest(problem=problem)


REQUESTS = [_request(index) for index in range(8)]


def _body(request: SolveRequest, **extra) -> bytes:
    return json.dumps({**extra, **request_to_dict(request)}).encode("utf-8")


def _async_body(request: SolveRequest) -> bytes:
    return json.dumps({"mode": "async", "requests": [request_to_dict(request)]}).encode()


def _connections(metrics_text: str, worker: str | None = None) -> float:
    """``repro_http_connections_total`` from a (possibly merged) exposition."""
    label = "" if worker is None else f'{{worker="{worker}"}}'
    for line in metrics_text.splitlines():
        if line.startswith(f"repro_http_connections_total{label} "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"no connection counter for worker={worker!r}")


def _exchange(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: dict | None = None,
) -> tuple[http.client.HTTPResponse, bytes]:
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    return response, response.read()


def _fresh_post(address: tuple[str, int], path: str, body: bytes) -> None:
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        response, _ = _exchange(connection, "POST", path, body)
    finally:
        connection.close()
    assert response.status == 200


def _keepalive_not_slower(address: tuple[str, int], body: bytes, rounds: int = 30) -> None:
    """Median of ``rounds`` keep-alive ``/solve`` calls <= median of as many
    fresh-connection calls, interleaved in one run."""
    pool = ConnectionPool(timeout_seconds=30.0)
    netloc = f"{address[0]}:{address[1]}"
    pool.request(netloc, "POST", "/solve", body)  # open the kept connection
    kept: list[float] = []
    fresh: list[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        response, _ = pool.request(netloc, "POST", "/solve", body)
        kept.append(time.perf_counter() - start)
        assert response.status == 200
        start = time.perf_counter()
        _fresh_post(address, "/solve", body)
        fresh.append(time.perf_counter() - start)
    pool.close()
    assert statistics.median(kept) <= statistics.median(fresh), (
        f"keep-alive {statistics.median(kept) * 1e3:.2f} ms vs "
        f"fresh {statistics.median(fresh) * 1e3:.2f} ms"
    )


def _assert_bad_length_closes(address: tuple[str, int], path: str) -> None:
    """A non-integer or negative Content-Length is a 400 that closes the
    connection; the next request on the same client answers normally."""
    for length in ("twelve", "-1"):
        connection = http.client.HTTPConnection(*address, timeout=10)
        try:
            response, data = _exchange(
                connection, "POST", path, b"{}", {"Content-Length": length}
            )
            assert response.status == 400
            assert "error" in json.loads(data)
            assert response.getheader("Connection") == "close"
            response, data = _exchange(connection, "GET", "/health")
            assert response.status == 200
            assert json.loads(data)["status"] == "ok"
        finally:
            connection.close()


def _assert_drained_connection_refuses(address: tuple[str, int], drain) -> None:
    """Open a keep-alive connection, start the drain, submit on it: the
    answer is a 503 that closes the connection, or a closed connection."""
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        response, _ = _exchange(connection, "GET", "/health")
        assert response.status == 200
        drain()
        try:
            response, data = _exchange(
                connection, "POST", "/solve_batch", _async_body(REQUESTS[0])
            )
        except (ConnectionError, http.client.HTTPException):
            return
        assert response.status == 503, data
        assert response.getheader("Retry-After") == "1"
        assert response.getheader("Connection") == "close"
        assert "error" in json.loads(data)
    finally:
        connection.close()


# --------------------------------------------------------------------------- #
# Client -> single server
# --------------------------------------------------------------------------- #
@pytest.fixture
def server(tmp_path):
    service = AllocationService(wal=tmp_path / "wal")
    server, thread = start_server(service)
    try:
        yield server, thread, service
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        service.close()


class TestSingleServer:
    def test_fifty_client_calls_open_one_connection(self, server):
        http_server, _, _ = server
        with ServiceClient(http_server.url) as client:
            for index in range(50):
                request = REQUESTS[index % len(REQUESTS)]
                if index % 5 == 4:
                    client.health()
                else:
                    client.solve(request.problem)
            assert _connections(client.metrics()) == 1

    def test_keepalive_is_not_slower_than_fresh_connections(self, server):
        http_server, _, _ = server
        body = _body(REQUESTS[0])
        _fresh_post(http_server.server_address, "/solve", body)  # warm the store
        _keepalive_not_slower(http_server.server_address, body)

    def test_bad_content_length_closes_the_connection(self, server):
        http_server, _, _ = server
        _assert_bad_length_closes(http_server.server_address, "/solve")

    def test_unknown_post_keeps_the_connection_usable(self, server):
        http_server, _, _ = server
        connection = http.client.HTTPConnection(*http_server.server_address, timeout=10)
        try:
            response, _ = _exchange(connection, "POST", "/nope", b'{"x": 1}')
            assert response.status == 404
            socket_before = connection.sock
            response, _ = _exchange(connection, "GET", "/health")
            assert response.status == 200
            assert connection.sock is socket_before
        finally:
            connection.close()

    def test_drain_refuses_requests_on_open_connections(self, server):
        http_server, thread, service = server

        def drain() -> None:
            http_server.shutdown()
            thread.join(timeout=10)

        _assert_drained_connection_refuses(http_server.server_address, drain)
        assert service.jobs.stats()["submitted"] == 0
        assert service.wal.stats()["appends"] == 0

    def test_close_releases_idle_connections_and_stays_usable(self, server):
        http_server, _, _ = server
        client = ServiceClient(http_server.url)
        client.health()
        client.close()
        assert client.health()["status"] == "ok"
        client.close()
        assert _connections(ServiceClient(http_server.url).metrics()) == 3


# --------------------------------------------------------------------------- #
# The pooled transport on its own
# --------------------------------------------------------------------------- #
class _RudeHandler(BaseHTTPRequestHandler):
    """Answers ``GET`` with a keep-alive response, then drops the socket
    without saying so; ``/truncated`` stops halfway through the body."""

    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        with self.server.lock:
            self.server.requests += 1
        body = b'{"status": "ok"}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        declared = len(body) * 2 if self.path == "/truncated" else len(body)
        self.send_header("Content-Length", str(declared))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


@pytest.fixture
def rude_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RudeHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.connections = 0
    server.requests = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


class TestConnectionPool:
    def test_stale_reused_connection_is_retried_once_on_a_fresh_socket(self, rude_server):
        client = ServiceClient(
            f"http://127.0.0.1:{rude_server.server_address[1]}",
            retry_policy=RetryPolicy(retries=0),
        )
        for _ in range(3):
            assert client.health() == {"status": "ok"}
        assert rude_server.requests == 3
        assert rude_server.connections == 3
        assert client.retry_stats["attempts"] == 3
        assert client.retry_stats["connection_errors"] == 0

    def test_failure_after_response_bytes_is_not_resent(self, rude_server):
        client = ServiceClient(
            f"http://127.0.0.1:{rude_server.server_address[1]}",
            retry_policy=RetryPolicy(retries=0),
        )
        with pytest.raises(ServiceError, match="cannot reach"):
            client._request("/truncated")
        assert rude_server.requests == 1
        assert client.retry_stats["connection_errors"] == 1

    def test_shared_by_threads(self, server):
        http_server, _, _ = server
        pool = ConnectionPool(timeout_seconds=30.0)
        netloc = f"127.0.0.1:{http_server.server_address[1]}"
        statuses: list[int] = []

        def call() -> None:
            for _ in range(10):
                response, _ = pool.request(netloc, "GET", "/health")
                statuses.append(response.status)

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        pool.close()
        assert statuses == [200] * 40
        with ServiceClient(http_server.url) as client:
            # At most one connection per concurrent caller, plus this scrape's.
            assert _connections(client.metrics()) <= 5


# --------------------------------------------------------------------------- #
# Client -> router -> worker
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workers(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("transport-pool")
    pool = WorkerPool(2, str(data_dir), spec=WorkerSpec(group=0, data_dir=str(data_dir)))
    pool.start()
    try:
        yield pool
    finally:
        pool.close()


@pytest.fixture
def routed(workers):
    router = RouterService(workers, own_pool=False)
    server, thread = start_router(router, "127.0.0.1", 0)
    try:
        yield server, thread, router
    finally:
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()
        router.close()


class TestRouter:
    def test_fifty_routed_solves_open_one_connection_per_worker(self, routed):
        server, _, router = routed
        with ServiceClient(server.url) as client:
            before = client.metrics()
            for index in range(50):
                client.solve(REQUESTS[index % len(REQUESTS)].problem)
            after = client.metrics()
        owners = {router.group_of(request.fingerprint()) for request in REQUESTS}
        assert owners == {0, 1}  # the calls reached both workers
        for group in (0, 1):
            opened = _connections(after, f"g{group}") - _connections(before, f"g{group}")
            assert opened <= 1, f"worker g{group} accepted {opened} connections"
        assert _connections(after, "router") == 1

    def test_repeated_solve_body_routes_from_the_raw_body_memo(self, routed):
        server, _, router = routed
        body = _body(REQUESTS[1])
        address = server.server_address
        _fresh_post(address, "/solve", body)
        hits = router._memo.hits
        _fresh_post(address, "/solve", body)
        assert router._memo.hits == hits + 1
        assert body in router._memo.keys()

    def test_keepalive_is_not_slower_than_fresh_connections(self, routed):
        server, _, _ = routed
        body = _body(REQUESTS[2])
        _fresh_post(server.server_address, "/solve", body)  # warm the owner's store
        _keepalive_not_slower(server.server_address, body)

    def test_bad_content_length_closes_the_connection(self, routed):
        server, _, _ = routed
        _assert_bad_length_closes(server.server_address, "/solve")
        _assert_bad_length_closes(server.server_address, "/solve_batch")

    def test_unknown_post_reads_its_body(self, routed):
        server, _, _ = routed
        connection = http.client.HTTPConnection(*server.server_address, timeout=10)
        try:
            response, data = _exchange(connection, "POST", "/nope", b'{"x": 1}')
            assert response.status == 404
            assert "unknown endpoint" in json.loads(data)["error"]
            socket_before = connection.sock
            response, data = _exchange(connection, "GET", "/health")
            assert response.status == 200
            assert json.loads(data)["status"] == "ok"
            assert connection.sock is socket_before
        finally:
            connection.close()

    def test_drain_refuses_requests_on_open_connections(self, routed):
        server, thread, router = routed

        def drain() -> None:
            server.shutdown()
            thread.join(timeout=30)

        _assert_drained_connection_refuses(server.server_address, drain)
        assert router.stats()["router"]["batches"] == 0
