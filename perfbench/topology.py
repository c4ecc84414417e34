"""Start, probe and stop a real ``repro serve`` topology; keep the host clean.

A benchmark run owns every server process it measures: it refuses to start
next to a stray ``repro serve`` or multiprocessing ``spawn_main`` process,
gives each server a fresh data directory, and after stopping one checks that
neither the server nor any of its pool workers outlived it, because a
leftover process competes for the CPUs of the next run.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service import ServiceClient, ServiceError, ring_of

from inputs import warmup_problem

STARTUP_TIMEOUT_SECONDS = 90.0
STOP_TIMEOUT_SECONDS = 30.0


def _cmdline(pid: int) -> list[str]:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            raw = handle.read()
    except OSError:
        return []
    return [part for part in raw.decode("utf-8", "replace").split("\0") if part]


def _stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of a live process, ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _alive(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _all_pids() -> list[int]:
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]


def _ancestors() -> set[int]:
    pids = {os.getpid()}
    pid = os.getpid()
    while pid > 1:
        stat = _stat(pid)
        if stat is None:
            break
        pid = stat[1]
        pids.add(pid)
    return pids


def _is_server(args: list[str]) -> bool:
    if any("spawn_main" in arg for arg in args):
        return True
    for index, arg in enumerate(args[:-1]):
        if os.path.basename(arg) in ("repro", "repro-fpga") and args[index + 1] == "serve":
            return True
    return False


def stray_processes() -> list[tuple[int, str]]:
    """Live ``repro serve`` / ``spawn_main`` processes that are not this
    process or one of its ancestors."""
    own = _ancestors()
    found = []
    for pid in _all_pids():
        if pid in own or not _alive(pid):
            continue
        args = _cmdline(pid)
        if _is_server(args):
            found.append((pid, " ".join(args)))
    return found


def descendants(root_pid: int) -> list[int]:
    """Every live process below ``root_pid``."""
    children: dict[int, list[int]] = {}
    for pid in _all_pids():
        stat = _stat(pid)
        if stat is not None:
            children.setdefault(stat[1], []).append(pid)
    found, frontier = [], [root_pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Topology:
    """One ``repro serve`` process tree: single-process or router + pool.

    ``start`` returns the set-up time: from spawning the process to a
    healthy response plus one answered warm-up solve per shard group, on
    problems outside every workload's key set, so lazy imports are not
    charged to timed operations.
    """

    def __init__(self, root: Path, workdir: Path, worker_processes: int = 1):
        self.root = root
        self.workdir = workdir
        self.worker_processes = worker_processes
        self.process: subprocess.Popen | None = None
        self.url = ""
        self.worker_pids: list[int] = []

    def start(self) -> float:
        self.workdir.mkdir(parents=True, exist_ok=True)
        data_dir = self.workdir / "data"
        shutil.rmtree(data_dir, ignore_errors=True)
        log_path = self.workdir / "server.log"
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet"]
        if self.worker_processes > 1:
            command += ["--worker-processes", str(self.worker_processes), "--data-dir", str(data_dir)]
        else:
            command += ["--cache-dir", str(data_dir / "cache")]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(self.root / "src")
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=environment, stdout=log, stderr=subprocess.STDOUT
            )
        self.url = self._await_url(log_path, started)
        client = ServiceClient(self.url, timeout_seconds=STARTUP_TIMEOUT_SECONDS)
        while True:
            try:
                client.health()
                break
            except ServiceError:
                if time.perf_counter() - started > STARTUP_TIMEOUT_SECONDS:
                    raise
                time.sleep(0.02)
        owners: set[int] = set()
        for index in range(64):
            response = client.solve(warmup_problem(index))
            owners.add(ring_of(response["fingerprint"], self.worker_processes))
            if len(owners) == self.worker_processes:
                break
        elapsed = time.perf_counter() - started
        if self.worker_processes > 1:
            self.worker_pids = [row["pid"] for row in client.stats()["pool"] if row["pid"]]
        return elapsed

    def _await_url(self, log_path: Path, started: float) -> str:
        assert self.process is not None
        while time.perf_counter() - started < STARTUP_TIMEOUT_SECONDS:
            for line in log_path.read_text(errors="replace").splitlines():
                if " listening on " in line:
                    return line.rsplit(" listening on ", 1)[1].strip()
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(
            f"server did not come up; log:\n{log_path.read_text(errors='replace')[-2000:]}"
        )

    def worker_url(self, group: int) -> str:
        """Direct endpoint of one pool worker (bypassing the router)."""
        for row in ServiceClient(self.url).stats()["pool"]:
            if row["group"] == group:
                return f"http://127.0.0.1:{row['port']}"
        raise KeyError(group)

    def rss_peak_mb(self) -> float:
        assert self.process is not None
        return peak_rss_mb([self.process.pid] + descendants(self.process.pid))

    def stop(self) -> list[str]:
        """Drain the server with SIGTERM; returns hygiene problems found,
        empty when everything exited.  Leftovers of this server's own process
        tree are force-killed; other stray servers are only reported."""
        if self.process is None:
            return []
        problems: list[str] = []
        tree = set(self.worker_pids) | set(descendants(self.process.pid))
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            problems.append(f"server {self.process.pid} ignored SIGTERM")
            self.process.kill()
            self.process.wait()
        deadline = time.perf_counter() + STOP_TIMEOUT_SECONDS
        while any(_alive(pid) for pid in tree) and time.perf_counter() < deadline:
            time.sleep(0.05)
        for pid in tree:
            if _alive(pid):
                problems.append(f"pool worker {pid} outlived its server")
                os.kill(pid, signal.SIGKILL)
        for pid, command in stray_processes():
            problems.append(f"stray process {pid} alive after stop: {command}")
        self.process = None
        return problems
