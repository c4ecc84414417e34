#!/usr/bin/env python3
"""Benchmark of the allocation service, end to end and layer by layer.

    python3 perfbench/run.py --workload warm-solve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny, both modes
    python3 perfbench/run.py --layer-table      # rewrite perfbench/results/layers.md

``--trace 0`` starts a fresh ``repro serve`` topology (three times, for the
set-up time), drives the workload's closed loop against it for
``--seconds``, checks every answer and prints the end-to-end metrics.
``--trace 1`` replays the same generated inputs in-process under the
solver's phase spans, times the calls into each service layer from here,
and measures the HTTP-level differences (client, server, router hop) on a
real topology; it prints the per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
lines before it give the environment stamp, the workload's cache state,
calls attempted/succeeded/failed/refused per kind, and each metric with its
unit and sample count.  Run from the repository root; the command refuses
to start while a stray ``repro serve`` or ``spawn_main`` process is alive.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
STRAY_WAIT_SECONDS = 10
WORKLOAD_NAMES = ("warm-solve", "cold-batch", "exact-mix", "routed-durable")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ack_p50_ms": "ms",
    "ok_share": "ratio",
    "obj_gmean": "objective",
    "rss_peak_mb": "MiB",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload at tiny size in both modes and check that "
        "each metric named in BENCHMARK.json is emitted with its unit",
    )
    parser.add_argument(
        "--layer-table", action="store_true",
        help="write perfbench/results/layers.md: ms per request by layer for warm "
        "and cold /solve and batches, single-process and routed",
    )
    args = parser.parse_args(argv)
    if not (args.smoke or args.layer_table) and args.workload is None:
        parser.error("--workload is required (or --smoke / --layer-table)")
    return args


def _print_table(title: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    print(title)
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    for row in (header, *rows):
        print("  " + "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


def measure(name: str, seed: int, seconds: float, sizes, workdir: Path) -> dict:
    """End-to-end run of one workload against a fresh topology."""
    from repro.service import ServiceClient
    from topology import Topology
    from workloads import WORKLOADS, end_to_end_metrics

    workload = WORKLOADS[name]
    setups: list[float] = []
    hygiene: list[str] = []
    topology = None
    try:
        for index in range(sizes.setups):
            topology = Topology(ROOT, workdir / f"server-{index}", workload.worker_processes)
            setups.append(topology.start())
            if index < sizes.setups - 1:
                hygiene += topology.stop()
        run = workload.function(ServiceClient(topology.url), seed, seconds, sizes)
        rss_mb = topology.rss_peak_mb()
    finally:
        if topology is not None:
            hygiene += topology.stop()
    run.checker.validate_all()
    for problem in hygiene:
        run.checker.fail(f"process hygiene: {problem}")
    run.notes["answers_without_allocation"] = run.checker.unsolved
    metrics = end_to_end_metrics(run, setups, rss_mb)
    return {
        "cache_state": workload.cache_state,
        "calls": run.ledger.calls,
        "errors": run.ledger.errors,
        "failures": run.checker.failures,
        "metrics": {key: (value, END_TO_END_UNITS[key], samples) for key, (value, samples) in metrics.items()},
        "notes": run.notes,
    }


@contextlib.contextmanager
def _workdir(label: str) -> Iterator[Path]:
    """A fresh scratch directory inside the checkout, removed afterwards."""
    parent = ROOT / ".perfbench-work"
    path = parent / f"{label}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def execute(name: str, seed: int, seconds: float, trace: int, sizes) -> dict:
    with _workdir(name) as workdir:
        if trace:
            from layers import trace_workload

            return trace_workload(ROOT, name, seed, seconds, sizes, workdir)
        return measure(name, seed, seconds, sizes, workdir)


def report(name: str, seed: int, seconds: float, trace: int, stamp: dict, result: dict) -> dict:
    """Print the human-readable report and return the final JSON object."""
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={trace}")
    print("environment " + json.dumps(stamp, sort_keys=True))
    print(f"cache state: {result['cache_state']}")
    if result["notes"]:
        print("notes " + json.dumps(result["notes"], sort_keys=True))
    calls = result["calls"]
    _print_table(
        "calls:", ("kind", "attempted", "succeeded", "failed", "refused"),
        [(kind, row["attempted"], row["succeeded"], row["failed"], row["refused"]) for kind, row in calls.items()],
    )
    for error in result["errors"]:
        print(f"  error: {error}")
    _print_table(
        "metrics:", ("name", "value", "unit", "samples"),
        [(key, f"{value:.6g}", unit, samples) for key, (value, unit, samples) in result["metrics"].items()],
    )
    failures = result["failures"]
    print("checks: " + ("all passed" if not failures else f"{len(failures)} FAILED"))
    for failure in failures:
        print(f"  check failed: {failure}")
    attempted = sum(row["attempted"] for row in calls.values())
    succeeded = sum(row["succeeded"] for row in calls.values())
    values = {key: value for key, (value, _, _) in result["metrics"].items()}
    correct = not failures and all(math.isfinite(value) for value in values.values())
    return {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": attempted - succeeded,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in result["metrics"].items()},
    }


def smoke(stamp: dict) -> int:
    """Every workload at tiny size, both modes: each metric of
    BENCHMARK.json must be emitted, with its declared unit."""
    from workloads import SMOKE

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {metric["name"]: metric["unit"] for metric in declared["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in declared["per_layer"]},
    }
    problems = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = execute(name, 1, 1.0, trace, SMOKE)
            document = report(name, 1, 1.0, trace, stamp, result)
            emitted = {key: entry["unit"] for key, entry in document["metrics"].items()}
            if emitted != expected[trace]:
                problems.append(f"{name} trace={trace}: emitted {emitted}, declared {expected[trace]}")
            if not document["correct"]:
                problems.append(f"{name} trace={trace}: checks failed")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def write_layer_table(seed: int, stamp: dict) -> int:
    from layers import layer_table

    with _workdir("layer-table") as workdir:
        table = layer_table(ROOT, seed, workdir)
    target = Path(__file__).resolve().parent / "results" / "layers.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(
        "# Layer table\n\n"
        "Milliseconds per request by layer (`python3 perfbench/run.py --layer-table "
        f"--seed {seed}`): 64 unique gp+a problems, batches of 256 requests over them.\n"
        "`client`, `http` and `router` are HTTP-level differences of warm calls "
        "(ServiceClient minus raw http.client; raw minus in-process; routed minus "
        "direct to the owning worker, or minus the single-process server for "
        "batches).  The other columns come from the in-process traced replay; "
        "`solver` includes the batch executor.\n\n"
        f"Environment: `{json.dumps(stamp, sort_keys=True)}`\n\n" + table
    )
    print(table)
    print(f"written to {target}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from environment import stamp as environment_stamp
    from topology import stray_processes

    strays = stray_processes()
    for _ in range(STRAY_WAIT_SECONDS * 10):  # a previous run may still be draining
        if not strays:
            break
        time.sleep(0.1)
        strays = stray_processes()
    if strays:
        for pid, command in strays:
            print(f"perfbench: stray process {pid}: {command}", file=sys.stderr)
        print("perfbench: refusing to start; stop the processes above first", file=sys.stderr)
        return 3
    stamp = environment_stamp(ROOT)
    if args.smoke:
        return smoke(stamp)
    if args.layer_table:
        return write_layer_table(args.seed, stamp)
    from workloads import FULL

    try:
        result = execute(args.workload, args.seed, args.seconds, args.trace, FULL)
    except Exception:
        traceback.print_exc()
        return 1
    document = report(args.workload, args.seed, args.seconds, args.trace, stamp, result)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
