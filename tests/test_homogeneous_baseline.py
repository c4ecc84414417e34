"""The heterogeneity refactor must leave homogeneous behaviour untouched.

``benchmarks/results/homogeneous_baseline.json`` was recorded with the
pre-refactor code (see ``benchmarks/record_homogeneous_baseline.py``): request
fingerprints, allocations and objectives of every runtime-comparison case
study across a band of resource constraints and all three solve methods.
This suite replays those solves and asserts byte-identical fingerprints and
identical allocations/objectives -- a platform with one device class must be
indistinguishable from the legacy homogeneous model at every layer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.memo import clear_all


@pytest.fixture(autouse=True)
def _pin_scipy_backend(monkeypatch):
    """The baseline was recorded through scipy's linprog; pin the LP backend
    (per test, not process-wide) so hosts with highspy -- whose optimal
    vertices may legally differ -- replay the same arithmetic."""
    monkeypatch.setenv("REPRO_LP_BACKEND", "scipy")


@pytest.fixture(scope="module", autouse=True)
def _cold_shared_caches():
    """Drop solver caches warmed by earlier tests (possibly through another
    LP backend) so the replay starts from the recorder's cold state."""
    clear_all()

from repro.core.exact import ExactSettings
from repro.core.solvers import solve
from repro.reporting.experiments import case_study
from repro.service.canonical import fingerprint

BASELINE_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "results"
    / "homogeneous_baseline.json"
)

BASELINE = json.loads(BASELINE_PATH.read_text())
EXACT_SETTINGS = ExactSettings(
    max_nodes=int(BASELINE["exact_settings"]["max_nodes"]),
    time_limit_seconds=float(BASELINE["exact_settings"]["time_limit_seconds"]),
)

_CASE_IDS = [
    f"{entry['case']}@{entry['constraint']:g}-{entry['method']}"
    for entry in BASELINE["entries"]
]


@pytest.fixture(scope="module")
def problems() -> dict:
    cache: dict = {}
    for entry in BASELINE["entries"]:
        key = (entry["case"], entry["constraint"])
        if key not in cache:
            cache[key] = case_study(entry["case"], resource_limit_percent=entry["constraint"])
    return cache


@pytest.mark.parametrize("entry", BASELINE["entries"], ids=_CASE_IDS)
def test_fingerprint_unchanged(entry, problems):
    problem = problems[(entry["case"], entry["constraint"])]
    assert (
        fingerprint(problem, entry["method"], exact_settings=EXACT_SETTINGS)
        == entry["fingerprint"]
    )


@pytest.mark.parametrize("entry", BASELINE["entries"], ids=_CASE_IDS)
def test_solve_unchanged(entry, problems):
    problem = problems[(entry["case"], entry["constraint"])]
    outcome = solve(problem, method=entry["method"], exact_settings=EXACT_SETTINGS)
    assert outcome.status.value == entry["status"]
    if entry["counts"] is None:
        assert outcome.solution is None
        return
    assert outcome.solution is not None
    assert outcome.objective == entry["objective"]
    counts = {name: list(values) for name, values in outcome.solution.counts.items()}
    assert counts == entry["counts"]
