"""Record the homogeneous reference results used by the heterogeneity refactor.

The heterogeneous-platform refactor must not change anything about the
paper's homogeneous case studies: request fingerprints, allocations and
objectives on the runtime-comparison workloads have to stay byte-identical.
This script snapshots those quantities into
``benchmarks/results/homogeneous_baseline.json``;
``tests/test_homogeneous_baseline.py`` replays the same solves and asserts
equality against the recording.

Regenerate (only when an *intentional* behaviour change is being made)::

    PYTHONPATH=src python benchmarks/record_homogeneous_baseline.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.exact import ExactSettings
from repro.core.solvers import solve
from repro.obs.memo import clear_all
from repro.reporting.experiments import case_study
from repro.service.canonical import fingerprint

BASELINE_PATH = Path(__file__).resolve().parent / "results" / "homogeneous_baseline.json"

#: The runtime-comparison grid: every case study at a band of constraints.
CASES = ("alex-16", "alex-32", "vgg-16")
CONSTRAINTS = (61.0, 65.0, 70.0, 75.0, 80.0)
METHODS = ("gp+a", "minlp", "minlp+g")

#: Mirrors ``benchmarks/test_runtime_comparison.py``.
EXACT_SETTINGS = ExactSettings(max_nodes=3, time_limit_seconds=120.0)


def record() -> dict:
    clear_all()
    entries = []
    for case in CASES:
        for constraint in CONSTRAINTS:
            problem = case_study(case, resource_limit_percent=constraint)
            for method in METHODS:
                outcome = solve(problem, method=method, exact_settings=EXACT_SETTINGS)
                entries.append(
                    {
                        "case": case,
                        "constraint": constraint,
                        "method": method,
                        "fingerprint": fingerprint(
                            problem, method, exact_settings=EXACT_SETTINGS
                        ),
                        "status": outcome.status.value,
                        "objective": outcome.objective if outcome.succeeded else None,
                        "counts": (
                            {
                                name: list(values)
                                for name, values in outcome.solution.counts.items()
                            }
                            if outcome.solution is not None
                            else None
                        ),
                    }
                )
    return {"exact_settings": {"max_nodes": 3, "time_limit_seconds": 120.0}, "entries": entries}


if __name__ == "__main__":
    BASELINE_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {BASELINE_PATH}")
