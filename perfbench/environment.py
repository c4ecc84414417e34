"""The environment stamp printed with every benchmark result."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import socket
import subprocess
from pathlib import Path
from typing import Any

import numpy
import scipy

from repro.core.relaxations import AllocationRelaxation
from repro.minlp._packcore import resolve_backend
from repro.reporting.experiments import case_study


def _revision(root: Path) -> str:
    """The git revision, or a digest of ``src/`` when there is no checkout
    history (the benchmark may run from an exported tree)."""
    if (root / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _host_id() -> str:
    for path in ("/etc/machine-id", "/var/lib/dbus/machine-id"):
        try:
            identity = Path(path).read_text().strip()
        except OSError:
            continue
        if identity:
            return hashlib.sha256(identity.encode()).hexdigest()[:12]
    return hashlib.sha256(socket.gethostname().encode()).hexdigest()[:12]


def stamp(root: Path) -> dict[str, Any]:
    """Host, toolchain and selected backends.

    The LP and packer backends are resolved by the repository's own
    selection code in this process, whose environment the servers inherit.
    """
    problem = case_study("alex-16", 70.0)
    relaxation = AllocationRelaxation(problem=problem, weights=problem.weights)
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "highspy": importlib.util.find_spec("highspy") is not None,
        "lp_backend": relaxation.active_lp_backend,
        "packer_backend": resolve_backend(),
        "revision": _revision(root),
        "host_id": _host_id(),
    }
