"""One envelope schema for every benchmark JSON artifact.

Every ``bench_*`` module that persists machine-readable results wraps its
payload in the same envelope via :func:`write_artifact`::

    {
      "schema": "repro-bench/1",
      "name": "bench_many_paths",
      "environment": {
        "git_sha": "...",          # null outside a git checkout
        "python": "3.11.9",
        "numpy": "1.26.4",
        "hostname": "...",
        "platform": "Linux-...",
        "timestamp": "2026-08-08T12:00:00+00:00"
      },
      "data": { ...benchmark-specific payload, unchanged... }
    }

so downstream tooling (CI artifact diffing, aggregation of
``benchmarks/results/``) can
identify any result file without per-benchmark knowledge.  Artifacts written
during a pytest session are registered in :data:`WRITTEN_ARTIFACTS`;
``benchmarks/conftest.py`` re-validates each one at session teardown, which
catches writers that bypass the envelope or emit unreadable JSON.
"""

from __future__ import annotations

import json
import pathlib
import platform
import socket
import subprocess
from datetime import datetime, timezone

import numpy

SCHEMA = "repro-bench/1"

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Paths written through :func:`write_artifact` in this process, in order.
WRITTEN_ARTIFACTS: list[pathlib.Path] = []

_ENVELOPE_KEYS = ("schema", "name", "environment", "data")
_ENVIRONMENT_KEYS = ("git_sha", "python", "numpy", "hostname", "platform", "timestamp")


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment() -> dict:
    """The reproducibility stamp shared by every artifact."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def make_artifact(name: str, data: dict) -> dict:
    """Wrap one benchmark payload in the ``repro-bench/1`` envelope."""
    return {
        "schema": SCHEMA,
        "name": name,
        "environment": environment(),
        "data": data,
    }


def write_artifact(name: str, data: dict, directory: pathlib.Path | None = None) -> pathlib.Path:
    """Write ``data`` as ``<directory>/<name>.json`` under the envelope.

    Returns the written path and registers it in :data:`WRITTEN_ARTIFACTS`
    so the session-scoped validator in ``conftest.py`` can audit it.
    """
    directory = RESULTS_DIR if directory is None else directory
    directory.mkdir(exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(make_artifact(name, data), indent=2, sort_keys=False) + "\n")
    WRITTEN_ARTIFACTS.append(path)
    return path


def validate_artifact(doc: dict, *, name: str | None = None) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed envelope."""
    if not isinstance(doc, dict):
        raise ValueError(f"artifact is not a JSON object: {type(doc).__name__}")
    missing = [key for key in _ENVELOPE_KEYS if key not in doc]
    if missing:
        raise ValueError(f"artifact is missing envelope keys: {missing}")
    if doc["schema"] != SCHEMA:
        raise ValueError(f"unknown artifact schema {doc['schema']!r}; expected {SCHEMA!r}")
    if name is not None and doc["name"] != name:
        raise ValueError(f"artifact name {doc['name']!r} does not match file name {name!r}")
    env = doc["environment"]
    if not isinstance(env, dict):
        raise ValueError("artifact environment is not a JSON object")
    missing = [key for key in _ENVIRONMENT_KEYS if key not in env]
    if missing:
        raise ValueError(f"artifact environment is missing keys: {missing}")
    if env["python"] is None or env["numpy"] is None:
        raise ValueError("artifact environment must record python and numpy versions")
    if not isinstance(doc["data"], dict):
        raise ValueError("artifact data is not a JSON object")


def validate_path(path: pathlib.Path) -> None:
    """Load ``path`` and validate its envelope (name must match the stem)."""
    doc = json.loads(path.read_text())
    validate_artifact(doc, name=path.stem)
