"""Shared helpers for the benchmark harness.

Every ``bench_table*.py`` / ``bench_figure*.py`` module regenerates one table
or figure of the paper's evaluation section.  Besides timing a representative
piece of real work with pytest-benchmark, each module writes the regenerated
(paper vs. model) table to ``benchmarks/results/<name>.txt`` so the output
survives pytest's output capturing; README's "Paper fidelity" section
summarises how far the model tracks the paper.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session", autouse=True)
def _validate_written_artifacts():
    """Audit every JSON artifact written this session against the envelope.

    Benchmarks persist JSON through :func:`_schema.write_artifact`, which
    registers the path; at session teardown each registered file must load
    and satisfy the ``repro-bench/1`` envelope (schema id, matching name,
    full environment stamp).  A writer that bypasses the envelope or emits
    broken JSON fails the whole session here rather than silently shipping
    an unidentifiable artifact.
    """
    import _schema

    yield
    failures = []
    for path in _schema.WRITTEN_ARTIFACTS:
        try:
            _schema.validate_path(path)
        except Exception as exc:  # noqa: BLE001 - collect all failures
            failures.append(f"{path}: {exc}")
    if failures:
        raise pytest.UsageError(
            "benchmark artifacts failed schema validation:\n" + "\n".join(failures)
        )
