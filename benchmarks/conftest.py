"""Shared fixtures and reporting helpers for the experiment benches.

Each ``bench_*.py`` module regenerates one experiment of DESIGN.md's
index (F1–F3, E1–E8).  Workloads are cached per session so the many
parameterized benchmarks don't regenerate documents.
"""

from __future__ import annotations

import pytest

from repro.serialize import export_distributed
from repro.workloads import WorkloadSpec, generate

_DOCS: dict[tuple, object] = {}
_SOURCES: dict[tuple, dict[str, str]] = {}


def workload(words: int = 2000, hierarchies: int = 4,
             overlap_density: float = 0.15, seed: int = 2005):
    """Session-cached synthetic document."""
    key = (words, hierarchies, overlap_density, seed)
    if key not in _DOCS:
        _DOCS[key] = generate(
            WorkloadSpec(
                words=words,
                hierarchies=hierarchies,
                overlap_density=overlap_density,
                seed=seed,
            )
        )
    return _DOCS[key]


def workload_sources(words: int = 2000, hierarchies: int = 4,
                     overlap_density: float = 0.15, seed: int = 2005):
    """Session-cached distributed-document sources."""
    key = (words, hierarchies, overlap_density, seed)
    if key not in _SOURCES:
        _SOURCES[key] = export_distributed(
            workload(words, hierarchies, overlap_density, seed)
        )
    return _SOURCES[key]


def paper_row(benchmark, **info) -> None:
    """Attach paper-style row data to the benchmark record (shown in the
    ``--benchmark-columns`` extra info and saved with ``--benchmark-json``)."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


@pytest.fixture(scope="session")
def report_lines():
    """Collector printed at the end of the run (``-s`` to see it live)."""
    lines: list[str] = []
    yield lines
    if lines:
        print("\n" + "\n".join(lines))
