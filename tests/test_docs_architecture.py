"""Link check for docs/ARCHITECTURE.md (and the README's pointer to it).

The architecture guide names concrete source files, modules, and
identifiers; this check keeps those references real so the guide cannot
silently rot as the codebase moves.  CI runs it alongside the doctest
pass.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ARCHITECTURE = REPO / "docs" / "ARCHITECTURE.md"


def test_architecture_guide_exists():
    assert ARCHITECTURE.is_file(), "docs/ARCHITECTURE.md is missing"


def test_readme_links_the_architecture_guide():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme


def test_every_referenced_path_exists():
    """Every repo-relative path mentioned in the guide must exist."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    referenced = set(re.findall(
        r"(?:src/repro|tests|benchmarks|docs)/[\w./-]+\.(?:py|md)", text
    ))
    assert referenced, "the guide should reference concrete files"
    missing = sorted(path for path in referenced if not (REPO / path).exists())
    assert not missing, f"dangling path references: {missing}"


def test_every_referenced_module_imports():
    """Every ``repro.<pkg>`` dotted module named in the guide must exist."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    modules = set(re.findall(r"\brepro(?:\.\w+)+\b", text))
    assert modules
    src = REPO / "src"
    missing = []
    for module in modules:
        parts = module.split(".")
        # Accept package dirs, modules, or attributes of a module.
        candidates = [
            src / Path(*parts) / "__init__.py",
            src / (Path(*parts).with_suffix(".py")),
            src / Path(*parts[:-1]) / "__init__.py",
            src / (Path(*parts[:-1]).with_suffix(".py")) if len(parts) > 1
            else None,
        ]
        if not any(c is not None and c.exists() for c in candidates):
            missing.append(module)
    assert not missing, f"dangling module references: {missing}"


def test_named_identifiers_are_real():
    """Spot-check identifiers the guide leans on."""
    from repro.core.goddag import GoddagDocument, JOURNAL_LIMIT  # noqa: F401
    from repro.index.manager import IndexManager, PersistDeltas

    assert hasattr(GoddagDocument, "changes_since")
    assert hasattr(GoddagDocument, "speculation")
    assert hasattr(IndexManager, "stats")
    assert hasattr(PersistDeltas, "attrs")
    from repro.xpath import ExtendedXPath
    from repro.xpath.classify import predicate_shape  # noqa: F401

    assert hasattr(ExtendedXPath, "explain")


def test_service_identifiers_are_real():
    """Spot-check the identifiers the Service section leans on."""
    from repro.core.goddag import GoddagDocument
    from repro.service.service import SHARED_SNAPSHOT_LIMIT
    from repro.storage.sqlite_backend import SqliteStore

    assert hasattr(GoddagDocument, "freeze")
    assert hasattr(SqliteStore, "load_snapshot")
    assert SHARED_SNAPSHOT_LIMIT == 32


def _metric_catalog() -> set[str]:
    """Every backticked name in the Metrics section's catalog table."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split("### Metrics", 1)[1].split("\n### ", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if line.startswith("|"):
            names.update(re.findall(r"`([\w.-]+)`", line.split("|")[1]))
    return names


def test_service_metrics_are_in_the_catalog():
    """Every literal ``service.*`` metric the service layer records is
    a row of the catalog table, spelled out in full."""
    source = REPO / "src" / "repro" / "service"
    recorded = {
        name
        for path in source.glob("*.py")
        for name in re.findall(r"[\"'](service\.[\w.-]+)[\"']",
                               path.read_text(encoding="utf-8"))
    }
    assert "service.snapshot_copy" in recorded
    missing = sorted(recorded - _metric_catalog())
    assert not missing, f"service metrics missing from the catalog: {missing}"


def test_streaming_identifiers_are_real():
    """Spot-check the identifiers the Streaming section leans on."""
    import inspect

    from repro.collection.corpus import Corpus
    from repro.sacx import parse_concurrent
    from repro.storage.sqlite_backend import STAGING_PREFIX
    from repro.storage import GoddagStore
    from repro.streaming import (
        EventStream,
        FragmentAssembler,
        LazyDocument,
        count_content_events,
        iterparse,
        stream_save,
    )

    assert STAGING_PREFIX.startswith("__")
    assert "high_water" in inspect.signature(iterparse).parameters
    assert "bases" in inspect.signature(iterparse).parameters
    assert "text_sink" in inspect.signature(EventStream.__init__).parameters
    assert hasattr(FragmentAssembler, "open_frontier")
    assert "chunk_chars" in inspect.signature(parse_concurrent).parameters
    assert callable(count_content_events)
    assert "chunk_elements" in inspect.signature(stream_save).parameters
    assert hasattr(GoddagStore, "save_stream")
    assert hasattr(GoddagStore, "lazy")
    assert hasattr(Corpus, "add_streams")
    for name in ("xpath", "subtree", "text"):
        assert hasattr(LazyDocument, name), name
    from repro.xpath.classify import path_shape  # noqa: F401


def test_observability_identifiers_are_real():
    """Spot-check the identifiers the Observability section leans on."""
    import inspect

    import repro.obs as obs
    from repro.obs.benchjson import BENCH_SCHEMA, compare  # noqa: F401
    from repro.obs.drift import DriftRing
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.stats import STATS_SCHEMA, stats_dict  # noqa: F401
    from repro.obs.trace import SPAN_LIMIT, Tracer

    for name in ("enable", "disable", "report", "tracing", "fallback",
                 "current_tracer"):
        assert callable(getattr(obs, name)), name
    assert obs.STRICT_ENV == "REPRO_OBS_STRICT"
    assert hasattr(Tracer, "export_jsonl") and SPAN_LIMIT == 50_000
    assert hasattr(MetricsRegistry, "snapshot")
    assert DriftRing().capacity == 256
    assert BENCH_SCHEMA == "repro-bench/1"
    assert STATS_SCHEMA == "repro-stats/1"
    # explain() grew the analyze knob the guide documents.
    from repro.xpath import ExtendedXPath

    assert "analyze" in inspect.signature(ExtendedXPath.explain).parameters
