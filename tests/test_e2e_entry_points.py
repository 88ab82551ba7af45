"""The end-to-end benchmark's traced pass can wrap every entry point.

``benchmarks/e2e/spans.py`` names the library callables its traced pass
wraps (``ENTRY_POINTS``) and looks each one up as
``vars(owner)[attr]`` (``Recorder.installed``), so renaming or deleting
one of them breaks the benchmark, not the library's own tests.  This
test imports that module by path, unchanged, and resolves every entry
the same way.  ``SqliteStore.over`` is checked too: the workloads call
it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.storage.sqlite_backend import SqliteStore

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / \
    "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("_e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = _spans_module().ENTRY_POINTS


@pytest.mark.parametrize("point", ENTRY_POINTS,
                         ids=lambda point: point.name)
def test_entry_point_resolves_like_the_recorder(point):
    module = importlib.import_module(point.module)
    owner = getattr(module, point.owner) if point.owner else module
    assert callable(vars(owner)[point.attr])


def test_workloads_shim_is_kept():
    store = SqliteStore()
    try:
        assert SqliteStore.over(store) is store
    finally:
        store.close()
