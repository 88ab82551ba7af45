"""Fault injection for the service's storage contention handling.

SQLITE_BUSY is simulated by monkeypatching interior transaction steps
to raise ``sqlite3.OperationalError("database is locked")`` — after
real rows were already written inside the open transaction, so every
assertion exercises genuine rollback, not a no-op failure.  The tests
pin down:

* bounded retry-with-backoff: the exact ``BUSY_RETRY_BASE_S``-doubling
  sleep schedule, the ``storage.busy_retries`` count, and eventual
  success once contention clears;
* clean rollback: a failed attempt leaves the stored rows byte-for-byte
  untouched, and exhausting ``BUSY_RETRY_ATTEMPTS`` raises the typed
  :class:`~repro.errors.StoreBusyError` (with the attempt count) while
  the store still answers from the pre-fault generation;
* conflict-after-retry: when a second writer publishes during the
  backoff window, the retried attempt's in-transaction stamp check
  raises the typed :class:`~repro.errors.WriteConflictError` instead of
  row-patching (corrupting) the other writer's freshly stored index.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import DocumentService
from repro.errors import StoreBusyError, WriteConflictError
from repro.obs.metrics import metrics
from repro.storage.sqlite_backend import (
    BUSY_RETRY_ATTEMPTS,
    BUSY_RETRY_BASE_S,
    SqliteStore,
)
from repro.workloads import WorkloadSpec, generate

from test_index_incremental import _store_rows

SPEC = WorkloadSpec(words=60, hierarchies=2, overlap_density=0.3, seed=91)

BUSY = sqlite3.OperationalError("database is locked")


@pytest.fixture
def service(tmp_path):
    with DocumentService(tmp_path / "svc.db", pool_size=2,
                         lock_timeout_s=5.0) as svc:
        svc.create(generate(SPEC), "doc")
        yield svc


@pytest.fixture
def observed():
    metrics.reset()
    metrics.enable()
    yield metrics
    metrics.disable()
    metrics.reset()


@pytest.fixture
def recorded_sleeps(monkeypatch):
    """Capture (and skip) the backoff sleeps of the busy-retry loop."""
    sleeps: list[float] = []
    import repro.storage.sqlite_backend as backend_module

    monkeypatch.setattr(backend_module.time, "sleep", sleeps.append)
    return sleeps


def _flaky_index_rows(monkeypatch, failures: int) -> dict:
    """Make the in-transaction index-row patch raise SQLITE_BUSY for the
    first ``failures`` calls.  The patch point sits *after* the element
    row deltas were applied inside the open transaction, so each failed
    attempt has dirty rows to roll back."""
    state = {"calls": 0}
    real = SqliteStore._apply_index_delta_rows

    def flaky(self, *args, **kwargs):
        state["calls"] += 1
        if state["calls"] <= failures:
            raise BUSY
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SqliteStore, "_apply_index_delta_rows", flaky)
    return state


def _rows(service) -> dict[str, list]:
    with service.pool.connection() as backend:
        return _store_rows(backend)


def _edit(session) -> None:
    session.editor.insert_markup(
        session.document.hierarchy_names()[0], "seg", 3, 11)


def test_busy_publish_retries_with_bounded_backoff(
        service, observed, recorded_sleeps, monkeypatch):
    state = _flaky_index_rows(monkeypatch, failures=2)
    with service.write_session("doc") as session:
        _edit(session)
    # Two failed attempts, then success on the third.
    assert state["calls"] == 3
    assert recorded_sleeps == [BUSY_RETRY_BASE_S, BUSY_RETRY_BASE_S * 2]
    assert observed.counter("storage.busy_retries") == 2
    # The publish landed whole despite the turbulence.
    with service.read_session("doc") as reader:
        assert reader.generation == session.generation
        assert len(reader.query("//seg")) == 1


def test_busy_exhaustion_raises_typed_error_and_rolls_back(
        service, observed, recorded_sleeps, monkeypatch):
    before = _rows(service)
    generation_before = None
    _flaky_index_rows(monkeypatch, failures=BUSY_RETRY_ATTEMPTS + 1)
    session = service.write_session("doc")
    try:
        generation_before = session.generation
        _edit(session)
        with pytest.raises(StoreBusyError) as exc_info:
            session.publish()
    finally:
        session.close()
    assert exc_info.value.attempts == BUSY_RETRY_ATTEMPTS
    # One sleep per retry (attempts - 1), doubling each time.
    assert recorded_sleeps == [
        BUSY_RETRY_BASE_S * (2 ** n) for n in range(BUSY_RETRY_ATTEMPTS - 1)
    ]
    assert observed.counter("storage.busy_retries") == BUSY_RETRY_ATTEMPTS - 1
    # Clean rollback: the store is byte-for-byte what it was before the
    # failed publish, and still serves the old generation.
    assert _rows(service) == before
    with service.read_session("doc") as reader:
        assert reader.generation == generation_before
        assert len(reader.query("//seg")) == 0


def test_busy_failure_leaves_store_retryable(service, recorded_sleeps,
                                             monkeypatch):
    state = {"contended": True}
    real = SqliteStore._apply_index_delta_rows

    def flaky(self, *args, **kwargs):
        if state["contended"]:
            raise BUSY
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SqliteStore, "_apply_index_delta_rows", flaky)
    session = service.write_session("doc")
    try:
        _edit(session)
        with pytest.raises(StoreBusyError):
            session.publish()
        # Contention clears; the *same session* publishes cleanly (its
        # deltas still describe the stored artifact — nothing was
        # half-written).
        state["contended"] = False
        published = session.publish()
    finally:
        session.close()
    with service.read_session("doc") as reader:
        assert reader.generation == published
        assert len(reader.query("//seg")) == 1


def test_stamp_mismatch_after_retry_raises_conflict(
        tmp_path, observed, monkeypatch):
    """A writer that sneaks a publish in during the backoff window must
    surface as a typed conflict on the retried attempt — never as a
    row-level patch of the new artifact."""
    path = tmp_path / "svc.db"
    with DocumentService(path, pool_size=2) as first, \
            DocumentService(path, pool_size=2) as second:
        first.create(generate(SPEC), "doc")

        state = {"calls": 0}
        real = SqliteStore._apply_index_delta_rows

        def flaky(self, *args, **kwargs):
            state["calls"] += 1
            if state["calls"] == 1:
                raise BUSY
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SqliteStore, "_apply_index_delta_rows", flaky)

        loser = first.write_session("doc")
        try:
            _edit(loser)
            import repro.storage.sqlite_backend as backend_module

            def racing_sleep(delay):
                # The backoff window: the competing writer publishes now.
                with second.write_session("doc") as winner:
                    winner.editor.insert_markup(
                        winner.document.hierarchy_names()[0],
                        "note", 5, 20)
                racing_sleep.winner_generation = winner.generation

            monkeypatch.setattr(backend_module.time, "sleep", racing_sleep)
            with pytest.raises(WriteConflictError) as exc_info:
                loser.publish()
        finally:
            loser.close()
        assert exc_info.value.name == "doc"
        assert observed.counter("service.conflicts") >= 1
        # The winner's artifact is exactly as it published it: its edit
        # present, the loser's absent, generation untouched.
        with first.read_session("doc") as reader:
            assert reader.generation == racing_sleep.winner_generation
            assert len(reader.query("//note")) == 1
            assert len(reader.query("//seg")) == 0


def test_non_busy_errors_propagate_without_retry(service, recorded_sleeps,
                                                 monkeypatch):
    real = SqliteStore._apply_index_delta_rows
    state = {"calls": 0}

    def broken(self, *args, **kwargs):
        state["calls"] += 1
        raise sqlite3.OperationalError("no such table: index_terms")

    monkeypatch.setattr(SqliteStore, "_apply_index_delta_rows", broken)
    session = service.write_session("doc")
    try:
        _edit(session)
        with pytest.raises(sqlite3.OperationalError):
            session.publish()
    finally:
        session.close()
    # A real statement error is not contention: one attempt, no backoff.
    assert state["calls"] == 1
    assert recorded_sleeps == []
