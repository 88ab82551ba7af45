"""Shared immutable snapshots in the document service.

A :class:`~repro.service.DocumentService` keeps one frozen document and
warm index manager per name for the generation it was read at; read
sessions at that generation share them, a write session that published
hands its own document over on close, and writers, deletes and
overwrites drop the entry.  These tests pin down:

* sharing: read sessions at one generation get the same objects, and a
  publish switches new sessions to the hand-off document while open
  sessions keep theirs;
* immutability: every frozen mutator raises
  :class:`~repro.errors.EditError` and changes nothing;
* no stale sharing: aborted or unpublished writers install nothing,
  every write outside the service is a new generation that open
  sessions see as newer, deletes and overwrites evict;
* one consistent read: the stamp and the rows of a load come from one
  database transaction, even when a writer commits in between;
* a reader whose load finishes after a writer handed off a newer
  generation does not install its older one over the hand-off;
* an empty publish keeps its generation;
* concurrent openers of one cold generation all answer like the
  unindexed witness.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import DocumentService, canonical_form
from repro.errors import (
    EditError,
    MarkupConflictError,
    SnapshotSupersededError,
)
from repro.obs.metrics import metrics
from repro.storage import GoddagStore
from repro.storage.sqlite_backend import SnapshotCache, SqliteStore
from repro.workloads import WorkloadSpec, generate

from test_index_incremental import QUERIES, snapshot

SPEC = WorkloadSpec(words=110, hierarchies=2, overlap_density=0.3, seed=77)


@pytest.fixture
def service(tmp_path):
    with DocumentService(tmp_path / "svc.db", pool_size=4,
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


def _answers(session) -> dict:
    return {query.expression: snapshot(session.query(query.expression))
            for query in QUERIES}


def _witness(document) -> dict:
    return {query.expression:
            snapshot(query.evaluate(document, index=False))
            for query in QUERIES}


def _insert_seg(session, start: int = 1, end: int = 9):
    return session.editor.insert_markup(
        session.document.hierarchy_names()[0], "seg", start, end)


# -- sharing ------------------------------------------------------------------


def test_read_sessions_at_one_generation_share_the_document(service,
                                                            observed):
    with service.read_session("doc") as first, \
            service.read_session("doc") as second:
        assert second.generation == first.generation
        assert second.document is first.document
        assert second.manager is first.manager
        assert _answers(second) == _witness(first.document)
    counters = observed.snapshot()["counters"]
    assert counters["service.snapshots.loaded"] == 1
    assert counters["service.snapshots.shared"] == 1


def test_publish_hands_off_and_open_sessions_keep_their_snapshot(service):
    with service.read_session("doc") as before:
        old_answers = _answers(before)
        with service.write_session("doc") as writer:
            _insert_seg(writer)
        with service.read_session("doc") as after:
            assert after.generation == writer.generation
            assert after.document is writer.document
            assert after.manager is writer.manager
            assert len(after.query("//seg")) == len(old_answers["//seg"]) + 1
            assert _answers(after) == _witness(writer.document)
        # The open session still answers at its own generation.
        assert not before.is_current()
        assert before.document is not writer.document
        assert _answers(before) == old_answers


def test_mid_session_publish_hands_off_only_without_later_edits(service):
    with service.write_session("doc") as writer:
        _insert_seg(writer, 1, 6)
        checkpoint = writer.publish()
        _insert_seg(writer, 8, 12)
    # The exit publish stored the later edit too, and nothing edited
    # after it: the hand-off is the final document.
    assert writer.generation != checkpoint
    with service.read_session("doc") as reader:
        assert reader.document is writer.document
        assert len(reader.query("//seg")) == 2


# -- immutability -------------------------------------------------------------


def _mutators(document):
    hierarchy = document.hierarchy_names()[0]
    element = next(iter(document.elements(hierarchy)))
    return {
        "insert_element":
            lambda: document.insert_element(hierarchy, "seg", 1, 9),
        "insert_empty_element":
            lambda: document.insert_empty_element(hierarchy, "anchor", 3),
        "remove_element": lambda: document.remove_element(element),
        "set_attribute": lambda: document.set_attribute(element, "n", "x"),
        "remove_attribute":
            lambda: document.remove_attribute(element, "n"),
        "add_hierarchy": lambda: document.add_hierarchy("extra"),
        "touch": lambda: document.touch(),
    }


@pytest.mark.parametrize("mutator", sorted(_mutators(generate(SPEC))))
def test_frozen_mutators_raise_and_change_nothing(service, mutator):
    with service.read_session("doc") as session:
        document = session.document
        version = document.version
        before = canonical_form(document)
        with pytest.raises(EditError):
            _mutators(document)[mutator]()
        assert document.version == version
        assert canonical_form(document) == before


def test_closed_write_session_is_read_only(service):
    with service.write_session("doc") as writer:
        _insert_seg(writer)
    version = writer.document.version
    hierarchy = writer.document.hierarchy_names()[0]
    with pytest.raises(EditError):
        writer.editor.insert_markup(hierarchy, "note", 10, 20)
    with pytest.raises(EditError):
        writer.editor.set_attribute(
            next(iter(writer.document.elements(hierarchy))), "n", "x")
    assert writer.document.version == version


# -- nothing stale is shared --------------------------------------------------


def test_aborted_write_session_installs_nothing(service):
    with service.read_session("doc") as reader:
        generation = reader.generation
        shared = reader.document
    with pytest.raises(RuntimeError):
        with service.write_session("doc") as writer:
            _insert_seg(writer)
            raise RuntimeError("abort the session")
    unpublished = service.write_session("doc")
    _insert_seg(unpublished)
    unpublished.close()
    with service.read_session("doc") as reader:
        assert reader.generation == generation
        assert reader.document is not writer.document
        assert reader.document is not unpublished.document
        # The writer evicted the old entry: this session loaded again.
        assert reader.document is not shared
        assert reader.query("//seg") == []


def test_store_level_replacements_are_never_served_stale(service, tmp_path):
    with service.read_session("doc") as reader:
        seen = {reader.generation}
    # Re-save outside the service: every write mints a fresh stamp, so
    # each replacement is a new generation, shared once loaded.
    store = GoddagStore(tmp_path / "svc.db")
    try:
        for seed in (3, 4):
            replacement = generate(WorkloadSpec(
                words=60, hierarchies=2, overlap_density=0.3, seed=seed))
            saved = store.save(replacement, "doc", overwrite=True)
            built = store.build_index("doc")
            with service.read_session("doc") as first, \
                    service.read_session("doc") as second:
                assert first.generation == built
                assert first.document is second.document
                assert _answers(first) == _witness(replacement)
            assert not {saved, built} & seen and saved != built
            seen |= {saved, built}
    finally:
        store.close()


def _assert_superseded(session) -> None:
    assert not session.is_current()
    with pytest.raises(SnapshotSupersededError):
        session.require_current()


def test_session_on_a_store_saved_document_sees_each_rewrite(service,
                                                             tmp_path):
    """A read session on a document stored by ``save`` is superseded by
    an overwrite and by each ``build_index``: every write stores a new
    stamp, so none of them can look like the session's generation."""
    store = GoddagStore(tmp_path / "svc.db")
    try:
        store.save(generate(SPEC), "plain")
        with service.read_session("plain") as reader:
            assert reader.is_current()
            store.save(generate(WorkloadSpec(words=40, seed=5)), "plain",
                       overwrite=True)
            _assert_superseded(reader)
        store.build_index("plain")
        with service.read_session("plain") as reader:
            reader.require_current()
            store.build_index("plain")
            _assert_superseded(reader)
    finally:
        store.close()


def test_delete_and_overwrite_evict(service):
    with service.read_session("doc"):
        pass
    assert "doc" in service.pool.snapshots
    service.delete("doc")
    assert "doc" not in service.pool.snapshots
    service.create(generate(SPEC), "doc")
    with service.read_session("doc"):
        pass
    assert "doc" in service.pool.snapshots
    service.create(generate(SPEC), "doc", overwrite=True)
    assert "doc" not in service.pool.snapshots


def test_shared_snapshots_are_bounded_per_name(service, monkeypatch):
    monkeypatch.setattr(SnapshotCache, "LIMIT", 2)
    for name in ("b", "c"):
        service.create(generate(SPEC), name)
    for name in ("doc", "b", "doc", "c"):
        with service.read_session(name):
            pass
    assert list(service.pool.snapshots) == ["doc", "c"]


# -- one consistent read ------------------------------------------------------


def test_load_snapshot_stamp_matches_rows_across_a_commit(service,
                                                          monkeypatch):
    with service.read_session("doc") as reader:
        old_generation = reader.generation
        old_witness = _witness(reader.document)
    real_stamp = SqliteStore.index_stamp
    published = {}

    def stamp_then_publish(self, name):
        stamp = real_stamp(self, name)
        if not published:
            published["pending"] = True
            # A writer on another pooled connection commits between
            # this stamp read and the row reads that follow it.
            with service.write_session("doc") as writer:
                _insert_seg(writer)
            published["generation"] = writer.generation
        return stamp

    with service.pool.connection() as backend:
        monkeypatch.setattr(SqliteStore, "index_stamp", stamp_then_publish)
        document, generation = backend.load_snapshot("doc")
        monkeypatch.setattr(SqliteStore, "index_stamp", real_stamp)
        # The transaction is over: a new read sees the writer's rows.
        newer, newer_generation = backend.load_snapshot("doc")
    assert published["generation"] != old_generation
    assert generation == old_generation
    assert _witness(document) == old_witness
    assert newer_generation == published["generation"]
    assert len(_witness(newer)["//seg"]) == len(old_witness["//seg"]) + 1


# -- a slow load never installs over a hand-off --------------------------------


def test_slow_load_does_not_install_over_a_hand_off(service, observed,
                                                    monkeypatch):
    real_load = SqliteStore.load_snapshot
    loaded, handed_off = threading.Event(), threading.Event()

    def load_then_wait(self, name):
        result = real_load(self, name)
        if threading.current_thread() is slow_reader:
            # The reader holds the old generation; a writer publishes
            # and hands off before this load returns.
            loaded.set()
            assert handed_off.wait(timeout=30)
        return result

    monkeypatch.setattr(SqliteStore, "load_snapshot", load_then_wait)
    opened = []
    slow_reader = threading.Thread(
        target=lambda: opened.append(service.read_session("doc")))
    slow_reader.start()
    try:
        assert loaded.wait(timeout=30)
        with service.write_session("doc") as writer:
            _insert_seg(writer)
    finally:
        handed_off.set()
        slow_reader.join(timeout=30)
    assert not slow_reader.is_alive()
    stale = opened[0]
    assert stale.generation != writer.generation
    assert stale.query("//seg") == []
    stale.close()
    before = observed.snapshot()["counters"]["service.snapshots.loaded"]
    for _ in range(3):
        with service.read_session("doc") as reader:
            assert reader.generation == writer.generation
            assert reader.document is writer.document
    assert observed.snapshot()["counters"]["service.snapshots.loaded"] == \
        before


# -- empty publish ------------------------------------------------------------


def test_empty_publish_keeps_its_generation(service):
    with service.write_session("doc") as writer:
        _insert_seg(writer)
        first = writer.publish()
        with service.read_session("doc") as reader:
            assert reader.generation == first
            assert writer.publish() == first
            assert reader.is_current()
    # The clean exit published a third time, still with nothing new.
    assert writer.generation == first
    with service.read_session("doc") as reader:
        assert reader.generation == first
        assert reader.document is writer.document


# -- attribute edits on unattached targets ------------------------------------


def test_attribute_edit_on_removed_element_keeps_the_session(service):
    with service.write_session("doc") as writer:
        target = _insert_seg(writer)
        writer.editor.remove_markup(target)
        kept = _insert_seg(writer, 20, 30)
        with pytest.raises(MarkupConflictError):
            writer.editor.set_attribute(target, "n", "1")
        with pytest.raises(MarkupConflictError):
            writer.editor.set_attribute(
                writer.document.element_by_ordinal(target.ordinal), "n", "1")
        writer.editor.set_attribute(kept, "n", "2")
    # The publish stored every accepted edit.
    with service.read_session("doc") as reader:
        assert snapshot(reader.query("//seg")) == [
            ("element", kept.hierarchy, "seg", 20, 30, (("n", "2"),))]


# -- concurrent openers of a cold generation ----------------------------------


READERS = 8


def _concurrent_answers(svc, expressions) -> list[dict]:
    """Open ``READERS`` read sessions at once (behind a barrier, with a
    short switch interval so threads interleave inside the lazy cache
    fills) and return each session's answers."""
    answers: list[dict] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(READERS)

    def reading():
        try:
            barrier.wait(timeout=30)
            with svc.read_session("doc") as session:
                answers.append({
                    expression: snapshot(session.query(expression))
                    for expression in expressions
                })
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reading) for _ in range(READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(answers) == READERS
    return answers


def _unindexed(document, expressions) -> dict:
    from repro.xpath import ExtendedXPath

    return {expression: snapshot(
                ExtendedXPath(expression).evaluate(document, index=False))
            for expression in expressions}


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_cold_generation_under_concurrent_openers(tmp_path, seed):
    base = generate(WorkloadSpec(words=110, hierarchies=2,
                                 overlap_density=0.3, seed=seed))
    expressions = [query.expression for query in QUERIES]
    witness = _unindexed(base, expressions)
    with DocumentService(tmp_path / "svc.db", pool_size=4) as svc:
        svc.create(base, "doc")
        for answers in _concurrent_answers(svc, expressions):
            assert answers == witness
        # Every opener answered; afterwards the generation is shared.
        with svc.read_session("doc") as first, \
                svc.read_session("doc") as second:
            assert first.document is second.document


@pytest.mark.parametrize("seed", [21, 22])
def test_concurrent_readers_fill_a_handed_off_snapshot(tmp_path, seed):
    base = generate(WorkloadSpec(words=110, hierarchies=2,
                                 overlap_density=0.3, seed=seed))
    with DocumentService(tmp_path / "svc.db", pool_size=4) as svc:
        svc.create(base, "doc")
        with svc.write_session("doc") as writer:
            ordinals = sorted(e.ordinal for e in writer.document.elements())
            # Fill the ordinal map, then edit: the map is now one the
            # journal would patch, which readers must never do in place
            # (a reader replaying the insert after another replayed the
            # removal would resurrect the transient element).
            writer.document.element_by_ordinal(ordinals[0])
            removed = writer.document.element_by_ordinal(ordinals[3])
            writer.editor.remove_markup(removed)
            transient = _insert_seg(writer, 2, 12)
            writer.editor.remove_markup(transient)
            _insert_seg(writer, 14, 20)
        expressions = [query.expression for query in QUERIES] + [
            f"element-by-id({ordinal})"
            for ordinal in [*ordinals[:8], transient.ordinal]
        ] + ["//line/contained::w", "//w/containing::line"]
        store = GoddagStore(tmp_path / "svc.db")
        try:
            witness = _unindexed(store.load("doc"), expressions)
        finally:
            store.close()
        assert witness[f"element-by-id({ordinals[3]})"] == []
        assert witness[f"element-by-id({transient.ordinal})"] == []
        for answers in _concurrent_answers(svc, expressions):
            assert answers == witness
        with svc.read_session("doc") as session:
            assert session.document is writer.document
