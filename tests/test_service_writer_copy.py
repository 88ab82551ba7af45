"""A write session's document is an exact copy of the shared snapshot.

:meth:`~repro.service.DocumentService.write_session` starts from the
frozen snapshot of the stored generation: it copies the document
(:meth:`~repro.core.goddag.GoddagDocument.copy`) and carries the warm
index manager over to the copy
(:meth:`~repro.index.manager.IndexManager.carried_to`) instead of
decoding the stored rows and rebuilding the index.  These tests pin the
copy down against the decode it replaces, for 12 seeded documents,
fresh and after edit scripts whose hand-offs make the snapshot a
session's own edited document:

* the canonical form, the root, the hierarchies and their DTDs, and
  every element's ``(ordinal, hierarchy, tag, start, end, parent
  ordinal, child rank, attributes)`` equal a fresh ``load_snapshot``;
* the copy passes ``check_invariants`` and mints the ordinal a reload
  would mint for the next insert;
* the carried-over manager is fresh, refers only to the copy's
  elements, and its payload equals a manager built from scratch;
* editing or aborting the writer changes nothing in the frozen source.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro import DocumentService, canonical_form
from repro.core.navigation import order_key
from repro.errors import EditError, MarkupConflictError
from repro.index import IndexManager
from repro.obs.metrics import metrics
from repro.workloads import WorkloadSpec, figure_one_document, generate

from test_index_incremental import EDIT_TAGS, QUERIES, snapshot

SEEDS = range(12)


def _spec(seed: int) -> WorkloadSpec:
    return WorkloadSpec(words=110, hierarchies=2 + seed % 3,
                        overlap_density=0.3, seed=300 + seed)


@pytest.fixture
def observed():
    metrics.reset()
    metrics.enable()
    yield metrics
    metrics.disable()
    metrics.reset()


def _element_rows(document) -> list[tuple]:
    """Every element as ``(ordinal, hierarchy, tag, start, end, parent
    ordinal, child rank, attributes)``, sorted by ordinal."""
    rows = []
    for element in document.elements():
        parent = element._parent
        siblings = (parent.element_children if parent is not None
                    else document.top_level(element.hierarchy))
        rows.append((
            element.ordinal, element.hierarchy, element.tag, element.start,
            element.end, parent.ordinal if parent is not None else 0,
            siblings.index(element), tuple(sorted(element.attributes.items())),
        ))
    return sorted(rows)


def _dtd_sources(document) -> list:
    return [
        (name, dtd.to_source() if dtd is not None else None)
        for name in document.hierarchy_names()
        for dtd in (document.hierarchy(name).dtd,)
    ]


def _load(service, name: str = "doc"):
    with service.pool.connection() as backend:
        return backend.load_snapshot(name)


def _edit(editor, rng: random.Random, steps: int) -> None:
    """A seeded edit script: inserts, milestones, removals, attribute
    edits, and an insert removed again in the same session."""
    document = editor.document
    for _ in range(steps):
        choice = rng.random()
        hierarchy = rng.choice(document.hierarchy_names())
        elements = list(document.elements())
        try:
            if choice < 0.35:
                a = rng.randrange(document.length + 1)
                b = rng.randrange(document.length + 1)
                editor.insert_markup(hierarchy, rng.choice(EDIT_TAGS),
                                     min(a, b), max(a, b))
            elif choice < 0.5:
                editor.insert_milestone(hierarchy, "anchor",
                                        rng.randrange(document.length + 1))
            elif choice < 0.65 and elements:
                editor.remove_markup(rng.choice(elements))
            elif choice < 0.85 and elements:
                editor.set_attribute(rng.choice(elements),
                                     rng.choice(("n", "resp")),
                                     str(rng.randrange(100)))
            else:
                start = rng.randrange(document.length)
                transient = editor.insert_markup(hierarchy, "mark", start,
                                                 start + 1)
                editor.remove_markup(transient)
        except (MarkupConflictError, EditError):
            pass  # a rejected edit changes nothing


def _assert_copy_matches_load(service, source=None) -> None:
    """Open a writer and compare its copy with a fresh decode of the
    stored generation (and with ``source``, the snapshot it copied)."""
    writer = service.write_session("doc", prevalidate=False)
    try:
        copy, manager = writer.document, writer.manager
        loaded, generation = _load(service)
        assert generation == writer.generation

        assert canonical_form(copy) == canonical_form(loaded)
        assert copy.root.tag == loaded.root.tag
        assert copy.root.attributes == loaded.root.attributes
        assert copy.hierarchy_names() == loaded.hierarchy_names()
        assert _dtd_sources(copy) == _dtd_sources(loaded)
        assert _element_rows(copy) == _element_rows(loaded)
        assert copy.check_invariants() == []
        assert [order_key(e) for e in copy.ordered_elements()] == \
            [order_key(e) for e in loaded.ordered_elements()]
        for element in copy.elements():
            assert copy.element_by_ordinal(element.ordinal) is element

        if source is not None:
            assert copy.version == source.version
            assert copy.spans.boundaries == source.spans.boundaries
            assert [copy.hierarchy(name).tags
                    for name in copy.hierarchy_names()] == \
                [source.hierarchy(name).tags
                 for name in source.hierarchy_names()]
        assert copy.changes_since(copy.version) == []
        assert copy.changes_since(copy.version - 1) is None

        # The carried manager is fresh, never rebuilt, and holds only
        # the copy's elements.
        assert manager.document is copy and copy.index_manager is manager
        assert manager.built_version == copy.version
        assert not manager.is_stale and manager.build_count == 0
        structural = manager.structural
        members = [e for tag in structural.tags()
                   for e in structural.candidates(tag)]
        members += [e for hierarchy, path, _ in structural.label_paths()
                    for e in structural.partition(hierarchy, path)]
        members += [e for _, _, elements in manager.attrs.items()
                    for e in elements]
        assert members and all(e.document is copy for e in members)
        rebuilt = IndexManager(copy)
        for element in copy.elements():
            assert structural.path_of(element) == \
                rebuilt.structural.path_of(element)
        assert manager.payload("doc") == rebuilt.payload("doc")
        assert manager.payload("doc") == IndexManager(loaded).payload("doc")

        # The next insert mints the ordinal a reload mints.
        hierarchy = copy.hierarchy_names()[0]
        minted = writer.editor.insert_milestone(hierarchy, "probe", 0)
        assert minted.ordinal == \
            loaded.insert_empty_element(hierarchy, "probe", 0).ordinal
    finally:
        writer.close()  # unpublished: stores and installs nothing


@pytest.mark.parametrize("seed", SEEDS)
def test_fresh_copy_matches_a_fresh_load(tmp_path, seed):
    with DocumentService(tmp_path / "svc.db", pool_size=2) as service:
        service.create(generate(_spec(seed)), "doc")
        with service.read_session("doc") as reader:
            source = reader.document
        _assert_copy_matches_load(service, source)


@pytest.mark.parametrize("seed", SEEDS)
def test_edited_copy_matches_a_fresh_load(tmp_path, seed, observed):
    rng = random.Random(seed)
    with DocumentService(tmp_path / "svc.db", pool_size=2) as service:
        service.create(generate(_spec(seed)), "doc")
        for _ in range(3):
            with service.write_session("doc", prevalidate=False) as writer:
                _edit(writer.editor, rng, 12)
            # The hand-off made the edited document the shared snapshot:
            # the next writer copies it, not a decode.
            loaded = observed.snapshot()["counters"].get(
                "service.snapshots.loaded", 0)
            _assert_copy_matches_load(service, writer.document)
            assert observed.snapshot()["counters"].get(
                "service.snapshots.loaded", 0) == loaded


def test_copy_keeps_dtds_and_root_attributes(tmp_path):
    document = figure_one_document()
    document.root.attributes["lang"] = "ang"
    with DocumentService(tmp_path / "svc.db", pool_size=2) as service:
        service.create(document, "doc")
        with service.read_session("doc") as reader:
            source = reader.document
        assert any(dtd for _, dtd in _dtd_sources(source))
        _assert_copy_matches_load(service, source)


def test_next_ordinal_resumes_at_the_largest_live_ordinal(tmp_path):
    with DocumentService(tmp_path / "svc.db", pool_size=2) as service:
        service.create(generate(_spec(0)), "doc")
        with service.write_session("doc") as writer:
            hierarchy = writer.document.hierarchy_names()[0]
            top = max(e.ordinal for e in writer.document.elements())
            transient = writer.editor.insert_markup(hierarchy, "seg", 2, 5)
            writer.editor.remove_markup(transient)
        assert transient.ordinal == top + 1
        with service.write_session("doc") as writer:
            # The snapshot is the hand-off, whose counter passed ``top``;
            # a reload resumes at ``top``, and so does the copy.
            assert writer.editor.insert_markup(
                hierarchy, "seg", 2, 5).ordinal == top + 1
        loaded, _ = _load(service)
        assert loaded.element_by_ordinal(top + 1).tag == "seg"


def test_carried_to_needs_a_copy_of_the_current_state():
    document = generate(_spec(2))
    manager = IndexManager(document)
    copy = document.copy()
    assert manager.carried_to(copy).payload() == manager.payload()
    copy.insert_element(copy.hierarchy_names()[0], "seg", 1, 9)
    with pytest.raises(ValueError):
        manager.carried_to(copy)


@pytest.mark.parametrize("outcome", ["abort", "publish"])
def test_writer_leaves_its_source_unchanged(tmp_path, outcome, observed):
    with DocumentService(tmp_path / "svc.db", pool_size=2) as service:
        service.create(generate(_spec(1)), "doc")
        with service.read_session("doc") as reader:
            source = reader.document
            version = source.version
            form = canonical_form(source)
            rows = _element_rows(source)
            answers = {query.expression: snapshot(reader.query(
                query.expression)) for query in QUERIES}
            with pytest.raises(RuntimeError) if outcome == "abort" \
                    else nullcontext():
                with service.write_session("doc") as writer:
                    copy = writer.document
                    hierarchy = copy.hierarchy_names()[0]
                    attributed = next(e for e in copy.elements()
                                      if e.attributes)
                    for name in list(attributed.attributes):
                        writer.editor.set_attribute(attributed, name, "x")
                    writer.editor.insert_markup(hierarchy, "seg", 1, 9)
                    writer.editor.remove_markup(
                        next(iter(copy.elements(hierarchy))))
                    if outcome == "abort":
                        raise RuntimeError("abort the session")
            counters = observed.snapshot()["counters"]
            assert counters["service.snapshots.loaded"] == 1
            assert counters["service.snapshots.shared"] == 1
            assert source.version == version
            assert canonical_form(source) == form
            assert _element_rows(source) == rows
            assert source.check_invariants() == []
            assert {query.expression: snapshot(reader.query(
                query.expression)) for query in QUERIES} == answers
            assert {query.expression: snapshot(query.evaluate(
                source, index=False)) for query in QUERIES} == answers


@pytest.mark.parametrize("outcome", ["abort", "publish"])
def test_writer_edits_leave_the_source_child_lists_and_keys(tmp_path,
                                                             outcome):
    """An insert gives a childless element its first child and a removal
    empties a child list in the writer's copy; the source's child
    sequences, its ordered list and its cached keys stay as they were,
    and it still equals a fresh load of its generation."""
    with DocumentService(tmp_path / "svc.db", pool_size=2) as service:
        service.create(generate(_spec(4)), "doc")
        loaded, generation = _load(service)
        with service.read_session("doc") as reader:
            source = reader.document
            assert reader.generation == generation
            children = {element: (element._children,
                                  tuple(element._children))
                        for element in source.elements()}
            ordered = source.ordered_elements()
            keys = [(element._okey, element._okey_version)
                    for element in ordered]

            with pytest.raises(RuntimeError) if outcome == "abort" \
                    else nullcontext():
                with service.write_session("doc",
                                           prevalidate=False) as writer:
                    copy = writer.document
                    childless = next(
                        e for e in copy.elements()
                        if not e.element_children and not e.is_empty)
                    only_child = next(
                        e for e in copy.elements()
                        if not e.element_children and not e.parent.is_root
                        and len(e.parent.element_children) == 1)
                    emptied = only_child.parent
                    gained = writer.editor.insert_markup(
                        childless.hierarchy, "seg", childless.start,
                        childless.end)
                    writer.editor.remove_markup(only_child)
                    assert childless.element_children == (gained,)
                    assert emptied.element_children == ()
                    if outcome == "abort":
                        raise RuntimeError("abort the session")
            assert copy.check_invariants() == []
            check = sorted(copy.elements(), key=lambda e: (
                e.start, e.start != e.end, -e.end,
                copy.hierarchy(e.hierarchy).rank, e.depth(), e.ordinal))
            assert copy.ordered_elements() == check

            source_childless = source.element_by_ordinal(childless.ordinal)
            source_emptied = source.element_by_ordinal(emptied.ordinal)
            assert source_childless.element_children == ()
            assert [e.ordinal for e in source_emptied.element_children] == \
                [only_child.ordinal]
            assert all(element._children is before and
                       tuple(element._children) == contents
                       for element, (before, contents) in children.items())
            assert source.ordered_elements() is ordered
            assert [(element._okey, element._okey_version)
                    for element in ordered] == keys
            assert all(order_key(element) is key
                       for element, (key, _) in zip(ordered, keys))
            assert canonical_form(source) == canonical_form(loaded)
            assert _element_rows(source) == _element_rows(loaded)
            assert [order_key(e) for e in ordered] == \
                [order_key(e) for e in loaded.ordered_elements()]
