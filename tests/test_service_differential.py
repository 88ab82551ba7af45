"""Differential property: the service's publish path is row-identical
to plain ``save_indexed``.

One seeded random edit script runs in lockstep against two arms over
the same initial workload document:

* **service** — a held :class:`~repro.service.WriteSession`; every
  step edits through ``session.editor`` and checkpoints with
  ``session.publish()`` (the stamped, strict, row-level publish path);
* **plain** — a plain :class:`~repro.editing.Editor` plus
  ``GoddagStore.save_indexed`` into a private store (the
  already-verified baseline of ``test_index_incremental``).

After every step the two stores must hold byte-identical row sets
(``_store_rows``: every table, doc_id- and stamp-free).  Both arms edit
a *loaded* replica — so element enumeration, ``elem_id`` assignment,
and journal contents stay positionally aligned — and draw each decision
once from a shared RNG, exactly like the differential harness.

Scale: 3 workloads x ``REPRO_DIFF_SEEDS`` seeds x ``STEPS`` steps.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import DocumentService
from repro.editing import Editor
from repro.errors import EditError, MarkupConflictError
from repro.index import IndexManager
from repro.storage import GoddagStore
from repro.workloads import generate

from test_index_incremental import (
    EDIT_TAGS,
    QUERIES,
    WORKLOADS,
    _store_rows,
    snapshot,
)

STEPS = 30

SEEDS_PER_WORKLOAD = max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1")))


class _Script:
    """One scripted session applied to the service and plain arms."""

    def __init__(self, workload: str, seed: int, tmp_path) -> None:
        spec = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.service = DocumentService(
            tmp_path / f"{workload}-{seed}.db", pool_size=2)
        self.service.create(generate(spec), "d")
        self.session = self.service.write_session("d", prevalidate=False)

        # The plain arm starts from its own stored copy of the same
        # content and, like the service session, edits a *loaded*
        # replica, keeping element order and elem_id assignment aligned.
        self.plain_store = GoddagStore(":memory:")
        seed_doc = generate(spec)
        self.plain_store.save_indexed(
            seed_doc, "d", IndexManager.for_document(seed_doc))
        self.plain = self.plain_store.load("d")
        self.plain_manager = IndexManager.for_document(self.plain)
        # overwrite=True: the loaded replica's fresh manager takes
        # ownership of the stored artifact; every later save is a
        # consented delta save by the same manager.
        self.plain_store.save_indexed(self.plain, "d", self.plain_manager,
                                      overwrite=True)
        self.editors = (self.session.editor,
                        Editor(self.plain, prevalidate=False))

    def close(self) -> None:
        self.session.close()
        self.service.close()
        self.plain_store.close()

    def _apply(self, operation) -> None:
        outcomes = []
        for editor in self.editors:
            try:
                operation(editor)
                outcomes.append(None)
            except (MarkupConflictError, EditError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], outcomes

    def step(self) -> None:
        choice = self.rng.random()
        length = self.plain.length
        if choice < 0.40:
            hierarchy = self.rng.choice(self.plain.hierarchy_names())
            tag = self.rng.choice(EDIT_TAGS)
            a = self.rng.randrange(length + 1)
            b = self.rng.randrange(length + 1)
            self._apply(lambda editor: editor.insert_markup(
                hierarchy, tag, min(a, b), max(a, b)))
        elif choice < 0.55:
            hierarchy = self.rng.choice(self.plain.hierarchy_names())
            offset = self.rng.randrange(length + 1)
            self._apply(lambda editor: editor.insert_milestone(
                hierarchy, "anchor", offset))
        elif choice < 0.70:
            count = self.plain.element_count()
            if count == 0:
                return
            index = self.rng.randrange(count)
            self._apply(lambda editor: editor.remove_markup(
                list(editor.document.elements())[index]))
        elif choice < 0.90:
            count = self.plain.element_count()
            if count == 0:
                return
            index = self.rng.randrange(count)
            name = self.rng.choice(("n", "resp"))
            value = str(self.rng.randrange(100))
            self._apply(lambda editor: editor.set_attribute(
                list(editor.document.elements())[index], name, value))
        else:
            if self.editors[0].history.can_undo:
                for editor in self.editors:
                    editor.undo()

    def check(self) -> None:
        self.session.publish()
        self.plain_store.save_indexed(self.plain, "d", self.plain_manager)
        with self.service.pool.connection() as backend:
            service_rows = _store_rows(backend)
        assert service_rows == _store_rows(self.plain_store)


def _seed_matrix() -> list[tuple[str, int]]:
    return [
        (workload, 7000 + offset)
        for workload in WORKLOADS
        for offset in range(SEEDS_PER_WORKLOAD)
    ]


@pytest.mark.parametrize("workload,seed", _seed_matrix())
def test_write_session_matches_plain_save(tmp_path, workload, seed):
    script = _Script(workload, seed, tmp_path)
    try:
        script.check()
        for _ in range(STEPS):
            script.step()
            script.check()
        # Final cross-check: a fresh read session answers the harness
        # battery byte-identically to the plain arm's live document.
        with script.service.read_session("d") as reader:
            for query in QUERIES:
                assert snapshot(reader.query(query.expression)) == \
                    snapshot(query.evaluate(script.plain, index=False)), \
                    query.expression
    finally:
        script.close()
