"""Every stored document carries its index, whatever wrote it.

A seeded mix of every write path — ``save``, ``save_indexed`` publishes
(a full write, then row-level edits), ``save_stream``, ``build_index``,
``Corpus.add_many``/``remove``, and ``DocumentService`` ``create`` and
write sessions — runs over one WAL store.  After each write, no live
document lacks an ``index_meta`` row, has one below the current format,
or has an empty stamp, and every stamp is new; at the end, every
document's ``collection_summary`` equals the payload-derived oracle
(``tests/_summary_oracle.py``) over its decoded rows.
``REPRO_DIFF_SEEDS`` multiplies the number of seeded mixes.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import DocumentService
from repro.editing import Editor
from repro.index import IndexManager
from repro.index.manager import PAYLOAD_FORMAT
from repro.serialize.distributed import export_distributed
from repro.storage import GoddagStore
from repro.storage.sqlite_backend import STAGING_PREFIX
from repro.workloads import WorkloadSpec, generate

from _summary_oracle import collection_summary_rows

SEEDS = range(3 * max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1"))))
NAMES = ("a", "b", "c", "d")
STEPS = 30


def _document(rng: random.Random):
    return generate(WorkloadSpec(words=rng.randint(20, 60),
                                 hierarchies=rng.randint(1, 3),
                                 overlap_density=0.3,
                                 seed=rng.randrange(10_000)))


def _edit(editor: Editor, document, rng: random.Random) -> None:
    """An attribute edit and a wrapper at an existing element's exact
    span (it nests inside, so it is always legal)."""
    elements = sorted(document.elements(), key=lambda e: e.ordinal)
    target = rng.choice(elements)
    editor.set_attribute(target, "k", str(rng.randrange(3)))
    editor.insert_markup(target.hierarchy, "seg", target.start, target.end)


def _write(op: str, rng: random.Random, store, service) -> None:
    name = rng.choice(NAMES)
    stored = store.has(name)
    if op == "save":
        store.save(_document(rng), name, overwrite=True)
    elif op == "save_indexed":
        document = store.load(name) if stored else _document(rng)
        manager = IndexManager.for_document(document)
        store.save_indexed(document, name, manager, overwrite=True)
        _edit(Editor(document, prevalidate=False), document, rng)
        store.save_indexed(document, name, manager)
    elif op == "save_stream":
        store.save_stream(export_distributed(_document(rng)), name,
                          overwrite=True)
    elif op == "build_index" and stored:
        store.build_index(name)
    elif op == "add_many":
        other = rng.choice(NAMES)
        service.corpus.add_many(
            [(_document(rng), name), (_document(rng), other)],
            overwrite=True)
    elif op == "remove" and stored:
        service.corpus.remove(name)
    elif op == "create":
        service.create(_document(rng), name, overwrite=True)
    elif op == "write_session" and stored:
        with service.write_session(name, prevalidate=False) as session:
            _edit(session.editor, session.document, rng)


def _index_rows(store) -> dict[str, tuple]:
    """``name`` → ``(format, stamp)`` of every live document (``None``
    for a missing ``index_meta`` row)."""
    return {
        name: (fmt, stamp)
        for name, fmt, stamp in store._conn.execute(
            "SELECT d.name, m.format, m.stamp FROM documents d"
            " LEFT JOIN index_meta m USING (doc_id)"
            " WHERE d.name NOT GLOB ?", (STAGING_PREFIX + "*",))
    }


OPS = ("save", "save_indexed", "save_stream", "build_index", "add_many",
       "remove", "create", "write_session")


@pytest.mark.parametrize("seed", SEEDS)
def test_every_write_leaves_every_document_indexed(seed, tmp_path):
    rng = random.Random(seed)
    path = tmp_path / "store.db"
    minted: set[str] = set()
    last: dict[str, str] = {}
    with DocumentService(path, pool_size=2) as service, \
            GoddagStore(path, wal=True) as store:
        for step in range(STEPS):
            op = OPS[step] if step < len(OPS) else rng.choice(OPS)
            _write(op, rng, store, service)
            rows = _index_rows(store)
            for name, (fmt, stamp) in rows.items():
                assert fmt == PAYLOAD_FORMAT and stamp, (step, op, name)
                # A changed stamp is new: no write reuses another's.
                if last.get(name) != stamp:
                    assert stamp not in minted, (step, op, name)
                    minted.add(stamp)
            last = {name: stamp for name, (_, stamp) in rows.items()}
        assert store.names()
        for name in store.names():
            document = store.load(name)
            stored = set(store._conn.execute(
                "SELECT kind, key, n FROM collection_summary WHERE doc_id ="
                " (SELECT doc_id FROM documents WHERE name = ?)", (name,)
            ).fetchall())
            assert stored == set(collection_summary_rows(
                IndexManager(document).payload(name))), name
