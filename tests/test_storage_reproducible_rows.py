"""Stored index rows do not depend on the process's hash seed.

A row-level publish (``save_indexed`` after an editing session)
upserts or deletes the ``collection_summary`` counts its dirty label
paths, tags and attribute values name.  The same seeded edit and
publish, run in two interpreters with different ``PYTHONHASHSEED``
values, must leave that table byte-identical, row for row in storage
order (primary-key order: the table is ``WITHOUT ROWID``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: table -> the order its rows are stored in.
TABLES = {
    "collection_summary": "kind, key, doc_id",
}

SCRIPT = """
import json, sys
from repro.editing import Editor
from repro.index import IndexManager
from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate

document = generate(WorkloadSpec(words=200, hierarchies=4,
                                 overlap_density=0.3, seed=17))
manager = IndexManager.for_document(document)
with GoddagStore(sys.argv[1]) as store:
    store.save_indexed(document, "ms", manager)
    editor = Editor(document, prevalidate=False)
    lines = [e for e in document.elements(tag="line")]
    for i, line in enumerate(lines[:6]):
        editor.set_attribute(line, "rev", f"r{i}")
        editor.set_attribute(line, "resp", f"ed{i % 3}")
    words = [e for e in document.elements(tag="w")]
    for i, tag in enumerate(("seg", "note", "gloss", "mark")):
        word = words[7 * i + 3]
        editor.insert_markup("editorial", tag, word.start, word.end)
    editor.insert_markup("physical", "zone", lines[1].start, lines[2].end)
    editor.remove_markup(words[40])
    store.save_indexed(document, "ms", manager)
    tables = {}
    for table, order in json.loads(sys.argv[2]).items():
        rows = store._conn.execute(
            f"SELECT * FROM {table} ORDER BY {order}").fetchall()
        tables[table] = [
            [v.hex() if isinstance(v, bytes) else v for v in row]
            for row in rows
        ]
print(json.dumps(tables))
"""


def dump_after_publish(path: Path, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path), json.dumps(TABLES)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_row_level_publish_rows_do_not_depend_on_hash_seed(tmp_path):
    first = dump_after_publish(tmp_path / "a.sqlite", "1")
    second = dump_after_publish(tmp_path / "b.sqlite", "2")
    for table in TABLES:
        assert first[table], table  # the publish wrote rows here
        assert first[table] == second[table], table
