"""E11 — journal-driven element-row saves vs full table rewrites.

Before stable persistent identity, every ``save`` of an edited document
deleted and re-inserted the whole ``elements`` table — an attribute
tweak on an 8k-word edition cost O(document) rows.  With ``elem_id``
promoted to the round-trip-stable birth ordinal, ``save_indexed``
drives element rows from the change journal instead: the
:class:`~repro.core.changes.ElementRowCoalescer` folds the session's
records into the minimal keyed upsert/delete set, so an attribute-only
edit persists in O(1) rows.

Measured per corpus size, via sqlite's ``total_changes`` counter (rows
inserted + updated + deleted — the honest write-amplification metric):

* **delta rows** — one attribute edit, then ``save_indexed`` on the
  session's own artifact (journal-driven row upserts);
* **rewrite rows** — the same edit persisted by the pre-identity
  recipe: a full ``save(overwrite=True)``, which rewrites the document
  and its index whole (what keeping a fresh document + index used to
  cost per save).

A second arm publishes structural edits: one element inserted among N
top-level siblings (wrapping two of them), then removed again.  Sibling
order is not stored — it follows from ``(start, end, elem_id)`` — so
each publish writes the edited element's row and the two rows whose
parent changed, plus the document, stamp and summary rows: a constant,
flat in N.

The acceptance bar is a ≥ 10x row reduction at the 8k-word corpus (in
practice it is three orders of magnitude — the delta save writes a
constant handful of rows).  Run standalone for the report table::

    PYTHONPATH=src python benchmarks/bench_e11_delta_saves.py

or through pytest (the CI smoke step runs the small size only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e11_delta_saves.py -q
"""

from __future__ import annotations

from repro.core import GoddagBuilder
from repro.editing import Editor
from repro.index import IndexManager
from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate

SIZES = (1000, 4000, 8000)
DENSITY = 0.25
HIERARCHIES = 4

#: The acceptance bar at the largest corpus (ISSUE 4): an
#: attribute-only save must write at least 10x fewer rows than the full
#: rewrite it replaces.
REDUCTION_BAR = 10.0

#: Top-level sibling counts of the structural-edit arm.
SIBLINGS = (120, 1200)


def measure_size(words: int, tmp_dir) -> dict[str, float]:
    """One row of the E11 table: rows written per save at one size."""
    spec = WorkloadSpec(words=words, hierarchies=HIERARCHIES,
                        overlap_density=DENSITY)
    document = generate(spec)
    manager = IndexManager.for_document(document)
    editor = Editor(document, prevalidate=False)
    lines = list(document.elements(tag="line"))

    store = GoddagStore(tmp_dir / f"e11-{words}.sqlite")
    conn = store._conn
    try:
        store.save_indexed(document, "ms", manager)
        elements = store.count_elements("ms")

        # Delta save: one attribute edit, journal-driven row upserts.
        editor.set_attribute(lines[0], "rev", "delta")
        before = conn.total_changes
        store.save_indexed(document, "ms", manager)
        delta_rows = conn.total_changes - before

        # Full rewrite: the same class of edit persisted the
        # pre-identity way (document and index rewritten whole).
        editor.set_attribute(lines[1], "rev", "full")
        before = conn.total_changes
        store.save(document, "ms", overwrite=True)
        rewrite_rows = conn.total_changes - before
    finally:
        store.close()
        document.detach_index()

    return {
        "words": words,
        "elements": elements,
        "delta_rows": delta_rows,
        "rewrite_rows": rewrite_rows,
        "reduction": rewrite_rows / max(1, delta_rows),
    }


def sibling_document(siblings: int):
    """``siblings`` top-level words in hierarchy ``h`` (one ``s`` over
    all of them in ``g``); returns the document and the word spans."""
    spans, at = [], 0
    for i in range(siblings):
        spans.append((at, at + len(f"w{i}")))
        at = spans[-1][1] + 1
    builder = GoddagBuilder(" ".join(f"w{i}" for i in range(siblings)))
    builder.add_hierarchy("h")
    builder.add_hierarchy("g")
    for start, end in spans:
        builder.add_annotation("h", "w", start, end)
    builder.add_annotation("g", "s", 0, spans[-1][1])
    return builder.build(), spans


def measure_structural(siblings: int, tmp_dir) -> dict[str, int]:
    """Rows written by an insert publish and a removal publish among
    ``siblings`` top-level elements."""
    document, spans = sibling_document(siblings)
    manager = IndexManager.for_document(document)
    editor = Editor(document, prevalidate=False)
    store = GoddagStore(tmp_dir / f"e11-siblings-{siblings}.sqlite")
    conn = store._conn
    middle = siblings // 2
    try:
        store.save_indexed(document, "ms", manager)
        before = conn.total_changes
        seg = editor.insert_markup("h", "seg", spans[middle][0],
                                   spans[middle + 1][1])
        adopted = len(seg.element_children)
        store.save_indexed(document, "ms", manager)
        insert_rows = conn.total_changes - before
        before = conn.total_changes
        editor.remove_markup(seg)
        store.save_indexed(document, "ms", manager)
        remove_rows = conn.total_changes - before
    finally:
        store.close()
        document.detach_index()
    return {"siblings": siblings, "adopted": adopted,
            "insert_rows": insert_rows, "remove_rows": remove_rows}


def report_structural(rows: list[dict[str, int]]) -> str:
    lines = [
        "E11 — rows written per structural publish among N top-level "
        "siblings",
        f"{'siblings':>9} {'insert':>7} {'remove':>7}",
    ]
    for row in rows:
        lines.append(f"{row['siblings']:>9} {row['insert_rows']:>7} "
                     f"{row['remove_rows']:>7}")
    return "\n".join(lines)


def run(tmp_dir) -> list[dict[str, float]]:
    return [measure_size(words, tmp_dir) for words in SIZES]


def report(rows: list[dict[str, float]]) -> str:
    lines = [
        "E11 — rows written per attribute-only save "
        "(delta vs full rewrite)",
        f"{'words':>8} {'elements':>9} {'delta':>7} {'rewrite':>9} "
        f"{'reduction':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['words']:>8} {row['elements']:>9} "
            f"{row['delta_rows']:>7} {row['rewrite_rows']:>9} "
            f"{row['reduction']:>9.0f}x"
        )
    return "\n".join(lines)


def test_e11_small_delta_save_is_o1_rows(tmp_path):
    """CI smoke (small corpus): the delta save writes a constant handful
    of rows — bounded absolutely, not merely relatively."""
    row = measure_size(SIZES[0], tmp_path)
    print("\n" + report([row]))
    assert row["delta_rows"] <= 10, row
    assert row["reduction"] >= REDUCTION_BAR, row


def test_e11_delta_saves_meet_the_reduction_bar(tmp_path):
    """Acceptance bar: ≥ 10x fewer rows written than a full rewrite at
    the 8k-word corpus (the delta row count must also stay flat across
    sizes — O(1), not a smaller O(n))."""
    rows = run(tmp_path)
    print("\n" + report(rows))
    largest = rows[-1]
    assert largest["reduction"] >= REDUCTION_BAR, largest
    deltas = [row["delta_rows"] for row in rows]
    assert max(deltas) <= 10, deltas  # flat: O(1) per save
    assert largest["rewrite_rows"] > largest["elements"]  # the old cost


def test_e11_structural_publishes_are_flat_in_siblings(tmp_path):
    """An insert and a removal among N top-level siblings each write a
    constant handful of rows at every N."""
    rows = [measure_structural(n, tmp_path) for n in SIBLINGS]
    print("\n" + report_structural(rows))
    assert all(row["adopted"] == 2 for row in rows), rows
    writes = [row[key] for row in rows
              for key in ("insert_rows", "remove_rows")]
    assert max(writes) <= 10, rows  # flat: O(1) per publish


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        rows = run(Path(tmp))
        structural = [measure_structural(n, Path(tmp)) for n in SIBLINGS]
    sys.stdout.write(report(rows) + "\n\n"
                     + report_structural(structural) + "\n")
