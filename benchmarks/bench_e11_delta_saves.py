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
  recipe: a full ``save(overwrite=True)`` plus ``build_index`` (what
  keeping a fresh document + index used to cost per save).

The acceptance bar is a ≥ 10x row reduction at the 8k-word corpus (in
practice it is three orders of magnitude — the delta save writes a
constant handful of rows).  Run standalone for the report table::

    PYTHONPATH=src python benchmarks/bench_e11_delta_saves.py

or through pytest (the CI smoke step runs the small size only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e11_delta_saves.py -q
"""

from __future__ import annotations

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
        # pre-identity way (document rewrite + index rebuild).
        editor.set_attribute(lines[1], "rev", "full")
        before = conn.total_changes
        store.save(document, "ms", overwrite=True)
        store.build_index("ms")
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


def emit_json(rows) -> None:
    """E11's honest metric is rows written, not wall time, so the
    scenario samples carry row counts (marked ``units: rows``) — the
    regression check still pairs and ratios them like timings."""
    from _emit import emit
    from repro.obs.benchjson import scenario

    scenarios = []
    for row in rows:
        scenarios.append(scenario(
            "delta_rows", row["words"], [float(row["delta_rows"])],
            units="rows", reduction=round(row["reduction"], 1)))
        scenarios.append(scenario(
            "rewrite_rows", row["words"], [float(row["rewrite_rows"])],
            units="rows"))
    emit("e11_delta_saves", scenarios)


def test_e11_small_delta_save_is_o1_rows(tmp_path):
    """CI smoke (small corpus): the delta save writes a constant handful
    of rows — bounded absolutely, not merely relatively."""
    row = measure_size(SIZES[0], tmp_path)
    print("\n" + report([row]))
    emit_json([row])
    assert row["delta_rows"] <= 10, row
    assert row["reduction"] >= REDUCTION_BAR, row


def test_e11_delta_saves_meet_the_reduction_bar(tmp_path):
    """Acceptance bar: ≥ 10x fewer rows written than a full rewrite at
    the 8k-word corpus (the delta row count must also stay flat across
    sizes — O(1), not a smaller O(n))."""
    rows = run(tmp_path)
    print("\n" + report(rows))
    emit_json(rows)
    largest = rows[-1]
    assert largest["reduction"] >= REDUCTION_BAR, largest
    deltas = [row["delta_rows"] for row in rows]
    assert max(deltas) <= 10, deltas  # flat: O(1) per save
    assert largest["rewrite_rows"] > largest["elements"]  # the old cost


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        rows = run(Path(tmp))
    sys.stdout.write(report(rows) + "\n")
    emit_json(rows)
