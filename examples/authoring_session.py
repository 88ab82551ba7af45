"""A scripted xTagger session: range selection, tag menus,
prevalidation, undo/redo — with warm query indexes throughout.

The demo's editor lets a user select a fragment and choose markup for
it from any hierarchy; *prevalidation* rejects edits that could never
be completed into a valid document.  This script drives the same engine
programmatically, and keeps an :class:`~repro.index.IndexManager`
attached for the whole session: every edit emits a change record into
the document's delta journal, and the manager absorbs it in place —
queries between edits stay index-served without a single rebuild.

Run:  python examples/authoring_session.py
"""

import tempfile
from pathlib import Path

from repro import GoddagBuilder, GoddagStore
from repro.dtd import parse_dtd
from repro.editing import Editor
from repro.errors import PotentialValidityError
from repro.index import IndexManager
from repro.xpath import ExtendedXPath

EDITION_DTD = parse_dtd(
    """
    <!ELEMENT r (page+)>
    <!ELEMENT page (head?, line+)>
    <!ELEMENT head (#PCDATA)>
    <!ELEMENT line (#PCDATA | pb | dmg)*>
    <!ELEMENT pb EMPTY>
    <!ELEMENT dmg (#PCDATA)>
    <!ATTLIST dmg type (rubbed | torn) "rubbed">
    """,
    name="edition",
)

TEXT = "On the Consolation first the prisoner laments then philosophy appears"


def main() -> None:
    builder = GoddagBuilder(TEXT)
    builder.add_hierarchy("phys", dtd=EDITION_DTD)
    builder.add_hierarchy("notes")  # free hierarchy, no DTD
    editor = Editor(builder.build())
    # Attach the indexes up front: they ride along for the whole session.
    manager = IndexManager.for_document(editor.document)

    print("=== tagging the page ===")
    editor.insert_markup("phys", "page", 0, len(TEXT))
    start, end = editor.find_text("On the Consolation")
    editor.insert_markup("phys", "head", start, end)
    start, end = editor.find_text("first the prisoner laments")
    editor.insert_markup("phys", "line", start, end)
    start, end = editor.find_text("then philosophy appears")
    editor.insert_markup("phys", "line", start, end)
    print("\n".join("  " + line for line in editor.transcript()))

    print("\n=== the tag menu (what prevalidation allows here) ===")
    start, end = editor.find_text("prisoner")
    print(f"select {TEXT[start:end]!r}; insertable tags:",
          sorted(editor.suggest_tags("phys", start, end)))

    print("\n=== prevalidation rejects hopeless edits ===")
    try:
        # A second head after the lines can never satisfy (head?, line+).
        s, e = editor.find_text("philosophy")
        editor.insert_markup("phys", "head", s, e)
    except PotentialValidityError as exc:
        print("rejected:", exc)

    print("\n=== cross-hierarchy annotation is unrestricted ===")
    s, e = editor.find_text("laments then philosophy")
    note = editor.insert_markup("notes", "theme", s, e)
    print(f"inserted <theme> over {note.text!r} "
          f"(overlaps {[el.tag for el in note.overlapping()]})")

    print("\n=== undo / redo ===")
    print("undo:", editor.undo())
    print("undo:", editor.undo())
    print("redo:", editor.redo())

    print("\n=== final validity report ===")
    print("classical violations:  ", editor.validate("phys") or "none")
    print("potential-validity:    ",
          editor.check_potential_validity("phys") or "ok")

    print("\n=== warm-index editing (the delta protocol) ===")
    # Every edit above emitted a change record; the attached manager
    # absorbed them in place instead of rebuilding.  Queries mid-session
    # are index-served and always byte-identical to the unindexed engine.
    lines = ExtendedXPath("//line").nodes(editor.document)
    print(f"index-served //line -> {len(lines)} hits")
    census = manager.stats()["counts"]
    print(f"builds: {census['index.builds']}"
          f"  deltas applied: {census['index.deltas']}")

    # Persisting keeps the stored index in step too: save_indexed applies
    # the same deltas to the stored rows instead of dropping the index.
    with tempfile.TemporaryDirectory() as tmp:
        with GoddagStore(Path(tmp) / "edition.sqlite") as store:
            store.save_indexed(editor.document, "consolation", manager)
            editor.set_attribute(lines[0], "n", "1")
            store.save_indexed(editor.document, "consolation", manager)
            print("stored <line> count after edit + delta-save:",
                  store.count_tag("consolation", "line"))


if __name__ == "__main__":
    main()
