"""Unit tests for the xTagger editing engine and its undo/redo log."""

import pytest

from repro import GoddagBuilder
from repro.dtd import parse_dtd
from repro.editing import Editor
from repro.errors import EditError, MarkupConflictError, PotentialValidityError

EDITION_DTD = parse_dtd(
    """
    <!ELEMENT r (page+)>
    <!ELEMENT page (head?, line+)>
    <!ELEMENT head (#PCDATA)>
    <!ELEMENT line (#PCDATA | pb)*>
    <!ELEMENT pb EMPTY>
    """
)

TEXT = "The Title first line here second line here"


def session(with_dtd=True):
    builder = GoddagBuilder(TEXT)
    builder.add_hierarchy("phys", dtd=EDITION_DTD if with_dtd else None)
    builder.add_hierarchy("notes")
    doc = builder.build()
    return Editor(doc), doc


class TestBasicEditing:
    def test_insert_markup(self):
        editor, doc = session()
        page = editor.insert_markup("phys", "page", 0, len(TEXT))
        assert page.tag == "page"
        assert doc.element_count("phys") == 1

    def test_find_text_selection(self):
        editor, _ = session()
        start, end = editor.find_text("first line")
        assert TEXT[start:end] == "first line"

    def test_find_text_occurrence(self):
        editor, _ = session()
        first = editor.find_text("line")
        second = editor.find_text("line", occurrence=2)
        assert first != second

    def test_find_text_missing(self):
        editor, _ = session()
        with pytest.raises(EditError):
            editor.find_text("absent")

    def test_milestone_insert(self):
        editor, doc = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.insert_markup("phys", "line", 10, 25)
        pb = editor.insert_milestone("phys", "pb", 12)
        assert pb.is_empty and pb.parent.tag == "line"

    def test_remove_markup(self):
        editor, doc = session()
        page = editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.remove_markup(page)
        assert doc.element_count("phys") == 0

    def test_attribute_edits(self):
        editor, doc = session()
        page = editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.set_attribute(page, "n", "1")
        assert page.get("n") == "1"
        editor.remove_attribute(page, "n")
        assert page.get("n") is None

    def test_remove_missing_attribute(self):
        editor, _ = session()
        page = editor.insert_markup("phys", "page", 0, len(TEXT))
        with pytest.raises(EditError):
            editor.remove_attribute(page, "nope")


class TestUnattachedAttributeTargets:
    """Attribute edits on an element that is not in the document raise
    :class:`MarkupConflictError` at the call, before any change."""

    def removed_page(self):
        editor, doc = session(with_dtd=False)
        page = editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.set_attribute(page, "n", "1")
        editor.remove_markup(page)
        return editor, doc, page

    @pytest.mark.parametrize("target", ["removed", "none"])
    def test_document_attribute_edits(self, target):
        _, doc, page = self.removed_page()
        element = page if target == "removed" else \
            doc.element_by_ordinal(page.ordinal)
        version = doc.version
        with pytest.raises(MarkupConflictError):
            doc.set_attribute(element, "n", "2")
        with pytest.raises(MarkupConflictError):
            doc.remove_attribute(element, "n")
        assert doc.version == version
        assert page.attributes == {"n": "1"}

    @pytest.mark.parametrize("target", ["removed", "none"])
    def test_editor_attribute_edits(self, target):
        editor, doc, page = self.removed_page()
        element = page if target == "removed" else \
            doc.element_by_ordinal(page.ordinal)
        version = doc.version
        transcript = editor.transcript()
        with pytest.raises(MarkupConflictError):
            editor.set_attribute(element, "n", "2")
        with pytest.raises(MarkupConflictError):
            editor.remove_attribute(element, "n")
        assert doc.version == version
        assert editor.transcript() == transcript

    def test_element_of_another_document(self):
        editor, _ = session(with_dtd=False)
        other_editor, _ = session(with_dtd=False)
        foreign = other_editor.insert_markup("notes", "note", 0, 3)
        with pytest.raises(MarkupConflictError):
            editor.set_attribute(foreign, "n", "1")
        assert foreign.attributes == {}


class TestPrevalidation:
    def test_rejects_undeclared_tag(self):
        editor, doc = session()
        with pytest.raises(PotentialValidityError):
            editor.insert_markup("phys", "mystery", 0, 5)
        assert doc.element_count("phys") == 0  # rolled back

    def test_rejects_hopeless_order(self):
        editor, _ = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.insert_markup("phys", "line", 10, 25)
        with pytest.raises(PotentialValidityError):
            # head after a line can never become (head?, line+)
            editor.insert_markup("phys", "head", 26, 37)

    def test_accepts_head_before_lines(self):
        editor, _ = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.insert_markup("phys", "line", 10, 25)
        head = editor.insert_markup("phys", "head", 0, 9)
        assert head.tag == "head"

    def test_hierarchy_without_dtd_is_unchecked(self):
        editor, doc = session()
        note = editor.insert_markup("notes", "anything", 0, 7)
        assert note.tag == "anything"

    def test_rejected_edit_not_in_history(self):
        editor, _ = session()
        with pytest.raises(PotentialValidityError):
            editor.insert_markup("phys", "mystery", 0, 5)
        assert not editor.history.can_undo

    def test_prevalidation_off(self):
        builder = GoddagBuilder(TEXT)
        builder.add_hierarchy("phys", dtd=EDITION_DTD)
        editor = Editor(builder.build(), prevalidate=False)
        element = editor.insert_markup("phys", "mystery", 0, 5)
        assert element.tag == "mystery"


class TestTagMenu:
    def test_suggestions_follow_dtd(self):
        editor, _ = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        menu = editor.suggest_tags("phys", 10, 25)
        assert "line" in menu
        assert "mystery" not in menu

    def test_suggestions_respect_order(self):
        editor, _ = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.insert_markup("phys", "line", 10, 25)
        late_menu = editor.suggest_tags("phys", 26, 37)
        assert "head" not in late_menu
        assert "line" in late_menu

    def test_suggestions_without_dtd_use_observed_tags(self):
        editor, _ = session()
        editor.insert_markup("notes", "note", 0, 3)
        menu = editor.suggest_tags("notes", 4, 9)
        assert menu == {"note"}


class TestUndoRedo:
    def test_undo_insert(self):
        editor, doc = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.undo()
        assert doc.element_count("phys") == 0

    def test_redo_insert(self):
        editor, doc = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.undo()
        editor.redo()
        assert doc.element_count("phys") == 1
        assert doc.check_invariants() == []

    def test_undo_remove_restores_structure(self):
        editor, doc = session()
        page = editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.insert_markup("phys", "line", 10, 25)
        editor.remove_markup(page)
        editor.undo()
        page_again = next(doc.elements(tag="page"))
        assert [c.tag for c in page_again.element_children] == ["line"]

    def test_undo_attribute(self):
        editor, _ = session()
        page = editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.set_attribute(page, "n", "1")
        editor.set_attribute(page, "n", "2")
        editor.undo()
        assert page.get("n") == "1"
        editor.undo()
        assert page.get("n") is None

    def test_new_edit_clears_redo(self):
        editor, _ = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.undo()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        with pytest.raises(EditError):
            editor.redo()

    def test_undo_empty_stack(self):
        editor, _ = session()
        with pytest.raises(EditError):
            editor.undo()

    def test_full_session_replay(self):
        editor, doc = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.insert_markup("phys", "head", 0, 9)
        editor.insert_markup("phys", "line", 10, 25)
        editor.insert_markup("phys", "line", 26, 42)
        count = doc.element_count("phys")
        for _ in range(4):
            editor.undo()
        assert doc.element_count("phys") == 0
        for _ in range(4):
            editor.redo()
        assert doc.element_count("phys") == count
        assert doc.check_invariants() == []

    def test_transcript(self):
        editor, _ = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        assert editor.transcript() == [
            f"insert <page> [0,{len(TEXT)}) in phys"
        ]


class TestValidityReporting:
    def test_validate_reports_incomplete_document(self):
        editor, _ = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        violations = editor.validate("phys")
        # page needs at least one line: classically invalid...
        assert violations
        # ...but potentially valid: a line can still be added.
        assert editor.check_potential_validity("phys") == []

    def test_complete_document_is_valid(self):
        editor, _ = session()
        editor.insert_markup("phys", "page", 0, len(TEXT))
        editor.insert_markup("phys", "head", 0, 9)
        editor.insert_markup("phys", "line", 10, 25)
        editor.insert_markup("phys", "line", 26, 42)
        assert editor.validate("phys") == []
