"""The xTagger editing engine.

The demo's authoring tool lets a user *select a document fragment and
choose the appropriate markup for it, from any of the XML hierarchies
associated with the document*, with prevalidation rejecting edits that
can never lead to a valid document.  This module is that engine, minus
the Swing GUI: range-based markup insertion and removal, attribute
edits, tag-menu suggestions, undo/redo, and per-hierarchy validity
reporting.

All operations go through the command log, so an editing session is
fully replayable and reversible.

Every operation — including each undo and redo — maps to exactly one
tracked document mutation, so it emits exactly one typed change record
(:mod:`repro.core.changes`) into the document's delta journal.  An
attached :class:`~repro.index.manager.IndexManager` replays those
records to keep its indexes warm across an editing session instead of
rebuilding them after every edit.
"""

from __future__ import annotations

from typing import Mapping

from ..core.goddag import GoddagDocument
from ..core.node import Element
from ..dtd.potential import PotentialValidity
from ..dtd.validate import Violation, validate_hierarchy
from ..errors import EditError, MarkupConflictError, PotentialValidityError
from .history import Command, History


class Editor:
    """A scripted editing session over one GODDAG document."""

    def __init__(self, document: GoddagDocument, prevalidate: bool = True) -> None:
        self.document = document
        self.history = History()
        self.prevalidate = prevalidate
        self._checkers: dict[str, PotentialValidity] = {}
        if prevalidate:
            for name in document.hierarchy_names():
                dtd = document.hierarchy(name).dtd
                if dtd is not None:
                    self._checkers[name] = PotentialValidity(dtd)

    # -- selection helpers ----------------------------------------------------------

    def find_text(self, needle: str, occurrence: int = 1) -> tuple[int, int]:
        """The character range of the ``occurrence``-th ``needle``.

        The scripted stand-in for selecting text with the mouse.
        """
        position = -1
        for _ in range(occurrence):
            position = self.document.text.find(needle, position + 1)
            if position == -1:
                raise EditError(
                    f"occurrence {occurrence} of {needle!r} not found"
                )
        return position, position + len(needle)

    # -- markup operations ---------------------------------------------------------------

    def insert_markup(
        self,
        hierarchy: str,
        tag: str,
        start: int,
        end: int,
        attributes: Mapping[str, str] | None = None,
    ) -> Element:
        """Wrap ``[start, end)`` in ``<tag>`` within ``hierarchy``.

        With prevalidation on and a DTD attached to the hierarchy, the
        edit is rejected (and rolled back) if it would destroy
        potential validity.
        """
        attrs = dict(attributes or {})
        cell: dict[str, Element | None] = {"element": None}
        document = self.document
        checker = self._checkers.get(hierarchy)

        def do() -> Element:
            element = document.insert_element(hierarchy, tag, start, end, attrs)
            if checker is not None:
                violations = checker.check_affected(document, element)
                if violations:
                    document.remove_element(element)
                    raise PotentialValidityError(
                        str(violations[0]),
                        tag=tag, hierarchy=hierarchy,
                    )
            cell["element"] = element
            return element

        def undo() -> None:
            element = cell["element"]
            if element is None:
                return
            try:
                document.remove_element(element)
            except MarkupConflictError:
                # The captured object went stale: a later removal was
                # undone, re-creating the element as a *new* object with
                # the same signature.  Resolve it like redo-of-removal
                # does.
                document.remove_element(
                    _resolve(document, hierarchy, tag, start, end)
                )
            cell["element"] = None

        label = f"insert <{tag}> [{start},{end}) in {hierarchy}"
        return self.history.record(Command(label, do, undo))

    def insert_milestone(
        self,
        hierarchy: str,
        tag: str,
        offset: int,
        attributes: Mapping[str, str] | None = None,
    ) -> Element:
        """Insert a zero-width element at ``offset``."""
        return self.insert_markup(hierarchy, tag, offset, offset, attributes)

    def remove_markup(self, element: Element) -> None:
        """Remove one element (children are spliced up).

        Note that removal cannot violate *potential* validity — any
        completion of the slimmer document was available before — so no
        prevalidation is needed (classical validity may still regress;
        see :meth:`validate`).
        """
        document = self.document
        spec = (element.hierarchy, element.tag, element.start, element.end,
                dict(element.attributes))
        cell: dict[str, Element | None] = {"element": element}

        def do() -> None:
            target = cell["element"]
            if target is None:
                target = _resolve(document, *spec[:4])
            document.remove_element(target)
            cell["element"] = None

        def undo() -> None:
            hierarchy, tag, start, end, attrs = spec
            cell["element"] = document.insert_element(
                hierarchy, tag, start, end, attrs
            )

        label = f"remove <{spec[1]}> [{spec[2]},{spec[3]}) from {spec[0]}"
        self.history.record(Command(label, do, undo))

    def set_attribute(self, element: Element, name: str, value: str) -> None:
        """Set one attribute (undoable).  An element that is not in the
        document (removed earlier, or ``None``) raises
        :class:`~repro.errors.MarkupConflictError` before any change."""
        document = self.document
        document.require_attached(element)
        had = name in element.attributes
        old = element.attributes.get(name)

        def do() -> None:
            document.set_attribute(element, name, value)

        def undo() -> None:
            if had:
                document.set_attribute(element, name, old)
            else:
                document.remove_attribute(element, name)

        self.history.record(
            Command(f"set @{name}={value!r} on <{element.tag}>", do, undo)
        )

    def remove_attribute(self, element: Element, name: str) -> None:
        """Delete one attribute (undoable; unattached elements raise
        like :meth:`set_attribute`)."""
        document = self.document
        document.require_attached(element)
        if name not in element.attributes:
            raise EditError(f"<{element.tag}> has no attribute {name!r}")
        old = element.attributes[name]

        def do() -> None:
            document.remove_attribute(element, name)

        def undo() -> None:
            document.set_attribute(element, name, old)

        self.history.record(
            Command(f"remove @{name} from <{element.tag}>", do, undo)
        )

    # -- the tag menu -----------------------------------------------------------------------

    def suggest_tags(self, hierarchy: str, start: int, end: int) -> frozenset[str]:
        """Tags insertable over ``[start, end)`` in ``hierarchy``.

        With a DTD: exactly the prevalidation-approved tags (xTagger's
        menu).  Without one: the tags already observed in the hierarchy
        that would not conflict structurally.
        """
        checker = self._checkers.get(hierarchy)
        if checker is not None:
            return checker.insertable_tags(self.document, hierarchy, start, end)
        allowed = set()
        with self.document.speculation():
            for tag in self.document.hierarchy(hierarchy).tags:
                try:
                    element = self.document.insert_element(
                        hierarchy, tag, start, end
                    )
                except Exception:
                    continue
                self.document.remove_element(element)
                allowed.add(tag)
        return frozenset(allowed)

    # -- session control -----------------------------------------------------------------------

    def undo(self) -> str:
        return self.history.undo()

    def redo(self) -> str:
        return self.history.redo()

    def transcript(self) -> list[str]:
        """Labels of all applied edits, oldest first."""
        return self.history.labels()

    # -- validity reporting ------------------------------------------------------------------------

    def validate(self, hierarchy: str | None = None) -> list[Violation]:
        """Classical DTD validation of one or all hierarchies."""
        names = (hierarchy,) if hierarchy else self.document.hierarchy_names()
        violations: list[Violation] = []
        for name in names:
            violations.extend(validate_hierarchy(self.document, name))
        return violations

    def check_potential_validity(
        self, hierarchy: str | None = None
    ) -> list[Violation]:
        """Potential-validity report for hierarchies with DTDs."""
        names = (hierarchy,) if hierarchy else self.document.hierarchy_names()
        violations: list[Violation] = []
        for name in names:
            checker = self._checkers.get(name)
            if checker is not None:
                violations.extend(checker.check_hierarchy(self.document, name))
        return violations


def _resolve(
    document: GoddagDocument, hierarchy: str, tag: str, start: int, end: int
) -> Element:
    """Find the element with this signature (used by redo of removals)."""
    for element in document.elements(hierarchy=hierarchy, tag=tag):
        if element.start == start and element.end == end:
            return element
    raise EditError(
        f"no <{tag}> [{start},{end}) in hierarchy {hierarchy!r} to remove"
    )
