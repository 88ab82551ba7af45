"""Lazy partial loading: hydrate stored rows on demand.

``decode_document`` pulls every element row before the first query can
run; :class:`LazyDocument` is the opposite discipline — a handle over a
stored document that fetches rows only as they are asked for:

- :meth:`LazyDocument.element` probes one row by ``elem_id``;
- :meth:`LazyDocument.subtree` hydrates one subtree by interval range
  (the ``(doc_id, start, end)`` index serves the candidate superset,
  parent-chain reachability selects the members);
- :meth:`LazyDocument.text` slices stored text by offset in SQL;
- :meth:`LazyDocument.xpath` answers row-servable queries (``//tag``
  shapes, read from :func:`repro.xpath.classify.path_shape`) straight
  from the element rows — and the root element, which has no row, from
  the document's own columns — hydrating only candidates that can
  actually appear in the answer, and falls back to a full materialized
  evaluation — reported on the ``streaming.lazy_xpath`` fallback
  metric, by reason — for every other shape.

Results are :func:`repro.collection.fanout.node_rows`-shaped tuples, so
a lazy answer can be compared byte-for-byte against a materialized
witness.  :func:`row_answer` turns candidate rows into that answer; the
collection fan-out (:mod:`repro.collection.fanout`) calls it too when it
answers a wide fan-out's members from rows read in one statement.
:attr:`LazyDocument.rows_decoded` counts every element row the view has
hydrated, which is what the benchmarks use to show the ≥4× row savings
of serving from the index.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.goddag import _sibling_order
from ..errors import StorageError
from ..obs import fallback as _obs_fallback
from ..obs.metrics import metrics
from ..storage.schema import ROOT_ID, ElementRow, decode_attributes
from ..xpath.ast import Expr
from ..xpath.classify import ATTR_EQ, path_shape
from ..xpath.engine import ExtendedXPath


def _row_query(ast: Expr) -> tuple | None:
    """``(tag, hierarchy, attr, value)`` when the tag-indexed element
    rows answer the optimized ``ast`` — ``//tag`` or ``//h:tag`` with at
    most one ``[@attr='value']`` predicate (``attr``/``value`` are
    ``None`` without one) — or ``None`` for any other shape."""
    shape = path_shape(ast)
    if (
        shape is None
        or not shape.absolute
        or shape.axis != "descendant"
        or shape.test.name == "*"
        or len(shape.predicates) > 1
        or any(p.kind != ATTR_EQ for p in shape.predicates)
    ):
        return None
    attr, value = shape.predicates[0].key if shape.predicates else (None, None)
    return shape.test.name, shape.test.hierarchy, attr, value


@dataclass(frozen=True)
class LazySubtree:
    """One hydrated subtree: the root row plus every descendant row of
    the same hierarchy, in ascending ``elem_id`` (= preorder) order."""

    root: ElementRow
    rows: tuple[ElementRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def ids(self) -> tuple[int, ...]:
        return tuple(row.elem_id for row in self.rows)

    def children(self, elem_id: int) -> tuple[ElementRow, ...]:
        """Child rows of one member, in sibling order."""
        found = sorted(
            (row for row in self.rows if row.parent_id == elem_id),
            key=lambda row: _sibling_order(row.start, row.end, row.elem_id),
        )
        return tuple(found)


class LazyDocument:
    """An on-demand view over one stored document (sqlite backend).

    Construction probes only the document's metadata row and hierarchy
    table; element rows are fetched as queries need them and cached by
    ``elem_id``.  The view is a *read snapshot by convention*: like the
    other row-level readers it sees whatever the store holds at each
    probe, so callers wanting isolation pair it with the document
    service's snapshot sessions.
    """

    def __init__(self, backend, name: str) -> None:
        self._backend = backend
        self._name = name
        doc_id, root_tag, root_attributes, length = backend.document_meta(name)
        self.doc_id = doc_id
        self.root_tag = root_tag
        self.root_attributes = decode_attributes(root_attributes, ROOT_ID)
        self.length = length
        self.hierarchies = backend.hierarchy_names_of(name)
        self._ranks = {hname: rank
                       for rank, hname in enumerate(self.hierarchies)}
        self._rows: dict[int, ElementRow] = {}
        self._depths: dict[int, int] = {}
        #: Element rows hydrated from storage so far (cache misses only).
        self.rows_decoded = 0

    @property
    def name(self) -> str:
        return self._name

    # -- row hydration -------------------------------------------------------------

    def _remember(self, row: ElementRow) -> ElementRow:
        if row.elem_id not in self._rows:
            self._rows[row.elem_id] = row
            self.rows_decoded += 1
            metrics.incr("lazy.rows_hydrated")
        return self._rows[row.elem_id]

    def element(self, elem_id: int) -> ElementRow:
        """The stored row of one element, hydrating it if needed."""
        cached = self._rows.get(elem_id)
        if cached is not None:
            return cached
        row = self._backend.element_row_full(self._name, elem_id)
        if row is None:
            raise StorageError(
                f"document {self._name!r} has no element {elem_id}"
            )
        return self._remember(row)

    def subtree(self, elem_id: int) -> LazySubtree:
        """Hydrate the subtree rooted at ``elem_id``.

        One ranged scan serves the candidate superset (every same-
        hierarchy row inside the root's interval); membership is then
        decided by parent-chain reachability in a single ascending
        ``elem_id`` pass — within one hierarchy ordinals are assigned
        in open order, so every parent precedes its children.
        """
        root = self.element(elem_id)
        candidates = self._backend.element_rows_in_span(
            self._name, root.hierarchy, root.start, root.end
        )
        members = {root.elem_id}
        rows = [root]
        for row in candidates:
            if row.elem_id == root.elem_id:
                continue
            if row.parent_id in members:
                members.add(row.elem_id)
                rows.append(self._remember(row))
        rows.sort(key=lambda row: row.elem_id)
        return LazySubtree(root=root, rows=tuple(rows))

    def text(self, start: int = 0, end: int | None = None) -> str:
        """The shared text between ``start`` and ``end``, sliced in SQL."""
        if end is None:
            end = self.length
        return self._backend.text_of(self._name, start, end)

    # -- queries -------------------------------------------------------------------

    def xpath(self, expression: str) -> tuple:
        """Evaluate ``expression``, hydrating as little as possible.

        Row-servable shapes (``//tag``, ``//h:tag``, one optional
        ``[@a='v']`` predicate — after optimization) are answered from
        the tag-indexed element rows, decoding only the candidates the
        SQL prefilter admits; a name test that selects the root element,
        which is not an element row, reads it from the columns the view
        already holds.  Everything else falls back to a full
        materialized evaluation.  Either way the result is the
        ``node_rows`` tuple encoding of the engine's answer.
        """
        query = ExtendedXPath(expression)
        served = _row_query(query.ast)
        if served is None:
            return self._xpath_materialized(query, "unsupported-shape")
        tag, hierarchy, attr, value = served
        with metrics.time("lazy.xpath_rows"):
            rows = self._backend.element_rows_by_tag(
                self._name, tag, hierarchy=hierarchy, attr=attr, value=value,
            )
            for row in rows:
                self._remember(row)
            return row_answer(rows, served, self._ranks, self.element,
                              self._depths, (self.root_tag,
                                             self.root_attributes,
                                             self.length))

    def _xpath_materialized(self, query: ExtendedXPath, reason: str) -> tuple:
        from ..collection.fanout import node_rows

        _obs_fallback("streaming.lazy_xpath", reason, detail=query.expression)
        document = self._backend.load(self._name)
        self.rows_decoded += document.element_count()
        value = query.evaluate(document, index=False)
        return node_rows(value)


# -- answers from rows -------------------------------------------------------------


def row_answer(rows: list[ElementRow], served: tuple, ranks: dict[str, int],
               element, depths: dict[int, int],
               root: tuple[str, dict[str, str], int] | None) -> tuple:
    """The ``node_rows`` answer of the row query ``served`` (see
    :func:`_row_query`) over its candidate ``rows`` of one document.

    Rows the ``instr`` prefilter admitted without holding
    ``[@attr='value']`` are dropped, and the rest are sorted into
    document order: ``ranks`` maps the document's hierarchy names to
    their rank, ``element(elem_id)`` returns any row of the document
    (parents are hydrated through it for tie groups only), and
    ``depths`` memoizes depths by ``elem_id``.  ``root`` is the root
    element's ``(tag, attributes, text length)``, or ``None`` when the
    caller knows the name test does not select it; a selected root has
    no row and comes first, as in document order.  The one conversion
    behind :meth:`LazyDocument.xpath` and the collection fan-out.
    """
    tag, hierarchy, attr, value = served
    head = ()
    if root is not None and hierarchy is None and root[0] == tag and (
            attr is None or root[1].get(attr) == value):
        # A hierarchy-qualified test never selects the shared root
        # (:func:`repro.xpath.axes.node_test_matches`).
        head = (("element", ROOT_ID, "", tag, 0, root[2],
                 tuple(sorted(root[1].items()))),)
    survivors = []
    decoded: dict[int, dict[str, str]] = {}
    for row in rows:
        attributes = decode_attributes(row.attributes, row.elem_id)
        if attr is not None and attributes.get(attr) != value:
            continue  # instr prefilter false positive
        decoded[row.elem_id] = attributes
        survivors.append(row)
    return head + tuple(
        ("element", row.elem_id, row.hierarchy, row.tag,
         row.start, row.end, tuple(sorted(decoded[row.elem_id].items())))
        for row in _document_order(survivors, ranks, element, depths)
    )


def _document_order(rows: list[ElementRow], ranks: dict[str, int], element,
                    depths: dict[int, int]) -> list[ElementRow]:
    """Sort rows by GODDAG document order (see
    :func:`repro.core.navigation.order_key`).

    The leading key — ``(start, zero-width-first, -end, hierarchy
    rank)`` — comes straight from the rows; the ``(depth, ordinal)``
    tail only matters inside tie groups, so parent chains are walked
    (and their rows hydrated) for those alone.
    """
    keyed = [
        ((row.start, 0 if row.start == row.end else 1,
          -row.end, ranks[row.hierarchy]), row)
        for row in rows
    ]
    keyed.sort(key=lambda pair: pair[0])
    ordered: list[ElementRow] = []
    at = 0
    while at < len(keyed):
        upto = at + 1
        while upto < len(keyed) and keyed[upto][0] == keyed[at][0]:
            upto += 1
        group = [row for _, row in keyed[at:upto]]
        if len(group) > 1:
            group.sort(key=lambda row: (_depth(row, element, depths),
                                        row.elem_id))
        ordered.extend(group)
        at = upto
    return ordered


def _depth(row: ElementRow, element, depths: dict[int, int]) -> int:
    """Parent hops to a top-level element (top level = depth 0)."""
    if row.parent_id == ROOT_ID:
        return 0
    cached = depths.get(row.elem_id)
    if cached is not None:
        return cached
    depth = _depth(element(row.parent_id), element, depths) + 1
    depths[row.elem_id] = depth
    return depth
