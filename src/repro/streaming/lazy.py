"""Lazy partial loading: hydrate stored rows on demand.

``decode_document`` pulls every element row before the first query can
run; :class:`LazyDocument` is the opposite discipline — a handle over a
stored document that fetches rows only as they are asked for:

- :meth:`LazyDocument.element` probes one row by ``elem_id``;
- :meth:`LazyDocument.subtree` hydrates one subtree by interval range
  (the ``(doc_id, start, end)`` index serves the candidate superset,
  parent-chain reachability selects the members);
- :meth:`LazyDocument.text` slices stored text by offset in SQL;
- :meth:`LazyDocument.xpath` answers row-servable queries (see
  :mod:`repro.xpath.shapes`) straight from the element rows, hydrating
  only candidates that can actually appear in the answer, and falls
  back to a full materialized evaluation — reported on the
  ``streaming.lazy_xpath`` fallback metric — for every other shape.

Results are :func:`repro.collection.fanout.node_rows`-shaped tuples, so
a lazy answer can be compared byte-for-byte against a materialized
witness.  :attr:`LazyDocument.rows_decoded` counts every element row
the view has hydrated, which is what the benchmarks use to show the
≥4× row savings of serving from the index.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageError
from ..obs import fallback as _obs_fallback
from ..obs.metrics import metrics
from ..storage.schema import ROOT_ID, ElementRow, decode_attributes
from ..xpath.engine import ExtendedXPath
from ..xpath.optimizer import optimize
from ..xpath.parser import parse_xpath
from ..xpath.shapes import descendant_tag_shape


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
        """Child rows of one member, in ``child_rank`` order."""
        found = sorted(
            (row for row in self.rows if row.parent_id == elem_id),
            key=lambda row: row.child_rank,
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
        SQL prefilter admits.  Everything else falls back to a full
        materialized evaluation.  Either way the result is the
        ``node_rows`` tuple encoding of the engine's answer.
        """
        ast = optimize(parse_xpath(expression))
        shape = descendant_tag_shape(ast)
        if shape is None:
            return self._xpath_materialized(expression, "unsupported-shape")
        if not self._backend.has_index(self._name):
            return self._xpath_materialized(expression, "no-index")
        with metrics.time("lazy.xpath_rows"):
            rows = self._backend.element_rows_by_tag(
                self._name, shape.tag, hierarchy=shape.hierarchy,
                attr=shape.attr, value=shape.value,
            )
            survivors = []
            decoded: dict[int, dict[str, str]] = {}
            for row in rows:
                self._remember(row)
                attributes = decode_attributes(row.attributes, row.elem_id)
                if (shape.attr is not None
                        and attributes.get(shape.attr) != shape.value):
                    continue  # instr prefilter false positive
                decoded[row.elem_id] = attributes
                survivors.append(row)
            ordered = self._document_order(survivors)
        return tuple(
            ("element", row.elem_id, row.hierarchy, row.tag,
             row.start, row.end, tuple(sorted(decoded[row.elem_id].items())))
            for row in ordered
        )

    def _xpath_materialized(self, expression: str, reason: str) -> tuple:
        from ..collection.fanout import node_rows

        _obs_fallback("streaming.lazy_xpath", reason, detail=expression)
        document = self._backend.load(self._name)
        self.rows_decoded += document.element_count()
        value = ExtendedXPath(expression).evaluate(document, index=False)
        return node_rows(value)

    # -- document order over rows -----------------------------------------------------

    def _depth(self, row: ElementRow) -> int:
        """Parent hops to a top-level element (top level = depth 0)."""
        if row.parent_id == ROOT_ID:
            return 0
        cached = self._depths.get(row.elem_id)
        if cached is not None:
            return cached
        depth = self._depth(self.element(row.parent_id)) + 1
        self._depths[row.elem_id] = depth
        return depth

    def _document_order(self, rows: list[ElementRow]) -> list[ElementRow]:
        """Sort rows by GODDAG document order (see
        :func:`repro.core.navigation.order_key`).

        The leading key — ``(start, zero-width-first, -end, hierarchy
        rank)`` — comes straight from the rows; the ``(depth, ordinal)``
        tail only matters inside tie groups, so parent chains are
        walked (and their rows hydrated) for those alone.
        """
        ranks = self._ranks
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
                group.sort(key=lambda row: (self._depth(row), row.elem_id))
            ordered.extend(group)
            at = upto
        return ordered
