"""Recognizers for row-servable query shapes.

The lazy storage view (:mod:`repro.streaming.lazy`) can answer some
queries straight from stored element rows, without materializing a
document.  This module decides *which* queries: it pattern-matches the
**optimized** AST (so surface spellings like ``//w`` and
``/descendant-or-self::node()/child::w`` land on the same shape) against
the forms the row readers can serve.

Currently that is the single-step absolute descendant name test —
``//tag``, ``//h:tag``, optionally with one ``[@name='value']``
equality predicate — which maps one-to-one onto
``SqliteStore.element_rows_by_tag``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ast import Expr, LocationPath, Step
from .optimizer import indexable_attr_eq


@dataclass(frozen=True)
class DescendantTagShape:
    """``//tag`` (optionally hierarchy-qualified, optionally with one
    ``[@attr='value']`` predicate), after optimization."""

    tag: str
    hierarchy: Optional[str]
    attr: Optional[str] = None
    value: Optional[str] = None


def descendant_tag_shape(ast: Expr) -> DescendantTagShape | None:
    """Match ``ast`` against :class:`DescendantTagShape`, else ``None``."""
    if not isinstance(ast, LocationPath) or not ast.absolute:
        return None
    if len(ast.steps) != 1:
        return None
    step: Step = ast.steps[0]
    if step.axis != "descendant":
        return None
    test = step.test
    if test.kind != "name" or test.name == "*":
        return None
    if not step.predicates:
        return DescendantTagShape(test.name, test.hierarchy)
    if len(step.predicates) != 1:
        return None
    equality = indexable_attr_eq(step.predicates[0])
    if equality is None:
        return None
    return DescendantTagShape(test.name, test.hierarchy,
                              equality[0], equality[1])
