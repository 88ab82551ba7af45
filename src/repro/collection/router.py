"""Routing-feature extraction for cross-document queries.

The collection summary (``collection_summary`` in
:mod:`repro.storage.sqlite_backend`) maps per-document populations —
tags, hierarchy-agnostic label paths, term-index tokens, attribute
``(name, value)`` postings — to the documents that hold them.  This
module derives, from a compiled per-document XPath AST, the set of
**necessary conditions** a document must satisfy for the query to
return anything: every feature is a population the document *must*
have, so a document missing one can be skipped without evaluating it.

The extraction is deliberately conservative — DescribeX-style pruning
where soundness is non-negotiable:

* only shapes whose semantics are fully understood contribute features
  (name tests, ``and``/``or``, existence paths, ``contains``/
  ``starts-with`` on the context node with indexable literals,
  ``@name = 'literal'``); everything else — ``not()``, ``count()``,
  positional predicates, arithmetic, variables — contributes nothing
  and the document is kept;
* ``or`` takes the *intersection* of its branches (a feature must be
  necessary whichever branch fires), ``and`` the union, and a top-level
  union of paths likewise intersects;
* the shared GODDAG root needs care: ``//x`` can select the root
  element and ``ancestor::x`` can reach it, yet the root is not an
  element row — so a tag feature is satisfied by the root tag too, and
  the first step of an absolute path becomes a ``root`` feature rather
  than a ``tag`` feature (the backend matches both against
  ``documents.root_tag``; see ``SqliteStore.route_documents``).

A false positive costs one wasted per-document evaluation; a false
negative would change answers — the differential harness
(``tests/test_collection_differential.py``) holds routed and unrouted
runs byte-identical across random corpora and edit scripts.
"""

from __future__ import annotations

from ..index.structural import encode_path
from ..xpath.ast import (
    Binary,
    Expr,
    FilterExpr,
    LocationPath,
    Step,
    Union,
)
from ..xpath.classify import ATTR_EQ, predicate_shape

#: A routing feature: ``("root", tag)``, ``("tag", tag)``,
#: ``("term", needle)``, ``("attr", name, value)``, or
#: ``("path", encoded_label_path)``.
Feature = tuple


def routing_features(expr: Expr) -> frozenset[Feature]:
    """The necessary-condition features of a per-document expression."""
    return frozenset(_expr_features(expr))


def _expr_features(expr: Expr) -> set[Feature]:
    if isinstance(expr, LocationPath):
        return _path_features(expr)
    if isinstance(expr, Union):
        return _expr_features(expr.left) & _expr_features(expr.right)
    if isinstance(expr, FilterExpr):
        feats = _expr_features(expr.primary)
        feats |= _predicate_set(expr.predicates)
        for step in expr.steps:
            feats |= _step_features(step)
        return feats
    return set()


def _path_features(path: LocationPath) -> set[Feature]:
    feats: set[Feature] = set()
    steps = path.steps
    start = 0
    if path.absolute and steps and steps[0].axis == "child":
        # The first child step of an absolute path selects against the
        # shared root, which is not an element row: a plain name test
        # here pins the stored root tag instead of a tag population.
        head = steps[0]
        test = head.test
        if (test.kind == "name" and test.name != "*"
                and test.hierarchy is None):
            feats.add(("root", test.name))
        feats |= _predicate_set(head.predicates)
        start = 1
        # An unbroken child chain below the root is a label path: every
        # match of the last step heads a partition whose (hierarchy-
        # agnostic) encoded path must be populated.
        chain: list[str] | None = []
        for step in steps[1:]:
            if (step.axis == "child" and step.test.kind == "name"
                    and step.test.name != "*"):
                chain.append(step.test.name)
            else:
                chain = None
                break
        if chain:
            feats.add(("path", encode_path(tuple(chain))))
    for step in steps[start:]:
        feats |= _step_features(step)
    return feats


def _step_features(step: Step) -> set[Feature]:
    feats = _predicate_set(step.predicates)
    # A name test on any element axis requires the tag to exist in the
    # document (the backend also accepts a matching root tag, since
    # ancestor:: and // reach the shared root).  The attribute axis
    # names attributes, not tags.
    if (step.axis != "attribute" and step.test.kind == "name"
            and step.test.name != "*"):
        feats.add(("tag", step.test.name))
    return feats


def _predicate_set(predicates: tuple[Expr, ...]) -> set[Feature]:
    feats: set[Feature] = set()
    for predicate in predicates:
        feats |= _predicate_features(predicate)
    return feats


def _predicate_features(predicate: Expr) -> set[Feature]:
    if isinstance(predicate, LocationPath):
        # Existence test: some node must satisfy the path for the
        # predicate to hold anywhere.
        return _path_features(predicate)
    if isinstance(predicate, (Union, FilterExpr)):
        return _expr_features(predicate)
    if isinstance(predicate, Binary) and predicate.op == "and":
        return (_predicate_features(predicate.left)
                | _predicate_features(predicate.right))
    if isinstance(predicate, Binary) and predicate.op == "or":
        return (_predicate_features(predicate.left)
                & _predicate_features(predicate.right))
    shape = predicate_shape(predicate)
    if shape.kind == ATTR_EQ:
        # Root attributes are not posting rows; the backend backs this
        # feature with a root-attribute prefilter, so the extraction
        # stays sound even for predicates that can land on the root.
        return {("attr", *shape.key)}
    if shape.term_indexable:
        # The tested text is part of the document text, so some token
        # must contain the literal (term keys are single tokens — the
        # backend matches by substring).
        return {("term", shape.needle)}
    return set()


def describe(features: frozenset[Feature]) -> list[str]:
    """Stable human-readable labels for a feature set (explain output)."""
    labels = []
    for feature in sorted(features):
        if feature[0] == "attr":
            labels.append(f"attr @{feature[1]}={feature[2]!r}")
        elif feature[0] == "path":
            labels.append(f"path /{feature[1]}")
        else:
            labels.append(f"{feature[0]} {feature[1]!r}")
    return labels


__all__ = ["Feature", "routing_features", "describe"]
