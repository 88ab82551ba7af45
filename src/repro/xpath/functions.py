"""The Extended XPath function library.

The XPath 1.0 core library (minus id()/lang(), which presuppose DTD ID
semantics the framework does not need) plus concurrent-markup extension
functions: ``hierarchy()``, ``start()``, ``end()``, ``span-length()``,
``overlap-text()``, ``overlaps()``, ``leaf-count()``, and
``element-by-id()`` — keyed resolution of a persistent element id
(``Element.elem_id``), the cross-session node-handle lookup.

Every function receives ``(context, args)`` with args already evaluated;
``context`` exposes the node, position, size, and coercion helpers of
the evaluator, so functions stay small.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from ..core.node import Element
from ..errors import XPathEvaluationError
from .axes import AttributeNode, DocumentNode

if TYPE_CHECKING:  # pragma: no cover
    from .evaluator import Context


def string_value(node) -> str:
    """The XPath string-value of any node kind."""
    if isinstance(node, AttributeNode):
        return node.value
    if isinstance(node, DocumentNode):
        return node.document.text
    return node.text


def node_name(node) -> str:
    """The XPath name() of any node kind."""
    if isinstance(node, AttributeNode):
        return node.name
    if isinstance(node, DocumentNode):
        return ""
    if isinstance(node, Element):
        return node.tag
    return ""  # leaves have no name


def _context_or_first(context: "Context", args: list):
    """Many string functions default to the context node."""
    if not args:
        return context.node
    value = args[0]
    if isinstance(value, list):
        if not value:
            return None
        return value[0]
    return value


def _as_string(context: "Context", value) -> str:
    return context.to_string(value)


def _as_number(context: "Context", value) -> float:
    return context.to_number(value)


# -- node-set functions -------------------------------------------------------

def fn_last(context, args):
    return float(context.size)


def fn_position(context, args):
    return float(context.position)


def fn_count(context, args):
    (nodes,) = args
    if not isinstance(nodes, list):
        raise XPathEvaluationError("count() expects a node-set")
    return float(len(nodes))


def fn_name(context, args):
    target = _context_or_first(context, args)
    return node_name(target) if target is not None else ""


def fn_local_name(context, args):
    return fn_name(context, args)


# -- string functions ------------------------------------------------------------

def fn_string(context, args):
    if not args:
        return string_value(context.node)
    return _as_string(context, args[0])


def fn_concat(context, args):
    if len(args) < 2:
        raise XPathEvaluationError("concat() needs at least two arguments")
    return "".join(_as_string(context, a) for a in args)


def fn_starts_with(context, args):
    a, b = (_as_string(context, v) for v in args)
    return a.startswith(b)


def fn_contains(context, args):
    a, b = (_as_string(context, v) for v in args)
    return b in a


def fn_substring_before(context, args):
    a, b = (_as_string(context, v) for v in args)
    index = a.find(b)
    return a[:index] if index >= 0 else ""


def fn_substring_after(context, args):
    a, b = (_as_string(context, v) for v in args)
    index = a.find(b)
    return a[index + len(b):] if index >= 0 else ""


def fn_substring(context, args):
    s = _as_string(context, args[0])
    # XPath is 1-based and rounds its arguments.
    start = round(_as_number(context, args[1]))
    if len(args) >= 3:
        length = round(_as_number(context, args[2]))
        end = start + length
    else:
        end = len(s) + 1
    begin = max(1, start)
    if math.isnan(start) or end <= begin:
        return ""
    return s[begin - 1 : end - 1]


def fn_string_length(context, args):
    if args:
        return float(len(_as_string(context, args[0])))
    return float(len(string_value(context.node)))


def fn_normalize_space(context, args):
    if args:
        s = _as_string(context, args[0])
    else:
        s = string_value(context.node)
    return " ".join(s.split())


def fn_translate(context, args):
    s, source, target = (_as_string(context, v) for v in args)
    table = {}
    for i, ch in enumerate(source):
        if ch not in table:
            table[ch] = target[i] if i < len(target) else None
    return "".join(
        table.get(ch, ch) for ch in s if table.get(ch, ch) is not None
    )


# -- boolean functions --------------------------------------------------------------

def fn_boolean(context, args):
    return context.to_boolean(args[0])


def fn_not(context, args):
    return not context.to_boolean(args[0])


def fn_true(context, args):
    return True


def fn_false(context, args):
    return False


# -- number functions ----------------------------------------------------------------

def fn_number(context, args):
    if not args:
        return context.to_number(string_value(context.node))
    return _as_number(context, args[0])


def fn_sum(context, args):
    (nodes,) = args
    if not isinstance(nodes, list):
        raise XPathEvaluationError("sum() expects a node-set")
    return float(sum(context.to_number(string_value(n)) for n in nodes))


def fn_floor(context, args):
    return float(math.floor(_as_number(context, args[0])))


def fn_ceiling(context, args):
    return float(math.ceil(_as_number(context, args[0])))


def fn_round(context, args):
    value = _as_number(context, args[0])
    if math.isnan(value) or math.isinf(value):
        return value
    # XPath rounds .5 towards +infinity.
    return float(math.floor(value + 0.5))


# -- concurrent-markup extension functions ----------------------------------------------

def _target_node(context, args):
    target = _context_or_first(context, args)
    if target is None:
        raise XPathEvaluationError("empty node-set argument")
    return target


def fn_hierarchy(context, args):
    """hierarchy(node?) — the hierarchy name of an element ('' otherwise)."""
    target = _target_node(context, args)
    if isinstance(target, Element) and not target.is_root:
        return target.hierarchy
    if isinstance(target, AttributeNode) and not target.owner.is_root:
        return target.owner.hierarchy
    return ""


def fn_start(context, args):
    """start(node?) — the character offset where the node begins."""
    target = _target_node(context, args)
    if isinstance(target, (AttributeNode, DocumentNode)):
        raise XPathEvaluationError("start() needs an element or leaf")
    return float(target.start)


def fn_end(context, args):
    """end(node?) — the character offset where the node ends."""
    target = _target_node(context, args)
    if isinstance(target, (AttributeNode, DocumentNode)):
        raise XPathEvaluationError("end() needs an element or leaf")
    return float(target.end)


def fn_span_length(context, args):
    """span-length(node?) — number of characters the node covers."""
    target = _target_node(context, args)
    if isinstance(target, (AttributeNode, DocumentNode)):
        raise XPathEvaluationError("span-length() needs an element or leaf")
    return float(target.end - target.start)


def fn_overlap_text(context, args):
    """overlap-text(ns) — text shared between the context node and the
    first node of the argument ('' when disjoint)."""
    if not args or not isinstance(args[0], list):
        raise XPathEvaluationError("overlap-text() expects a node-set")
    if not args[0]:
        return ""
    node, other = context.node, args[0][0]
    if not (isinstance(node, Element) and isinstance(other, Element)):
        return ""
    common = node.span.intersection(other.span)
    if common is None:
        return ""
    return node.document.text[common.start : common.end]


def fn_overlaps(context, args):
    """overlaps(ns) — true when the context element properly overlaps
    any node of the argument."""
    if not args or not isinstance(args[0], list):
        raise XPathEvaluationError("overlaps() expects a node-set")
    node = context.node
    if not isinstance(node, Element):
        return False
    return any(
        isinstance(other, Element) and node.span.overlaps(other.span)
        for other in args[0]
    )


def fn_leaf_count(context, args):
    """leaf-count(node?) — number of shared leaves the node covers."""
    target = _target_node(context, args)
    if not isinstance(target, Element):
        return 1.0 if not isinstance(target, (AttributeNode, DocumentNode)) else 0.0
    return float(len(target.leaves()))


def fn_element_by_id(context, args):
    """element-by-id(n) — the element whose persistent id (birth
    ordinal, ``Element.elem_id``) is ``n``; the empty node-set when no
    such element exists.

    The query-language face of the cross-session node-handle contract:
    ids survive ``save → load`` through the store, so a handle
    recorded in one session resolves keyedly here in any later one —
    no positional re-matching against spans or document order.  (The
    shared root is deliberately not addressable: ``id 0`` yields the
    empty set, like any other unknown id.)
    """
    if len(args) != 1:
        raise XPathEvaluationError("element-by-id() expects one argument")
    number = context.to_number(args[0])
    if math.isnan(number) or math.isinf(number) or number != int(number):
        return []
    found = context.document.element_by_ordinal(int(number))
    return [found] if found is not None and not found.is_root else []


FUNCTIONS: dict[str, Callable] = {
    "last": fn_last,
    "position": fn_position,
    "count": fn_count,
    "name": fn_name,
    "local-name": fn_local_name,
    "string": fn_string,
    "concat": fn_concat,
    "starts-with": fn_starts_with,
    "contains": fn_contains,
    "substring-before": fn_substring_before,
    "substring-after": fn_substring_after,
    "substring": fn_substring,
    "string-length": fn_string_length,
    "normalize-space": fn_normalize_space,
    "translate": fn_translate,
    "boolean": fn_boolean,
    "not": fn_not,
    "true": fn_true,
    "false": fn_false,
    "number": fn_number,
    "sum": fn_sum,
    "floor": fn_floor,
    "ceiling": fn_ceiling,
    "round": fn_round,
    # extensions
    "hierarchy": fn_hierarchy,
    "start": fn_start,
    "end": fn_end,
    "span-length": fn_span_length,
    "overlap-text": fn_overlap_text,
    "overlaps": fn_overlaps,
    "leaf-count": fn_leaf_count,
    "element-by-id": fn_element_by_id,
}
