"""Property test (hypothesis): index on and index off agree on every query.

Expressions come from a small grammar over the fixture's tag names and
hierarchies: every axis, the predicate shapes the classifier recognizes
(``contains(., 'lit')``, ``starts-with(., 'lit')``, ``@n = 'v'``,
``overlapping::B`` and its ``-left`` / ``-right`` forms) and their near
misses (wrong arity, a ``..`` or ``@n`` subject, a non-literal operand,
``@h:n``, ``@*``, ``@n[1]``; ``overlapping::B[1]``, ``overlapping::*``,
``overlapping::text()``, ``not(...)``, ``count(...) > 1``, a trailing
positional predicate, ``../overlapping::B``, ``containing::B``),
positional predicates, nesting (``not``, ``and``/``or``, paths inside
predicates), the overlap step forms ``A/overlapping-left::B`` and
``A/overlapping-right::B``, plus the occasional malformed fragment.

Every generated expression must parse or raise ``XPathSyntaxError``.
On a seeded indexed document it must give the same answer, or raise
the same ``ReproError`` subclass, with ``index=None`` (planned,
index-served) and ``index=False`` (the classic engine).
``REPRO_DIFF_SEEDS`` scales the number of examples.
"""

from __future__ import annotations

import math
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.node import Element, Leaf
from repro.errors import ReproError, XPathSyntaxError
from repro.index import IndexManager
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath
from repro.xpath.axes import AttributeNode, DocumentNode
from repro.xpath.parser import ALL_AXES

EXAMPLES = 200 * max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1")))

DOCUMENT = generate(
    WorkloadSpec(words=40, hierarchies=4, overlap_density=0.3, seed=11)
)
IndexManager.for_document(DOCUMENT)

TAGS = ("w", "line", "s", "vline", "page", "pb", "dmg", "res", "nosuch")
HIERARCHIES = ("linguistic", "physical", "verse", "editorial")
#: Term-indexable needles (some present in the text) and needles the
#: term index must refuse (empty, spaces, punctuation); attribute values
#: present in the document and absent from it.
NEEDLES = ("a", "ae", "cyn", "len", "th", "zz9", "", "a b", "-", ", ")
VALUES = ("1", "2", "9", "")

sample = st.sampled_from


def quoted(value: str) -> str:
    return f"'{value}'"


name_tests = st.one_of(
    sample(TAGS),
    st.builds("{}:{}".format, sample(HIERARCHIES), sample(TAGS)),
    st.just("*"),
    st.builds("{}:*".format, sample(HIERARCHIES)),
    sample(("text()", "node()")),
)
attribute_tests = st.one_of(
    sample(("n", "n", "resp", "*")),
    st.builds("{}:n".format, sample(HIERARCHIES)),
)
needles = sample(NEEDLES).map(quoted)
values = sample(VALUES).map(quoted)
OVERLAP_AXES = ("overlapping", "overlapping-left", "overlapping-right")
#: The partner tests an overlap predicate may carry: no bare ``*``.
overlap_tests = st.one_of(
    sample(TAGS),
    st.builds("{}:{}".format, sample(HIERARCHIES), sample(TAGS)),
    st.builds("{}:*".format, sample(HIERARCHIES)),
)
overlaps = st.builds("{}::{}".format, sample(OVERLAP_AXES), overlap_tests)

#: The predicate shapes the classifier recognizes ...
recognized = st.one_of(
    st.builds("{}(., {})".format, sample(("contains", "starts-with")),
              needles),
    st.builds("@n = {}".format, values),
    st.builds("{} = @n".format, values),
    overlaps,
)
#: ... and their near misses: another subject, a non-literal operand,
#: the wrong arity, a qualified, wildcard or filtered attribute; for
#: overlap a filtered, wildcard or non-name partner, a negated or
#: counted path, a trailing positional predicate (``B][2`` inside the
#: predicate brackets reads ``[ax::B][2]``), a parent hop, and the
#: containment axes.
near_misses = st.one_of(
    st.builds("{}({}, {})".format, sample(("contains", "starts-with")),
              sample(("..", "@n", "text()", "self::node()[1]", "/")),
              needles),
    st.builds("{}(., {})".format, sample(("contains", "starts-with")),
              sample(("@n", "name()", "string(.)", "."))),
    st.builds("{}(.)".format, sample(("contains", "starts-with"))),
    st.builds("contains(., {}, 'b')".format, needles),
    st.builds("@{} = {}".format, attribute_tests, values),
    st.builds("{} {} {}".format, sample(("@n", "@n[1]", "@*")),
              sample(("=", "!=")), sample(("@n", "'2'", "2"))),
    st.builds("{}[{}]".format, overlaps, sample(("1", "2", "last()"))),
    st.builds("{}::{}".format, sample(OVERLAP_AXES),
              sample(("*", "text()", "node()"))),
    st.builds("not({})".format, overlaps),
    st.builds("count({}) > 1".format, overlaps),
    st.builds("{}][{}".format, overlaps, sample(("1", "2", "last()"))),
    st.builds("../{}".format, overlaps),
    st.builds("{}::{}".format, sample(("containing", "contained",
                                       "coextensive")), overlap_tests),
)
shapes = st.one_of(recognized, near_misses)
positional = sample((
    "1", "2", "last()", "position() = 2", "position() < 3", "last() - 1",
))


def steps(predicates):
    predicate_lists = st.lists(predicates, max_size=2).map(
        lambda items: "".join(f"[{item}]" for item in items)
    )
    return st.one_of(
        st.builds("{}::{}{}".format, sample(sorted(ALL_AXES)), name_tests,
                  predicate_lists),
        st.builds("{}{}".format, name_tests, predicate_lists),
        st.builds("@{}{}".format, attribute_tests, predicate_lists),
        sample((".", "..")),
    )


def relative_paths(predicates, most=2):
    return st.builds(
        lambda first, rest: first + "".join(
            separator + step for separator, step in rest
        ),
        steps(predicates),
        st.lists(st.tuples(sample(("/", "//")), steps(predicates)),
                 max_size=most),
    )


def nest(inner):
    return st.one_of(
        st.builds("not({})".format, inner),
        st.builds("{} and {}".format, inner, inner),
        st.builds("{} or {}".format, inner, inner),
        relative_paths(inner, most=1),
        st.builds("count({}) > 1".format, relative_paths(inner, most=0)),
    )


predicates = st.recursive(st.one_of(shapes, positional), nest,
                          max_leaves=4)
absolute_paths = st.builds(
    "{}{}".format, sample(("//", "//", "/")), relative_paths(predicates)
)
paths = st.one_of(absolute_paths, relative_paths(predicates))
#: ``//tag[p][q]...``: the steps where the planner reorders predicates,
#: lets an attribute posting consume one, or compiles a batch program.
planned_steps = st.builds(
    "//{}{}".format,
    name_tests,
    st.lists(st.one_of(shapes, shapes, positional), min_size=1,
             max_size=3).map(lambda items: "".join(f"[{p}]" for p in items)),
)
#: ``//A/ax::B``: the overlap axes as steps, served from boundary columns.
overlap_steps = st.builds(
    "//{}/{}{}".format,
    name_tests,
    overlaps,
    st.lists(st.one_of(shapes, positional), max_size=1).map(
        lambda items: "".join(f"[{p}]" for p in items)
    ),
)
expressions = st.one_of(
    paths,
    planned_steps,
    planned_steps,
    planned_steps,
    overlap_steps,
    st.builds("{} | {}".format, paths, paths),
    st.builds("({})[{}]".format, absolute_paths, predicates),
    st.builds("count({})".format, paths),
    st.builds("{}{}".format, paths, sample((
        "[", "]", "::", "[contains(., 'a']", "/nosuchaxis::w", "@",
    ))),
)


def snapshot(value):
    if not isinstance(value, list):
        return repr(value) if isinstance(value, float) and math.isnan(value) \
            else value
    rows = []
    for node in value:
        if isinstance(node, Element):
            rows.append(("element", node.ordinal))
        elif isinstance(node, Leaf):
            rows.append(("leaf", node.start, node.end))
        elif isinstance(node, AttributeNode):
            rows.append(("attribute", node.owner.ordinal, node.name))
        else:
            assert isinstance(node, DocumentNode)
            rows.append(("document",))
    return rows


def outcome(query: ExtendedXPath, index):
    try:
        return "value", snapshot(query.evaluate(DOCUMENT, index=index))
    except ReproError as exc:
        return "error", type(exc).__name__


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(expressions)
def test_index_on_and_off_agree(expression):
    try:
        query = ExtendedXPath(expression)
    except XPathSyntaxError:
        return
    assert outcome(query, None) == outcome(query, False), expression
