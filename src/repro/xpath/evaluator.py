"""The Extended XPath evaluation engine.

Implements XPath 1.0 value semantics — node-sets (Python lists in
document order), numbers (float), strings, booleans — with the axes and
functions of the concurrent-markup extension.  Comparison and coercion
rules follow the XPath 1.0 specification (section 3.4): node-set
comparisons are existential, ``=`` between a node-set and a string
means "some node whose string-value equals", and so on.

When the document carries an attached
:class:`~repro.index.manager.IndexManager` (or one is passed to the
evaluator), step evaluation is driven by a cost-based access-path plan
(:mod:`repro.xpath.planner`): name-test steps may resolve to structural
summary candidate lists (from root *or* non-root contexts), to
attribute-value postings, or to overlap partners from the tag's
boundary columns (span-filtered candidates on the containment axes), and
``contains(., 'lit')`` / ``starts-with(., 'lit')`` / ``@name='value'``
predicates are answered by the term and attribute indexes, and
``[overlapping::B]`` (or ``-left`` / ``-right``) predicates by the
boundary-column kernel over the whole candidate list — with
multi-predicate steps evaluated cheapest-first when provably safe.
Every shape the plan cannot serve — and every case where a serving
routine declines at runtime — runs the classic evaluation path, so
attaching an index never changes a query's answer.  Pass ``index=False``
to force the classic paths even on an indexed document (the
planner-off arm of the differential harness).

Element identity is keyed, never positional: the ``element-by-id()``
function (:mod:`repro.xpath.functions`) resolves a persistent
``elem_id`` through the document's ordinal map — and because the
store round-trips ordinals, a handle captured before a save
resolves to the same element after ``GoddagStore.load``, with no
re-matching of spans or document order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..core.goddag import GoddagDocument
from ..core.node import Element, Leaf
from ..errors import XPathEvaluationError
from ..index.kernels import rows_overlapping
from ..obs.drift import DriftRecord, ring as drift_ring
from ..obs.metrics import metrics
from ..obs.trace import current_tracer
from .ast import (
    Binary,
    Expr,
    FilterExpr,
    FunctionCall,
    Literal,
    LocationPath,
    Number,
    Step,
    Union,
    Unary,
    VariableRef,
)
from .axes import (
    DocumentNode,
    XNode,
    apply_axis,
    node_test_matches,
    sorted_nodes,
)
from .classify import ATTR_EQ, CONTAINS, OVERLAP, PredicateShape
from .functions import FUNCTIONS, arity_error, string_value
from .planner import Planner, QueryPlan, SCAN, STAB, StepPlan

XPathValue = object  # list[XNode] | float | str | bool


def resolve_manager(document: GoddagDocument, index):
    """The index manager an evaluation of ``document`` should consult.

    One shared resolution for the engine (planning) and the evaluator
    (execution), so a plan is always priced against the manager that
    will serve it: ``index=False`` disables index service outright,
    ``None`` and ``True`` use the document's attached manager, an
    explicit manager wins over it, and a manager built for another
    document is ignored.
    """
    if index is False:
        return None
    manager = document.index_manager if index is None or index is True \
        else index
    if manager is not None and manager.document is not document:
        return None
    return manager


def observe_step(tracer, plan: QueryPlan | None, index: int, step: Step,
                 splan: StepPlan | None, rows_in: int, gather, args: tuple,
                 finish=None):
    """Run one step's work, ``gather(*args)``, and record it: the one
    accounting path while metrics are enabled or a tracer is installed.

    The work is a step's per-context-node gather (``finish`` sorts it
    into document order) or a compiled batch program (one context in,
    the document node; its rows out).  Records ``StepPlan.actual_ns``,
    the ``step`` span with a child ``access-path`` span (nested
    predicate paths run inside it), the ``xpath.steps`` /
    ``rows_examined`` / ``rows_produced`` counters, the ``xpath.step``
    timer and one :class:`DriftRecord`.  A program that declines
    (``None``) is marked ``declined`` on its span and nothing else.
    """
    if splan is not None:
        axis, test, choice = splan.axis, splan.test, splan.choice
        served, fell = splan.served, splan.fallbacks
    else:
        axis, test, choice = step.axis, step.test.kind, "NONE"
    start_ns = time.perf_counter_ns()
    if tracer is None:
        out = gather(*args)
        if out is not None and finish is not None:
            out = finish(out)
    else:
        with tracer.span(
            "step", axis=axis, test=test, choice=choice
        ) as step_span:
            with tracer.span("access-path", choice=choice) as path_span:
                out = gather(*args)
                if splan is not None:
                    path_span.set(served=splan.served - served,
                                  fallbacks=splan.fallbacks - fell)
            if out is None:
                step_span.set(declined=True)
                return None
            path_span.set(rows=len(out))
            if finish is not None:
                out = finish(out)
            step_span.set(rows_in=rows_in, rows_out=len(out))
    if out is None:
        return None
    elapsed_ns = time.perf_counter_ns() - start_ns
    metrics.incr("xpath.steps")
    metrics.incr("xpath.rows_examined", rows_in)
    metrics.incr("xpath.rows_produced", len(out))
    metrics.record_ns("xpath.step", elapsed_ns)
    if splan is not None:
        splan.actual_ns += elapsed_ns
        drift_ring.record(DriftRecord(plan.expression, index, axis, test,
                                      choice, splan.est_out, len(out)))
    return out


def run_program(program, path: LocationPath, plan: QueryPlan, manager,
                document: GoddagDocument, observing: bool, tracer=None):
    """The answer of ``path``'s compiled batch ``program``, or ``None``
    when it declines; observed, it is accounted as the path's one step."""
    splan = plan.steps_for(path)[0]
    if not observing:
        return program.run(manager, document, splan)
    return observe_step(tracer, plan, 0, path.steps[0], splan, 1,
                        program.run, (manager, document, splan))


@dataclass
class Context:
    """Evaluation context: the node, its proximity position, variable
    bindings, and the XPath 1.0 coercion helpers."""

    node: XNode
    position: int
    size: int
    document: GoddagDocument
    variables: dict = None

    # -- XPath 1.0 coercions (shared with the function library) ---------------

    def to_boolean(self, value: XPathValue) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, float):
            return value != 0 and not math.isnan(value)
        if isinstance(value, str):
            return bool(value)
        if isinstance(value, list):
            return bool(value)
        raise XPathEvaluationError(f"cannot coerce {value!r} to boolean")

    def to_number(self, value: XPathValue) -> float:
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        if isinstance(value, float):
            return value
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                return math.nan
        if isinstance(value, list):
            return self.to_number(self.to_string(value))
        raise XPathEvaluationError(f"cannot coerce {value!r} to number")

    def to_string(self, value: XPathValue) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            if math.isnan(value):
                return "NaN"
            if math.isinf(value):
                return "Infinity" if value > 0 else "-Infinity"
            if value == int(value):
                return str(int(value))
            return repr(value)
        if isinstance(value, str):
            return value
        if isinstance(value, list):
            return string_value(value[0]) if value else ""
        raise XPathEvaluationError(f"cannot coerce {value!r} to string")


class Evaluator:
    """Evaluates parsed Extended XPath expressions over one document."""

    def __init__(self, document: GoddagDocument, index=None,
                 plan: QueryPlan | None = None,
                 observe: bool | None = None) -> None:
        self.document = document
        self.functions = dict(FUNCTIONS)
        self.index = resolve_manager(document, index)
        # Observation override: None (the default) auto-detects — steps
        # are timed/traced only while repro.obs metrics are enabled or a
        # tracer is installed, so the unobserved hot path pays a single
        # flag check per step.  True/False force it either way (the
        # overhead bench uses False as its baseline arm); either way the
        # same steps and batch programs run.
        self._observe = observe
        self._observing = False
        self._tracer = None
        # The access-path plan steps are executed under.  An explicit
        # plan (built by ExtendedXPath, which caches per document
        # version) wins; otherwise plans are built and memoized per
        # expression on first evaluation.
        self._plan = plan
        self._planner: Planner | None = None
        self._plan_memo: dict[int, QueryPlan] = {}
        self._active_plan: QueryPlan | None = None
        # Bindings of the evaluation in progress; predicates inherit them.
        self._variables: dict = {}

    # -- public API ---------------------------------------------------------------

    def evaluate(self, expr: Expr, context_node: XNode | None = None,
                 variables: dict | None = None) -> XPathValue:
        """Evaluate ``expr`` with ``context_node`` (default: document
        node) and optional variable bindings for ``$name`` references."""
        if context_node is None:
            context_node = DocumentNode(self.document)
        self._variables = variables or {}
        self._active_plan = self._resolve_plan(expr)
        # Resolved once per evaluation, not per step (see __init__).
        self._tracer = current_tracer() if self._observe is not False else None
        self._observing = self._observe
        if self._observing is None:
            self._observing = metrics.enabled or self._tracer is not None
        context = Context(context_node, 1, 1, self.document, self._variables)
        return self._eval(expr, context)

    def _resolve_plan(self, expr: Expr) -> QueryPlan | None:
        if self._plan is not None:
            if self._planner is None and self.index is not None:
                self._planner = Planner(self.document, self.index)
            return self._plan
        if self.index is None:
            return None
        if self._planner is None:
            self._planner = Planner(self.document, self.index)
        plan = self._plan_memo.get(id(expr))
        if plan is None:
            plan = self._planner.plan(expr)
            self._plan_memo[id(expr)] = plan
        return plan

    # -- dispatch -------------------------------------------------------------------

    def _eval(self, expr: Expr, context: Context) -> XPathValue:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, VariableRef):
            bindings = context.variables or {}
            if expr.name not in bindings:
                raise XPathEvaluationError(f"unbound variable ${expr.name}")
            return bindings[expr.name]
        if isinstance(expr, Unary):
            return -context.to_number(self._eval(expr.operand, context))
        if isinstance(expr, Binary):
            return self._eval_binary(expr, context)
        if isinstance(expr, Union):
            return self._eval_union(expr, context)
        if isinstance(expr, FunctionCall):
            return self._eval_function(expr, context)
        if isinstance(expr, LocationPath):
            return self._eval_location_path(expr, context)
        if isinstance(expr, FilterExpr):
            return self._eval_filter(expr, context)
        raise XPathEvaluationError(f"cannot evaluate {expr!r}")

    # -- operators ---------------------------------------------------------------------

    def _eval_binary(self, expr: Binary, context: Context) -> XPathValue:
        op = expr.op
        if op == "or":
            return (
                context.to_boolean(self._eval(expr.left, context))
                or context.to_boolean(self._eval(expr.right, context))
            )
        if op == "and":
            return (
                context.to_boolean(self._eval(expr.left, context))
                and context.to_boolean(self._eval(expr.right, context))
            )
        left = self._eval(expr.left, context)
        right = self._eval(expr.right, context)
        if op in ("=", "!="):
            return self._compare_equality(left, right, op, context)
        if op in ("<", "<=", ">", ">="):
            return self._compare_relational(left, right, op, context)
        a, b = context.to_number(left), context.to_number(right)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "div":
            if b == 0:
                return math.nan if a == 0 else math.copysign(math.inf, a)
            return a / b
        if op == "mod":
            if b == 0:
                return math.nan
            return math.fmod(a, b)
        raise XPathEvaluationError(f"unknown operator {op!r}")

    def _compare_equality(
        self, left: XPathValue, right: XPathValue, op: str, context: Context
    ) -> bool:
        want_equal = op == "="

        def eq(a, b) -> bool:
            if isinstance(a, bool) or isinstance(b, bool):
                result = context.to_boolean(a) == context.to_boolean(b)
            elif isinstance(a, float) or isinstance(b, float):
                result = context.to_number(a) == context.to_number(b)
            else:
                result = context.to_string(a) == context.to_string(b)
            return result if want_equal else not result

        if isinstance(left, list) and isinstance(right, list):
            if want_equal:
                right_values = {string_value(n) for n in right}
                return any(string_value(n) in right_values for n in left)
            return any(
                string_value(a) != string_value(b)
                for a in left
                for b in right
            )
        if isinstance(left, list):
            return any(eq(string_value(n), right) for n in left)
        if isinstance(right, list):
            return any(eq(left, string_value(n)) for n in right)
        return eq(left, right)

    def _compare_relational(
        self, left: XPathValue, right: XPathValue, op: str, context: Context
    ) -> bool:
        def cmp(a: float, b: float) -> bool:
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b

        if isinstance(left, list) and isinstance(right, list):
            return any(
                cmp(context.to_number(string_value(a)),
                    context.to_number(string_value(b)))
                for a in left for b in right
            )
        if isinstance(left, list):
            rhs = context.to_number(right)
            return any(
                cmp(context.to_number(string_value(n)), rhs) for n in left
            )
        if isinstance(right, list):
            lhs = context.to_number(left)
            return any(
                cmp(lhs, context.to_number(string_value(n))) for n in right
            )
        return cmp(context.to_number(left), context.to_number(right))

    def _eval_union(self, expr: Union, context: Context) -> list[XNode]:
        left = self._eval(expr.left, context)
        right = self._eval(expr.right, context)
        if not isinstance(left, list) or not isinstance(right, list):
            raise XPathEvaluationError("'|' requires node-sets on both sides")
        return sorted_nodes([*left, *right])

    def _eval_function(self, expr: FunctionCall, context: Context) -> XPathValue:
        try:
            fn = self.functions[expr.name]
        except KeyError:
            raise XPathEvaluationError(
                f"unknown function {expr.name}()"
            ) from None
        malformed = arity_error(expr.name, len(expr.args))
        if malformed is not None:
            raise XPathEvaluationError(malformed)
        args = [self._eval(arg, context) for arg in expr.args]
        return fn(context, args)

    # -- paths ----------------------------------------------------------------------------

    def _eval_location_path(
        self, expr: LocationPath, context: Context
    ) -> list[XNode]:
        plan = self._active_plan
        if expr.absolute:
            # Fully kernel-servable absolute paths run as a compiled
            # batch program over flat candidate columns; a None return
            # falls through to the object-walking evaluation.
            if plan is not None and self.index is not None:
                program = plan.program_for(expr)
                if program is not None:
                    result = run_program(
                        program, expr, plan, self.index, self.document,
                        self._observing, self._tracer,
                    )
                    if result is not None:
                        return result
            start: list[XNode] = [DocumentNode(self.document)]
        else:
            start = [context.node]
        return self._eval_steps(expr, start)

    def _eval_filter(self, expr: FilterExpr, context: Context) -> XPathValue:
        value = self._eval(expr.primary, context)
        if expr.predicates or expr.steps:
            if not isinstance(value, list):
                raise XPathEvaluationError(
                    "predicates/steps require a node-set"
                )
            nodes = sorted_nodes(value)
            plan = self._active_plan
            for predicate in expr.predicates:
                shape = (
                    plan.filter_shape(predicate) if plan is not None else None
                )
                nodes = self._filter_nodes(nodes, predicate, shape)
            if expr.steps:
                nodes = self._eval_steps(expr, nodes)
            return nodes
        return value

    def _eval_steps(self, expr: LocationPath | FilterExpr,
                    start: list[XNode]) -> list[XNode]:
        plan = self._active_plan
        step_plans = plan.steps_for(expr) if plan is not None else None
        current = start
        for i, step in enumerate(expr.steps):
            splan = step_plans[i] if step_plans is not None else None
            if splan is not None:
                splan.actual_in += len(current)
            if self._observing:
                current = observe_step(
                    self._tracer, plan, i, step, splan,
                    len(current), self._gather, (step, current, splan),
                    sorted_nodes,
                )
            else:
                current = sorted_nodes(self._gather(step, current, splan))
            if splan is not None:
                splan.actual_out += len(current)
        return current

    def _gather(self, step: Step, current: list[XNode],
                splan: StepPlan | None) -> list[XNode]:
        """One step's matches from every context node, unsorted."""
        gathered: list[XNode] = []
        for node in current:
            gathered.extend(self._eval_step(step, node, splan))
        return gathered

    def _eval_step(self, step: Step, node: XNode,
                   splan: StepPlan | None = None) -> list[XNode]:
        # Axis implementations already order their result by proximity
        # (reverse axes nearest-first), so predicate positions are just
        # 1-based indexes into that order.  A name test can only match
        # elements, which lets prunable axes skip leaf materialization.
        selected: list[XNode] | None = None
        consumed_attr = False
        if (
            splan is not None
            and splan.choice not in (SCAN, STAB)
            and self._planner is not None
        ):
            served = self._planner.serve(splan, step, node)
            if served is not None:
                selected, consumed_attr = served
                splan.served += 1
            else:
                splan.fallbacks += 1
        if selected is None:
            elements_only = step.test.kind == "name"
            candidates, _reverse = apply_axis(
                step.axis, node, self.document, elements_only
            )
            selected = [
                candidate
                for candidate in candidates
                if node_test_matches(step.test, candidate)
            ]
        predicates = step.predicates
        planned = splan is not None and len(splan.order) == len(predicates)
        for position in splan.order if planned else range(len(predicates)):
            if consumed_attr and position == splan.attr_pred:
                continue  # the access path already applied this predicate
            shape = splan.predicates[position].shape if planned else None
            selected = self._filter_nodes(
                selected, predicates[position], shape
            )
        return selected

    def _filter_nodes(self, nodes: list[XNode], predicate: Expr,
                      shape: PredicateShape | None) -> list[XNode]:
        """Apply one predicate with correct proximity positions.

        ``shape`` is what the plan recorded for ``predicate``; without
        one the predicate is evaluated generically.
        """
        if shape is not None and self.index is not None:
            fast = self._index_predicate_filter(nodes, shape)
            if fast is not None:
                return fast
        size = len(nodes)
        kept: list[XNode] = []
        for index, node in enumerate(nodes):
            context = Context(node, index + 1, size, self.document,
                              self._variables)
            value = self._eval(predicate, context)
            if isinstance(value, float):
                if value == index + 1:
                    kept.append(node)
            elif context.to_boolean(value):
                kept.append(node)
        return kept

    def _index_predicate_filter(
        self, nodes: list[XNode], shape: PredicateShape
    ) -> list[XNode] | None:
        """Index-served filtering for the recognized predicate shapes.

        ``contains(., 'lit')`` and ``starts-with(., 'lit')`` apply only
        when the literal is term-indexable (alphanumeric, so
        token-boundary effects cannot arise) and every candidate is a
        span-carrying node of *this* document (variable bindings can
        smuggle in foreign nodes, whose text the term index knows
        nothing about) — then each test is a binary search instead of a
        substring scan.  ``@name='value'`` needs no index data at all
        (one dict probe per element replaces the generic attribute-axis
        evaluation) but is still gated on an attached manager so the
        unindexed engine stays a fully independent oracle.
        ``ax::B`` overlap predicates run the boundary-column kernel over
        the whole node list at once, when every node is an element of
        *this* document.  ``None`` means fall back to generic
        evaluation.
        """
        if shape.kind == OVERLAP:
            document = self.document
            if not all(
                isinstance(node, Element) and node.document is document
                for node in nodes
            ):
                return None
            bounds = self.index.overlap_bounds(
                shape.test.name, shape.test.hierarchy
            )
            if bounds is None:
                return None
            rows = rows_overlapping(
                [node.start for node in nodes], [node.end for node in nodes],
                [node.hierarchy for node in nodes], bounds, shape.axis,
                range(len(nodes)),
            )
            return [nodes[row] for row in rows]
        if shape.kind == ATTR_EQ:
            name, value = shape.key
            return [
                node
                for node in nodes
                if isinstance(node, Element)
                and node.attributes.get(name) == value
            ]
        if not shape.term_indexable:
            return None
        if not all(
            isinstance(node, (Element, Leaf))
            and node.document is self.document
            for node in nodes
        ):
            return None
        manager = self.index
        probe = (
            manager.contains_span if shape.kind == CONTAINS
            else manager.starts_with_span
        )
        needle = shape.needle
        return [
            node for node in nodes if probe(node.start, node.end, needle)
        ]
