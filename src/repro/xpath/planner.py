"""Cost-based access-path planning for Extended XPath queries.

Earlier releases hard-coded two index fast paths into the evaluator
(whole-document name tests and ``contains(., 'lit')`` predicates).  This
module replaces them with a general, cost-based **access-path
selection**: for every step of a compiled expression the planner
estimates cardinalities from the structural summary's label-path
population counts and the term/attribute index posting lengths, prices
the applicable access paths, and picks the cheapest:

* ``scan`` — the classic axis evaluation (always available, always
  correct; for the concurrent-markup extension axes this is the GODDAG
  interval-**stab** path and is labelled ``stab``);
* ``summary`` — whole-document candidate lists from the structural
  summary (descendant name tests from a root context);
* ``subtree`` — descendant name tests from *non-root* contexts, served
  by label-path containment: candidates are the tag's posting filtered
  to the context element's subtree via label-path depth + parent hops;
* ``attr`` — the step's ``@name='value'`` predicate drives candidate
  enumeration from the attribute-value posting lists (the predicate is
  consumed by the access path);
* ``overlap`` — extension-axis steps answered from the tag's index
  data instead of per-node interval stabbing: the three overlap axes
  enumerate each context's partners from the tag's boundary columns
  (:meth:`~repro.index.manager.IndexManager.overlap_bounds`) in
  O(log n + k); the containment axes span-filter the tag's candidate
  list (cheaper when the tag is rare).

The planner also orders multi-predicate evaluation by estimated
selectivity (cheapest / most selective first) when every predicate of
the step is provably order-insensitive (``reorder_safe`` in the
predicate's :class:`~repro.xpath.classify.PredicateShape`).

Whatever the plan chooses, results are **byte-identical** to the
unindexed engine: every serving routine re-checks its preconditions at
runtime and returns ``None`` to fall back to the classic path, and
candidate enumeration orders provably coincide with the axis stream
wherever positional predicates could observe them.

A plan is also a report.  :meth:`~repro.xpath.engine.ExtendedXPath.explain`
executes the query with a fresh plan and returns it with per-step
estimates *and* actuals::

    >>> from repro.core.goddag import GoddagBuilder
    >>> from repro.index import IndexManager
    >>> from repro.xpath import ExtendedXPath
    >>> builder = GoddagBuilder("sing a song of sixpence")
    >>> builder.add_hierarchy("physical")
    >>> for start, end in [(0, 4), (5, 6), (7, 11), (12, 14), (15, 23)]:
    ...     builder.add_annotation("physical", "w", start, end)
    >>> builder.add_annotation("physical", "line", 0, 23)
    >>> doc = builder.build()
    >>> _ = IndexManager.for_document(doc)
    >>> plan = ExtendedXPath("//w").explain(doc)
    >>> plan.steps[0].choice
    'summary'
    >>> (plan.steps[0].est_out, plan.steps[0].actual_out)
    (5.0, 5)
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

from ..core.node import Element
from ..index.kernels import (
    rows_in_ordinal_set,
    rows_overlapping,
    span_contains_rows,
    span_starts_with_rows,
)
from .ast import (
    Binary,
    Expr,
    FilterExpr,
    FunctionCall,
    LocationPath,
    Step,
    Union,
    Unary,
)
from .axes import DocumentNode, node_test_matches
from .classify import (
    ATTR_EQ,
    CONTAINS,
    OVERLAP as OVERLAP_KIND,
    OVERLAP_AXES,
    PredicateShape,
    STARTS_WITH,
    path_shape,
    predicate_shape,
)

# -- access-path labels -------------------------------------------------------

SCAN = "scan"          #: classic axis evaluation
STAB = "stab"          #: classic extension-axis evaluation (interval stabbing)
SUMMARY = "summary"    #: structural-summary candidate list (root context)
SUBTREE = "subtree"    #: label-path containment (non-root descendant)
ATTR = "attr"          #: attribute-value posting drives the step
OVERLAP = "overlap"    #: extension axis via the tag's index data

#: Axes eligible for summary/subtree/attr candidate service.
_DESCENDANT_AXES = ("descendant", "descendant-or-self")

#: Extension axes eligible for index (vs stab) service.
_EXTENSION_AXES = OVERLAP_AXES | {"containing", "contained", "coextensive"}

# -- cost-model constants (relative units; see docs/ARCHITECTURE.md) ----------

COST_VISIT = 1.0        #: examining one node in a classic axis stream
COST_PROBE = 0.5        #: yielding one prebuilt candidate from an index list
COST_CHECK = 0.25       #: one span/containment check on a candidate
COST_STAB_CHAIN = 16.0  #: one interval-stab descent (one hierarchy)
COST_PREDICATE = 8.0    #: one generic predicate evaluation on one node
COST_INDEX_PRED = 0.5   #: one index-served predicate check on one node
DEFAULT_SELECTIVITY = 0.5   #: assumed pass rate of an unknown predicate
OVERLAP_FANOUT = 4.0        #: assumed overlap partners per context node

#: Plan-time context markers: the XPath document node ('/'), and the
#: shared root element — both serve whole-document candidate lists, but
#: a child step sees them differently (the document node's only child is
#: the root element; the root element's children are the top-level
#: label-path partitions).
DOCUMENT_CONTEXT = "#document"
ROOT_CONTEXT = "#root"
_ROOTISH = (DOCUMENT_CONTEXT, ROOT_CONTEXT)


@dataclass
class PredicatePlan:
    """One predicate of a step, as the planner sees it."""

    position: int           #: index in the step's source predicate order
    shape: PredicateShape   #: what the classifier recognized
    selectivity: float      #: estimated pass rate in [0, 1]
    index_served: bool      #: an index answers it without generic evaluation

    @property
    def kind(self) -> str:
        """'contains' | 'starts-with' | 'attr-eq' | 'overlap' | 'generic'."""
        return self.shape.kind

    @property
    def needle(self) -> str | None:
        """The literal of a contains/starts-with."""
        return self.shape.needle

    @property
    def key(self) -> tuple[str, str] | None:
        """The (name, value) of an attr-eq."""
        return self.shape.key

    def describe(self) -> str:
        served = "index-served" if self.index_served else "generic"
        detail = ""
        if self.needle is not None:
            detail = f" {self.needle!r}"
        elif self.key is not None:
            detail = f" @{self.key[0]}={self.key[1]!r}"
        elif self.shape.axis is not None:
            detail = f" {self.shape.axis}::{self.shape.test}"
        return (
            f"[{self.position + 1}] {self.kind}{detail}"
            f" sel={self.selectivity:.4f} ({served})"
        )


class BatchProgram:
    """A fully index-served location path compiled to array kernels.

    The compilable shape is an *absolute* single-step
    descendant/descendant-or-self name test whose predicates are all
    provably order-insensitive and index-served (``contains`` /
    ``starts-with`` / ``@name='value'`` / ``[overlapping::B]``) — the
    planner's SUMMARY and ATTR access paths.  Execution never walks
    nodes: the candidate posting arrives as a
    :class:`~repro.index.kernels.CandidateVector`, predicates filter
    **row indices** through the kernels, and elements are materialized
    only for the surviving rows.

    :meth:`run` re-checks its preconditions and returns ``None`` to
    decline — the evaluator then takes the classic object-walking path,
    so a program can never change an answer, only skip work.  The rare
    shapes the kernels do not model (a name test matching the shared
    root, which the classic path would prepend) decline the same way.
    """

    __slots__ = ("_manager_ref", "test", "source", "attr_key", "filters")

    def __init__(self, manager, test, source: str,
                 attr_key: tuple[str, str] | None,
                 filters: list[PredicateShape]) -> None:
        self._manager_ref = weakref.ref(manager)
        self.test = test                #: the step's NodeTest
        self.source = source            #: SUMMARY or ATTR
        self.attr_key = attr_key        #: candidate source when ATTR
        self.filters = filters          #: in planned evaluation order

    def run(self, manager, document, splan: "StepPlan",
            tally: list[int] | None = None):
        """The path's result node-set, or ``None`` to decline.

        ``tally`` (observed runs only) receives the rows the program
        reads: the document node, the attribute posting's rows when a
        name test narrows them, then what each kernel reads — see
        :func:`~repro.index.kernels.span_contains_rows`.
        """
        if manager is None or self._manager_ref() is not manager:
            return None
        if splan.choice != self.source:
            # The step's access path was forced to an alternative after
            # planning (the bench_e10 plan-quality study does exactly
            # this) — the program no longer represents the plan.
            return None
        test = self.test
        if node_test_matches(test, document.root):
            return None  # root would join the result; classic path handles it
        if tally is not None:
            tally.append(1)  # the context: the document node
        if self.source == ATTR:
            vector = manager.attr_vector(*self.attr_key)
            elements = vector.elements
            name, hierarchy = test.name, test.hierarchy
            if hierarchy is not None:
                rows = [
                    row for row in vector.all_rows()
                    if elements[row].hierarchy == hierarchy
                    and (name == "*" or elements[row].tag == name)
                ]
            elif name != "*":
                rows = [
                    row for row in vector.all_rows()
                    if elements[row].tag == name
                ]
            else:
                rows = vector.all_rows()
            if tally is not None and not isinstance(rows, range):
                tally.append(len(vector))
        else:
            vector = manager.candidate_vector(test.name, test.hierarchy)
            if vector is None:
                return None
            rows = vector.all_rows()
        for spec in self.filters:
            if not rows:
                break
            if spec.kind == CONTAINS:
                rows = span_contains_rows(
                    vector, manager.occurrence_array(spec.needle),
                    len(spec.needle), rows, tally,
                )
                continue
            if spec.kind == STARTS_WITH:
                rows = span_starts_with_rows(
                    vector, manager.occurrence_array(spec.needle),
                    len(spec.needle), rows, tally,
                )
                continue
            if tally is not None:
                tally.append(len(rows))
            if spec.kind == OVERLAP_KIND:
                rows = rows_overlapping(
                    vector.starts, vector.ends, vector.hierarchies,
                    manager.overlap_bounds(spec.test.name,
                                           spec.test.hierarchy),
                    spec.axis, rows,
                )
            else:  # ATTR_EQ
                rows = rows_in_ordinal_set(
                    vector.ordinals,
                    manager.attr_ordinal_set(*spec.key), rows,
                )
        result = vector.materialize(rows)
        # The same per-run accounting the classic path keeps: one
        # context node (the document node) in, one serve, k rows out.
        splan.actual_in += 1
        splan.served += 1
        splan.actual_out += len(result)
        return result


@dataclass
class StepPlan:
    """The chosen access path and estimates for one location step.

    ``est_*`` fields are plan-time estimates; ``actual_*`` fields are
    filled in while the plan executes (``served``/``fallbacks`` count
    context nodes the index did / did not serve).
    """

    axis: str
    test: str
    choice: str
    costs: dict[str, float]
    est_in: float
    est_out: float
    predicates: list[PredicatePlan] = field(default_factory=list)
    order: tuple[int, ...] = ()
    reordered: bool = False
    attr_key: tuple[str, str] | None = None
    attr_pred: int | None = None
    exact_order_only: bool = False
    actual_in: int = 0
    actual_out: int = 0
    served: int = 0
    fallbacks: int = 0
    actual_ns: int = 0      #: measured wall time (observed runs only)

    @property
    def drift(self) -> float:
        """Signed relative estimation error of this step's output
        cardinality: ``(actual_out - est_out) / max(actual_out, 1)``.
        0.0 = exact; positive = the planner underestimated."""
        return (self.actual_out - self.est_out) / max(self.actual_out, 1)

    def describe(self) -> list[str]:
        lines = [f"{self.axis}::{self.test}"]
        priced = ", ".join(
            f"{name}={cost:.1f}" for name, cost in sorted(
                self.costs.items(), key=lambda item: item[1]
            )
        )
        lines.append(f"  access={self.choice}  costs: {priced}")
        lines.append(
            f"  est rows: in={self.est_in:.1f} out={self.est_out:.1f}"
            f"   actual: in={self.actual_in} out={self.actual_out}"
            f" (served {self.served}, fell back {self.fallbacks})"
        )
        if self.actual_ns:
            lines.append(
                f"  measured: {self.actual_ns / 1e6:.3f}ms"
                f"  drift={self.drift:+.2f}"
            )
        if self.predicates:
            header = "  predicates"
            if self.reordered:
                header += " (reordered by selectivity)"
            lines.append(header + ":")
            for position in self.order:
                plan = self.predicates[position]
                note = ""
                if self.choice == ATTR and position == self.attr_pred:
                    note = " — consumed by the access path"
                lines.append(f"    {plan.describe()}{note}")
        return lines


class QueryPlan:
    """The access-path plan of one compiled expression over one document.

    ``steps`` is the step-plan list of the primary location path;
    ``paths`` holds every planned path (nested predicate paths
    included).  :meth:`render` formats the whole plan as the EXPLAIN
    text shown in the README.
    """

    def __init__(self, expression: str, indexed: bool) -> None:
        self.expression = expression
        self.indexed = indexed
        self.paths: list[tuple[str, list[StepPlan]]] = []
        # Span tree of the analyzed run; set by explain(analyze=True).
        self.trace = None
        # Batch programs per compilable location path, plus the
        # shortcut slot for when the whole expression is one such path
        # (the engine then skips evaluator dispatch entirely).
        self.whole_program: BatchProgram | None = None
        self._programs: dict[int, BatchProgram] = {}
        self._by_expr: dict[int, list[StepPlan]] = {}
        self._exprs: list[Expr] = []  # keeps id() keys alive
        # Shapes of FilterExpr predicates (step predicates carry theirs
        # on their PredicatePlan), each kept alive with its predicate.
        self._filter_shapes: dict[int, tuple[Expr, PredicateShape]] = {}

    @property
    def steps(self) -> list[StepPlan]:
        """Step plans of the primary (first-planned) path."""
        return self.paths[0][1] if self.paths else []

    def register(self, expr: Expr, label: str, plans: list[StepPlan]) -> None:
        self._by_expr[id(expr)] = plans
        self._exprs.append(expr)
        self.paths.append((label, plans))

    def steps_for(self, expr: Expr) -> list[StepPlan] | None:
        """The step plans the planner assigned to ``expr``, if any."""
        return self._by_expr.get(id(expr))

    def filter_shape(self, predicate: Expr) -> PredicateShape | None:
        """The shape the planner recorded for a FilterExpr predicate."""
        entry = self._filter_shapes.get(id(predicate))
        return entry[1] if entry is not None else None

    def set_program(self, expr: Expr, program: BatchProgram) -> None:
        self._programs[id(expr)] = program

    def program_for(self, expr: Expr) -> BatchProgram | None:
        """The batch program compiled for ``expr``'s location path, if
        the path's shape was fully kernel-servable at plan time."""
        return self._programs.get(id(expr))

    def choices(self) -> list[str]:
        """The chosen access path of every planned step, in plan order."""
        return [step.choice for _, plans in self.paths for step in plans]

    def stats(self) -> dict:
        """The plan's execution counters in the unified repro-stats/1
        shape (see docs/ARCHITECTURE.md, Observability).  Totals are
        summed across every planned path, nested predicate paths
        included; ``plan.rows_examined`` is the number of context nodes
        fed into steps, ``plan.rows_produced`` the nodes they emitted."""
        from ..obs.stats import stats_dict

        all_steps = [step for _, plans in self.paths for step in plans]
        counts = {
            "plan.steps": len(all_steps),
            "plan.paths": len(self.paths),
            "plan.rows_examined": sum(step.actual_in for step in all_steps),
            "plan.rows_produced": sum(step.actual_out for step in all_steps),
            "plan.served": sum(step.served for step in all_steps),
            "plan.fallbacks": sum(step.fallbacks for step in all_steps),
            "plan.elapsed_ns": sum(step.actual_ns for step in all_steps),
        }
        for choice in self.choices():
            key = f"plan.choice.{choice.lower()}"
            counts[key] = counts.get(key, 0) + 1
        return stats_dict(
            "xpath.plan", counts,
            expression=self.expression, indexed=self.indexed,
        )

    def to_dict(self) -> dict:
        """A JSON-shaped form of the plan (estimates and actuals)."""
        return {
            "expression": self.expression,
            "indexed": self.indexed,
            "paths": [
                {
                    "label": label,
                    "steps": [
                        {
                            "axis": step.axis,
                            "test": step.test,
                            "choice": step.choice,
                            "costs": dict(step.costs),
                            "est_in": step.est_in,
                            "est_out": step.est_out,
                            "actual_in": step.actual_in,
                            "actual_out": step.actual_out,
                            "actual_ns": step.actual_ns,
                            "drift": round(step.drift, 4),
                            "served": step.served,
                            "fallbacks": step.fallbacks,
                            "order": list(step.order),
                            "reordered": step.reordered,
                        }
                        for step in plans
                    ],
                }
                for label, plans in self.paths
            ],
        }

    def render(self) -> str:
        """The human-readable EXPLAIN text.

        Nested sub-paths where the planner had no real decision (every
        step single-choice, no predicates — e.g. the ``.`` inside
        ``contains(., 'lit')``) are elided; :meth:`to_dict` keeps them.
        """
        lines = [
            f"plan for: {self.expression}",
            f"index: {'attached' if self.indexed else 'none — all steps scan'}",
        ]
        for position, (label, plans) in enumerate(self.paths):
            if position > 0 and not any(
                len(step.costs) > 1 or step.predicates for step in plans
            ):
                continue
            lines.append(f"path: {label}")
            for number, step in enumerate(plans, start=1):
                described = step.describe()
                lines.append(f"  step {number}: {described[0]}")
                lines.extend("  " + line for line in described[1:])
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryPlan({self.expression!r}, steps={self.choices()})"


def _extends_one_of(prefixes):
    """``keep(hierarchy, path)``: the path properly extends a prefix."""
    return lambda h, p: any(
        h == ph and len(p) > len(pp) and p[: len(pp)] == pp
        for ph, pp in prefixes
    )


def _population(rows) -> tuple[float, frozenset]:
    """Summed count and ``(hierarchy, path)`` set of label-path rows."""
    return (
        float(sum(c for _, _, c in rows)),
        frozenset((h, p) for h, p, _ in rows),
    )


class Planner:
    """Plans and serves access paths for one (document, index) pair.

    A planner built without a manager produces scan-only plans (still
    useful as EXPLAIN output); with a manager it prices the index access
    paths against the classic ones using the summary's population
    counts and the posting lengths.  ``reorder=False`` disables
    selectivity-based predicate reordering (the knob the planner
    benchmark uses to isolate the reordering win).
    """

    def __init__(self, document, manager=None, reorder: bool = True,
                 batch: bool = True) -> None:
        if manager is not None and manager.document is not document:
            manager = None
        self.document = document
        self.manager = manager
        self.reorder = reorder
        # batch=False skips BatchProgram compilation — the plan then
        # always executes on the object-walking path (the differential
        # baseline arm of bench_e12 and the kernel tests).
        self.batch = batch
        # The population census is taken lazily on the first plan() call:
        # a planner used only to *serve* a prebuilt plan never pays it.
        # With a manager it is the manager's census of its built version
        # (shared by every planner of that version, never mutated here).
        self._census_taken = False
        self._total = 0.0
        self._label_paths: tuple = ()
        self._tokens = 1.0

    def _take_census(self) -> None:
        if self._census_taken:
            return
        if self.manager is not None:
            self._total, self._label_paths = self.manager.census()
            self._tokens = float(max(1, self.manager.terms.posting_count))
        else:
            self._total = float(self.document.element_count())
        self._census_taken = True

    # -- planning -------------------------------------------------------------

    def plan(self, expr: Expr, expression: str = "") -> QueryPlan:
        """Walk ``expr`` and produce a :class:`QueryPlan` covering every
        location path it contains (nested predicate paths included)."""
        self._take_census()
        plan = QueryPlan(expression, indexed=self.manager is not None)
        self._walk(expr, plan)
        if self.manager is not None and self.batch:
            for registered in plan._exprs:
                program = self._compile_batch(registered, plan)
                if program is not None:
                    plan.set_program(registered, program)
            if isinstance(expr, LocationPath):
                plan.whole_program = plan.program_for(expr)
        return plan

    def _compile_batch(
        self, expr: Expr, plan: QueryPlan
    ) -> BatchProgram | None:
        """Compile one registered location path to a :class:`BatchProgram`,
        or ``None`` when its shape is not fully kernel-servable.

        The compilable shape: an absolute, single-step descendant (or
        descendant-or-self) name test whose access path is SUMMARY or
        ATTR and whose predicates are *all* order-insensitive and
        index-served — any generic or positional predicate, multi-step
        path, or relative path keeps the object-walking evaluation.
        """
        splans = plan.steps_for(expr)
        if splans is None or len(splans) != 1:
            return None
        splan = splans[0]
        if splan.choice not in (SUMMARY, ATTR) or splan.exact_order_only:
            return None
        shape = path_shape(expr)
        if (
            shape is None
            or not shape.absolute
            or shape.axis not in _DESCENDANT_AXES
            or (shape.test.name == "*" and shape.test.hierarchy is None)
        ):
            return None
        filters: list[PredicateShape] = []
        for position in splan.order:
            pplan = splan.predicates[position]
            if not pplan.index_served:
                return None  # generic (all are safe: not exact_order_only)
            if splan.choice == ATTR and position == splan.attr_pred:
                continue  # consumed by the candidate source
            filters.append(pplan.shape)
        return BatchProgram(
            self.manager, shape.test, splan.choice, splan.attr_key, filters
        )

    def _walk(self, expr: Expr, plan: QueryPlan) -> None:
        if isinstance(expr, LocationPath):
            context = (1.0, DOCUMENT_CONTEXT if expr.absolute else None)
            label = ("/" if expr.absolute else "") + "/".join(
                f"{s.axis}::{s.test}" for s in expr.steps
            )
            plans = self._plan_steps(expr.steps, context)
            plan.register(expr, label, plans)
            for step in expr.steps:
                for predicate in step.predicates:
                    self._walk(predicate, plan)
        elif isinstance(expr, FilterExpr):
            self._walk(expr.primary, plan)
            for predicate in expr.predicates:
                plan._filter_shapes[id(predicate)] = (
                    predicate, predicate_shape(predicate)
                )
                self._walk(predicate, plan)
            if expr.steps:
                label = "(filter)/" + "/".join(
                    f"{s.axis}::{s.test}" for s in expr.steps
                )
                plans = self._plan_steps(expr.steps, (self._total, None))
                plan.register(expr, label, plans)
                for step in expr.steps:
                    for predicate in step.predicates:
                        self._walk(predicate, plan)
        elif isinstance(expr, (Binary, Union)):
            self._walk(expr.left, plan)
            self._walk(expr.right, plan)
        elif isinstance(expr, Unary):
            self._walk(expr.operand, plan)
        elif isinstance(expr, FunctionCall):
            for arg in expr.args:
                self._walk(arg, plan)

    def _plan_steps(self, steps, context) -> list[StepPlan]:
        plans = []
        for step in steps:
            step_plan, context = self._plan_step(step, context)
            plans.append(step_plan)
        return plans

    def _plan_step(self, step: Step, context) -> tuple[StepPlan, tuple]:
        est_in, paths = context
        test = step.test
        predicates = [
            self._plan_predicate(i, predicate)
            for i, predicate in enumerate(step.predicates)
        ]
        all_safe = all(p.shape.reorder_safe for p in predicates)

        # -- cardinality of the bare axis+test, before predicates.
        pop, out_paths = self._axis_population(step, est_in, paths)

        # -- price the applicable access paths.
        costs: dict[str, float] = {}
        attr = None  # the consumable attr-eq predicate, when ATTR is priced
        name_testable = (
            test.kind == "name"
            and not (test.name == "*" and test.hierarchy is None)
        )
        if step.axis in _EXTENSION_AXES:
            costs[STAB] = est_in * self._stab_chains(step.axis) \
                * COST_STAB_CHAIN
            if self.manager is not None and name_testable:
                tagpop = self._name_population(test.name, test.hierarchy)
                if step.axis in OVERLAP_AXES:
                    # Per context: four bisections into the boundary
                    # columns, then one probe per partner produced.
                    per_context = (
                        4 * math.log2(tagpop + 2) * COST_CHECK
                        + min(tagpop, OVERLAP_FANOUT) * COST_PROBE
                    )
                else:
                    # Per context: one span check per tag member.
                    per_context = tagpop * (COST_PROBE + COST_CHECK)
                costs[OVERLAP] = est_in * per_context
        else:
            costs[SCAN] = self._scan_cost(step, est_in, paths)
            if (
                self.manager is not None
                and step.axis in _DESCENDANT_AXES
                and name_testable
            ):
                tagpop = self._name_population(test.name, test.hierarchy)
                if paths in _ROOTISH:
                    costs[SUMMARY] = tagpop * COST_PROBE
                elif all_safe or not step.predicates:
                    # From element contexts the candidate order may
                    # locally differ from the axis stream, so positional
                    # predicates pin the step to the scan path.  Each
                    # context filters the full posting once.
                    costs[SUBTREE] = (
                        max(est_in, 1.0) * tagpop * (COST_PROBE + COST_CHECK)
                    )
                attr = self._best_attr_predicate(predicates, all_safe)
                if attr is not None:
                    position, key, posting = attr
                    per_context = posting * (COST_PROBE + 2 * COST_CHECK)
                    if paths in _ROOTISH:
                        costs[ATTR] = per_context
                    elif all_safe:
                        costs[ATTR] = max(est_in, 1.0) * per_context

        choice = min(costs, key=lambda name: (costs[name], name))

        # -- predicate evaluation order (cheapest / most selective first).
        order = tuple(range(len(predicates)))
        reordered = False
        if (
            self.reorder
            and self.manager is not None
            and len(predicates) > 1
            and all_safe
        ):
            ranked = sorted(
                order,
                key=lambda i: (
                    predicates[i].selectivity,
                    0 if predicates[i].index_served else 1,
                    i,
                ),
            )
            reordered = tuple(ranked) != order
            order = tuple(ranked)

        est_out = pop
        for predicate in predicates:
            est_out *= predicate.selectivity

        plan = StepPlan(
            axis=step.axis,
            test=str(test),
            choice=choice,
            costs=costs,
            est_in=est_in,
            est_out=est_out,
            predicates=predicates,
            order=order,
            reordered=reordered,
            exact_order_only=not all_safe,
        )
        if choice == ATTR:
            position, key, _ = attr  # the predicate the ATTR cost priced
            plan.attr_key = key
            plan.attr_pred = position
        return plan, (max(est_out, 0.0), out_paths)

    def _plan_predicate(self, position: int, predicate: Expr) -> PredicatePlan:
        shape = predicate_shape(predicate)
        manager = self.manager
        selectivity = DEFAULT_SELECTIVITY
        index_served = False
        if manager is not None and shape.term_indexable:
            index_served = True
            selectivity = min(
                1.0, manager.occurrence_count(shape.needle) / self._tokens
            )
        elif manager is not None and shape.kind == ATTR_EQ:
            index_served = True
            selectivity = min(
                1.0, manager.attr_count(*shape.key) / max(1.0, self._total)
            )
        elif manager is not None and shape.kind == OVERLAP_KIND:
            # A context with a partner straddles one of a partner's two
            # boundaries: at most two such contexts per partner in each
            # hierarchy, over the whole element population.
            index_served = True
            partners = self._name_population(
                shape.test.name, shape.test.hierarchy
            )
            selectivity = min(1.0, 2 * partners / max(1.0, self._total))
        return PredicatePlan(position, shape, selectivity, index_served)

    def _best_attr_predicate(self, predicates, all_safe):
        """The cheapest consumable ``@name='value'`` predicate of a step:
        ``(position, (name, value), posting length)`` or ``None``.

        Consuming a predicate evaluates it first; that preserves source
        semantics only for the *first* predicate, unless every predicate
        of the step is order-insensitive.
        """
        if self.manager is None:
            return None
        best = None
        for plan in predicates:
            if plan.kind != ATTR_EQ or not plan.index_served:
                continue
            if plan.position != 0 and not all_safe:
                continue
            posting = self.manager.attr_count(*plan.key)
            if best is None or posting < best[2]:
                best = (plan.position, plan.key, posting)
        return best

    # -- estimation helpers ----------------------------------------------------

    def _stab_chains(self, axis: str) -> int:
        """Stab-chain descents the classic path pays per context: two
        (one per context boundary) in every other hierarchy for the
        overlap axes, one in every other hierarchy for the containment
        axes."""
        others = max(1, len(self.document.hierarchy_names()) - 1)
        return 2 * others if axis in OVERLAP_AXES else others

    def _name_population(self, name: str, hierarchy: str | None) -> float:
        if self.manager is None:
            return self._total
        return float(self.manager.structural.tag_count(name, hierarchy))

    def _paths_matching(self, test, keep=None):
        """Label-path rows whose last tag passes the name ``test`` and
        (when given) ``keep(hierarchy, path)``."""
        return [
            (h, p, c)
            for h, p, c in self._label_paths
            if (test.hierarchy is None or h == test.hierarchy)
            and (test.name == "*" or p[-1] == test.name)
            and (keep is None or keep(h, p))
        ]

    def _axis_population(self, step: Step, est_in: float, paths):
        """Estimated result cardinality of the bare step, plus the
        label-path set describing its output contexts (``None`` when
        tracking is lost)."""
        test = step.test
        axis = step.axis
        if axis in _DESCENDANT_AXES and test.kind == "name":
            if paths in _ROOTISH or not self._label_paths:
                pop = self._name_population(test.name, test.hierarchy)
                out = (
                    frozenset((h, p) for h, p, _ in self._paths_matching(test))
                    if paths in _ROOTISH and self._label_paths
                    else None
                )
                return pop, out
            if isinstance(paths, frozenset):
                rows = self._paths_matching(test, _extends_one_of(paths))
                if axis == "descendant-or-self":
                    rows += self._paths_matching(
                        test, lambda h, p: (h, p) in paths
                    )
                return _population(rows)
            return self._name_population(test.name, test.hierarchy), None
        if axis == "child" and test.kind == "name":
            if paths == DOCUMENT_CONTEXT:
                # The document node's only child is the shared root.
                return 1.0, ROOT_CONTEXT
            if paths == ROOT_CONTEXT and self._label_paths:
                # The root element's children are the top-level
                # (length-1) label-path partitions.
                return _population(
                    self._paths_matching(test, lambda h, p: len(p) == 1)
                )
            if isinstance(paths, frozenset) and self._label_paths:
                return _population(self._paths_matching(
                    test, lambda h, p: (h, p[:-1]) in paths
                ))
            return self._name_population(test.name, test.hierarchy) / 2, None
        if axis == "self":
            if isinstance(paths, frozenset) and test.kind == "name":
                return est_in, _population(self._paths_matching(
                    test, lambda h, p: (h, p) in paths
                ))[1]
            return est_in, paths
        if axis in _EXTENSION_AXES:
            if test.kind == "name":
                pop = self._name_population(test.name, test.hierarchy)
                return min(pop, est_in * OVERLAP_FANOUT), None
            return est_in * OVERLAP_FANOUT, None
        if axis == "attribute":
            return est_in, None
        if axis in ("parent", "ancestor", "ancestor-or-self"):
            return est_in, None
        # following/preceding/siblings and anything else: half the world.
        return max(est_in, self._total / 2), None

    def _scan_cost(self, step: Step, est_in: float, paths) -> float:
        """Estimated work of the classic axis stream for this step."""
        if step.axis in _DESCENDANT_AXES:
            if paths in _ROOTISH or not isinstance(paths, frozenset):
                return max(est_in, self._total) * COST_VISIT
            # Same-partition contexts never nest, so visiting every
            # context's subtree visits each descendant at most once;
            # when predicates thinned the incoming contexts (est_in
            # below the partitions' full population), the expected scan
            # work shrinks proportionally.
            population = sum(
                c for h, p, c in self._label_paths if (h, p) in paths
            )
            extends = _extends_one_of(paths)
            below = sum(c for h, p, c in self._label_paths if extends(h, p))
            if population > 0:
                reached = min(max(est_in, 1.0), float(population))
                below = below * reached / population
            return max(1.0, float(below)) * COST_VISIT
        if step.axis == "child":
            return max(est_in * 4, est_in) * COST_VISIT
        return est_in * COST_STAB_CHAIN

    # -- runtime serving -------------------------------------------------------

    def serve(self, splan: StepPlan, step: Step, node):
        """Candidates for ``step`` at ``node`` per the planned access
        path, or ``None`` to fall back to the classic evaluation.

        Returns ``(candidates, consumed_attr)`` — ``consumed_attr`` is
        True when the candidates already satisfy the step's planned
        ``@name='value'`` predicate (the evaluator skips it).
        """
        manager = self.manager
        if manager is None:
            return None
        if splan.choice == OVERLAP:
            return self._serve_overlap(step, node)
        if splan.choice not in (SUMMARY, SUBTREE, ATTR):
            return None
        if step.axis not in _DESCENDANT_AXES:
            return None
        test = step.test
        document = self.document
        at_document = isinstance(node, DocumentNode)
        at_root = isinstance(node, Element) and node.is_root
        if at_document or at_root:
            if node.document is not document:
                return None
            reaches_root = at_document or step.axis == "descendant-or-self"
            root = document.root
            if splan.choice == ATTR:
                name, value = splan.attr_key
                out = []
                if (
                    reaches_root
                    and node_test_matches(test, root)
                    and root.attributes.get(name) == value
                ):
                    out.append(root)
                out.extend(
                    e
                    for e in manager.attr_candidates(name, value)
                    if node_test_matches(test, e)
                )
                return out, True
            elements = manager.name_candidates(test.name, test.hierarchy)
            if elements is None:
                return None
            out = []
            if reaches_root and node_test_matches(test, root):
                out.append(root)
            out.extend(elements)
            return out, False
        if not isinstance(node, Element) or node.document is not document:
            return None
        if splan.exact_order_only:
            # Candidate order from element contexts may locally differ
            # from the axis stream; positional predicates need the
            # stream, so scan instead.
            return None
        structural = manager.structural
        include_self = step.axis == "descendant-or-self"
        if splan.choice == ATTR:
            name, value = splan.attr_key
            out = []
            if (
                include_self
                and node_test_matches(test, node)
                and node.attributes.get(name) == value
            ):
                out.append(node)
            for e in manager.attr_candidates(name, value):
                if node_test_matches(test, e) and structural.is_descendant_of(e, node):
                    out.append(e)
            return out, True
        members = structural.subtree_candidates(
            node, test.name, test.hierarchy
        )
        if members is None:
            return None
        out = []
        if include_self and node_test_matches(test, node):
            out.append(node)
        out.extend(members)
        return out, False

    def _serve_overlap(self, step: Step, node):
        """Extension-axis candidates from the tag's index data.

        The three overlap axes enumerate the context's partners from the
        tag's boundary columns
        (:meth:`~repro.index.kernels.OverlapBounds.partners`): members
        of other hierarchies starting inside the context and ending
        after it, or ending inside it and starting before it — the
        proper-overlap cases of :func:`repro.core.relations.overlaps` —
        in document order.  The containment axes mirror the classic
        implementations in :mod:`repro.xpath.axes` /
        :meth:`~repro.core.goddag.GoddagDocument.containing_elements`
        directly: other hierarchies only, solid members only (the
        classic containment cache holds solid elements), proper
        containment (``span != node.span``).  Zero-width *context*
        nodes fall back — their boundary-inclusive containment rules
        live in the classic path.
        """
        if (
            not isinstance(node, Element)
            or node.is_root
            or node.is_empty
            or node.document is not self.document
        ):
            return None
        axis = step.axis
        if axis in OVERLAP_AXES:
            bounds = self.manager.overlap_bounds(
                step.test.name, step.test.hierarchy
            )
            if bounds is None:
                return None
            return bounds.partners(
                node.start, node.end, node.hierarchy, axis
            ), False
        candidates = self.manager.name_candidates(
            step.test.name, step.test.hierarchy
        )
        if candidates is None:
            return None
        span = node.span
        out = []
        for other in candidates:
            if other.hierarchy == node.hierarchy or other is node:
                continue
            other_span = other.span
            if axis == "containing":
                keep = other_span.contains(span) and other_span != span
            elif axis == "contained":
                keep = (
                    not other_span.is_empty
                    and span.contains(other_span)
                    and other_span != span
                )
            else:  # coextensive
                keep = not other_span.is_empty and other_span == span
            if keep:
                out.append(other)
        return out, False
