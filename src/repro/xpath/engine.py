"""The public Extended XPath facade: compiled, reusable queries.

This module also hosts the process-wide **compiled-plan cache**: parsed
ASTs and priced :class:`~repro.xpath.planner.QueryPlan` objects keyed
by ``(expression, generation stamp)``, where the generation stamp is
``(document.version, manager.build_count)`` — any journal advance bumps
the document version and any index rebuild bumps the build count, so a
cached plan can never serve stale statistics or a stale batch program.
Hits and misses are counted on ``repro.obs`` metrics
(``xpath.plan_cache.hits`` / ``xpath.plan_cache.misses``) and surfaced
by :func:`plan_cache_stats`; repeated queries — including one-shot
:func:`xpath` calls, which additionally reuse whole compiled query
objects — skip parse *and* plan entirely.  Unindexed evaluation
(``index=False`` or no attached manager) bypasses the cache: those
plans carry no index statistics worth sharing, and the differential
harness relies on the unindexed arm staying an independent oracle.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Callable

from ..core.goddag import GoddagDocument
from ..core.node import Node
from ..obs.metrics import metrics
from ..obs.stats import stats_dict
from ..obs.trace import Tracer, current_tracer
from .ast import Expr
from .evaluator import Evaluator, XPathValue, resolve_manager, run_program
from .optimizer import optimize
from .parser import parse_xpath
from .planner import Planner, QueryPlan

#: Bound on distinct expressions the plan cache retains (LRU beyond it).
PLAN_CACHE_LIMIT = 256

#: Per-expression bound on distinct (document, manager) plan slots.
_PLAN_SLOTS = 4


class _PlanCacheEntry:
    __slots__ = ("ast", "slots")

    def __init__(self, ast: Expr) -> None:
        self.ast = ast
        # Each slot: (ast, doc_ref, manager_ref, version, builds, plan).
        # The ast rides along because an evicted-and-reparsed expression
        # yields new Expr objects, and plans key their step tables by
        # id(expr) — a plan only serves the ast it was built against.
        self.slots: list[tuple] = []


class PlanCache:
    """Expression-keyed cache of parsed ASTs and per-generation plans."""

    def __init__(self, limit: int = PLAN_CACHE_LIMIT) -> None:
        self._entries: OrderedDict[str, _PlanCacheEntry] = OrderedDict()
        self.limit = limit
        self.hits = 0
        self.misses = 0
        # One mutex guards the entry map, the per-entry slot lists, and
        # the counters: the cache is process-wide and service read
        # sessions evaluate on arbitrary threads, while OrderedDict
        # reorders and slot-list rotations are multi-step mutations.
        # Planning itself always runs outside the lock.
        self._lock = threading.Lock()

    def entry(self, expression: str) -> _PlanCacheEntry | None:
        """The (LRU-refreshed) cache entry for ``expression``, if any."""
        with self._lock:
            found = self._entries.get(expression)
            if found is not None:
                self._entries.move_to_end(expression)
            return found

    def ensure_entry(self, expression: str, ast: Expr) -> _PlanCacheEntry:
        with self._lock:
            return self._ensure_entry(expression, ast)

    def _ensure_entry(self, expression: str, ast: Expr) -> _PlanCacheEntry:
        found = self._entries.get(expression)
        if found is None:
            found = _PlanCacheEntry(ast)
            self._entries[expression] = found
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(expression)
        return found

    @staticmethod
    def _slot_plan(entry: _PlanCacheEntry, ast: Expr, document, manager,
                   version: int, builds: int) -> QueryPlan | None:
        slots = entry.slots
        for i, slot in enumerate(slots):
            (slot_ast, doc_ref, manager_ref, slot_version, slot_builds,
             plan) = slot
            if (
                slot_ast is ast
                and doc_ref() is document
                and manager_ref() is manager
                and slot_version == version
                and slot_builds == builds
            ):
                if i:
                    slots.insert(0, slots.pop(i))
                return plan
        return None

    def plan_for(
        self, expression: str, ast: Expr, document, manager
    ) -> tuple[QueryPlan, bool]:
        """The cached plan for this generation, or a freshly priced one,
        and whether it was a hit.

        A hit requires the same ast object, the same live document and
        manager (weakref identity — ids are never compared, CPython
        recycles them), and an unchanged generation stamp.  The hot
        (hit) path takes the mutex exactly once.
        """
        version = document.version
        builds = manager.build_count
        with self._lock:
            entry = self._ensure_entry(expression, ast)
            plan = self._slot_plan(entry, ast, document, manager,
                                   version, builds)
            if plan is not None:
                self.hits += 1
            else:
                self.misses += 1
        if plan is not None:
            metrics.incr("xpath.plan_cache.hits")
            return plan, True
        metrics.incr("xpath.plan_cache.misses")
        plan = Planner(document, manager).plan(ast, expression)
        with self._lock:
            # Another thread may have planned the same generation while
            # this one did; keep the slot list single-plan-per-pair.
            raced = self._slot_plan(entry, ast, document, manager,
                                    version, builds)
            if raced is not None:
                return raced, False
            # Replace a dead-or-stale slot for this same document/manager
            # pair before spilling into a fresh slot.
            slots = entry.slots
            replaced = False
            for i, slot in enumerate(slots):
                if slot[1]() is document and slot[2]() is manager:
                    slots[i] = (ast, slot[1], slot[2], version, builds, plan)
                    slots.insert(0, slots.pop(i))
                    replaced = True
                    break
            if not replaced:
                slots.insert(0, (
                    ast, weakref.ref(document), weakref.ref(manager),
                    version, builds, plan,
                ))
                del slots[_PLAN_SLOTS:]
        return plan, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide compiled-plan cache.
_plan_cache = PlanCache()

#: One-shot ``xpath()`` reuses whole compiled queries, so a repeated
#: expression skips parsing as well as planning.
_query_cache: OrderedDict[str, "ExtendedXPath"] = OrderedDict()

#: Guards ``_query_cache`` (same rationale as :class:`PlanCache`'s
#: internal lock); compilation runs outside it.
_query_cache_lock = threading.Lock()


def plan_cache_stats() -> dict:
    """Compiled-plan cache counters in the ``repro-stats/1`` envelope:
    ``plan_cache.hits`` / ``plan_cache.misses`` / ``plan_cache.entries``
    (the same hit/miss tallies land on ``repro.obs`` metrics as
    ``xpath.plan_cache.hits`` / ``xpath.plan_cache.misses`` whenever
    metrics are enabled)."""
    return stats_dict("xpath.plan_cache", {
        "plan_cache.hits": _plan_cache.hits,
        "plan_cache.misses": _plan_cache.misses,
        "plan_cache.entries": len(_plan_cache),
    })


def clear_plan_cache() -> None:
    """Drop every cached AST, plan, and one-shot query (test isolation)."""
    _plan_cache.clear()
    with _query_cache_lock:
        _query_cache.clear()


class ExtendedXPath:
    """A compiled Extended XPath expression.

    Compile once, evaluate against any document or context node::

        query = ExtendedXPath("//phys:line/overlapping::w")
        words = query.evaluate(document)

    ``evaluate`` returns whatever the expression denotes — a node list,
    string, number, or boolean.  ``nodes``/``first``/``exists`` are
    typed conveniences for the common node-set case.

    When the document has an :class:`~repro.index.manager.IndexManager`
    attached (or one is passed via ``index=``), evaluation runs under a
    cost-based access-path plan (:mod:`repro.xpath.planner`), cached per
    document version; results are identical either way.  Pass
    ``index=False`` to force the classic unindexed paths, and call
    :meth:`explain` for the plan with per-step estimates vs. actuals.
    """

    def __init__(self, expression: str) -> None:
        self.expression = expression
        cached = _plan_cache.entry(expression)
        if cached is not None:
            self.ast: Expr = cached.ast
        else:
            self.ast = optimize(parse_xpath(expression))
            _plan_cache.ensure_entry(expression, self.ast)
        # One-slot *unindexed* plan cache, keyed by (document, version).
        # Indexed plans live in the process-wide PlanCache instead (see
        # module docstring); ``index=False``/manager-less evaluation
        # bypasses that cache by contract, but re-planning is cheap and
        # the common pattern is many evaluations of one compiled query
        # against one document, so a private slot still pays.  Identity
        # is held via weakrefs (never raw id(), which CPython recycles
        # after GC), so the cache cannot serve a plan priced against a
        # dead document's statistics.  The slot is one tuple written in
        # a single store: a compiled query shared across threads (the
        # one-shot ``xpath()`` cache hands them out) can never observe
        # a plan paired with another version's key fields.
        self._plan_slot: tuple | None = None

    def _cached_plan(
        self, document: GoddagDocument, index
    ) -> tuple[QueryPlan, bool]:
        """The plan to run under, and whether it came from a cache."""
        manager = resolve_manager(document, index)
        if manager is not None:
            return _plan_cache.plan_for(
                self.expression, self.ast, document, manager
            )
        slot = self._plan_slot
        if slot is not None:
            doc_ref, version, plan = slot
            if doc_ref() is document and version == document.version:
                return plan, True
        plan = Planner(document, manager).plan(self.ast, self.expression)
        self._plan_slot = (weakref.ref(document), document.version, plan)
        return plan, False

    def evaluate(
        self, document: GoddagDocument, context: Node | None = None,
        variables: dict | None = None, index=None,
    ) -> XPathValue:
        """Evaluate against ``document`` (optionally from ``context``,
        with optional ``$name`` variable bindings).  ``index=False``
        disables index acceleration for this evaluation."""
        tracer = current_tracer()
        if tracer is None:
            plan, _ = self._cached_plan(document, index)
            if (
                plan.whole_program is not None
                and context is None
                and not variables
            ):
                # The whole query compiled to one batch program: run the
                # kernels directly, skipping evaluator construction and
                # the recursive walk.  A None result means the program
                # declined at runtime (stale manager, root in result) —
                # fall through to the classic engine, which computes the
                # same answer.
                result = run_program(
                    plan.whole_program, self.ast, plan,
                    resolve_manager(document, index), document,
                    metrics.enabled,
                )
                if result is not None:
                    return result
            return Evaluator(document, index=index, plan=plan).evaluate(
                self.ast, context, variables
            )
        with tracer.span("query", expression=self.expression):
            with tracer.span("plan") as plan_span:
                plan, cached = self._cached_plan(document, index)
            plan_span.set(cached=cached)
            with tracer.span("execute"):
                return Evaluator(document, index=index, plan=plan).evaluate(
                    self.ast, context, variables
                )

    def explain(
        self, document: GoddagDocument, context: Node | None = None,
        variables: dict | None = None, index=None, execute: bool = True,
        analyze: bool = False,
    ) -> QueryPlan:
        """The access-path plan for this query over ``document``.

        Args:
            document: the document to plan (and run) against.
            context: optional context node, as for :meth:`evaluate`.
            variables: optional ``$name`` bindings.
            index: an explicit manager, ``None`` or ``True`` for the
                attached one, or ``False`` to plan without index
                acceleration.
            execute: when True (the default) the query is evaluated
                under the fresh plan, so the returned
                :class:`~repro.xpath.planner.QueryPlan` carries actual
                row counts and served/fallback tallies next to the
                estimates; ``execute=False`` returns estimates only.
            analyze: when True (EXPLAIN ANALYZE), the query runs under
                the tracer with forced step observation, so the plan
                additionally carries measured per-step wall time
                (``StepPlan.actual_ns``, shown by ``render()``) and
                estimate-vs-actual drift, and ``plan.trace`` holds the
                span tree of the run.  Implies ``execute``.

        Returns:
            A fresh :class:`~repro.xpath.planner.QueryPlan` (never the
            cached one, so actuals always describe exactly one run);
            ``plan.render()`` — or ``str(plan)`` — is the EXPLAIN text.
        """
        manager = resolve_manager(document, index)
        plan = Planner(document, manager).plan(self.ast, self.expression)
        if analyze:
            # Run under the installed tracer if the caller has one, so
            # the analyze spans land in their trace; otherwise install a
            # private tracer for the duration of this one run.
            tracer = current_tracer()
            owned = tracer is None
            if owned:
                tracer = Tracer().install()
            try:
                with tracer.span(
                    "query", expression=self.expression, analyze=True
                ):
                    with tracer.span("execute"):
                        Evaluator(
                            document, index=index, plan=plan, observe=True
                        ).evaluate(self.ast, context, variables)
            finally:
                if owned:
                    tracer.uninstall()
            plan.trace = tracer
        elif execute:
            Evaluator(document, index=index, plan=plan).evaluate(
                self.ast, context, variables
            )
        return plan

    def nodes(
        self, document: GoddagDocument, context: Node | None = None,
        variables: dict | None = None, index=None,
    ) -> list:
        """Evaluate, requiring a node-set result."""
        value = self.evaluate(document, context, variables, index=index)
        if not isinstance(value, list):
            raise TypeError(
                f"{self.expression!r} evaluated to "
                f"{type(value).__name__}, not a node-set"
            )
        return value

    def first(self, document: GoddagDocument, context: Node | None = None,
              index=None):
        """First node of the result, or None."""
        result = self.nodes(document, context, index=index)
        return result[0] if result else None

    def exists(self, document: GoddagDocument, context: Node | None = None,
               index=None) -> bool:
        """True when the node-set result is non-empty."""
        return bool(self.nodes(document, context, index=index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExtendedXPath({self.expression!r})"


#: Bound on compiled queries retained for the one-shot helper.
_QUERY_CACHE_LIMIT = 256


def xpath(
    document: GoddagDocument, expression: str, context: Node | None = None
) -> XPathValue:
    """One-shot evaluation convenience.

    Repeated expressions reuse the same compiled query object (LRU,
    bounded), so a loop of ``xpath(doc, q)`` calls pays parse+plan once
    and then runs from the compiled-plan cache like a held
    :class:`ExtendedXPath` would."""
    with _query_cache_lock:
        query = _query_cache.get(expression)
        if query is not None:
            _query_cache.move_to_end(expression)
    if query is None:
        query = ExtendedXPath(expression)
        with _query_cache_lock:
            existing = _query_cache.get(expression)
            if existing is not None:
                query = existing
                _query_cache.move_to_end(expression)
            else:
                _query_cache[expression] = query
                while len(_query_cache) > _QUERY_CACHE_LIMIT:
                    _query_cache.popitem(last=False)
    return query.evaluate(document, context)


def explain(
    document: GoddagDocument, expression: str, context: Node | None = None,
    analyze: bool = False,
) -> QueryPlan:
    """One-shot EXPLAIN convenience: compile, plan, run, return the plan.

    ``analyze=True`` is EXPLAIN ANALYZE — the run happens under the
    tracer and the returned plan carries measured per-step wall time and
    drift next to the estimates (see :meth:`ExtendedXPath.explain`)."""
    return ExtendedXPath(expression).explain(document, context,
                                             analyze=analyze)


def register_function(name: str, fn: Callable) -> None:
    """Globally register an extension function ``name`` → ``fn(context,
    args)``; available to evaluators created afterwards."""
    from .functions import FUNCTIONS

    FUNCTIONS[name] = fn
