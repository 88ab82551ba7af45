"""The compiled-plan cache: hit/miss accounting, the invalidation
matrix (journal advance, ``save_indexed``, index rebuild, dead
documents), the ``index=False`` bypass contract, and byte-identity of
batch-program results against the classic evaluator."""

import gc

import pytest

import repro.obs as obs
from repro.editing import Editor
from repro.index import IndexManager
from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate
from repro.xpath import (
    ExtendedXPath,
    clear_plan_cache,
    plan_cache_stats,
    xpath,
)
from repro.xpath.engine import PlanCache, _plan_cache
from repro.xpath.planner import Planner


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture()
def corpus():
    document = generate(WorkloadSpec(words=300, hierarchies=3,
                                     overlap_density=0.3, seed=12))
    manager = IndexManager(document).attach()
    return document, manager


def counters():
    counts = plan_cache_stats()["counts"]
    return counts["plan_cache.hits"], counts["plan_cache.misses"]


QUERY = "//w[contains(., 'gar')]"


class TestHitsAndMisses:
    def test_repeat_evaluations_hit(self, corpus):
        document, _ = corpus
        query = ExtendedXPath(QUERY)
        first = query.nodes(document)
        assert counters() == (0, 1)
        assert query.nodes(document) == first
        assert query.nodes(document) == first
        assert counters() == (2, 1)

    def test_cache_is_shared_across_query_objects(self, corpus):
        document, _ = corpus
        first = ExtendedXPath(QUERY)
        second = ExtendedXPath(QUERY)
        assert second.ast is first.ast  # parse happened once
        first.nodes(document)
        second.nodes(document)
        assert counters() == (1, 1)

    def test_one_shot_xpath_reuses_compiled_queries(self, corpus):
        document, _ = corpus
        results = [xpath(document, QUERY) for _ in range(3)]
        assert results[0] == results[1] == results[2]
        assert counters() == (2, 1)

    def test_counters_reach_obs_metrics(self, corpus):
        document, _ = corpus
        query = ExtendedXPath(QUERY)
        obs.reset()
        obs.enable()
        try:
            query.nodes(document)
            query.nodes(document)
        finally:
            obs.disable()
        counts = obs.metrics.snapshot()["counters"]
        assert counts["xpath.plan_cache.misses"] == 1
        assert counts["xpath.plan_cache.hits"] == 1

    def test_stats_envelope(self, corpus):
        document, _ = corpus
        ExtendedXPath(QUERY).nodes(document)
        stats = plan_cache_stats()
        assert stats["schema"] == "repro-stats/1"
        assert stats["source"] == "xpath.plan_cache"
        assert stats["counts"]["plan_cache.entries"] == 1


class TestInvalidationMatrix:
    def test_journal_advance_evicts(self, corpus):
        document, _ = corpus
        query = ExtendedXPath(QUERY)
        query.nodes(document)
        editor = Editor(document)
        line = next(e for e in document.elements(tag="line"))
        editor.insert_markup(line.hierarchy, "seg", line.start, line.end)
        indexed = query.nodes(document)
        assert counters() == (0, 2)  # the edit forced a re-plan
        assert indexed == query.nodes(document, index=False)

    def test_index_rebuild_evicts(self, corpus):
        document, manager = corpus
        query = ExtendedXPath(QUERY)
        first = query.nodes(document)
        manager.refresh(force=True)  # build_count advances, version doesn't
        assert query.nodes(document) == first
        assert counters() == (0, 2)

    def test_save_indexed_keeps_cache_coherent(self, corpus):
        document, manager = corpus
        query = ExtendedXPath(QUERY)
        query.nodes(document)
        with GoddagStore() as store:
            store.save_indexed(document, "d", manager)
            editor = Editor(document)
            line = next(e for e in document.elements(tag="line"))
            editor.set_attribute(line, "n", "999")
            store.save_indexed(document, "d", manager)
        _, misses_before = counters()
        indexed = query.nodes(document)
        assert indexed == query.nodes(document, index=False)
        # The edit advanced the generation stamp: the evaluation after
        # save_indexed cannot have served the pre-edit plan.
        assert counters()[1] == misses_before + 1

    def test_dead_documents_do_not_serve(self):
        query = ExtendedXPath(QUERY)
        for seed in (1, 2):
            document = generate(WorkloadSpec(words=120, seed=seed))
            IndexManager(document).attach()
            indexed = query.nodes(document)
            assert indexed == query.nodes(document, index=False)
            del document
            gc.collect()
        assert counters() == (0, 2)


class TestBypassContract:
    def test_index_false_bypasses_the_global_cache(self, corpus):
        document, _ = corpus
        query = ExtendedXPath(QUERY)
        query.nodes(document, index=False)
        query.nodes(document, index=False)
        assert counters() == (0, 0)

    def test_unindexed_documents_bypass(self):
        document = generate(WorkloadSpec(words=120, seed=5))
        query = ExtendedXPath(QUERY)
        query.nodes(document)
        query.nodes(document)
        assert counters() == (0, 0)


class TestUnindexedPlanning:
    """Unindexed evaluation builds no plan; EXPLAIN still does."""

    @pytest.fixture()
    def plan_calls(self, monkeypatch):
        calls = []
        real_plan = Planner.plan

        def spy(self, *args, **kwargs):
            calls.append(self.manager)
            return real_plan(self, *args, **kwargs)

        monkeypatch.setattr(Planner, "plan", spy)
        return calls

    @pytest.mark.parametrize("attached", (False, True),
                             ids=("plain", "managed"))
    def test_evaluate_index_false_plans_nothing(self, plan_calls, attached):
        document = generate(WorkloadSpec(words=120, seed=5))
        if attached:
            IndexManager(document).attach()
        query = ExtendedXPath(QUERY)
        for _ in range(2):
            query.evaluate(document, index=False)
        assert plan_calls == []
        assert counters() == (0, 0)

    def test_explain_index_false_plans_once(self, plan_calls, corpus):
        document, _ = corpus
        plan = ExtendedXPath(QUERY).explain(document, index=False)
        assert plan_calls == [None]
        assert plan.render()


class TestBatchIdentity:
    EXPRESSIONS = (
        "//page",
        "//w",
        "//line",
        "//w[contains(., 'gar')]",
        "//w[starts-with(., 'gar')]",
        "//line[@n='2']",
        "//line[@n='2'][contains(., 'en')]",
        "//seg[contains(., 'en')]",
        "//physical:*",
        "//line[2]",          # positional: not batch-compilable
        "//line/contained::w",  # extension axis: not batch-compilable
    )

    def test_batch_results_identical_to_classic(self, corpus):
        document, _ = corpus
        for expression in self.EXPRESSIONS:
            query = ExtendedXPath(expression)
            indexed = query.nodes(document)
            classic = query.nodes(document, index=False)
            assert indexed == classic, expression
            # Same objects, not merely equal snapshots.
            assert all(a is b for a, b in zip(indexed, classic)), expression

    def test_batch_results_identical_under_metrics(self, corpus):
        # Metrics force the per-step observed path; results must not
        # depend on which engine served them.
        document, _ = corpus
        for expression in self.EXPRESSIONS:
            query = ExtendedXPath(expression)
            plain = query.nodes(document)
            obs.enable()
            try:
                observed = query.nodes(document)
            finally:
                obs.disable()
            assert plain == observed, expression


class TestPlanCacheStructure:
    def test_lru_entry_bound(self, corpus):
        document, manager = corpus
        cache = PlanCache(limit=2)
        for expression in ("//w", "//line", "//page"):
            query = ExtendedXPath(expression)
            cache.plan_for(expression, query.ast, document, manager)
        assert len(cache) == 2
        assert cache.entry("//w") is None  # the oldest fell out
        assert cache.entry("//page") is not None

    def test_clear_resets_counters(self, corpus):
        document, _ = corpus
        ExtendedXPath(QUERY).nodes(document)
        clear_plan_cache()
        assert counters() == (0, 0)
        assert plan_cache_stats()["counts"]["plan_cache.entries"] == 0
