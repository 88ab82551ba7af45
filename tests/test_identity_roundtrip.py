"""Persistent element identity: the round-trip contract.

The birth ordinal of every element is its persistent ``elem_id`` —
the store keeps it, reconstruction preserves it, and the
fresh-ordinal counter resumes past the loaded maximum.  The property
asserted here is the strong form: after ``save → load → edit →
save_indexed → load``, the reloaded document is indistinguishable from
a never-persisted replica that underwent the same edits — ordinals,
document order, and ``explain()`` plans byte-for-byte.
"""

import random

import pytest

from repro.core.goddag import GoddagBuilder
from repro.editing import Editor
from repro.errors import EditError, MarkupConflictError
from repro.index import IndexManager
from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath

EDIT_TAGS = ("seg", "note", "mark")

QUERIES = (
    "//w", "//line", "//seg", "//physical:*", "//line[2]",
    "//w[contains(., 'gar')]", "//line/contained::w", "count(//seg)",
)


def identity_census(document):
    """Every element's full identity + placement, in document order."""
    return [
        (e.elem_id, e.hierarchy, e.tag, e.start, e.end, e.depth(),
         tuple(sorted(e.attributes.items())))
        for e in document.ordered_elements()
    ]


def random_edits(document, seed, steps=25, removals=True):
    """One scripted random session; ``removals=False`` keeps the leaf
    table pristine (a removal leaves its boundaries behind on the live
    replica — documented GODDAG behavior — while a reload rebuilds the
    minimal partition, so leaf *refinement* may then differ even though
    every element and every query answer agrees)."""
    editor = Editor(document, prevalidate=False)
    rng = random.Random(seed)
    for _ in range(steps):
        choice = rng.random()
        try:
            if choice < 0.45:
                a = rng.randrange(document.length + 1)
                b = rng.randrange(document.length + 1)
                editor.insert_markup(
                    rng.choice(document.hierarchy_names()),
                    rng.choice(EDIT_TAGS), min(a, b), max(a, b))
            elif choice < 0.60:
                editor.insert_milestone(
                    rng.choice(document.hierarchy_names()), "anchor",
                    rng.randrange(document.length + 1))
            elif choice < 0.75:
                if not removals:
                    continue
                elements = list(document.elements())
                editor.remove_markup(elements[rng.randrange(len(elements))])
            else:
                elements = list(document.elements())
                editor.set_attribute(
                    elements[rng.randrange(len(elements))],
                    rng.choice(("n", "resp")), str(rng.randrange(50)))
        except (MarkupConflictError, EditError):
            pass  # identical failure on identical replicas; keep going


@pytest.mark.parametrize("backend", ["sqlite"])
@pytest.mark.parametrize("seed", [3, 17])
class TestIdentitySurvivesPersistence:
    def test_save_load_edit_save_load_matches_never_persisted(
        self, backend, seed, tmp_path
    ):
        spec = WorkloadSpec(words=110, hierarchies=2,
                            overlap_density=0.3, seed=seed)
        persisted = generate(spec)
        witness = generate(spec)  # never touches storage
        manager = IndexManager.for_document(persisted)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(persisted, "d", manager)
            loaded = store.load("d")
            assert identity_census(loaded) == identity_census(witness)
            # Edit the *reloaded* document and the witness identically:
            # fresh ordinals must continue past the persisted maximum,
            # exactly where the witness's counter stands.
            random_edits(loaded, seed=seed * 7)
            random_edits(witness, seed=seed * 7)
            manager2 = IndexManager.for_document(loaded)
            store.save_indexed(loaded, "d", manager2, overwrite=True)
            reloaded = store.load("d")
            assert identity_census(reloaded) == identity_census(witness)
            assert not reloaded.check_invariants()

    def test_explain_plans_match_never_persisted(
        self, backend, seed, tmp_path
    ):
        """The planner prices steps from candidate-list statistics whose
        order ties break on ordinals — identical identity must yield
        byte-identical EXPLAIN output, estimates and actuals included.
        (Removal-free script: a removal's leftover leaf boundaries on
        the live replica would change leaf-node actuals without changing
        any answer — see :func:`random_edits`.)"""
        spec = WorkloadSpec(words=110, hierarchies=2,
                            overlap_density=0.3, seed=seed)
        persisted = generate(spec)
        witness = generate(spec)
        manager = IndexManager.for_document(persisted)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(persisted, "d", manager)
            loaded = store.load("d")
            random_edits(loaded, seed=seed + 1, removals=False)
            random_edits(witness, seed=seed + 1, removals=False)
            store.save_indexed(loaded, "d",
                               IndexManager.for_document(loaded),
                               overwrite=True)
            reloaded = store.load("d")
            IndexManager.for_document(reloaded)
            IndexManager.for_document(witness)
            for expression in QUERIES:
                query = ExtendedXPath(expression)
                ours = query.explain(reloaded).render()
                theirs = query.explain(witness).render()
                assert ours == theirs, expression

    def test_answers_match_never_persisted_with_removals(
        self, backend, seed, tmp_path
    ):
        """With removals in the script, leaf refinement may differ
        between replicas, but every query *answer* must still match —
        the user-visible half of the round-trip guarantee."""
        spec = WorkloadSpec(words=110, hierarchies=2,
                            overlap_density=0.3, seed=seed)
        persisted = generate(spec)
        witness = generate(spec)
        manager = IndexManager.for_document(persisted)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(persisted, "d", manager)
            loaded = store.load("d")
            random_edits(loaded, seed=seed + 1)
            random_edits(witness, seed=seed + 1)
            store.save_indexed(loaded, "d",
                               IndexManager.for_document(loaded),
                               overwrite=True)
            reloaded = store.load("d")

            def snapshot(value):
                if not isinstance(value, list):
                    return value
                return [
                    (n.hierarchy, n.tag, n.start, n.end, n.elem_id,
                     tuple(sorted(n.attributes.items())))
                    for n in value
                ]

            for expression in QUERIES:
                query = ExtendedXPath(expression)
                assert snapshot(query.evaluate(reloaded)) == \
                    snapshot(query.evaluate(witness)), expression


class TestCrossSessionHandles:
    def _narrative(self):
        builder = GoddagBuilder("the quick brown fox")
        builder.add_hierarchy("p")
        builder.add_hierarchy("l")
        builder.add_annotation("p", "line", 0, 19)
        builder.add_annotation("p", "w", 0, 3)
        builder.add_annotation("l", "s", 4, 19, {"n": "1"})
        return builder.build()

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_handle_resolves_across_sessions(self, backend, tmp_path):
        document = self._narrative()
        target = next(document.elements(tag="s"))
        handle = target.elem_id
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save(document, "d")
            # Storage-level resolution: no document materialized.
            stored = store.element("d", handle)
            assert (stored.tag, stored.start, stored.end) == ("s", 4, 19)
            assert stored.attributes == {"n": "1"}
            assert stored.elem_id == handle
            assert store.element("d", 999) is None
            # In-memory resolution on a fresh load: same element.
            loaded = store.load("d")
            resolved = loaded.element_by_ordinal(handle)
            assert resolved is not None
            assert (resolved.tag, resolved.span.start, resolved.span.end) \
                == ("s", 4, 19)
            # And through the query language.
            hits = ExtendedXPath(f"element-by-id({handle})").nodes(loaded)
            assert hits == [resolved]
            assert ExtendedXPath("element-by-id(999)").nodes(loaded) == []

    def test_keyed_lookup_tracks_edits(self):
        document = self._narrative()
        manager = IndexManager.for_document(document)
        editor = Editor(document, prevalidate=False)
        fresh = editor.insert_markup("l", "seg", 0, 4)
        assert manager.element(fresh.elem_id) is fresh
        assert document.element_by_ordinal(fresh.elem_id) is fresh
        editor.remove_markup(fresh)
        assert document.element_by_ordinal(fresh.elem_id) is None
        assert document.element_by_ordinal(0) is document.root

    def test_ordinals_never_collide_after_reload(self, tmp_path):
        document = self._narrative()
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save(document, "d")
            loaded = store.load("d")
            highest = max(e.elem_id for e in loaded.elements())
            born = Editor(loaded, prevalidate=False).insert_markup(
                "l", "seg", 0, 4)
            assert born.elem_id == highest + 1
            assert not loaded.check_invariants()
