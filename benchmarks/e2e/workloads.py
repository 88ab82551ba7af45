"""The four end-to-end workloads: seeded op scripts over the public API.

Each workload builds its initial state in :meth:`Workload.setup` (timed
by the harness as ``setup_s``), its answer witnesses in
:meth:`Workload.prepare` (untimed), and then yields an endless,
seeded script of :class:`Op` values.  The harness times only
``Op.run``; generating the next input and checking an answer happen
outside the timed region.

Every answer is checked against a witness that does not use the
mechanism under test:

* ``stream-ingest``: every 4th stored document, by ``canonical_form``,
  against the generated document;
* ``edit-session``: every read session against the unindexed
  (``index=False``) answers of the generation it read;
* ``open-doc-query``: each distinct expression once, against its
  unindexed answer;
* ``corpus-search``: routed collection answers against every member's
  unindexed answer (what ``routing=False`` visits), lazy rows against
  the ``node_rows`` of a full load.

The sizes are fixed here so both sides of a comparison run the same
work.  ``smoke`` shrinks them for tests.  Runs are time-bounded, so
every workload keeps its state bounded: an op that adds to the store
or a document also takes out what an earlier op added.  Op ``k`` then
costs the same however many ops came before it, and a faster commit
does not time its later ops against a larger store.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro import (
    Corpus,
    DocumentService,
    EditError,
    ExtendedXPath,
    GoddagStore,
    IndexManager,
    MarkupConflictError,
    canonical_form,
    export_distributed,
    parse_distributed,
)
from repro.collection.corpus import split_collection_expression
from repro.collection.fanout import node_rows
from repro.storage.sqlite_backend import SqliteConnectionPool
from repro.workloads import WorkloadSpec, generate


class AnswerError(Exception):
    """An answer disagreed with its witness."""


@dataclass
class Op:
    """One client operation: ``run`` is timed, ``check`` is not.

    ``check`` compares the answer with its witness and does the
    bookkeeping that keeps the workload's state bounded.
    """

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None] | None = None


def _unindexed(expression: str, document) -> tuple:
    return node_rows(ExtendedXPath(expression).evaluate(document, index=False))


class Workload:
    name = ""
    #: Size knobs for a full run and for ``--smoke``.
    FULL: dict = {}
    SMOKE: dict = {}

    def __init__(self, seed: int, directory: Path, smoke: bool = False):
        self.size = self.SMOKE if smoke else self.FULL
        self.rng = random.Random(f"{self.name}:{seed}")
        self.directory = directory
        #: Benchmark-side counts feeding the per-layer metrics.
        self.stats: Counter = Counter()

    def _seed(self) -> int:
        return self.rng.randrange(1 << 30)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the answer witnesses (untimed)."""

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def _mismatch(self, op: str, label: str, what: str = "") -> AnswerError:
        return AnswerError(f"workload {self.name}, op {op}, {label}: "
                           f"answer differs from its witness{what}")


class StreamIngest(Workload):
    """``Corpus.add_streams`` of one new distributed-XML document per op
    into a WAL store of a fixed member count.

    Set-up ingests the first ``members`` documents.  After each op the
    oldest member is removed, untimed, so every op meets a store of
    ``members`` documents.  Every document is generated anew (untimed,
    before its op), so no two ops ingest the same source.
    """

    name = "stream-ingest"
    FULL = {"members": 12, "words": 600, "hierarchies": 4}
    SMOKE = {"members": 2, "words": 150, "hierarchies": 4}

    def _source(self, k: int):
        spec = WorkloadSpec(words=self.size["words"],
                            hierarchies=self.size["hierarchies"],
                            seed=self._seed())
        document = generate(spec)
        return export_distributed(document), document, f"doc-{k:05d}"

    def setup(self) -> None:
        self.corpus = Corpus(self.directory / "ingest.db")
        first = [self._source(k) for k in range(self.size["members"])]
        self.corpus.add_streams((sources, name) for sources, _, name in first)
        self.members = deque(name for _, _, name in first)

    def ops(self) -> Iterator[Op]:
        for k in itertools.count(self.size["members"]):
            sources, document, name = self._source(k)

            def check(_stamps, name=name,
                      witness=document if k % 4 == 0 else None):
                if witness is not None and (
                        canonical_form(self.corpus.document(name))
                        != canonical_form(witness)):
                    raise self._mismatch("ingest", name)
                self.members.append(name)
                self.corpus.remove(self.members.popleft())

            yield Op("ingest", name,
                     lambda s=sources, n=name: self.corpus.add_streams([(s, n)]),
                     check)

    def close(self) -> None:
        self.corpus.close()


READ_MIX = (
    "//line[@n='3']",
    "//vline[@n='5']/overlapping::line",
    "//w[contains(., 'gar')]",
    "//dmg",
    "//res/overlapping::line",
    "//*[@resp='ed3']",
)


class EditSession(Workload):
    """``DocumentService`` sessions: every 4th op a write session (open,
    3 seeded edits, publish), the rest read sessions (open, the
    :data:`READ_MIX` queries, close), round-robin over the documents.

    A write session inserts one ``dmg``/``res`` element, sets one
    ``resp`` attribute and removes the oldest element an earlier
    session inserted into that document, once it holds two.  Each
    document so carries at most two inserted elements, and a session
    costs the same early and late in a run.
    """

    name = "edit-session"
    FULL = {"docs": 3, "words": 2000, "hierarchies": 4}
    SMOKE = {"docs": 2, "words": 150, "hierarchies": 4}
    #: Inserted elements a document keeps before a write removes one.
    KEEP_INSERTED = 1

    def setup(self) -> None:
        self.service = DocumentService(self.directory / "edit.db")
        self._initial = {}
        for i in range(self.size["docs"]):
            spec = WorkloadSpec(words=self.size["words"],
                                hierarchies=self.size["hierarchies"],
                                seed=self._seed())
            document = parse_distributed(export_distributed(generate(spec)))
            name = f"doc-{i}"
            self._initial[name] = (self.service.create(document, name),
                                   document)

    def prepare(self) -> None:
        # name -> (generation, answers): a single client always reads
        # the latest published generation.
        self.witness = {}
        self.words = {}
        self.ordinals = {}
        for name, (generation, document) in self._initial.items():
            self.witness[name] = (generation, self._answers(document))
            self.words[name] = [(w.start, w.end) for w in
                                ExtendedXPath("//w").evaluate(document,
                                                              index=False)]
            self.ordinals[name] = sorted(e.ordinal for e in document.elements())
        #: name -> (tag, start, end) of the inserted elements, oldest first.
        self.inserted = {name: () for name in self.witness}
        del self._initial

    @staticmethod
    def _answers(document) -> tuple:
        return tuple(_unindexed(expression, document)
                     for expression in READ_MIX)

    def ops(self) -> Iterator[Op]:
        names = sorted(self.witness)
        for k in itertools.count():
            name = names[k % len(names)]
            if k % 4 == 3:
                yield self._write_op(name)
            else:
                yield Op("read", name, lambda n=name: self._read(n),
                         lambda result, n=name: self._check_read(n, result))

    def _read(self, name: str):
        with self.service.read_session(name) as session:
            return session.generation, [session.query(expression)
                                        for expression in READ_MIX]

    def _check_read(self, name: str, result) -> None:
        generation, answers = result
        want_generation, want = self.witness[name]
        if generation != want_generation:
            raise self._mismatch("read", name, " (stale generation)")
        for expression, got, expected in zip(READ_MIX, answers, want):
            if node_rows(got) != expected:
                raise self._mismatch("read", f"{name} {expression}")

    def _edit_plan(self, name: str) -> list[tuple]:
        words = self.words[name]
        first = self.rng.randrange(len(words))
        last = min(len(words) - 1, first + self.rng.randrange(4))
        return [("markup", self.rng.choice(("dmg", "res")),
                 words[first][0], words[last][1]),
                ("attr", self.rng.choice(self.ordinals[name]),
                 f"ed{self.rng.randrange(10)}"),
                ("unmark",)]

    def _apply(self, editor, edit: tuple, inserted: deque) -> None:
        self.stats["edits"] += 1
        try:
            if edit[0] == "markup":
                editor.insert_markup("editorial", edit[1], edit[2], edit[3])
                inserted.append(edit[1:])
            elif edit[0] == "attr":
                element = editor.document.element_by_ordinal(edit[1])
                editor.set_attribute(element, "resp", edit[2])
            elif len(inserted) > self.KEEP_INSERTED:
                tag, start, end = inserted.popleft()
                editor.remove_markup(next(
                    element for element in
                    editor.document.elements("editorial", tag)
                    if element.start == start and element.end == end))
        except (MarkupConflictError, EditError):
            self.stats["edits_rejected"] += 1

    def _write_op(self, name: str) -> Op:
        plan = self._edit_plan(name)
        inserted = deque(self.inserted[name])

        def run():
            with self.service.write_session(name) as session:
                for edit in plan:
                    self._apply(session.editor, edit, inserted)
            return session

        def check(session) -> None:
            self.inserted[name] = tuple(inserted)
            self.witness[name] = (session.generation,
                                  self._answers(session.document))

        return Op("write", name, run, check)

    def close(self) -> None:
        self.service.close()


#: (expression, weight): 19 of every 24 ops, the tail the other 5.
#: Ranked by cost: 10 cheap hot ops, the 5 tail ops, 8 predicate-heavy
#: hot ops, 1 quote query.  So the mix's median falls inside the tail
#: block and its 90th percentile inside the predicate-heavy block, each
#: well away from the block's edges: a percentile near the edge of a
#: block jumps when the block's cost moves a little.
HOT = (
    ("//w", 3),
    ("//line[@n='3']", 3),
    ("//vline[@n='7']/overlapping::line", 2),
    ("//page[@n='2']//line", 2),
    ("//w[starts-with(., 'hwa')]", 3),
    ("//w[contains(., 'gar')]", 3),
    ("//line[@n='5'][overlapping::dmg]", 2),
    ("//quote[overlapping::line]", 1),
)
TAIL_SLOTS = (2, 7, 12, 17, 22)


class OpenDocQuery(Workload):
    """``ExtendedXPath(...).evaluate`` on one parsed, indexed document:
    79% hot expressions that stay in the plan cache, 21% a rotating
    tail of more distinct expressions than the cache holds.

    The tail expressions share one shape, so they cost about the same
    and the median, which falls among them, is sharply defined.
    """

    name = "open-doc-query"
    FULL = {"words": 8000, "hierarchies": 5, "tail": 320}
    SMOKE = {"words": 400, "hierarchies": 5, "tail": 12}

    def setup(self) -> None:
        spec = WorkloadSpec(words=self.size["words"],
                            hierarchies=self.size["hierarchies"],
                            seed=self._seed())
        self.document = parse_distributed(export_distributed(generate(spec)))
        IndexManager.for_document(self.document)

    def prepare(self) -> None:
        pages = len(ExtendedXPath("//page").evaluate(self.document))
        tail: dict[str, None] = {}
        while len(tail) < self.size["tail"]:
            page = self.rng.randint(1, pages)
            line = self.rng.randint(1, 20)
            tail[f"//page[@n='{page}']/line[@n='{line}']"] = None
        self.tail = list(tail)
        self.checked: set[str] = set()

    def ops(self) -> Iterator[Op]:
        pattern: list[str | None] = [
            expression for expression, weight in HOT for _ in range(weight)
        ]
        for slot in TAIL_SLOTS:
            pattern.insert(slot, None)
        tail = itertools.cycle(self.tail)
        for slot in itertools.cycle(pattern):
            expression = slot if slot is not None else next(tail)
            yield Op("query", expression,
                     lambda e=expression: ExtendedXPath(e).evaluate(
                         self.document),
                     lambda result, e=expression: self._check(e, result))

    def _check(self, expression: str, result) -> None:
        if expression in self.checked:
            return
        if node_rows(result) != _unindexed(expression, self.document):
            raise self._mismatch("query", expression)
        self.checked.add(expression)

    def close(self) -> None:
        self.document = None


#: Routed to the 2% editorial members.
SELECT_EDITORIAL = (
    "collection()//dmg",
    "collection()//res",
    "collection()//dmg/overlapping::line",
    "collection()//res[overlapping::line]",
)
#: Routed to the verse members, about 10%.
SELECT_VERSE = (
    "collection()//vline",
    "collection()//vline[@n='2']",
    "collection()//vline[@n='7']/overlapping::line",
    "collection()//line[overlapping::vline]",
    "collection()//vline[@n='3']/overlapping::w",
    "collection()//s[overlapping::vline]",
)
#: Routes every member.
BROAD = "collection()//line[@n='1']"
LAZY = ("//line[@n='3']", "//page[@n='1']", "//vline[@n='2']", "//pb",
        "//line[@n='12']", "//s", "//dmg")

#: Op kinds of one 40-op cycle, in a fixed shuffled order.  Ranked by
#: cost they are editorial < update < verse < broad, so the mix's median
#: falls inside the update block (30%–80% of the ops) and its 90th
#: percentile inside the verse block (80%–97.5%); the broad query, one
#: op in 40, weighs in through the mean (``ops_per_s``).
CORPUS_CYCLE = (["select_editorial"] * 12 + ["update"] * 20
                + ["select_verse"] * 7 + ["broad"])
random.Random(0).shuffle(CORPUS_CYCLE)


def corpus_hierarchies(i: int) -> int:
    """The skewed tag mix: every 50th member editorial (``dmg``/``res``,
    2%), every 12th verse (``vline``, 8%), the rest two-hierarchy."""
    if i % 50 == 0:
        return 4
    if i % 12 == 0:
        return 3
    return 2


class CorpusSearch(Workload):
    """A ``Corpus`` under the fixed :data:`CORPUS_CYCLE`: selective
    routed queries, a broad query that routes every member, and updates.

    An update adds ``churn`` new members, answers the :data:`LAZY`
    row-served queries on ``lazy_members`` random members, and removes
    the ``churn`` oldest members, so the corpus keeps its size.
    """

    name = "corpus-search"
    FULL = {"docs": 150, "words": 150, "churn": 2, "lazy_members": 6}
    SMOKE = {"docs": 13, "words": 60, "churn": 2, "lazy_members": 2}

    def _member(self, i: int):
        spec = WorkloadSpec(words=self.size["words"],
                            hierarchies=corpus_hierarchies(i),
                            overlap_density=0.3, seed=self._seed())
        return generate(spec), f"doc-{i:05d}"

    def setup(self) -> None:
        self.pool = SqliteConnectionPool(str(self.directory / "corpus.db"),
                                         2, wal=True)
        self.corpus = Corpus.over(self.pool)
        self.corpus.add_many(self._member(i) for i in range(self.size["docs"]))
        self.next_member = self.size["docs"]

    def prepare(self) -> None:
        self.expressions = [
            split_collection_expression(e)
            for e in SELECT_EDITORIAL + SELECT_VERSE + (BROAD,)
        ] + list(LAZY)
        self.members = self.corpus.names()
        # expression -> member -> unindexed rows
        self.witness = {expression: {} for expression in self.expressions}
        for name in self.members:
            self._witness_member(name)

    def _witness_member(self, name: str) -> None:
        document = self.corpus.document(name)
        for expression in self.expressions:
            self.witness[expression][name] = _unindexed(expression, document)

    def ops(self) -> Iterator[Op]:
        expressions = {
            "select_editorial": itertools.cycle(SELECT_EDITORIAL),
            "select_verse": itertools.cycle(SELECT_VERSE),
            "broad": itertools.repeat(BROAD),
        }
        for kind in itertools.cycle(CORPUS_CYCLE):
            if kind == "update":
                yield self._update_op()
            else:
                expression = next(expressions[kind])
                yield Op(kind, expression,
                         lambda e=expression: self.corpus.query(e),
                         lambda result, e=expression, k=kind:
                         self._check_query(k, e, result))

    def _check_query(self, kind: str, expression: str, result) -> None:
        rows = self.witness[split_collection_expression(expression)]
        want = [(name, row) for name in self.members for row in rows[name]]
        if result.hits != want:
            raise self._mismatch(kind, expression)
        self.stats["visited"] += len(result.documents)
        self.stats["useful"] += sum(1 for rows in
                                    result.rows_by_document.values() if rows)

    def _lazy(self, name: str) -> tuple[int, list[tuple]]:
        """The :data:`LAZY` answers of one member, lazily loaded."""
        with self.pool.connection() as backend:
            lazy = GoddagStore.over(backend).lazy(name)
            answers = [lazy.xpath(expression) for expression in LAZY]
        return lazy.rows_decoded, answers

    def _update_op(self) -> Op:
        added = [self._member(self.next_member + i)
                 for i in range(self.size["churn"])]
        self.next_member += self.size["churn"]
        removed = self.members[:self.size["churn"]]
        read = [self.rng.choice(self.members)
                for _ in range(self.size["lazy_members"])]

        def run():
            for document, name in added:
                self.corpus.add(document, name)
            answers = [self._lazy(name) for name in read]
            for name in removed:
                self.corpus.remove(name)
            return answers

        def check(answers) -> None:
            for name, (decoded, rows) in zip(read, answers):
                for expression, got in zip(LAZY, rows):
                    if got != self.witness[expression][name]:
                        raise self._mismatch("update", f"{name} {expression}")
                    self.stats["lazy_rows"] += len(got)
                self.stats["lazy_decoded"] += decoded
            for name in removed:
                self.members.remove(name)
                for witness in self.witness.values():
                    del witness[name]
            for _, name in added:
                self.members.append(name)
                self._witness_member(name)

        return Op("update", " ".join(name for _, name in added), run, check)

    def close(self) -> None:
        self.corpus.close()
        self.pool.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (StreamIngest, EditSession, OpenDocQuery, CorpusSearch)
}
