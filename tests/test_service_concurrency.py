"""Concurrency harness for the document service.

Two layers of coverage over :class:`repro.service.DocumentService`:

* **Semantics** (single-threaded): snapshot isolation, supersession
  reporting, write-conflict detection across service instances, write
  lock timeouts, pool exhaustion, publish-on-clean-exit vs
  discard-on-exception — each against its typed error.
* **Stress** (the harness proper): ``READERS`` reader threads querying
  continuously while one writer publishes ``PUBLISHES`` generations of
  random edits.  Every reader records ``(generation, expression,
  answer)`` triples; after the run each triple must be byte-identical
  to a single-threaded witness evaluation (unindexed — the independent
  oracle arm of the differential harness) of the same expression
  against the published document of that generation.  Any divergence,
  deadlock (joins are bounded), or stray exception fails the test.
* **Copy under readers**: every write session copies the shared
  snapshot while ``READERS`` threads hold and query it; the same
  witness check applies, and no write session decodes.

Seeds scale with ``REPRO_DIFF_SEEDS`` like the differential harness;
the nightly job raises it 10x.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest

from repro import DocumentService
from repro.errors import (
    MarkupConflictError,
    EditError,
    PoolExhaustedError,
    ServiceError,
    SnapshotSupersededError,
    StorageError,
    WriteConflictError,
    WriteLockTimeoutError,
)
from repro.obs.metrics import metrics
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath

from test_index_incremental import EDIT_TAGS, QUERIES, snapshot

SEEDS = max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1")))

#: Concurrent readers in the stress harness (the acceptance bar is
#: "sustains >= 8 readers + 1 writer with byte-identical answers").
READERS = 8

#: Generations the stress writer publishes per seed.
PUBLISHES = 10

SPEC = WorkloadSpec(words=110, hierarchies=2, overlap_density=0.3, seed=77)


def _witness_answers(document) -> dict[str, object]:
    """Single-threaded oracle: every harness query evaluated unindexed
    against ``document`` (no shared plan cache, no index manager)."""
    return {
        query.expression: snapshot(query.evaluate(document, index=False))
        for query in QUERIES
    }


def _random_edit(editor, rng, length: int) -> None:
    hierarchies = editor.document.hierarchy_names()
    choice = rng.random()
    try:
        if choice < 0.5:
            a, b = rng.randrange(length + 1), rng.randrange(length + 1)
            editor.insert_markup(rng.choice(hierarchies),
                                 rng.choice(EDIT_TAGS),
                                 min(a, b), max(a, b))
        elif choice < 0.7:
            editor.insert_milestone(rng.choice(hierarchies), "anchor",
                                    rng.randrange(length + 1))
        else:
            elements = list(editor.document.elements())
            if elements:
                editor.set_attribute(rng.choice(elements),
                                     rng.choice(("n", "resp")),
                                     str(rng.randrange(100)))
    except (MarkupConflictError, EditError):
        pass  # rejected edits are a legal no-op for the stress harness


@pytest.fixture
def service(tmp_path):
    with DocumentService(tmp_path / "svc.db", pool_size=4,
                         lock_timeout_s=5.0) as svc:
        yield svc


def _seed_doc():
    return generate(SPEC)


# -- semantics ----------------------------------------------------------------


def test_read_session_is_snapshot_isolated(service):
    service.create(_seed_doc(), "doc")
    with service.read_session("doc") as reader:
        before = {q.expression: snapshot(reader.query(q.expression))
                  for q in QUERIES}
        assert reader.is_current()
        with service.write_session("doc") as writer:
            writer.editor.insert_markup(
                writer.document.hierarchy_names()[0], "seg", 1, 9)
        # The open reader keeps answering at its own generation.
        assert not reader.is_current()
        for query in QUERIES:
            assert snapshot(reader.query(query.expression)) == \
                before[query.expression], query.expression
    with service.read_session("doc") as fresh:
        assert fresh.generation != reader.generation
        assert len(fresh.query("//seg")) == \
            len(before["//seg"]) + 1


def test_require_current_raises_typed_supersession(service):
    service.create(_seed_doc(), "doc")
    with service.read_session("doc") as reader:
        reader.require_current()  # no writer yet: passes
        with service.write_session("doc") as writer:
            writer.editor.insert_milestone(
                writer.document.hierarchy_names()[0], "anchor", 0)
        with pytest.raises(SnapshotSupersededError) as exc_info:
            reader.require_current()
        assert exc_info.value.name == "doc"
        assert exc_info.value.snapshot == reader.generation
        assert exc_info.value.current != reader.generation


def test_writers_serialize_within_one_service(service):
    service.create(_seed_doc(), "doc")
    order = []

    def writing(tag_value):
        with service.write_session("doc", timeout=10.0) as writer:
            order.append(("open", tag_value))
            _random_edit(writer.editor, random.Random(tag_value),
                         writer.document.length)
            order.append(("close", tag_value))

    threads = [threading.Thread(target=writing, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    # Sessions never interleave: every open is immediately followed by
    # its own close.
    assert len(order) == 8
    for i in range(0, 8, 2):
        assert order[i][0] == "open" and order[i + 1] == ("close", order[i][1])


def test_write_conflict_across_service_instances(tmp_path):
    path = tmp_path / "svc.db"
    with DocumentService(path) as first, DocumentService(path) as second:
        first.create(_seed_doc(), "doc")
        loser = first.write_session("doc")
        try:
            loser.editor.insert_markup(
                loser.document.hierarchy_names()[0], "note", 0, 5)
            # A second writer (different service instance: separate lock
            # table, same database) publishes first.
            with second.write_session("doc") as winner:
                winner.editor.insert_markup(
                    winner.document.hierarchy_names()[0], "seg", 2, 7)
            with pytest.raises(WriteConflictError) as exc_info:
                loser.publish()
            assert exc_info.value.name == "doc"
        finally:
            loser.close()
        # The loser wrote nothing: the store holds exactly the winner's
        # generation and content.
        with first.read_session("doc") as reader:
            assert reader.generation == winner.generation
            assert len(reader.query("//seg")) == 1
            assert len(reader.query("//note")) == 0


def test_write_lock_timeout_is_typed(service):
    service.create(_seed_doc(), "doc")
    holder = service.write_session("doc")
    try:
        with pytest.raises(WriteLockTimeoutError):
            service.write_session("doc", timeout=0.05)
    finally:
        holder.close()
    # Released: the next writer proceeds.
    with service.write_session("doc", timeout=0.5):
        pass


def test_pool_exhaustion_is_typed(tmp_path):
    with DocumentService(tmp_path / "svc.db", pool_size=2,
                         pool_timeout_s=0.05) as svc:
        svc.create(_seed_doc(), "doc")
        borrowed = [svc.pool.acquire(), svc.pool.acquire()]
        try:
            assert svc.pool.in_use == 2
            with pytest.raises(PoolExhaustedError):
                svc.read_session("doc")
        finally:
            for store in borrowed:
                svc.pool.release(store)
        with svc.read_session("doc") as reader:
            assert reader.query("count(//w)") > 0


def test_memory_location_is_rejected(tmp_path):
    with pytest.raises(StorageError):
        DocumentService(":memory:")


def test_exception_discards_write_session(service):
    generation = service.create(_seed_doc(), "doc")
    with pytest.raises(RuntimeError):
        with service.write_session("doc") as writer:
            writer.editor.insert_markup(
                writer.document.hierarchy_names()[0], "seg", 1, 4)
            raise RuntimeError("abort the session")
    with service.read_session("doc") as reader:
        assert reader.generation == generation
        assert len(reader.query("//seg")) == 0
    # The lock was released by the unwinding session.
    with service.write_session("doc", timeout=0.5):
        pass


def test_midsession_publish_checkpoints(service):
    service.create(_seed_doc(), "doc")
    with service.write_session("doc") as writer:
        hierarchy = writer.document.hierarchy_names()[0]
        writer.editor.insert_markup(hierarchy, "seg", 1, 6)
        checkpoint = writer.publish()
        assert checkpoint == writer.generation
        with service.read_session("doc") as reader:
            assert reader.generation == checkpoint
            assert len(reader.query("//seg")) == 1
        writer.editor.insert_markup(hierarchy, "note", 8, 12)
    with service.read_session("doc") as reader:
        assert reader.generation != checkpoint
        assert len(reader.query("//seg")) == 1
        assert len(reader.query("//note")) == 1


def test_closed_session_refuses_queries(service):
    service.create(_seed_doc(), "doc")
    reader = service.read_session("doc")
    reader.close()
    with pytest.raises(ServiceError):
        reader.query("//w")
    with pytest.raises(ServiceError):
        reader.is_current()


def test_admin_surface(service):
    assert service.names() == []
    assert not service.has("doc")
    service.create(_seed_doc(), "doc")
    service.create(_seed_doc(), "other")
    assert sorted(service.names()) == ["doc", "other"]
    assert service.has("doc")
    service.delete("other")
    assert service.names() == ["doc"]


# -- the stress harness -------------------------------------------------------


def _stress(service, seed: int) -> None:
    base = _seed_doc()
    witness = {service.create(base, "doc"): _witness_answers(base)}

    results: list[tuple] = []
    results_lock = threading.Lock()
    errors: list[BaseException] = []
    done = threading.Event()
    start = threading.Barrier(READERS + 1)

    def writing():
        rng = random.Random(seed)
        try:
            start.wait(timeout=30)
            for _ in range(PUBLISHES):
                with service.write_session("doc") as session:
                    for _ in range(rng.randrange(1, 4)):
                        _random_edit(session.editor, rng,
                                     session.document.length)
                # After a clean exit the stored artifact *is* the
                # session's document at the published generation:
                # evaluate the witness battery on it single-threaded.
                witness[session.generation] = _witness_answers(
                    session.document)
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(exc)
        finally:
            done.set()

    def reading(reader_seed: int):
        rng = random.Random(reader_seed)
        try:
            start.wait(timeout=30)
            while True:
                last_round = done.is_set()
                with service.read_session("doc") as session:
                    mine = []
                    for query in rng.sample(QUERIES, 5):
                        mine.append((session.generation, query.expression,
                                     snapshot(session.query(
                                         query.expression))))
                    # Snapshot stability within the session: the same
                    # expression re-answers identically even while the
                    # writer publishes.
                    generation, expression, answer = mine[0]
                    assert snapshot(session.query(expression)) == answer
                    assert session.generation == generation
                with results_lock:
                    results.extend(mine)
                if last_round:
                    return
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(exc)

    threads = [threading.Thread(target=writing)]
    threads += [threading.Thread(target=reading, args=(seed * 1000 + n,))
                for n in range(READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    # Bounded joins: a deadlocked or stuck thread fails here instead of
    # hanging the suite.
    assert not any(thread.is_alive() for thread in threads), \
        "service threads did not finish (deadlock or stuck lock)"
    assert not errors, errors

    assert len(witness) == PUBLISHES + 1
    assert results, "readers recorded nothing"
    generations_seen = set()
    for generation, expression, answer in results:
        assert generation in witness, (
            f"reader saw unpublished generation {generation!r}")
        assert answer == witness[generation][expression], (
            f"generation {generation!r}, query {expression!r}: "
            "concurrent answer diverged from the single-threaded witness")
        generations_seen.add(generation)
    # The harness is vacuous if every reader raced past the writer:
    # with 8 readers polling continuously they must observe more than
    # one generation.
    assert len(generations_seen) > 1


@pytest.mark.parametrize("seed", [5000 + n for n in range(SEEDS)])
def test_stress_readers_match_witness(tmp_path, seed):
    with DocumentService(tmp_path / "svc.db", pool_size=4,
                         lock_timeout_s=30.0) as svc:
        _stress(svc, seed)


#: Write sessions per seed in the copy-under-readers harness.
COPY_ROUNDS = 4


@pytest.mark.parametrize("seed", [6000 + n for n in range(SEEDS)])
def test_writers_copy_the_snapshot_readers_query(tmp_path, seed):
    """Each round, all ``READERS`` threads hold a read session on the
    shared snapshot and keep querying it while a write session copies
    that very snapshot, edits the copy and publishes.  Every answer must
    match the unindexed witness of its generation, and no write session
    may decode: after the first read, every snapshot is shared."""
    metrics.reset()
    metrics.enable()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave readers inside the copy
    try:
        with DocumentService(tmp_path / "svc.db", pool_size=4,
                             lock_timeout_s=30.0) as svc:
            base = _seed_doc()
            witness = {svc.create(base, "doc"): _witness_answers(base)}
            with svc.read_session("doc"):
                pass  # the first generation is shared from here on
            results: list[tuple] = []
            results_lock = threading.Lock()
            errors: list[BaseException] = []
            opened = threading.Barrier(READERS + 1)
            finished = threading.Barrier(READERS + 1)
            copied = [threading.Event() for _ in range(COPY_ROUNDS)]
            sources = []

            def writing():
                rng = random.Random(seed)
                try:
                    for round_ in range(COPY_ROUNDS):
                        opened.wait(timeout=30)
                        with svc.write_session("doc") as session:
                            for _ in range(rng.randrange(1, 4)):
                                _random_edit(session.editor, rng,
                                             session.document.length)
                        witness[session.generation] = _witness_answers(
                            session.document)
                        copied[round_].set()
                        finished.wait(timeout=30)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    opened.abort()
                    finished.abort()

            def reading(reader_seed: int):
                rng = random.Random(reader_seed)
                try:
                    for round_ in range(COPY_ROUNDS):
                        with svc.read_session("doc") as session:
                            with results_lock:
                                sources.append(session.document)
                            opened.wait(timeout=30)
                            mine = []
                            while True:
                                last = copied[round_].is_set()
                                for query in rng.sample(QUERIES, 3):
                                    mine.append((
                                        session.generation,
                                        query.expression,
                                        snapshot(session.query(
                                            query.expression))))
                                if last:
                                    break
                        with results_lock:
                            results.extend(mine)
                        finished.wait(timeout=30)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    opened.abort()
                    finished.abort()

            threads = [threading.Thread(target=writing)]
            threads += [threading.Thread(target=reading,
                                         args=(seed * 1000 + n,))
                        for n in range(READERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads), \
                "service threads did not finish (deadlock or stuck lock)"
            assert not errors, errors
            counters = metrics.snapshot()["counters"]
    finally:
        sys.setswitchinterval(interval)
        metrics.disable()
        metrics.reset()

    # Each round every reader held the one shared snapshot, and the
    # writer copied it instead of loading.
    assert len(sources) == READERS * COPY_ROUNDS
    for round_ in range(COPY_ROUNDS):
        held = sources[round_ * READERS:(round_ + 1) * READERS]
        assert all(document is held[0] for document in held)
    assert counters["service.snapshots.loaded"] == 1
    assert counters["service.snapshots.shared"] == \
        READERS * COPY_ROUNDS + COPY_ROUNDS
    assert len(witness) == COPY_ROUNDS + 1
    assert len({generation for generation, _, _ in results}) == COPY_ROUNDS
    for generation, expression, answer in results:
        assert answer == witness[generation][expression], (
            f"generation {generation!r}, query {expression!r}: an answer "
            "read during a writer's copy diverged from the witness")


#: Term queries for the shared-snapshot harness: sparse needles over the
#: whole ``w`` vector probe the occurrences, a dense needle walks, and
#: vectors whose members nest (``physical:*``) keep the walk for
#: ``contains``; the multi-step shapes plan cold, reading the census.
TERM_QUERIES = tuple(ExtendedXPath(expression) for expression in (
    "//w[contains(., 'gar')]",
    "//w[starts-with(., 'gar')]",
    "//w[contains(., 'en')]",
    "//w[starts-with(., 'hwa')]",
    "//w[contains(., 'a')]",
    "//line[contains(., 'gar')]",
    "//physical:*[contains(., 'gar')]",
    "//physical:*[starts-with(., 'gar')]",
    "//line[@n='2'][contains(., 'en')]",
    "//page/line[contains(., 'gar')]",
))

#: Generations the term harness publishes after the first.
TERM_ROUNDS = 3


@pytest.mark.parametrize("seed", [7000 + n for n in range(SEEDS)])
def test_readers_race_the_term_kernels_on_one_snapshot(tmp_path, seed):
    """Each round, ``READERS`` threads open read sessions on one shared
    snapshot and start their term queries together, so they race to fill
    every lazy cache a term filter reads on first use: the candidate
    vectors, the occurrence arrays, each vector's ends-sorted flag and
    the manager's planner census.  A write session then publishes an
    edit, so the next round races on a new generation's empty caches.
    Every answer must equal the unindexed witness of its generation."""
    from repro.index.kernels import CandidateVector

    rng = random.Random(seed)
    spec = WorkloadSpec(words=900, hierarchies=2, overlap_density=0.3,
                        seed=seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DocumentService(tmp_path / "svc.db", pool_size=4,
                             lock_timeout_s=30.0) as svc:
            svc.create(generate(spec), "doc")
            for round_ in range(TERM_ROUNDS + 1):
                if round_:
                    with svc.write_session("doc") as session:
                        _random_edit(session.editor, rng,
                                     session.document.length)
                with svc.read_session("doc") as session:
                    document = session.document
                    witness = {
                        query.expression: snapshot(
                            query.evaluate(document, index=False))
                        for query in TERM_QUERIES
                    }
                results: list[tuple] = []
                errors: list[BaseException] = []
                sources: list = []
                lock = threading.Lock()
                together = threading.Barrier(READERS)

                def reading(reader_seed: int):
                    order = list(TERM_QUERIES)
                    random.Random(reader_seed).shuffle(order)
                    try:
                        with svc.read_session("doc") as held:
                            together.wait(timeout=30)
                            mine = [(held.generation, query.expression,
                                     snapshot(held.query(query.expression)))
                                    for query in order]
                            with lock:
                                sources.append(held.document)
                                results.extend(mine)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        together.abort()

                threads = [threading.Thread(target=reading,
                                            args=(seed * 100 + n,))
                           for n in range(READERS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert all(held is document for held in sources)
                assert len(results) == READERS * len(TERM_QUERIES)
                for _generation, expression, answer in results:
                    assert answer == witness[expression], (
                        f"round {round_}, query {expression!r}: a racing "
                        "reader diverged from the witness")
                # The races really reached the probe: the shared w
                # vector's ends-sorted flag was filled (and is True).
                vector = document.index_manager._vectors[("name", "w", None)]
                assert isinstance(vector, CandidateVector)
                assert vector._ends_sorted is True
    finally:
        sys.setswitchinterval(interval)
