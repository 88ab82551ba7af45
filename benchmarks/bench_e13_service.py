"""E13 — concurrent document-service traffic.

Many-client traffic against one :class:`repro.service.DocumentService`
over a WAL-mode database file: a reader-thread sweep (1, 4, 8 readers)
each running the query mix through snapshot-isolated read sessions
while one writer continuously edits and publishes.  For every thread
count the bench reports

* read-session latency (open + query mix + close) p50 / p99,
* publish latency p50 / p99 and the publish count,
* total read sessions served,

and enforces the correctness bars on the very same traffic: every
sampled answer byte-identical to a single-threaded unindexed witness of
its generation, every thread joined within the bound (zero deadlocks,
zero stray exceptions, zero lock timeouts).

A second arm prices one three-edit write session (insert, attribute,
remove, publish) on a 2000-word, 4-hierarchy document, in one process:

* the write's ``freeze``, which patches the copy's document order from
  the delta journal, against the same ``freeze`` forced into the full
  re-key by an untracked ``touch`` (bar: the patch at least
  ``FREEZE_SPEEDUP_FLOOR`` times faster);
* the GC-tracked objects one write session leaves allocated (the
  ``gc.get_count()`` delta with the collector off), per document
  element (bar: at most ``ALLOCATIONS_PER_ELEMENT``).

Run standalone for the report table::

    PYTHONPATH=src python benchmarks/bench_e13_service.py

or through pytest (the assertions are the acceptance bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e13_service.py -q
"""

from __future__ import annotations

import gc
import random
import statistics
import tempfile
import threading
import time
from pathlib import Path

from repro import DocumentService
from repro.editing import Editor
from repro.errors import EditError, MarkupConflictError
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath

#: Reader-thread sweep; the top count is the acceptance bar's
#: ">= 8 concurrent readers + 1 writer".
THREADS = (1, 4, 8)

#: Generations the writer publishes per sweep point.
PUBLISHES = 12

WORDS = 400

SPEC = WorkloadSpec(words=WORDS, hierarchies=2, overlap_density=0.3, seed=13)

#: The per-session query mix: one scan, one text predicate, one
#: cross-hierarchy axis — the service's expected read shapes.
QUERY_MIX = [ExtendedXPath(expression) for expression in (
    "//w",
    "//line[@n='2']",
    "//w[contains(., 'ar')]",
    "//line/contained::w",
    "count(//seg)",
)]

EDIT_TAGS = ("seg", "note", "mark")

JOIN_TIMEOUT_S = 120

#: The write-session arm: document size, sessions measured, and bars.
WRITE_SPEC = WorkloadSpec(words=2000, hierarchies=4, seed=2005)
WRITE_ROUNDS = 15
FREEZE_SPEEDUP_FLOOR = 4.0
ALLOCATIONS_PER_ELEMENT = 3.0


def _snapshot(value):
    if not isinstance(value, list):
        return value
    return [
        (node.hierarchy, node.tag, node.start, node.end,
         tuple(sorted(node.attributes.items())))
        if getattr(node, "is_element", False)
        else (type(node).__name__.lower(), node.start, node.end)
        for node in value
    ]


def _witness(document) -> dict[str, object]:
    return {
        query.expression: _snapshot(query.evaluate(document, index=False))
        for query in QUERY_MIX
    }


def _edit(editor, rng) -> None:
    length = editor.document.length
    hierarchies = editor.document.hierarchy_names()
    try:
        if rng.random() < 0.6:
            a, b = rng.randrange(length + 1), rng.randrange(length + 1)
            editor.insert_markup(rng.choice(hierarchies),
                                 rng.choice(EDIT_TAGS), min(a, b), max(a, b))
        else:
            elements = list(editor.document.elements())
            if elements:
                editor.set_attribute(rng.choice(elements), "n",
                                     str(rng.randrange(50)))
    except (MarkupConflictError, EditError):
        pass


def drive(readers: int, directory: Path, seed: int = 13) -> dict:
    """One sweep point: ``readers`` reader threads + 1 writer."""
    with DocumentService(directory / f"svc-{readers}.db",
                         pool_size=max(4, readers)) as service:
        base = generate(SPEC)
        witness = {service.create(base, "doc"): _witness(base)}

        read_latencies: list[float] = []
        publish_latencies: list[float] = []
        sampled: list[tuple] = []
        collect = threading.Lock()
        errors: list[BaseException] = []
        done = threading.Event()
        start = threading.Barrier(readers + 1)

        def writing():
            rng = random.Random(seed)
            try:
                start.wait(timeout=30)
                for _ in range(PUBLISHES):
                    with service.write_session("doc") as session:
                        for _ in range(rng.randrange(1, 3)):
                            _edit(session.editor, rng)
                        t0 = time.perf_counter()
                        session.publish()
                        publish_latencies.append(time.perf_counter() - t0)
                    witness[session.generation] = _witness(session.document)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def reading(reader_seed: int):
            rng = random.Random(reader_seed)
            mine: list[float] = []
            checks: list[tuple] = []
            try:
                start.wait(timeout=30)
                while True:
                    last_round = done.is_set()
                    t0 = time.perf_counter()
                    with service.read_session("doc") as session:
                        answers = [
                            (session.generation, query.expression,
                             _snapshot(session.query(query.expression)))
                            for query in QUERY_MIX
                        ]
                    mine.append(time.perf_counter() - t0)
                    checks.append(rng.choice(answers))
                    if last_round:
                        break
                with collect:
                    read_latencies.extend(mine)
                    sampled.extend(checks)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writing)]
        threads += [threading.Thread(target=reading, args=(seed * 100 + n,))
                    for n in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        stuck = sum(thread.is_alive() for thread in threads)

        mismatches = [
            (generation, expression)
            for generation, expression, answer in sampled
            if answer != witness.get(generation, {}).get(expression)
        ]
        return {
            "readers": readers,
            "publishes": len(publish_latencies),
            "sessions": len(read_latencies),
            "read_latencies": read_latencies,
            "publish_latencies": publish_latencies,
            "generations": len(witness),
            "checked": len(sampled),
            "mismatches": mismatches,
            "errors": errors,
            "stuck_threads": stuck,
        }


def run_all(directory: Path) -> list[dict]:
    return [drive(readers, directory) for readers in THREADS]


def percentile(samples, fraction: float) -> float:
    """Linearly interpolated percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = fraction * (len(ordered) - 1)
    low, high = int(rank), min(int(rank) + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def report(rows: list[dict]) -> str:
    lines = [
        f"E13 — service traffic: reader sweep + 1 writer "
        f"({WORDS} words, {PUBLISHES} publishes, {len(QUERY_MIX)} queries "
        "per session)",
        f"{'readers':>7} {'sessions':>8} {'read p50':>10} {'read p99':>10} "
        f"{'pub p50':>10} {'pub p99':>10} {'checked':>8}",
    ]
    for row in rows:
        reads = row["read_latencies"]
        publishes = row["publish_latencies"]
        lines.append(
            f"{row['readers']:>7} {row['sessions']:>8} "
            f"{percentile(reads, 0.5) * 1e3:>8.2f}ms "
            f"{percentile(reads, 0.99) * 1e3:>8.2f}ms "
            f"{percentile(publishes, 0.5) * 1e3:>8.2f}ms "
            f"{percentile(publishes, 0.99) * 1e3:>8.2f}ms "
            f"{row['checked']:>8}"
        )
    return "\n".join(lines)


def check(rows: list[dict]) -> None:
    """The acceptance bars, shared by pytest and standalone runs."""
    for row in rows:
        label = f"readers={row['readers']}"
        assert row["stuck_threads"] == 0, (
            f"{label}: {row['stuck_threads']} threads never joined "
            "(deadlock)")
        assert not row["errors"], f"{label}: {row['errors']}"
        assert row["publishes"] == PUBLISHES, label
        assert row["generations"] == PUBLISHES + 1, label
        assert row["sessions"] >= row["readers"], label
        assert row["checked"] > 0, label
        assert not row["mismatches"], (
            f"{label}: answers diverged from the single-threaded witness: "
            f"{row['mismatches'][:5]}")


def _write_edits(editor, rng) -> None:
    """The write session's three edits: wrap one to four words in new
    editorial markup, set an attribute, remove an editorial element."""
    document = editor.document
    words = list(document.elements("linguistic", "w"))
    for _ in range(20):  # skip spans that cross editorial markup
        first = rng.randrange(len(words) - 4)
        last = first + rng.randrange(4)
        try:
            editor.insert_markup("editorial", rng.choice(("dmg", "res")),
                                 words[first].start, words[last].end)
            break
        except MarkupConflictError:
            continue
    editor.set_attribute(rng.choice(words), "resp", f"ed{rng.randrange(9)}")
    editor.remove_markup(rng.choice(list(document.elements("editorial"))))


def _timed_freeze(document) -> int:
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        document.freeze()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def drive_write_sessions(directory: Path) -> dict:
    """The write-session arm: patched vs forced freeze, allocations."""
    with DocumentService(directory / "writes.db", pool_size=2) as service:
        service.create(generate(WRITE_SPEC), "doc")
        rng = random.Random(2005)
        for _ in range(2):  # the first opens by decoding the store
            with service.write_session("doc", prevalidate=False) as session:
                _write_edits(session.editor, rng)
        allocations = []
        for _ in range(WRITE_ROUNDS):
            gc.collect()
            gc.disable()
            try:
                before = gc.get_count()[0]
                with service.write_session("doc",
                                           prevalidate=False) as session:
                    _write_edits(session.editor, rng)
                allocations.append(gc.get_count()[0] - before)
            finally:
                gc.enable()
        with service.read_session("doc") as reader:
            source = reader.document
        elements = source.element_count()
        patched, forced = [], []
        for round_ in range(WRITE_ROUNDS):
            copies = []
            for _ in range(2):
                copy = source.copy()
                _write_edits(Editor(copy, prevalidate=False),
                             random.Random(round_))
                copies.append(copy)
            copies[1].touch()  # untracked: the journal cannot bridge it
            if round_ % 2:
                forced.append(_timed_freeze(copies[1]))
                patched.append(_timed_freeze(copies[0]))
            else:
                patched.append(_timed_freeze(copies[0]))
                forced.append(_timed_freeze(copies[1]))
            assert [e.ordinal for e in copies[0].ordered_elements()] == \
                [e.ordinal for e in copies[1].ordered_elements()]
        return {
            "elements": elements,
            "allocations": allocations,
            "patched_ns": patched,
            "forced_ns": forced,
        }


def write_report(row: dict) -> str:
    patched = statistics.median(row["patched_ns"]) / 1e6
    forced = statistics.median(row["forced_ns"]) / 1e6
    allocations = statistics.median(row["allocations"])
    return "\n".join([
        f"E13 — write session ({WRITE_SPEC.words} words, "
        f"{WRITE_SPEC.hierarchies} hierarchies, {row['elements']} elements, "
        f"{WRITE_ROUNDS} sessions; medians)",
        f"  freeze: patched {patched:.3f}ms, forced full re-key "
        f"{forced:.3f}ms ({forced / patched:.1f}x)",
        f"  GC-tracked allocations per write session: {allocations:.0f} "
        f"({allocations / row['elements']:.2f} per element)",
    ])


def check_write(row: dict) -> None:
    speedup = (statistics.median(row["forced_ns"])
               / statistics.median(row["patched_ns"]))
    assert speedup >= FREEZE_SPEEDUP_FLOOR, (
        f"patched freeze only {speedup:.1f}x faster than the full re-key")
    per_element = statistics.median(row["allocations"]) / row["elements"]
    assert per_element <= ALLOCATIONS_PER_ELEMENT, (
        f"a write session allocates {per_element:.2f} objects per element")


def test_e13_write_session_patch_and_allocations():
    """A write's freeze patches the order (>= 4x the full re-key) and a
    write allocates at most 3 GC-tracked objects per element."""
    with tempfile.TemporaryDirectory() as tmp:
        row = drive_write_sessions(Path(tmp))
    print("\n" + write_report(row))
    check_write(row)


def test_e13_service_traffic():
    """>= 8 concurrent readers + 1 writer: byte-identical answers, zero
    deadlocks, zero timeouts; the latency table is printed, not gated."""
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_all(Path(tmp))
    print("\n" + report(rows))
    check(rows)
    assert max(row["readers"] for row in rows) >= 8


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_all(Path(tmp))
        write_row = drive_write_sessions(Path(tmp))
    print(report(rows))
    print(write_report(write_row))
    check(rows)
    check_write(write_row)
