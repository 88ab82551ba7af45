#!/usr/bin/env python3
"""End-to-end pipeline benchmark: source bytes → stored → query → edit.

Runs one workload of :mod:`workloads` as a single closed-loop client
(one thread, one pooled connection in use at a time), checks every
answer against its witness, and prints each metric by name with its
unit.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``, their timings scaled to a nominal machine speed
(see :mod:`pace`); ``--trace 1`` reports its per-layer metrics from a
separate traced pass (see :mod:`spans`).  Raw samples, scaled and
wall, the reference bursts, the machine fingerprint and the
calibration time go to ``benchmarks/results/e2e/<run>.json``.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload edit-session --seed 2005
    python3 benchmarks/e2e/run.py --workload edit-session --trace 1
    python3 benchmarks/e2e/run.py --seed 2005     # every workload, each
                                                  # in a child process
    python3 benchmarks/e2e/run.py --smoke         # tiny sizes, all checks

A wrong answer exits 1 naming the workload, op and expression.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from pace import Scaler, scale, steady
from spans import Recorder, check_tree, layer_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "e2e"

SMOKE_SECONDS = 0.5
#: ``setup_s`` is the median of this many fresh set-ups.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("stream-ingest", "edit-session", "open-doc-query",
                  "corpus-search")


# -- environment --------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """What the numbers depend on besides the code."""
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: the machine's speed
    right now, so a comparison can tell a slower machine from slower
    code."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
            table[acc & 1023] = i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def declared() -> dict:
    """BENCHMARK.json, the benchmark's declaration."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def catalog(section: str) -> dict[str, dict]:
    """The metric declarations of one BENCHMARK.json section."""
    return {entry["name"]: entry for entry in declared()[section]}


# -- measurement ---------------------------------------------------------------

def measure(script, seconds: float, recorder=None):
    """Run ops from ``script`` until ``seconds`` have passed.

    Returns ``(samples, scaler, attempted, failed)``: ``samples`` maps
    each op kind to its wall latencies in ns, ``scaler.scaled`` to the
    same latencies at nominal machine speed (:mod:`pace`).  A failing
    op is counted and the client moves on; a wrong answer
    (``AnswerError`` from a check) propagates.
    """
    samples: dict[str, list[int]] = {}
    attempted = failed = 0
    scaler = Scaler()
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        op = next(script)
        attempted += 1
        start = time.perf_counter_ns()
        try:
            if recorder is None:
                result = op.run()
            else:
                with recorder.op(op.kind):
                    result = op.run()
        except Exception:  # the client keeps running; failures are counted
            failed += 1
            if failed <= 3:
                print(f"op {op.kind} {op.label} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            continue
        wall_ns = time.perf_counter_ns() - start
        samples.setdefault(op.kind, []).append(wall_ns)
        if op.check is not None:
            op.check(result)
        scaler.add(op.kind, wall_ns)
    scaler.flush()
    return samples, scaler, attempted, failed


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _latencies(samples: dict) -> list[int]:
    return [ns for kind in samples.values() for ns in kind]


def end_to_end(scaled: dict, setup_s: list[float]) -> dict[str, float]:
    """The gated metrics, from latencies and set-up times at nominal
    machine speed."""
    latencies = _latencies(scaled)
    if not latencies:
        raise RuntimeError("no op completed")
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_p90_ms": _p90(latencies) / 1e6,
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
    }


def per_layer(spans, observed: dict, stats, overhead: float) -> dict:
    """The per-layer metrics of a traced pass: span self times, the
    library's own ``repro.obs`` counters (``observed`` is the metrics
    snapshot) and the workload's benchmark-side counts."""
    def get(name: str) -> int:
        return observed["counters"].get(name, 0)

    def p50_ms(name: str, rebuilt: bool = False) -> float:
        durations = [span.duration_ns for span in spans if span.name == name
                     and (span.size > 0 or not rebuilt)]
        return statistics.median(durations) / 1e6 if durations else 0.0

    loads = [span for span in spans if span.name == "SqliteStore.load"]
    metrics = layer_summary(spans)
    metrics.update({
        "storage.load.p50_ms": p50_ms("SqliteStore.load"),
        "storage.rows_decoded_per_load":
            _ratio(sum(span.size for span in loads), len(loads)),
        "index.build.p50_ms": p50_ms("IndexManager.refresh", rebuilt=True),
        "storage.rows_written_per_publish": _ratio(
            get("storage.rows_upserted") + get("storage.rows_deleted")
            + get("storage.rows_rewritten"), get("service.publishes")),
        "storage.row_level_ratio": _ratio(
            get("storage.row_level_saves"),
            get("storage.row_level_saves") + get("storage.full_rewrites")),
        "index.patches": get("index.patches"),
        "index.rebuilds": get("index.rebuilds"),
        "xpath.plan.p50_ms": p50_ms("Planner.plan"),
        "xpath.plan_cache_hit_ratio": _ratio(
            get("xpath.plan_cache.hits"),
            get("xpath.plan_cache.hits") + get("xpath.plan_cache.misses")),
        "xpath.rows_examined_per_produced": _ratio(
            get("xpath.rows_examined"), get("xpath.rows_produced")),
        "storage.stream_chunks_per_doc": _ratio(
            get("storage.stream_chunks"), get("storage.stream_ingests")),
        "collection.routed_ratio": _ratio(
            get("collection.routed"),
            get("collection.routed") + get("collection.pruned")),
        "collection.useful_visit_ratio":
            _ratio(stats["useful"], stats["visited"]),
        "collection.add.p50_ms": p50_ms("Corpus.add"),
        "collection.remove.p50_ms": p50_ms("Corpus.remove"),
        "streaming.lazy_rows_decoded_per_result":
            _ratio(stats["lazy_decoded"], stats["lazy_rows"]),
        "streaming.lazy_fallbacks": get("streaming.lazy_xpath"),
        "editing.rejected_ratio":
            _ratio(stats["edits_rejected"], stats["edits"]),
        "storage.busy_retries": get("storage.busy_retries"),
        "storage.pool_wait_s":
            observed["timers"].get("storage.pool.wait", {}).get("total", 0)
            / 1e9,
        "trace_overhead": overhead,
    })
    return metrics


def _mean_ns(samples: dict) -> float:
    latencies = _latencies(samples)
    return sum(latencies) / len(latencies)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result
    record (its ``summary`` is the line the benchmark prints last)."""
    import repro.obs as obs
    from workloads import WORKLOADS

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = (f"{name}-s{seed}-t{int(trace)}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "smoke": smoke, "seconds": seconds, "commit": _commit(),
              "fingerprint": fingerprint(), "calibration_s": calibrate()}
    work = Path(tempfile.mkdtemp(prefix=stem, dir=RESULTS))
    # The traced pass sets up once, as an op of its own: the batch SACX
    # parse and the initial saves happen only in set-up.
    recorder = Recorder() if trace else None
    workload = None
    try:
        setup_wall_s, setup_s = [], []
        for repeat in range(1 if trace else SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None
            directory = work / f"setup-{repeat}"
            directory.mkdir()
            workload = WORKLOADS[name](seed, directory, smoke)
            before = steady()
            start = time.perf_counter()
            if recorder is None:
                workload.setup()
            else:
                with recorder.installed(), recorder.op("setup"):
                    workload.setup()
            setup_wall_s.append(time.perf_counter() - start)
            setup_s.append(scale(setup_wall_s[-1], before, steady()))
        workload.prepare()
        script = workload.ops()
        gc.collect()
        if recorder is None:
            samples, scaler, attempted, failed = measure(script, seconds)
            metrics = end_to_end(scaler.scaled, setup_s)
            section = "end_to_end"
        else:
            _, plain, attempted, failed = measure(script, seconds / 2)
            obs.reset()
            obs.enable()
            try:
                with recorder.installed():
                    samples, scaler, more, more_failed = measure(
                        script, seconds / 2, recorder)
            finally:
                obs.disable()
            attempted += more
            failed += more_failed
            problems = check_tree(recorder.spans)
            if problems:
                raise RuntimeError("malformed span tree: "
                                   + "; ".join(problems[:5]))
            recorder.write_jsonl(RESULTS / f"{stem}-spans.jsonl")
            metrics = per_layer(recorder.spans, obs.report()["metrics"],
                                workload.stats,
                                _mean_ns(scaler.scaled)
                                / _mean_ns(plain.scaled))
            section = "per_layer"
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    names = catalog(section)
    if set(metrics) != set(names):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"undeclared {sorted(set(metrics) - set(names))}, "
            f"missing {sorted(set(names) - set(metrics))}")
    record.update({
        "setup_samples_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "samples_ms": {kind: [ns / 1e6 for ns in values]
                       for kind, values in scaler.scaled.items()},
        "wall_ms": {kind: [ns / 1e6 for ns in values]
                    for kind, values in samples.items()},
        "bursts_ms": [ns / 1e6 for ns in scaler.bursts],
        "edits_rejected": workload.stats["edits_rejected"],
        "summary": {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": names[key]["unit"]}
                        for key, value in metrics.items()},
        },
    })
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
    return record


def report(record: dict) -> None:
    summary = record["summary"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  calibration "
          f"{record['calibration_s'] * 1e3:.1f} ms  reference burst p50 "
          f"{statistics.median(record['bursts_ms']):.2f} ms")
    for kind, values in record["samples_ms"].items():
        wall = record["wall_ms"][kind]
        print(f"  {kind:8s} n={len(values):<6d} "
              f"p50={statistics.median(values):.3f} ms  "
              f"p90={_p90(values):.3f} ms  (wall p50="
              f"{statistics.median(wall):.3f} ms  p90={_p90(wall):.3f} ms)")
    print(f"  ops_attempted={summary['attempted']}  "
          f"ops_failed={summary['failed']}  "
          f"edits_rejected={record['edits_rejected']}")
    for key, metric in summary["metrics"].items():
        print(f"  {key:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(summary))


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        status |= subprocess.run(command, check=False).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all, each in a "
                             "child process)")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: run_seconds of "
                             f"BENCHMARK.json, {SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report the per-layer metrics of a traced "
                             "pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every check")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the repro sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    # Keep every file the run writes (sqlite temp files included)
    # inside the checkout.
    RESULTS.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(RESULTS)
    tempfile.tempdir = str(RESULTS)
    sys.path.insert(0, str(SRC))
    from workloads import AnswerError

    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else declared()["run_seconds"]
    try:
        record = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.smoke)
    except AnswerError as exc:
        print(f"ANSWER CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
