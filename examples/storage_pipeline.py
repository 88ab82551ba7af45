"""Persistent storage: save a generated edition, query it in storage.

The paper lists persistent storage as work underway; this example runs
the layer the repository builds for it: a SQLite store with SQL-side
span/overlap queries that never load the document.

Run:  python examples/storage_pipeline.py
"""

import tempfile
import time
from pathlib import Path

from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate, workload_summary


def main() -> None:
    doc = generate(WorkloadSpec(words=4000, overlap_density=0.25))
    print("document:", workload_summary(doc))

    with tempfile.TemporaryDirectory() as tmp:
        with GoddagStore(str(Path(tmp) / "editions.db")) as store:
            t0 = time.perf_counter()
            store.save(doc, "boethius-36v")
            print(f"saved in {1000 * (time.perf_counter() - t0):.1f} ms")

            t0 = time.perf_counter()
            hits = store.elements_intersecting("boethius-36v", 100, 160)
            dt_storage = time.perf_counter() - t0
            print(f"span query [100,160) in storage: {len(hits)} solid "
                  f"elements, {1000 * dt_storage:.2f} ms; first "
                  f"(hierarchy, tag, start, end): {hits[0]}")

            t0 = time.perf_counter()
            loaded = store.load("boethius-36v")
            dt_load = time.perf_counter() - t0
            print(f"full load: {loaded.element_count()} elements, "
                  f"{1000 * dt_load:.1f} ms "
                  f"({dt_load / dt_storage:.0f}x the storage query)")

            pairs = store.overlapping_pairs("boethius-36v", "vline", "line")
            print(f"overlap join in SQL: {len(pairs)} (vline, line) pairs")


if __name__ == "__main__":
    main()
