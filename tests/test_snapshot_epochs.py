"""The snapshot cache's install-epoch table stays bounded under churn.

:class:`~repro.storage.sqlite_backend.SnapshotCache` moves a name's
install epoch on every eviction so that a load in flight never installs
over a change.  Only a load in flight reads an epoch back, so the table
holds a name only while one is running: a corpus that keeps adding and
removing members must not grow it by one entry per removed name.
"""

from __future__ import annotations

import sys
import threading

from repro import Corpus
from repro.storage.sqlite_backend import SnapshotCache
from repro.workloads import WorkloadSpec, generate


def test_add_remove_churn_leaves_the_epoch_table_bounded(tmp_path):
    member = generate(WorkloadSpec(words=12, hierarchies=2, seed=7))
    with Corpus(tmp_path / "churn.db", pool_size=2) as corpus:
        cache = corpus._pool.snapshots
        for i in range(300):
            corpus.add(member, f"member-{i}")
            if i % 50 == 0:
                assert corpus.query("collection()//line").hits
            corpus.remove(f"member-{i}")
        assert len(cache._epochs) <= SnapshotCache.LIMIT
        assert not cache._loads


def test_an_eviction_during_a_load_still_blocks_its_install(tmp_path):
    """The epoch a load read survives until it finishes, even when the
    name has no entry: the load sees the eviction and installs nothing."""
    member = generate(WorkloadSpec(words=12, hierarchies=2, seed=7))
    with Corpus(tmp_path / "race.db", pool_size=2) as corpus:
        corpus.add(member, "doc")
        cache = corpus._pool.snapshots
        pool = corpus._pool

        class EvictDuringLoad:
            def __enter__(self):
                self._cm = pool.connection()
                backend = self._cm.__enter__()
                real_load = backend.load_snapshot

                def load_snapshot(name):
                    cache.evict(name)
                    return real_load(name)

                backend.load_snapshot = load_snapshot
                self._backend = backend
                return backend

            def __exit__(self, *exc_info):
                del self._backend.load_snapshot
                return self._cm.__exit__(*exc_info)

        _entry, shared = cache.get(EvictDuringLoad(), "doc", index=False)
        assert not shared
        assert list(cache) == []
        assert not cache._epochs and not cache._loads
        # With nothing in flight, the next load installs.
        cache.get(pool.connection(), "doc", index=False)
        assert list(cache) == ["doc"]


def test_concurrent_loads_and_evictions_leave_no_count_and_no_stale_entry(
        tmp_path):
    """Six readers load two names while a writer overwrites one of them
    (each overwrite evicts).  A lost update of the in-flight counts
    would leave a count behind, or drop an epoch a load still needs and
    let it install a superseded generation."""
    members = [generate(WorkloadSpec(words=12, hierarchies=2, seed=seed))
               for seed in (1, 2)]
    with Corpus(tmp_path / "stress.db", pool_size=4) as corpus:
        for i, member in enumerate(members):
            corpus.add(member, f"doc-{i}")
        cache, pool = corpus._pool.snapshots, corpus._pool
        errors = []

        def reader(k):
            try:
                for i in range(40):
                    cache.get(pool.connection(), f"doc-{(k + i) % 2}",
                              index=False)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        def writer():
            try:
                for i in range(10):
                    corpus.add(members[i % 2], "doc-0", overwrite=True)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(k,))
                   for k in range(6)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not cache._loads and not cache._epochs
        with pool.connection() as backend:
            for name in cache:
                assert cache._entries[name].generation \
                    == backend.index_stamp(name)
