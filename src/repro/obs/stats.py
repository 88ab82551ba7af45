"""The unified ``stats()`` dict shape.

Three layers historically grew three divergent stats schemas:
``IndexManager.stats()`` (flat build/patch counters), the planner's
explain counters (served/fallback totals), and the store-level row
counts.  They now all return the same envelope:

    {
        "schema": "repro-stats/1",
        "source": "index.manager" | "xpath.plan" | "storage.store",
        "counts": {<dotted-name>: int | float, ...},
        ...source-specific extras...
    }

``counts`` keys are dotted, namespaced names from the metric catalog in
docs/ARCHITECTURE.md, so a stats dict from any layer can be merged into
one report without collisions.
"""

from __future__ import annotations

#: Version tag carried by every unified stats dict.
STATS_SCHEMA = "repro-stats/1"


def stats_dict(source: str, counts: dict, **extra) -> dict:
    """Build a unified repro-stats/1 dict.

    ``source`` names the producing layer, ``counts`` holds the dotted
    metric names, and ``extra`` carries source-specific sections
    verbatim.
    """
    payload = {"schema": STATS_SCHEMA, "source": source, "counts": dict(counts)}
    payload.update(extra)
    return payload


__all__ = ["STATS_SCHEMA", "stats_dict"]
