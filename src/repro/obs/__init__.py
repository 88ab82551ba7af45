"""Observability for the repro library: tracing, metrics, drift capture.

Everything here is zero-dependency and **off by default** — the
instrumented hot paths (step evaluation, index catch-up, row-level
saves) pay one attribute check while observation is disabled, an
overhead the bench suite asserts stays under 3%.

Three cooperating pieces:

* :class:`Tracer` / :func:`tracing` — nested spans with wall time and
  typed attributes (query → plan → step → access-path on the query
  side; save → coalesce → transaction on the storage side),
  exportable as JSON lines.
* :data:`metrics` — the process-wide :class:`MetricsRegistry` of
  counters / timers / histograms every layer reports to (the compiled
  query engine lands its ``xpath.plan_cache.hits`` /
  ``xpath.plan_cache.misses`` pair here, and
  ``repro.xpath.plan_cache_stats()`` reads the same tallies without
  enabling metrics).
* :data:`drift` ring — bounded buffer of per-step estimate-vs-actual
  :class:`DriftRecord` entries, the input feed for cardinality
  feedback.

Typical session::

    import repro.obs as obs

    obs.enable()                      # metrics + drift capture on
    with obs.tracing() as tracer:
        results = xpath("//page", document)
    print(tracer.export_jsonl())
    print(obs.report())               # one merged snapshot
    obs.disable()

See the "Observability" section of docs/ARCHITECTURE.md for the span
hierarchy, the metric name catalog, and how to read
``explain(analyze=True)``.
"""

from __future__ import annotations

import os
import warnings

from .drift import DriftRecord, DriftRing, RING_CAPACITY, ring
from .metrics import MetricsRegistry, metrics
from .stats import STATS_SCHEMA, stats_dict
from .trace import SPAN_LIMIT, Span, Tracer, current_tracer, tracing

#: Environment switch: when set to "1", silent fallbacks (index rebuild
#: instead of patch, storage full rewrite instead of row-level save)
#: additionally raise a ``warnings.warn`` naming the reason code.
STRICT_ENV = "REPRO_OBS_STRICT"


def enable() -> None:
    """Turn on metrics and drift capture process-wide."""
    metrics.enable()


def disable() -> None:
    """Return to the no-op default (existing data is kept; see reset())."""
    metrics.disable()


def reset() -> None:
    """Clear all collected metrics and drift records."""
    metrics.reset()
    ring.clear()


def active() -> bool:
    """True when any observation sink is live (metrics or a tracer)."""
    return metrics.enabled or current_tracer() is not None


def strict() -> bool:
    """True when ``REPRO_OBS_STRICT=1``: fallbacks also warn."""
    return os.environ.get(STRICT_ENV, "") == "1"


def fallback(event: str, reason: str, detail: str = "") -> None:
    """Record a fallback event with its reason code.

    Bumps the ``event`` counter with the reason suffix; when strict
    mode is on, additionally emits a :class:`RuntimeWarning` so tests
    and CI can surface silent degradation.
    """
    metrics.incr(event, reason=reason)
    if strict():
        message = f"{event}: fell back ({reason})"
        if detail:
            message += f" — {detail}"
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def report() -> dict:
    """One merged, JSON-shaped snapshot of everything observed so far.

        >>> import repro.obs as obs
        >>> sorted(obs.report())
        ['drift', 'metrics', 'schema', 'strict']
    """
    return {
        "schema": "repro-obs-report/1",
        "metrics": metrics.snapshot(),
        "drift": {
            "capacity": ring.capacity,
            "recorded": ring.total_recorded,
            "retained": len(ring),
            "records": ring.to_dicts(),
        },
        "strict": strict(),
    }


# The process-wide drift ring, re-exported under its role name.
drift = ring

__all__ = [
    "DriftRecord",
    "DriftRing",
    "RING_CAPACITY",
    "MetricsRegistry",
    "metrics",
    "STATS_SCHEMA",
    "stats_dict",
    "SPAN_LIMIT",
    "Span",
    "Tracer",
    "current_tracer",
    "tracing",
    "STRICT_ENV",
    "enable",
    "disable",
    "reset",
    "active",
    "strict",
    "fallback",
    "report",
    "drift",
    "ring",
]
