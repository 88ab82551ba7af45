"""Peak-RSS sampling for the benches (E1, E15).

:func:`measure_peak_rss` isolates one call in a forked child;
:func:`measure_spawned_peak_rss` in a freshly spawned interpreter, for
numbers a bench asserts a budget on.
"""

from __future__ import annotations

import os

__all__ = ["measure_peak_rss", "measure_spawned_peak_rss"]


def _rss_child(pipe, fn, args, kwargs):
    import resource

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        result = fn(*args, **kwargs)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pipe.send(("ok", result, before, after))
    except BaseException as exc:  # surface the real error in the parent
        pipe.send(("err", repr(exc), 0, 0))
    finally:
        pipe.close()


def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError(f"{field} missing from /proc/self/status")


def _spawned_rss_child(pipe, fn, args, kwargs):
    """Like :func:`_rss_child`, but reads Linux's per-address-space
    peak (``VmHWM``), reset just before the call.  ``ru_maxrss`` would
    not do here: exec keeps the parent's high-water mark, so a spawned
    child starts with the caller's peak."""
    try:
        before = _status_kb("VmRSS")
        with open("/proc/self/clear_refs", "w", encoding="ascii") as clear:
            clear.write("5")
        result = fn(*args, **kwargs)
        pipe.send(("ok", result, before, _status_kb("VmHWM")))
    except BaseException as exc:  # surface the real error in the parent
        pipe.send(("err", repr(exc), 0, 0))
    finally:
        pipe.close()


def _in_child(method: str, target, fn, args, kwargs):
    """Run ``target(pipe, fn, args, kwargs)`` in a ``method`` child and
    return ``(result, peak_rss_kb)``."""
    import multiprocessing

    ctx = multiprocessing.get_context(method)
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(child, fn, args, kwargs))
    proc.start()
    child.close()
    status, result, before, after = parent.recv()
    proc.join()
    parent.close()
    if status == "err":
        raise RuntimeError(f"measure_peak_rss child failed: {result}")
    return result, max(0, after - before)


def measure_peak_rss(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` and sample its peak RSS.

    Returns ``(result, sample)`` where ``sample`` is a dict of two
    memory fields: ``peak_rss_kb`` — the high-water
    RSS attributable to the call — plus ``rss_mode`` saying how it was
    measured.  The primary mode forks a child process (``ru_maxrss``
    is a per-process high-water mark that never resets, so only a
    fresh process isolates one call); the child reports its baseline
    and final ``ru_maxrss`` over a pipe and the delta is the call's
    own footprint.  Platforms without ``fork`` (or with a broken
    multiprocessing) fall back to an in-process before/after delta —
    reported on the ``bench.peak_rss`` fallback metric — which can
    under-read when the process high-water was already above the
    call's peak.

    A forked child inherits the caller's heap, so the delta also
    depends on how much free heap the caller left behind; use
    :func:`measure_spawned_peak_rss` when the number is gated.

    ``ru_maxrss`` is kilobytes on Linux; the fields inherit that unit.
    """
    import resource

    try:
        result, peak = _in_child("fork", _rss_child, fn, args, kwargs)
        return result, {"peak_rss_kb": peak, "rss_mode": "fork"}
    except (ImportError, ValueError, OSError, EOFError) as exc:
        from repro.obs import fallback as _obs_fallback

        _obs_fallback("bench.peak_rss", "no-fork", repr(exc))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = fn(*args, **kwargs)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result, {
            "peak_rss_kb": max(0, after - before),
            "rss_mode": "inline",
        }


def measure_spawned_peak_rss(fn, *args, **kwargs):
    """Like :func:`measure_peak_rss`, but in a freshly spawned
    interpreter, so no heap of the caller's is shared or reused.

    ``peak_rss_kb`` is the child's peak RSS during the call minus its
    RSS just before (interpreter, imports and the unpickled arguments
    excluded), with ``rss_mode`` ``"spawn"``.  ``fn`` must be
    importable by name.  Needs Linux's ``/proc/self/clear_refs``;
    elsewhere this falls back to :func:`measure_peak_rss`.
    """
    if not os.path.exists("/proc/self/clear_refs"):
        return measure_peak_rss(fn, *args, **kwargs)
    result, peak = _in_child("spawn", _spawned_rss_child, fn, args, kwargs)
    return result, {"peak_rss_kb": peak, "rss_mode": "spawn"}
