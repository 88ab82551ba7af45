"""Test-only oracle: the retired payload-derived summary rows.

Before :func:`repro.storage.schema.summary_rows` counted a document's
``collection_summary`` rows from the document itself, every full write
built an :class:`~repro.index.manager.IndexManager` and derived them
from its payload with ``repro.storage.sqlite_backend``'s
``collection_summary_rows``.  This module keeps that function,
verbatim, so tests can hold the counting to an independent derivation
(``IndexManager(doc).payload()`` → rows).  Nothing under ``src/``
imports this module; do not edit it to follow the counting.
"""

from __future__ import annotations

from repro.index.structural import encode_path
from repro.storage.schema import KIND_ATTR, KIND_PATH, KIND_TAG, KIND_TERM


def collection_summary_rows(payload: dict) -> list[tuple[int, str, int]]:
    """The ``(kind, key, n)`` collection-summary rows of one document,
    derived from its ``IndexManager.payload()`` — the whole persisted
    index besides ``index_meta``.

    Tag populations are label-path counts summed per tag, path
    populations are summed across hierarchies (routing has no hierarchy
    context), term rows carry posting lengths, and attribute rows the
    ``(name, value)`` posting length under the injective
    :func:`~repro.index.structural.encode_path` key.
    """
    tags: dict[str, int] = {}
    paths: dict[str, int] = {}
    for _hierarchy, encoded, tag, count, _spans in payload.get("paths", []):
        tags[tag] = tags.get(tag, 0) + count
        paths[encoded] = paths.get(encoded, 0) + count
    rows = [(KIND_TAG, tag, n) for tag, n in tags.items()]
    rows.extend((KIND_PATH, encoded, n) for encoded, n in paths.items())
    rows.extend(
        (KIND_TERM, term, len(starts))
        for term, starts in payload.get("terms", {}).items()
    )
    rows.extend(
        (KIND_ATTR, encode_path((name, value)), count)
        for name, value, count, _spans in payload.get("attrs", [])
    )
    return rows
