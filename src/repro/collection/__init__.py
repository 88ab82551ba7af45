"""Collection-scale querying: corpus store, summary routing, fan-out.

The three pieces of the collection layer (see docs/ARCHITECTURE.md,
"Collection layer"):

* :class:`Corpus` (:mod:`.corpus`) — thousands of named documents in
  one WAL-mode store, with cross-document ``collection()//...``
  queries, ``explain()``, and ``repro-stats/1`` counts;
* :mod:`.router` — necessary-condition feature extraction against the
  delta-maintained ``collection_summary`` table, so a selective query
  visits only the documents that can match;
* :mod:`.fanout` — per-document execution, serial with one worker and
  on a process pool with more, with byte-identical merged answers.
"""

from .corpus import (
    CollectionPlan,
    CollectionResult,
    Corpus,
    split_collection_expression,
)
from .router import routing_features

__all__ = [
    "CollectionPlan",
    "CollectionResult",
    "Corpus",
    "routing_features",
    "split_collection_expression",
]
