"""Persistent storage for GODDAG documents (the paper's "underway" part).

One on-disk format: a SQLite store holding many documents, their
persisted indexes, and the collection summary, with span and overlap
queries answered in SQL without reconstructing a document.
"""

from .schema import (
    DocumentRow,
    ElementRow,
    HierarchyRow,
    ROOT_ID,
    decode_document,
    encode_document,
)
from .sqlite_backend import SqliteConnectionPool, SqliteStore, StoredElement
from .store import GoddagStore

__all__ = [
    "DocumentRow",
    "ElementRow",
    "GoddagStore",
    "HierarchyRow",
    "ROOT_ID",
    "SqliteConnectionPool",
    "SqliteStore",
    "StoredElement",
    "decode_document",
    "encode_document",
]
