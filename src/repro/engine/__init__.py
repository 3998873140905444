"""Engine facade: the database object, search results, the GUI session
model, and query translation."""

from repro.engine.database import LotusXDatabase
from repro.engine.results import (
    SearchResponse,
    SearchResult,
    element_xpath,
    make_snippet,
)
from repro.engine.session import QueryBuilderSession, SessionError
from repro.engine.store import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotInfo,
    SnapshotIntegrityError,
    SnapshotVersionError,
    StoreError,
    load_snapshot,
    read_snapshot_info,
    save_snapshot,
)
from repro.engine.translate import to_xpath, to_xquery

__all__ = [
    "LotusXDatabase",
    "QueryBuilderSession",
    "SearchResponse",
    "SearchResult",
    "SessionError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotInfo",
    "SnapshotIntegrityError",
    "SnapshotVersionError",
    "StoreError",
    "element_xpath",
    "load_snapshot",
    "make_snippet",
    "read_snapshot_info",
    "save_snapshot",
    "to_xpath",
    "to_xquery",
]
