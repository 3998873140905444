"""repro — a reproduction of LotusX (ICDE 2012).

A position-aware XML twig search engine with auto-completion, result
ranking, and query rewriting, built on from-scratch substrates: an XML
parser, region labeling, a DataGuide structural summary (whose path
nodes give every element its position identity), inverted term + completion indexes, and the holistic twig-join
algorithm family.

Quickstart::

    from repro import LotusXDatabase

    db = LotusXDatabase.from_file("dblp.xml")

    # Ranked search with automatic rewriting.
    for hit in db.search('//article[./title~"twig"]/author'):
        print(hit.xpath, "-", hit.snippet)

    # Position-aware autocompletion while building a twig node-by-node.
    from repro import QueryBuilderSession
    session = QueryBuilderSession(db)
    article = session.add_node("article")
    print(session.suggest_tags(parent_id=article, prefix="t"))
"""

from repro.engine.database import LotusXDatabase
from repro.engine.results import SearchResponse, SearchResult
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
from repro.keyword import KeywordHit, KeywordResponse, keyword_search
from repro.labeling import LabeledDocument, label_document
from repro.resilience import (
    AdmissionGate,
    Deadline,
    DeadlineExceeded,
    Overloaded,
    PayloadTooLarge,
    ResilienceError,
)
from repro.twig.parse import TwigSyntaxError, parse_twig
from repro.twig.pattern import Axis, TwigPattern
from repro.twig.planner import Algorithm
from repro.xmlio import parse_file, parse_string

__version__ = "0.1.0"

__all__ = [
    "AdmissionGate",
    "Algorithm",
    "Axis",
    "Deadline",
    "DeadlineExceeded",
    "LabeledDocument",
    "KeywordHit",
    "KeywordResponse",
    "LotusXDatabase",
    "Overloaded",
    "PayloadTooLarge",
    "QueryBuilderSession",
    "ResilienceError",
    "SearchResponse",
    "SearchResult",
    "SessionError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotInfo",
    "SnapshotIntegrityError",
    "SnapshotVersionError",
    "StoreError",
    "TwigPattern",
    "TwigSyntaxError",
    "__version__",
    "keyword_search",
    "label_document",
    "load_snapshot",
    "parse_file",
    "parse_string",
    "parse_twig",
    "read_snapshot_info",
    "save_snapshot",
]
