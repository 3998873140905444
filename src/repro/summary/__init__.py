"""Structural summaries: the DataGuide and the inferred schema.

The DataGuide powers position-aware autocompletion (what can occur *here*),
query validation, and path-id stream pruning; the inferred schema is a
DTD-like view of the document.
"""

from repro.summary.dataguide import DataGuide, PathNode
from repro.summary.schema import InferredSchema, TagProfile, infer_schema
from repro.summary.paths import (
    PATH_SEPARATOR,
    Path,
    contains_subsequence,
    format_path,
    is_prefix,
    parse_path,
)

__all__ = [
    "PATH_SEPARATOR",
    "DataGuide",
    "InferredSchema",
    "TagProfile",
    "infer_schema",
    "Path",
    "PathNode",
    "contains_subsequence",
    "format_path",
    "is_prefix",
    "parse_path",
]
