"""Index layer: inverted term index, tag streams, packed completion tries.

Everything the query-time components (autocompletion, twig matching,
ranking) read is built here from a labeled document: the term index in
one tokenizing pass, the completion tries from the term index's counts.
"""

from repro.index.completion_index import CompletionIndex
from repro.index.element_index import ElementFilter, StreamFactory
from repro.index.packed import PackedTrie
from repro.index.statistics import CorpusStatistics, compute_statistics
from repro.index.term_index import Posting, TermIndex
from repro.index.text import (
    MAX_VALUE_LENGTH,
    STOPWORDS,
    completion_value,
    normalize,
    tokenize,
)

__all__ = [
    "MAX_VALUE_LENGTH",
    "STOPWORDS",
    "CompletionIndex",
    "CorpusStatistics",
    "ElementFilter",
    "PackedTrie",
    "Posting",
    "StreamFactory",
    "TermIndex",
    "completion_value",
    "compute_statistics",
    "normalize",
    "tokenize",
]
