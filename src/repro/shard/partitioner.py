"""Corpus partitioning: split one document into N label-compatible shards.

A multi-document corpus (or one huge document) is split by its
**top-level subtrees**: every direct child element of the root — a
"unit" — is assigned, contiguously and greedily balanced by subtree
element count, to one of N shards.  Each shard becomes a full,
self-contained :class:`~repro.engine.database.LotusXDatabase` (own
labels, term index, columnar streams, completion tries) over a fresh
document consisting of a **replica of the root** plus the shard's units.

The trick that makes scatter-gather merging exact is the *region shift*:
shard-local preorder ``order`` values stay dense (``0..n_local-1``, so
every index keyed by order — term postings, subtree ends, columnar
columns — works unchanged), but every element's containment
:class:`~repro.labeling.region.Region` is translated into **global
coordinates**: shard *i* adds ``2 * E_i`` ticks (``E_i`` = elements in
all earlier shards' units) to every non-root label, and the root replica
is widened to ``(0, 2 * N_total - 1)``.  Because the labeler assigns each
top-level subtree one contiguous tick block, the shifted labels are
exactly the labels the monolithic combined document would have assigned
— so ``region.start`` is a global element identity, document order,
ancestor/descendant and sibling-order tests, subtree sizes, and the
structural score all agree byte-for-byte with the single-database run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import LotusXDatabase
from repro.index.completion_index import CompletionIndex
from repro.index.term_index import TermIndex
from repro.labeling.assign import LabeledDocument, label_document, place_labeled
from repro.ranking.scorer import LotusXScorer
from repro.xmlio.tree import Document, Element, Text


@dataclass(frozen=True)
class ShardSpec:
    """Placement metadata for one shard of a partitioned corpus."""

    #: This shard's position in the fleet (0-based).
    index: int
    #: Total number of shards in the fleet.
    shard_count: int
    #: Tag of the replicated root ("spine") element.
    spine_tag: str
    #: Half-open range of top-level unit indices this shard holds.
    unit_range: tuple[int, int]
    #: Elements in all earlier shards' units (``E_i``); the region shift
    #: is ``2 * element_offset`` ticks.
    element_offset: int
    #: Elements in this shard, including the root replica.
    element_count: int
    #: Elements in the whole corpus, including the (single) root.
    total_elements: int
    #: Per-tag count of same-tag units in earlier shards; corrects the
    #: depth-1 ordinal of ``element_xpath`` from shard-local to global.
    child_ordinal_offsets: dict[str, int] = field(default_factory=dict)

    @property
    def tick_shift(self) -> int:
        return 2 * self.element_offset

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "shard_count": self.shard_count,
            "spine_tag": self.spine_tag,
            "unit_range": list(self.unit_range),
            "element_offset": self.element_offset,
            "element_count": self.element_count,
            "total_elements": self.total_elements,
            "child_ordinal_offsets": dict(self.child_ordinal_offsets),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> ShardSpec:
        return cls(
            index=int(payload["index"]),
            shard_count=int(payload["shard_count"]),
            spine_tag=str(payload["spine_tag"]),
            unit_range=tuple(payload["unit_range"]),  # type: ignore[arg-type]
            element_offset=int(payload["element_offset"]),
            element_count=int(payload["element_count"]),
            total_elements=int(payload["total_elements"]),
            child_ordinal_offsets={
                str(tag): int(count)
                for tag, count in payload.get("child_ordinal_offsets", {}).items()
            },
        )


@dataclass(frozen=True)
class PartitionPlan:
    """The shard documents plus their placement metadata."""

    specs: tuple[ShardSpec, ...]
    documents: tuple[Document, ...]
    spine_tag: str
    total_elements: int

    @property
    def shard_count(self) -> int:
        return len(self.specs)


def copy_subtree(element: Element) -> Element:
    """A structurally identical deep copy with no parent.

    ``Element.append`` refuses to adopt a node that already has a parent,
    so shard documents are built from fresh nodes; the caller's document
    is never re-parented or mutated.
    """
    clone = Element(element.tag, element.attributes, element.line, element.column)
    stack = [(element, clone)]
    while stack:
        source, target = stack.pop()
        for child in source.children:
            if isinstance(child, Text):
                target.append(Text(child.value))
            else:
                child_clone = Element(
                    child.tag, child.attributes, child.line, child.column
                )
                target.append(child_clone)
                stack.append((child, child_clone))
    return clone


def subtree_element_count(element: Element) -> int:
    """Number of elements in ``element``'s subtree (including itself)."""
    return sum(1 for _ in element.iter())


def split_units(weights: list[int], shards: int) -> list[tuple[int, int]]:
    """Contiguous, greedily balanced split of unit weights into at most
    ``shards`` non-empty blocks (fewer when there are fewer units)."""
    count = len(weights)
    if count == 0:
        return [(0, 0)]
    blocks = max(1, min(shards, count))
    bounds: list[tuple[int, int]] = []
    start = 0
    remaining = sum(weights)
    for block_index in range(blocks):
        left = blocks - block_index
        if left == 1:
            end = count
            taken = remaining
        else:
            target = remaining / left
            limit = count - (left - 1)
            end = start
            taken = 0
            while end < limit and (taken == 0 or taken < target):
                taken += weights[end]
                end += 1
        bounds.append((start, end))
        remaining -= taken
        start = end
    return bounds


def partition_document(document: Document, shards: int) -> PartitionPlan:
    """Partition ``document`` by top-level subtrees into shard documents.

    Every direct child element of the root is a unit; units are assigned
    contiguously to shards, balanced by subtree element count.  The
    root's attributes are replicated onto every shard root; the root's
    *direct text* goes to shard 0 only, so term postings and completion
    values are counted exactly once across the fleet.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1: {shards}")
    root = document.root
    units = root.child_elements()
    weights = [subtree_element_count(unit) for unit in units]
    total_elements = 1 + sum(weights)
    bounds = split_units(weights, shards)

    specs: list[ShardSpec] = []
    documents: list[Document] = []
    offset = 0
    ordinal_offsets: dict[str, int] = {}
    for index, (start, end) in enumerate(bounds):
        replica = Element(root.tag, root.attributes, root.line, root.column)
        if index == 0:
            for child in root.children:
                if isinstance(child, Text):
                    replica.append(Text(child.value))
        for unit in units[start:end]:
            replica.append(copy_subtree(unit))
        shard_document = Document(
            replica,
            version=document.version,
            encoding=document.encoding,
            source_name=(
                f"{document.source_name} [shard {index + 1}/{len(bounds)}]"
            ),
        )
        block_elements = sum(weights[start:end])
        specs.append(
            ShardSpec(
                index=index,
                shard_count=len(bounds),
                spine_tag=root.tag,
                unit_range=(start, end),
                element_offset=offset,
                element_count=1 + block_elements,
                total_elements=total_elements,
                child_ordinal_offsets=dict(ordinal_offsets),
            )
        )
        documents.append(shard_document)
        offset += block_elements
        for unit in units[start:end]:
            ordinal_offsets[unit.tag] = ordinal_offsets.get(unit.tag, 0) + 1
    return PartitionPlan(
        specs=tuple(specs),
        documents=tuple(documents),
        spine_tag=root.tag,
        total_elements=total_elements,
    )


def build_shard_database(
    document: Document,
    spec: ShardSpec,
    scorer: LotusXScorer | None = None,
    synonyms: dict[str, tuple[str, ...]] | None = None,
) -> LotusXDatabase:
    """Index one shard document as a full ``LotusXDatabase`` whose labels
    live in global region coordinates.

    Two stages.  The **content stage** labels the document on its own
    (local ticks from 0) and builds the term and completion indexes;
    both are keyed by shard-local order or DataGuide path id and never
    store a region, so nothing in them depends on where the shard sits.
    The **placement stage** (:func:`place_shard_database`) then puts the
    labels at ``spec``'s position in the corpus.  A shard whose content
    is unchanged but whose position moved repeats only the second stage.
    """
    labeled = label_document(document)
    term_index = TermIndex(labeled)
    completion_index = CompletionIndex(labeled, term_index)
    return _placed_database(
        labeled, 0, spec, term_index, completion_index, scorer, synonyms
    )


def place_shard_database(
    database: LotusXDatabase, placed_at: ShardSpec, spec: ShardSpec
) -> LotusXDatabase:
    """``database`` (placed at ``placed_at``) re-placed at ``spec``.

    The result is a new database over new labels, a new stream factory
    and fresh query caches at the new base; it *shares* the document,
    DataGuide, term index and completion index with ``database``, which
    keeps answering at its old position for whoever still holds it.
    """
    return _placed_database(
        database.labeled,
        placed_at.element_offset,
        spec,
        database.term_index,
        database.completion_index,
        database.scorer,
        database._synonyms,
    )


def _placed_database(
    labeled: LabeledDocument,
    labeled_at: int,
    spec: ShardSpec,
    term_index: TermIndex,
    completion_index: CompletionIndex,
    scorer: LotusXScorer | None,
    synonyms: dict[str, tuple[str, ...]] | None,
) -> LotusXDatabase:
    """The placement stage: shift every non-root label from element
    offset ``labeled_at`` to ``spec.element_offset`` (two ticks per
    element) and widen the root replica to span the whole corpus,
    ``(0, 2 * total - 1)`` — exactly the labels the monolithic combined
    document would carry.  Orders stay shard-local and dense, which
    keeps every order-keyed structure (and the snapshot codecs) working
    unchanged."""
    database = LotusXDatabase.__new__(LotusXDatabase)
    database.document = labeled.document
    database.expanded_attributes = False
    database.labeled = place_labeled(
        labeled,
        2 * (spec.element_offset - labeled_at),
        2 * spec.total_elements - 1,
    )
    database.term_index = term_index
    database.completion_index = completion_index
    database._finish_wiring(scorer, synonyms)
    return database
