"""Delta segments: an LSM-flavoured, incrementally updatable corpus.

A :class:`SegmentedCorpus` holds the live corpus as an ordered list of
**segments** — segment 0 is the (possibly snapshot-loaded) base, later
segments are small deltas flushed by the writer — where each segment is
a full per-shard :class:`~repro.engine.database.LotusXDatabase` built by
the sharding machinery (:func:`repro.shard.partitioner.build_shard_database`).

The core invariant, the one every read-path correctness proof hangs on:

    At every generation, the segment list together with its
    :class:`~repro.shard.partitioner.ShardSpec`\\ s is *exactly* a valid
    ``partition_document`` output for the current live document.

That means: units (top-level documents) laid out contiguously across
segments, every segment's non-root labels forming one dense global tick
block at ``2 * element_offset + 1``, the replicated root widened to
``(0, 2 * total_elements - 1)``, root attributes on every replica and
root direct text on segment 0 only, and exact global ordinal offsets.
Because that is precisely the shape :class:`~repro.shard.database.ShardedDatabase`
was built (and byte-identity-tested) against, overlay reads through a
fresh ``ShardedDatabase`` view are identical to a cold rebuild.

**Why labels stay dense.**  :mod:`repro.labeling.region` provides a
general gap allocator that could leave slack between segments so that
inserts never touch existing labels.  This corpus deliberately pins the
slack to zero: the structural score reads *absolute* region spans
(compactness is ``(max(end) - min(start) + 1) // 2``) and keyword
specificity reads ``region.end - region.start`` as a subtree size, so a
gapped layout would leak the slack into scores and break byte-identity
with a cold rebuild.  The allocator is still the bookkeeping mechanism:
every segment owns one :class:`~repro.labeling.region.TickBlock`, an
in-place size change is attempted with
:meth:`~repro.labeling.region.RegionAllocator.resize` (which succeeds
exactly when no later segment would have to move — e.g. growth at the
corpus tail), and :class:`~repro.labeling.region.GapExhausted` is the
signal that later segments must move (their blocks released and
re-allocated at shifted bases, their labels re-placed there).

Mutation cost profile (the LSM trade).  A segment is built in two
stages (:func:`repro.shard.partitioner.build_shard_database`): the
**content stage** labels its documents and builds the term and
completion indexes — all keyed by segment-local order or DataGuide path
id, none storing a label — and the **placement stage** copies the labels
to the segment's tick base.  *Re-indexing* a segment runs both;
*re-placing* it runs only the second
(:func:`~repro.shard.partitioner.place_shard_database`: new labels, new
stream factory, the document, guide and both indexes shared), roughly
one object copy per element against tokenizing and indexing it.

* insert — the batch's new documents are indexed into one fresh tail
  segment: O(batch).  Every other segment keeps its database and takes
  the root-width patch;
* update, same subtree size — re-index the owning segment only;
* update with size change, or delete — re-index the owning segment and
  re-place every later one (the suffix shift).  A re-placed segment is
  a *new* database object: a reader still holding the previous view
  keeps the old labels;
* compaction — fold the accumulated delta segments back into few big
  ones (:meth:`SegmentedCorpus.compact_deltas`) or into a single base
  (:meth:`SegmentedCorpus.compact`); the merged segment is re-indexed.

Nothing a write does scales with segments it does not touch: each
segment carries its element count and per-tag unit counts, and the
corpus maps every document id to its segment, so locating a document
and recomputing the layout read one number per segment.
:class:`ApplyResult` (and the writer's ``counters``) report
``segments_reindexed``, ``segments_replaced`` and ``elements_reindexed``
per batch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.engine.database import LotusXDatabase
from repro.labeling.region import GapExhausted, Region, RegionAllocator, TickBlock
from repro.ranking.scorer import LotusXScorer
from repro.shard.partitioner import (
    ShardSpec,
    build_shard_database,
    copy_subtree,
    place_shard_database,
    subtree_element_count,
)
from repro.xmlio.tree import Document, Element, Text


class DuplicateDocument(ValueError):
    """An insert's document id already exists in the corpus."""


class UnknownDocument(KeyError):
    """An update/delete names a document id the corpus does not hold."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class Mutation:
    """One validated mutation, ready to apply.

    ``unit`` is the parsed top-level subtree for insert/update (a
    parentless :class:`~repro.xmlio.tree.Element`), ``None`` for delete.
    """

    seqno: int
    op: str
    doc_id: str
    unit: Element | None = None


@dataclass
class LiveSegment:
    """One segment: a contiguous run of documents plus its index.

    ``units`` holds the segment's *master copies* (parentless subtrees
    the segment document is rebuilt from).  A segment adopted from an
    existing database (the base at startup) starts with ``units=None``
    and materializes copies lazily, on first rebuild — an untouched base
    never pays the copy.

    ``element_count`` and ``unit_tags`` summarize the units so that the
    layout of a segment no write touched is never recomputed from them;
    :meth:`set_unit` and :meth:`remove_unit` keep them in step.
    """

    doc_ids: list[str]
    weights: list[int]
    units: list[Element] | None = None
    database: LotusXDatabase | None = None
    spec: ShardSpec | None = None
    block: TickBlock | None = None
    #: Elements in this segment's units (root replica excluded).
    element_count: int = field(init=False)
    #: Per-tag count of this segment's units (what later segments add to
    #: their depth-1 xpath ordinals).
    unit_tags: Counter = field(init=False)

    def __post_init__(self) -> None:
        self.element_count = sum(self.weights)
        self.unit_tags = Counter(unit.tag for unit in self.iter_units())

    def iter_units(self):
        if self.units is not None:
            return iter(self.units)
        return iter(self.database.document.root.child_elements())

    def materialize(self) -> None:
        """Give an adopted segment its own master unit copies."""
        if self.units is None:
            self.units = [copy_subtree(unit) for unit in self.iter_units()]

    def set_unit(self, position: int, unit: Element) -> None:
        """Replace the unit at ``position`` (units must be materialized)."""
        self._forget(position)
        weight = subtree_element_count(unit)
        self.units[position] = unit
        self.weights[position] = weight
        self.element_count += weight
        self.unit_tags[unit.tag] += 1

    def remove_unit(self, position: int) -> None:
        """Drop the unit at ``position`` (units must be materialized)."""
        self._forget(position)
        del self.units[position]
        del self.weights[position]
        del self.doc_ids[position]

    def _forget(self, position: int) -> None:
        tag = self.units[position].tag
        self.element_count -= self.weights[position]
        self.unit_tags[tag] -= 1
        if not self.unit_tags[tag]:
            del self.unit_tags[tag]  # specs list only tags that occur


@dataclass
class ApplyResult:
    """What one :meth:`SegmentedCorpus.apply` call did.

    ``segments_reindexed`` counts segments whose content stage ran
    (labels, term index, completion index) and ``elements_reindexed``
    the elements that went through it, root replicas included;
    ``segments_replaced`` counts clean segments that only moved to a new
    tick base.
    """

    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    segments_reindexed: int = 0
    segments_replaced: int = 0
    elements_reindexed: int = 0
    segments_dropped: int = 0
    counters: dict = field(default_factory=dict)


class SegmentedCorpus:
    """The live, single-writer corpus behind a ``SegmentedDatabase``.

    Not thread-safe: exactly one mutator (the
    :class:`~repro.write.writer.DocumentWriter` apply loop) may call
    :meth:`apply` / :meth:`compact_deltas` / :meth:`compact` at a time.
    Readers never touch the corpus directly — they query an immutable
    :class:`~repro.shard.database.ShardedDatabase` view built by
    :meth:`build_view` after each batch.
    """

    #: Document-id prefix used for the base corpus's positional ids.
    BASE_ID_PREFIX = "base"

    def __init__(
        self,
        base_database: LotusXDatabase,
        scorer: LotusXScorer | None = None,
        synonyms: dict[str, tuple[str, ...]] | None = None,
        document_ids: tuple[str, ...] | list[str] | None = None,
    ) -> None:
        root = base_database.document.root
        self.spine_tag = root.tag
        self.root_attributes = dict(root.attributes)
        #: The root's *direct* text (kept on segment 0 only, exactly as
        #: ``partition_document`` places it).
        self.root_texts = [
            child.value for child in root.children if isinstance(child, Text)
        ]
        self.scorer = scorer
        self.synonyms = synonyms
        units = root.child_elements()
        weights = [subtree_element_count(unit) for unit in units]
        total = 1 + sum(weights)
        if document_ids is not None:
            # Resuming from a checkpoint: the snapshot carries the ids the
            # rotated WAL's update/delete records address documents by.
            if len(document_ids) != len(units):
                raise ValueError(
                    f"{len(document_ids)} document ids for"
                    f" {len(units)} base documents"
                )
            if len(set(document_ids)) != len(document_ids):
                raise ValueError("duplicate base document ids")
            base_ids = [str(doc_id) for doc_id in document_ids]
        else:
            base_ids = [
                f"{self.BASE_ID_PREFIX}-{index + 1}" for index in range(len(units))
            ]
        base = LiveSegment(
            doc_ids=base_ids,
            weights=weights,
            units=None,  # adopted: materialized only if the base is rebuilt
            database=base_database,
            spec=ShardSpec(
                index=0,
                shard_count=1,
                spine_tag=self.spine_tag,
                unit_range=(0, len(units)),
                element_offset=0,
                element_count=total,
                total_elements=total,
                child_ordinal_offsets={},
            ),
        )
        self.allocator = RegionAllocator(0, None)
        if base.element_count:
            base.block = self.allocator.allocate_tail(2 * base.element_count)
        self.segments: list[LiveSegment] = [base]
        #: Document id -> the segment holding it.
        self._owner: dict[str, LiveSegment] = dict.fromkeys(base.doc_ids, base)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def document_count(self) -> int:
        return sum(len(segment.doc_ids) for segment in self.segments)

    @property
    def total_elements(self) -> int:
        return 1 + sum(segment.element_count for segment in self.segments)

    def document_ids(self) -> list[str]:
        """All live document ids, corpus (document) order."""
        return [doc_id for segment in self.segments for doc_id in segment.doc_ids]

    def contains(self, doc_id: str) -> bool:
        return doc_id in self._owner

    def _locate(self, doc_id: str) -> tuple[LiveSegment, int]:
        """The segment holding ``doc_id`` and the document's position in
        it; only that one segment's id list is searched."""
        segment = self._owner.get(doc_id)
        if segment is None:
            raise UnknownDocument(f"no document with id {doc_id!r}")
        return segment, segment.doc_ids.index(doc_id)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def apply(self, mutations: list[Mutation]) -> ApplyResult:
        """Apply one batch of validated mutations.

        The logical unit lists are updated first, then the layout is
        recomputed once (:meth:`_relayout`): specs for every segment, a
        re-index for segments whose content changed, a re-placement for
        clean segments whose label base moved, and a root-width patch
        for untouched survivors.  The batch's inserts flush into a
        single fresh tail segment.
        """
        result = ApplyResult()
        pending_ids: list[str] = []
        pending_units: list[Element] = []
        dirty: set[int] = set()  # identity keys of segments to re-index

        for mutation in mutations:
            doc_id = mutation.doc_id
            if mutation.op == "insert":
                if doc_id in self._owner or doc_id in pending_ids:
                    raise DuplicateDocument(f"document {doc_id!r} already exists")
                pending_ids.append(doc_id)
                pending_units.append(mutation.unit)
                result.inserts += 1
            elif mutation.op == "update":
                if doc_id in pending_ids:
                    pending_units[pending_ids.index(doc_id)] = mutation.unit
                    result.updates += 1
                    continue
                segment, position = self._locate(doc_id)
                segment.materialize()
                segment.set_unit(position, mutation.unit)
                dirty.add(id(segment))
                result.updates += 1
            elif mutation.op == "delete":
                if doc_id in pending_ids:
                    position = pending_ids.index(doc_id)
                    del pending_ids[position]
                    del pending_units[position]
                else:
                    segment, position = self._locate(doc_id)
                    segment.materialize()
                    segment.remove_unit(position)
                    del self._owner[doc_id]
                    dirty.add(id(segment))
                result.deletes += 1
            else:
                raise ValueError(f"unknown mutation op {mutation.op!r}")

        if pending_ids:
            tail = LiveSegment(
                doc_ids=pending_ids,
                weights=[subtree_element_count(unit) for unit in pending_units],
                units=pending_units,
            )
            self.segments.append(tail)
            self._own(tail)
        # An emptied delta segment disappears; segment 0 stays (it
        # carries the root replica's direct text).
        survivors = [
            segment
            for index, segment in enumerate(self.segments)
            if index == 0 or segment.doc_ids
        ]
        result.segments_dropped = len(self.segments) - len(survivors)
        self.segments = survivors
        (
            result.segments_reindexed,
            result.segments_replaced,
            result.elements_reindexed,
        ) = self._relayout(dirty)
        return result

    def compact_deltas(self, keep_segments: int = 2) -> int:
        """Minor compaction: fold the delta tail into one segment.

        Merges segments ``1..`` into a single delta so the segment count
        returns to at most ``keep_segments``.  Delta bases are contiguous,
        so nothing outside the merged range is relabeled.  Returns the
        number of segments merged away (0 when below the threshold).
        """
        if len(self.segments) <= max(2, keep_segments):
            return 0
        merged = self._merge_segments(self.segments[1:])
        before = len(self.segments)
        self.segments = [self.segments[0], merged]
        self._own(merged)
        self._relayout({id(merged)})
        return before - len(self.segments)

    def compact(self) -> int:
        """Major compaction: fold *everything* into a new base segment.

        The result is a single segment holding the whole live corpus —
        the in-memory equivalent of a from-scratch rebuild, used before
        checkpointing.  Returns the number of segments merged away.
        """
        if len(self.segments) == 1:
            return 0
        merged = self._merge_segments(self.segments)
        before = len(self.segments)
        self.segments = [merged]
        self._own(merged)
        self._relayout({id(merged)})
        return before - 1

    def checkpoint_document(self) -> Document:
        """The live corpus as one monolithic document (fresh copies)."""
        root = Element(self.spine_tag, dict(self.root_attributes))
        for value in self.root_texts:
            root.append(Text(value))
        for segment in self.segments:
            for unit in segment.iter_units():
                root.append(copy_subtree(unit))
        return Document(root, source_name="live corpus")

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def build_view(self):
        """A fresh read view over the current segments.

        The view is a :class:`~repro.shard.database.ShardedDatabase`
        whose scatters run over the segments inline, like any sharded
        corpus: coordinator state — merged guide, completion facade,
        global term stats — is rebuilt per view, while the expensive
        per-segment indexes are reused as-is.  ``source_document=None``
        lets the fallback reassemble the *live* corpus on demand.
        """
        from repro.shard.database import ShardedDatabase

        return ShardedDatabase(
            [segment.database for segment in self.segments],
            [segment.spec for segment in self.segments],
            source_document=None,
            scorer=self.scorer,
            synonyms=self.synonyms,
        )

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def _relayout(self, dirty: set[int]) -> tuple[int, int, int]:
        """Recompute specs, tick blocks, and databases after a mutation.

        ``dirty`` holds ``id()`` keys of segments whose *content*
        changed; they (and segments that have no database yet) are
        re-indexed.  Everything else is decided from the layout: a
        segment whose tick block cannot stay where it is (its label base
        moved, or an in-place :meth:`~repro.labeling.region.RegionAllocator.resize`
        raises :class:`~repro.labeling.region.GapExhausted` because a
        later segment sits flush against it) is released and re-allocated
        at its new base, and a clean segment among those is re-placed
        there.  Surviving segments only receive the root-width patch when
        the corpus element count changed.

        Returns ``(segments re-indexed, segments re-placed, elements
        re-indexed)``.
        """
        total = self.total_elements
        specs: list[ShardSpec] = []
        offset = 0
        unit_position = 0
        ordinals: dict[str, int] = {}
        for index, segment in enumerate(self.segments):
            specs.append(
                ShardSpec(
                    index=index,
                    shard_count=len(self.segments),
                    spine_tag=self.spine_tag,
                    unit_range=(
                        unit_position,
                        unit_position + len(segment.doc_ids),
                    ),
                    element_offset=offset,
                    element_count=1 + segment.element_count,
                    total_elements=total,
                    child_ordinal_offsets=dict(ordinals),
                )
            )
            offset += segment.element_count
            unit_position += len(segment.doc_ids)
            for tag, count in segment.unit_tags.items():
                ordinals[tag] = ordinals.get(tag, 0) + count

        allocator = self.allocator
        # Pass 1: decide which tick blocks stay.  A block stays when its
        # base is unchanged and an in-place resize fits (trivially, when
        # the width is unchanged; for a real growth only when no later
        # block sits flush against it — i.e. at the corpus tail).
        stays: list[bool] = []
        for segment, spec in zip(self.segments, specs):
            width = 2 * segment.element_count
            block = segment.block
            ok = block is not None and block.base == 2 * spec.element_offset + 1
            if ok and block.width != width:
                if width > block.width:
                    try:
                        allocator.resize(block, width)
                    except GapExhausted:
                        ok = False
                elif segment is self.segments[-1]:
                    # Shrinking the corpus tail keeps the layout dense.
                    allocator.resize(block, width)
                else:
                    # Shrinking in place would leave slack before the
                    # next block; density (see module docstring) forbids
                    # it, so the suffix is repacked instead.
                    ok = False
            stays.append(ok and width > 0)
        kept = {
            id(segment.block)
            for segment, ok in zip(self.segments, stays)
            if ok and segment.block is not None
        }
        for block in [b for b in allocator.blocks if id(b) not in kept]:
            allocator.release(block)
        # Pass 2: re-allocate moved blocks left to right; each lands
        # exactly after its predecessor, restoring the dense layout.
        previous: TickBlock | None = None
        for segment, spec, ok in zip(self.segments, specs, stays):
            width = 2 * segment.element_count
            if ok:
                previous = segment.block
                continue
            segment.block = (
                allocator.allocate(width, after=previous) if width else None
            )
            if segment.block is not None:
                if segment.block.base != 2 * spec.element_offset + 1:
                    raise RuntimeError(
                        f"tick layout drifted: segment {spec.index} block at"
                        f" {segment.block.base}, labels at"
                        f" {2 * spec.element_offset + 1}"
                    )
                previous = segment.block

        reindexed = replaced = elements = 0
        root_end = 2 * total - 1
        for segment, spec in zip(self.segments, specs):
            old = segment.spec
            if segment.database is None or old is None or id(segment) in dirty:
                self._reindex_segment(segment, spec)
                reindexed += 1
                elements += spec.element_count
            elif old.element_offset != spec.element_offset:
                segment.database = place_shard_database(segment.database, old, spec)
                replaced += 1
            elif old.total_elements != spec.total_elements:
                self._patch_root_width(segment, root_end)
            segment.spec = spec
        return reindexed, replaced, elements

    def _reindex_segment(self, segment: LiveSegment, spec: ShardSpec) -> None:
        """Content stage plus placement for one segment's current units."""
        segment.materialize()
        replica = Element(self.spine_tag, dict(self.root_attributes))
        if spec.index == 0:
            for value in self.root_texts:
                replica.append(Text(value))
        for unit in segment.units:
            replica.append(copy_subtree(unit))
        document = Document(
            replica,
            source_name=f"live segment {spec.index + 1}/{spec.shard_count}",
        )
        segment.database = build_shard_database(
            document, spec, self.scorer, self.synonyms
        )

    def _patch_root_width(self, segment: LiveSegment, end: int) -> None:
        """Re-widen a surviving segment's root replica in place.

        This is the *only* in-place mutation a live reader can observe:
        the shared root ``LabeledElement`` and the columnar root row take
        the new corpus width the moment the corpus changes size (a
        re-placed segment, by contrast, is a new object at its new
        base).  Every derived cache (filtered-stream memos, plan caches,
        completions) is invalidated when the new view's generation is
        stamped.
        """
        database = segment.database
        root_labeled = database.labeled.elements[0]
        if root_labeled.region.end != end:
            root_labeled.region = Region(0, end, 0)
            database.streams.rewiden_root(end)

    def _merge_segments(self, segments: list[LiveSegment]) -> LiveSegment:
        for segment in segments:
            segment.materialize()
        return LiveSegment(
            doc_ids=[d for segment in segments for d in segment.doc_ids],
            weights=[w for segment in segments for w in segment.weights],
            units=[u for segment in segments for u in segment.units],
        )

    def _own(self, segment: LiveSegment) -> None:
        """Point the id map at ``segment`` for every document it holds."""
        self._owner.update(dict.fromkeys(segment.doc_ids, segment))

    def __repr__(self) -> str:
        return (
            f"SegmentedCorpus(segments={len(self.segments)},"
            f" documents={self.document_count}, elements={self.total_elements})"
        )
