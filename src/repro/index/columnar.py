"""Columnar label streams: per-tag positional arrays with skip pointers.

Iterating :class:`LabeledElement` objects one attribute access at a time
lets interpreter overhead dominate matching time at corpus scale (E14
measured the columnar kernels ≈4.4× faster).  This module stores the
three region-label components (``start``/``end``/``level``) plus the
DataGuide path id of every element in parallel ``array('q')`` columns,
one set per tag (plus one for the wildcard stream).  The columnar twig
kernels compare raw integers, keep their cursors as plain ints, and only
materialize :class:`LabeledElement` objects for elements that actually
enter a path solution.

``path_ids`` carries each element's DataGuide path node id: two elements
share a path id exactly when they share their whole root-to-element tag
path (the DataGuide invariant), so DataGuide stream pruning is a single
int compare per element.

:meth:`ColumnarStream.seek_ge` is the skip pointer: galloping followed by
binary search over the (strictly increasing) ``starts`` column, so join
cursors jump past non-containing regions instead of advancing linearly.
Only ``starts`` is monotone within a stream — ``ends`` interleave under
nesting — which is why every skip in the algorithms is phrased as "first
element starting at or after X".

Snapshots store the columns as one raw, 8-byte-aligned section and serve
them back as ``memoryview`` slices of the snapshot's mmap — no copy at
all — via :func:`encode_columnar_raw` / :func:`decode_columnar_raw`.  A
view-backed stream is read-only; the single in-place mutation the write
path performs (:meth:`ColumnarIndex.rewiden_root`) copies the affected
``ends`` column into a mutable ``array`` first (copy-on-write).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence

from repro.labeling.assign import LabeledDocument, LabeledElement

#: Virtual start/end of an exhausted columnar cursor; larger than any
#: region label (labels are bounded by 2 * element count).
INF_INT = 1 << 62

#: Version tag inside the raw payload directory (independent of the
#: snapshot container version).
COLUMNAR_RAW_FORMAT = 1

_TYPECODE = "q"


class LazyElements(Sequence):
    """Parallel object column resolved on first element access.

    Zero-copy loads serve the int columns straight from the snapshot but
    must not inflate the label store just to hold the parallel
    ``elements`` list — only queries that materialize final matches need
    the objects.  ``resolve`` is called once, on the first subscript or
    iteration; its result must have exactly ``count`` rows (the deferred
    version of the row-count consistency check the eager decoder runs).
    ``len()`` never resolves, so stream-length probes stay free.
    """

    __slots__ = ("_resolve", "_count", "_items")

    def __init__(
        self, resolve: Callable[[], Sequence[LabeledElement]], count: int
    ) -> None:
        self._resolve = resolve
        self._count = count
        self._items: Sequence[LabeledElement] | None = None

    def _materialize(self) -> Sequence[LabeledElement]:
        items = self._items
        if items is None:
            items = self._resolve()
            if len(items) != self._count:
                raise ValueError(
                    f"columnar section has {self._count} rows,"
                    f" label store has {len(items)}"
                )
            self._items = items
        return items

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())


class ColumnarStream:
    """Parallel positional columns over one document-ordered stream.

    ``starts`` / ``ends`` / ``levels`` / ``path_ids`` are int64 columns
    indexed by stream position — ``array('q')`` when built or copied,
    read-only ``memoryview('q')`` slices when served zero-copy from a
    mapped snapshot (both support indexing, slicing, and ``bisect``).
    ``elements`` is the parallel object list used only to materialize
    final matches (possibly a :class:`LazyElements` that defers label
    inflation).  ``starts`` is strictly increasing (document order +
    unique region starts), which :meth:`seek_ge` exploits.
    """

    __slots__ = ("starts", "ends", "levels", "path_ids", "elements")

    def __init__(
        self,
        starts: array,
        ends: array,
        levels: array,
        path_ids: array,
        elements: Sequence[LabeledElement],
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.levels = levels
        self.path_ids = path_ids
        self.elements = elements

    @classmethod
    def from_elements(cls, elements: Sequence[LabeledElement]) -> ColumnarStream:
        starts = array(_TYPECODE)
        ends = array(_TYPECODE)
        levels = array(_TYPECODE)
        path_ids = array(_TYPECODE)
        for labeled in elements:
            region = labeled.region
            starts.append(region.start)
            ends.append(region.end)
            levels.append(region.level)
            path_ids.append(labeled.path_node.node_id)
        return cls(starts, ends, levels, path_ids, elements)

    def __len__(self) -> int:
        return len(self.starts)

    def element(self, index: int) -> LabeledElement:
        return self.elements[index]

    def take(self, indices: Iterable[int]) -> ColumnarStream:
        """A new stream restricted to ``indices`` (must be increasing)."""
        starts = self.starts
        ends = self.ends
        levels = self.levels
        path_ids = self.path_ids
        elements = self.elements
        index_list = list(indices)
        return ColumnarStream(
            array(_TYPECODE, (starts[i] for i in index_list)),
            array(_TYPECODE, (ends[i] for i in index_list)),
            array(_TYPECODE, (levels[i] for i in index_list)),
            array(_TYPECODE, (path_ids[i] for i in index_list)),
            [elements[i] for i in index_list],
        )

    def where(self, keep: Callable[[LabeledElement], bool]) -> ColumnarStream:
        """A new stream of the elements satisfying ``keep``."""
        return self.take(
            i for i, element in enumerate(self.elements) if keep(element)
        )

    def seek_ge(self, lo: int, value: int) -> int:
        """First position ``>= lo`` whose start is ``>= value``.

        Returns ``len(self)`` when no such position exists.  Gallops from
        ``lo`` (doubling steps) to bracket the answer, then binary-searches
        the bracket — O(log d) in the distance d actually skipped, so short
        hops near the cursor stay cheap while long jumps never scan.
        """
        starts = self.starts
        n = len(starts)
        if lo >= n:
            return n
        if starts[lo] >= value:
            return lo
        step = 1
        hi = lo + 1
        while hi < n and starts[hi] < value:
            lo = hi
            step <<= 1
            hi = lo + step
        if hi > n:
            hi = n
        return bisect_left(starts, value, lo + 1, hi)

    def __repr__(self) -> str:
        return f"ColumnarStream(len={len(self.starts)})"


class ColumnarIndex:
    """Per-tag columnar streams for one labeled document."""

    __slots__ = ("_by_tag", "_all")

    def __init__(
        self, by_tag: dict[str, ColumnarStream], all_elements: ColumnarStream
    ) -> None:
        self._by_tag = by_tag
        self._all = all_elements

    @classmethod
    def from_labeled(cls, labeled: LabeledDocument) -> ColumnarIndex:
        by_tag = {
            tag: ColumnarStream.from_elements(labeled.stream(tag))
            for tag in labeled.tags()
        }
        return cls(by_tag, ColumnarStream.from_elements(labeled.elements))

    def stream(self, tag: str | None) -> ColumnarStream:
        """Columnar stream for ``tag`` (None = wildcard: all elements)."""
        if tag is None:
            return self._all
        stream = self._by_tag.get(tag)
        if stream is None:
            stream = _EMPTY
        return stream

    def tags(self) -> set[str]:
        return set(self._by_tag)

    def rewiden_root(self, root_tag: str, end: int) -> None:
        """Patch the document root's region ``end`` in place.

        The root opens the document, so it is row 0 of the all-elements
        column and row 0 of its own tag column (streams are document
        ordered and the root's start tick is minimal).  The live write
        path calls this when the corpus root's region is re-widened; no
        other row ever changes width in place.

        Streams served zero-copy from a snapshot hold their columns as
        read-only views; the patch copies the affected ``ends`` column
        into a mutable ``array`` first (copy-on-write escape hatch — the
        other columns stay mapped).
        """
        if len(self._all):
            _patch_end(self._all, end)
        stream = self._by_tag.get(root_tag)
        if stream is not None and len(stream):
            _patch_end(stream, end)

    def __repr__(self) -> str:
        return (
            f"ColumnarIndex(tags={len(self._by_tag)},"
            f" elements={len(self._all)})"
        )


_EMPTY = ColumnarStream(
    array(_TYPECODE), array(_TYPECODE), array(_TYPECODE), array(_TYPECODE), []
)


def _patch_end(stream: ColumnarStream, end: int) -> None:
    if not isinstance(stream.ends, array):
        stream.ends = array(_TYPECODE, stream.ends)
    stream.ends[0] = end


# ----------------------------------------------------------------------
# Snapshot serialization
#
# The index splits into a tiny pickled *directory* (per-stream row counts
# and int64 offsets) and one contiguous raw byte blob that the snapshot
# writes 8-byte-aligned and uncompressed, so a mapped load can serve
# every column as a memoryview slice without touching the bytes.
# ----------------------------------------------------------------------


def encode_columnar_raw(
    index: ColumnarIndex, byteorder: str = sys.byteorder
) -> tuple[dict, bytearray]:
    """Split ``index`` into a ``(directory, raw_bytes)`` pair.

    Offsets in the directory are in int64 units from the start of the
    raw blob.  ``byteorder`` other than native byteswaps the written
    columns (used by tests to fabricate foreign-endian snapshots).
    """
    raw = bytearray()
    swap = byteorder != sys.byteorder

    def put(column) -> int:
        cells = array(_TYPECODE, column) if swap else column
        if swap:
            cells.byteswap()
        offset = len(raw) // 8
        raw.extend(cells.tobytes())
        return offset

    def pack(stream: ColumnarStream) -> dict:
        return {
            "n": len(stream),
            "starts": put(stream.starts),
            "ends": put(stream.ends),
            "levels": put(stream.levels),
            "path_ids": put(stream.path_ids),
        }

    directory = {
        "format": COLUMNAR_RAW_FORMAT,
        "typecode": _TYPECODE,
        "itemsize": array(_TYPECODE).itemsize,
        "byteorder": byteorder,
        "tags": {tag: pack(stream) for tag, stream in index._by_tag.items()},
        "all": pack(index._all),
    }
    return directory, raw


def decode_columnar_raw(
    directory: dict,
    raw,
    elements_for: Callable[[str | None], Sequence[LabeledElement]],
) -> ColumnarIndex | None:
    """Rebuild a :class:`ColumnarIndex` over ``raw`` without copying.

    ``raw`` is the snapshot's raw section — a ``memoryview`` of the mmap
    (zero-copy) or of the loaded bytes.  ``elements_for(tag)`` resolves
    the parallel element list lazily (``None`` = wildcard); it is only
    called if a query materializes elements, and the row-count
    consistency check runs at that point.

    Returns ``None`` when the writing platform's int layout cannot be
    mapped onto this one (caller rebuilds from the labels).  A foreign
    *byte order* alone degrades to the copying decoder — every column is
    copied into a byteswapped ``array`` — rather than failing.

    Raises
    ------
    ValueError
        If the directory is malformed.
    """
    if not isinstance(directory, dict):
        raise ValueError("columnar directory is not a mapping")
    if directory.get("format") != COLUMNAR_RAW_FORMAT:
        return None
    itemsize = array(_TYPECODE).itemsize
    if (
        directory.get("typecode") != _TYPECODE
        or directory.get("itemsize") != itemsize
    ):
        return None
    base = raw if isinstance(raw, memoryview) else memoryview(raw)
    if directory.get("byteorder") == sys.byteorder:
        cells = base.cast(_TYPECODE)

        def column(offset: int, count: int):
            return cells[offset : offset + count]

    else:

        def column(offset: int, count: int):
            copied = array(_TYPECODE)
            copied.frombytes(base[offset * itemsize : (offset + count) * itemsize])
            copied.byteswap()
            return copied

    def unpack(record: dict, tag: str | None) -> ColumnarStream:
        count = record["n"]
        return ColumnarStream(
            column(record["starts"], count),
            column(record["ends"], count),
            column(record["levels"], count),
            column(record["path_ids"], count),
            LazyElements(lambda t=tag: elements_for(t), count),
        )

    try:
        by_tag = {
            tag: unpack(record, tag)
            for tag, record in directory["tags"].items()
        }
        all_stream = unpack(directory["all"], None)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed columnar directory: {exc}") from exc
    return ColumnarIndex(by_tag, all_stream)
