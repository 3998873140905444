"""On-disk persistence for LotusX databases: the snapshot file.

A snapshot is a single versioned, checksummed file holding the fully
built database: the document tree, the labeled-element store (region
labels plus DataGuide path ids), the DataGuide, the inverted term index,
the completion tries, and the columnar label streams.
:func:`load_snapshot` verifies integrity up front and then *materializes
sections lazily*, so a server warm-starts in milliseconds and pays for
each index the first time a query touches it (or all at once via
``eager=True`` / :meth:`LotusXDatabase.warm`).  Nothing is re-parsed and
nothing is re-derived — loading skips XML parsing and index construction
entirely.  ``lotusx index`` is the command that writes one.

Snapshot file layout, format version 4 (framing integers big-endian)::

    6 bytes   magic  b"LXSNAP"
    2 bytes   format version
    2 bytes   flags (reserved, 0)
    4 bytes   header length H (space-padded so the data area is 8-aligned)
    H bytes   header JSON: sections table (name/offset/length/sha256/
              encoding, offsets relative to the data area) + meta
              (counts, expand_attributes, synonyms, statistics,
              raw_layout)
    32 bytes  header digest: SHA-256 over every preceding byte
    ...       data area — *raw* sections first (uncompressed int64/byte
              buffers, each 8-byte-aligned with zero padding), then the
              ``zpickle`` sections (zlib-compressed pickles of
              plain-container payloads)
    32 bytes  SHA-256 over every preceding byte

The hot sections — columnar label columns (``columnar.raw``), term
postings (``terms.raw``), completion arrays (``completion.raw`` /
``completion.keys``) — are raw so that :func:`load_snapshot` with
``mmap=True`` can serve them as ``memoryview`` slices of one shared
mapping: warm start is O(header), nothing is inflated, and pre-forked
serving processes plus co-hosted replicas share the OS page cache.
Cold object sections (the document tree, the label store / DataGuide)
keep the zlib-pickle path.

Version 3 has the same framing; its ``labels`` section additionally
carries two retired label columns and a pickled child-tag table, which
the reader skips.  It stays readable so that existing writable
checkpoints (snapshot + WAL) still open.  Versions 1 and 2 are refused
with :class:`SnapshotVersionError`: re-run ``lotusx index`` on the
corpus.

Integrity: full-file loads check magic → trailing digest → version →
header.  Mapped loads cannot afford an O(file) hash at open, so they
check magic → version → *header digest* → header, and then verify each
section's recorded SHA-256 once, lazily, when it is first read
(full-file loads verify sections the same way, for one corruption
taxonomy).  Corruption surfaces as :class:`SnapshotIntegrityError`, an
unsupported version as :class:`SnapshotVersionError`, a non-snapshot
file as :class:`SnapshotFormatError`, and an mmap request a file cannot
satisfy (with ``mmap="require"``) as :class:`SnapshotMmapError`.
Section pickles are decoded by a restricted unpickler that only resolves
``repro.*`` classes.

A sharded corpus is a directory of snapshot files plus a JSON manifest
(:func:`save_sharded_snapshot` / :func:`load_sharded_snapshot`).
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import pickle
import struct
import sys
import threading
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path

from repro.autocomplete.engine import AutocompleteEngine
from repro.engine.database import LotusXDatabase
from repro.index.columnar import decode_columnar_raw, encode_columnar_raw
from repro.index.completion_index import CompletionIndex
from repro.index.element_index import StreamFactory
from repro.index.packed import PackedTrie, rmq_table_length
from repro.index.statistics import compute_statistics
from repro.index.term_index import TermIndex, _PostingList
from repro.labeling.assign import LabeledDocument, LabeledElement
from repro.labeling.region import Region
from repro.ranking.scorer import LotusXScorer
from repro.rewrite.engine import QueryRewriter
from repro.rewrite.rules import default_rules
from repro.xmlio.tree import Document


class StoreError(RuntimeError):
    """Persisted database state is missing, corrupt, or incompatible."""


# ======================================================================
# Snapshot format
# ======================================================================

SNAPSHOT_MAGIC = b"LXSNAP"
#: Version written by :func:`save_snapshot`.  Version 3 introduced the
#: raw, 8-byte-aligned hot sections (mmap-able through ``memoryview``)
#: and the header digest; version 4 dropped two retired label columns
#: and the child-tag table from the ``labels`` section.
SNAPSHOT_VERSION = 4
#: Versions :func:`load_snapshot` accepts.  A version 3 file reads like a
#: version 4 one; the extra ``labels`` entries are skipped.
SUPPORTED_SNAPSHOT_VERSIONS = frozenset({3, SNAPSHOT_VERSION})

#: magic(6) + version(2) + flags(2) + header length(4)
_PREFIX = struct.Struct(">6sHHI")
_DIGEST_SIZE = hashlib.sha256().digest_size
#: Alignment of the data area and of every raw section inside it.
_SECTION_ALIGN = 8
#: int64 column typecode / width shared by every raw codec.
_I64 = "q"
_I64_SIZE = array(_I64).itemsize
#: Chunk size for streamed trailer verification.
_STREAM_CHUNK = 1 << 20

#: Format tags inside the raw-section directories.
TERMS_RAW_FORMAT = 1
COMPLETION_RAW_FORMAT = 1


class SnapshotError(StoreError):
    """Base class for snapshot load/save failures."""


class SnapshotFormatError(SnapshotError):
    """The file is not a snapshot, or its structure cannot be parsed."""


class SnapshotVersionError(SnapshotError):
    """The snapshot uses a format version this build does not support."""


class SnapshotIntegrityError(SnapshotError):
    """The snapshot is truncated or corrupted (checksum mismatch)."""


class SnapshotMmapError(SnapshotError):
    """``mmap="require"`` was asked of a snapshot that cannot be served
    zero-copy (its hot sections use a foreign byte layout)."""


@dataclass(frozen=True)
class SnapshotInfo:
    """Metadata about a snapshot file (no sections are materialized)."""

    path: str
    version: int
    size_bytes: int
    element_count: int
    path_count: int
    expand_attributes: bool
    section_sizes: dict[str, int]
    sha256: str
    #: Write-path checkpoint position (0 = plain indexed corpus); WAL
    #: records with larger seqnos must be replayed on top of this file.
    seqno: int = 0
    #: Top-level document ids at checkpoint time (``None`` = plain
    #: indexed corpus).  Recovery must adopt these so that replayed
    #: update/delete records resolve against the same namespace.
    document_ids: tuple[str, ...] | None = None


# ----------------------------------------------------------------------
# Restricted unpickling
# ----------------------------------------------------------------------

#: Non-``repro`` globals the section payloads are allowed to reference.
_ALLOWED_GLOBALS = {("collections", "OrderedDict")}


class _DiscardedV3State:
    """Unpickle stand-in for the child-tag table a v3 ``labels`` payload
    carries (its class no longer exists).  The state is dropped; nothing
    reads it."""

    def __setstate__(self, state) -> None:
        pass


class _SnapshotUnpickler(pickle.Unpickler):
    """Resolves only ``repro.*`` classes (plus a tiny stdlib allowlist).

    Snapshot payloads are trusted once the file digest verifies, but a
    format bug should fail loudly as a snapshot error rather than import
    and execute arbitrary globals.
    """

    def find_class(self, module: str, name: str):
        if (module, name) == ("repro.summary.child_table", "ChildTagTable"):
            return _DiscardedV3State
        if module == "repro" or module.startswith("repro."):
            return super().find_class(module, name)
        if (module, name) in _ALLOWED_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"snapshot payload references disallowed global {module}.{name}"
        )


def _dumps_section(payload) -> bytes:
    return zlib.compress(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), 6
    )


def _loads_section(blob: bytes, name: str):
    try:
        data = zlib.decompress(blob)
        return _SnapshotUnpickler(io.BytesIO(data)).load()
    except (
        zlib.error,
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        raise SnapshotFormatError(
            f"snapshot section {name!r} cannot be decoded: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Section codecs
#
# Payloads are plain containers (lists, dicts, tuples, ints, strings)
# wherever object counts are large — unpickling containers runs at C
# speed, while per-object Python callbacks dominate load time at the
# ~100k-object scale of a real corpus.  Small object graphs (the
# document tree, the DataGuide) are pickled as-is.
# ----------------------------------------------------------------------


def _encode_labels(labeled: LabeledDocument) -> dict:
    starts: list[int] = []
    ends: list[int] = []
    levels: list[int] = []
    path_ids: list[int] = []
    parent_orders: list[int] = []
    for le in labeled.elements:
        region = le.region
        starts.append(region.start)
        ends.append(region.end)
        levels.append(region.level)
        path_ids.append(le.path_node.node_id)
        parent_orders.append(le.parent.order if le.parent is not None else -1)
    return {
        "starts": starts,
        "ends": ends,
        "levels": levels,
        "path_ids": path_ids,
        "parent_orders": parent_orders,
        "guide": labeled.guide,
    }


def _decode_labels(payload: dict, document: Document) -> LabeledDocument:
    """Inflate a ``labels`` payload over ``document``.  Keys a v3 payload
    carries beyond these are ignored."""
    guide = payload["guide"]
    starts = payload["starts"]
    ends = payload["ends"]
    levels = payload["levels"]
    path_ids = payload["path_ids"]
    parent_orders = payload["parent_orders"]

    tree_elements = list(document.iter())
    if len(tree_elements) != len(starts):
        raise SnapshotFormatError(
            "label store does not match the document tree "
            f"({len(starts)} labels, {len(tree_elements)} elements)"
        )

    node_of = guide.node
    elements: list[LabeledElement] = []
    append = elements.append
    for i, element in enumerate(tree_elements):
        append(
            LabeledElement(
                element,
                i,
                Region(starts[i], ends[i], levels[i]),
                node_of(path_ids[i]),
                None,
            )
        )
    for i, parent_order in enumerate(parent_orders):
        if parent_order >= 0:
            elements[i].parent = elements[parent_order]
    return LabeledDocument(document, guide, elements)


# ----------------------------------------------------------------------
# Raw hot-section codecs
#
# Each hot section splits into a small pickled *directory* (dict of
# names → int64 offsets/counts into the raw blob) and one contiguous
# uncompressed blob the snapshot stores 8-byte-aligned.  Decoding under
# mmap slices ``memoryview('q')`` columns straight out of the mapping —
# zero copies, zero per-entry Python objects beyond the dict itself.  A
# foreign byte order degrades to copying + byteswap; a foreign int
# layout (itemsize) returns ``None`` and the caller rebuilds from the
# labels.
# ----------------------------------------------------------------------


def _raw_columns(directory: dict, raw):
    """Column accessor over ``raw`` honoring the directory's byte order."""
    base = raw if isinstance(raw, memoryview) else memoryview(raw)
    if directory.get("byteorder") == sys.byteorder:
        cells = base.cast(_I64)

        def column(offset: int, count: int):
            return cells[offset : offset + count]

    else:

        def column(offset: int, count: int):
            copied = array(_I64)
            copied.frombytes(
                base[offset * _I64_SIZE : (offset + count) * _I64_SIZE]
            )
            copied.byteswap()
            return copied

    return column


def _encode_terms_raw(index: TermIndex, byteorder: str) -> tuple[dict, bytearray]:
    raw = bytearray()
    swap = byteorder != sys.byteorder

    def put(values) -> int:
        cells = array(_I64, values)
        if swap:
            cells.byteswap()
        offset = len(raw) // _I64_SIZE
        raw.extend(cells.tobytes())
        return offset

    postings: dict[str, tuple[int, int]] = {}
    for term, plist in index._postings.items():
        # orders then tfs, adjacent: tfs start at offset + n.
        offset = put(plist.orders)
        put(plist.tfs)
        postings[term] = (offset, len(plist.orders))
    values = {
        value: (put(orders), len(orders))
        for value, orders in index._value_postings.items()
    }
    subtree = (put(index._subtree_end), len(index._subtree_end))
    directory = {
        "format": TERMS_RAW_FORMAT,
        "itemsize": _I64_SIZE,
        "byteorder": byteorder,
        "postings": postings,
        "values": values,
        "subtree_end": subtree,
        "numeric": index._numeric,
        "token_counts": index._token_counts,
        "total_tokens": index._total_tokens,
    }
    return directory, raw


def _decode_terms_raw(directory: dict, raw) -> TermIndex | None:
    if (
        not isinstance(directory, dict)
        or directory.get("format") != TERMS_RAW_FORMAT
        or directory.get("itemsize") != _I64_SIZE
    ):
        return None
    column = _raw_columns(directory, raw)
    index = object.__new__(TermIndex)
    postings: dict[str, _PostingList] = {}
    for term, (offset, count) in directory["postings"].items():
        plist = object.__new__(_PostingList)
        plist.orders = column(offset, count)
        plist.tfs = column(offset + count, count)
        postings[term] = plist
    index._postings = postings
    index._value_postings = {
        value: column(offset, count)
        for value, (offset, count) in directory["values"].items()
    }
    offset, count = directory["subtree_end"]
    index._subtree_end = column(offset, count)
    index._numeric = directory["numeric"]
    index._token_counts = directory["token_counts"]
    index._total_tokens = directory["total_tokens"]
    return index


def _encode_completion_raw(
    index: CompletionIndex, byteorder: str
) -> tuple[dict, bytearray, bytearray]:
    """Lay out every completion trie's packed buffers as they are;
    returns ``(directory, ints, keys)``.

    ``ints`` holds the int64 arrays (offsets / weights / RMQ sparse
    table) of every trie concatenated; ``keys`` holds the UTF-8 key
    blobs.  Keeping the byte blob in its own section means every int64
    raw section is endian-uniform, so cross-endian tooling (and the
    foreign-layout tests) can treat ``*.raw`` sections as pure int64.
    """
    ints = bytearray()
    keys = bytearray()
    swap = byteorder != sys.byteorder

    def put(cells) -> int:
        if swap:
            cells = array(_I64, cells)
            cells.byteswap()
        offset = len(ints) // _I64_SIZE
        ints.extend(cells.tobytes())
        return offset

    def put_trie(trie: PackedTrie) -> dict:
        blob, offsets, weights, rmq = trie.buffers()
        record = {
            "n": len(weights),
            "keys": (len(keys), len(blob)),
            "offsets": put(offsets),
            "weights": put(weights),
            "rmq": put(rmq),
        }
        keys.extend(blob)
        return record

    directory = {
        "format": COMPLETION_RAW_FORMAT,
        "itemsize": _I64_SIZE,
        "byteorder": byteorder,
        "tag": put_trie(index.tag_trie),
        "global_token": put_trie(index.global_token_trie),
        "global_value": put_trie(index.global_value_trie),
        "path_token": {
            pid: put_trie(trie)
            for pid, trie in index._path_token_tries.items()
        },
        "path_value": {
            pid: put_trie(trie)
            for pid, trie in index._path_value_tries.items()
        },
    }
    return directory, ints, keys


def _decode_completion_raw(
    directory: dict, ints_raw, keys_raw
) -> CompletionIndex | None:
    if (
        not isinstance(directory, dict)
        or directory.get("format") != COMPLETION_RAW_FORMAT
        or directory.get("itemsize") != _I64_SIZE
    ):
        return None
    column = _raw_columns(directory, ints_raw)
    keys = keys_raw if isinstance(keys_raw, memoryview) else memoryview(keys_raw)

    def trie(record: dict) -> PackedTrie:
        count = record["n"]
        key_offset, key_length = record["keys"]
        return PackedTrie(
            keys[key_offset : key_offset + key_length],
            column(record["offsets"], count + 1),
            column(record["weights"], count),
            column(record["rmq"], rmq_table_length(count)),
        )

    index = object.__new__(CompletionIndex)
    index.tag_trie = trie(directory["tag"])
    index.global_token_trie = trie(directory["global_token"])
    index.global_value_trie = trie(directory["global_value"])
    index._path_token_tries = {
        pid: trie(record) for pid, record in directory["path_token"].items()
    }
    index._path_value_tries = {
        pid: trie(record) for pid, record in directory["path_value"].items()
    }
    return index


def _raw_layout_native(meta: dict) -> bool:
    """Whether the snapshot's raw sections use this platform's int layout
    (recorded once in the header meta, so the check is O(1) at load)."""
    layout = meta.get("raw_layout") or {}
    return (
        layout.get("typecode") == _I64
        and layout.get("itemsize") == _I64_SIZE
        and layout.get("byteorder") == sys.byteorder
    )


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def _snapshot_meta(database: LotusXDatabase, seqno: int, document_ids) -> dict:
    synonyms = database._synonyms
    return {
        "element_count": len(database.labeled),
        "path_count": len(database.labeled.guide),
        "expand_attributes": database.expanded_attributes,
        "synonyms": (
            {term: list(alts) for term, alts in synonyms.items()}
            if synonyms
            else None
        ),
        "source_name": database.document.source_name,
        "seqno": int(seqno),
        "document_ids": list(document_ids) if document_ids is not None else None,
        "statistics": compute_statistics(
            database.labeled, database.term_index
        ).as_dict(),
    }


def _write_atomic(path: str | os.PathLike[str], buffer: bytearray) -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + ".tmp")
    try:
        temp.write_bytes(bytes(buffer))
        os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)
    return target


def save_snapshot(
    database: LotusXDatabase,
    path: str | os.PathLike[str],
    seqno: int = 0,
    document_ids: tuple[str, ...] | list[str] | None = None,
    *,
    _force_byteorder: str | None = None,
) -> SnapshotInfo:
    """Write ``database`` to a single snapshot file at ``path``.

    The write is atomic (temp file + rename), so a crash never leaves a
    half-written snapshot where a valid one was expected.  Returns a
    :class:`SnapshotInfo` describing the file.

    ``seqno`` stamps the write-path checkpoint position: the snapshot
    contains every mutation up to and including that WAL sequence
    number, so recovery replays only newer records.  The default 0 marks
    a plain indexed corpus (replay everything in the WAL).
    ``document_ids`` preserves the writer's top-level id namespace
    across the checkpoint (WAL updates/deletes address documents by id).

    The hot sections are laid out as raw aligned buffers so
    ``mmap=True`` loads are zero-copy.  ``_force_byteorder`` fabricates a
    foreign-endian file (tests only).
    """
    database = database.warm()
    byteorder = _force_byteorder or sys.byteorder

    zpickled: list[tuple[str, bytes]] = [
        ("document", _dumps_section(database.document))
    ]
    if database.labeled.document is not database.document:
        # expand_attributes indexes a shadow tree; persist both so the
        # load restores the pristine/indexed split exactly.
        zpickled.append(
            ("indexed_document", _dumps_section(database.labeled.document))
        )
    zpickled.append(("labels", _dumps_section(_encode_labels(database.labeled))))

    raw_sections: list[tuple[str, bytearray]] = []
    terms_dir, terms_raw = _encode_terms_raw(database.term_index, byteorder)
    zpickled.append(("terms", _dumps_section(terms_dir)))
    raw_sections.append(("terms.raw", terms_raw))
    completion_dir, completion_ints, completion_keys = _encode_completion_raw(
        database.completion_index, byteorder
    )
    zpickled.append(("completion", _dumps_section(completion_dir)))
    raw_sections.append(("completion.raw", completion_ints))
    raw_sections.append(("completion.keys", completion_keys))
    columnar_dir, columnar_raw = encode_columnar_raw(
        database.streams.columnar, byteorder
    )
    zpickled.append(("columnar", _dumps_section(columnar_dir)))
    raw_sections.append(("columnar.raw", columnar_raw))

    meta = _snapshot_meta(database, seqno, document_ids)
    meta["raw_layout"] = {
        "typecode": _I64,
        "itemsize": _I64_SIZE,
        "byteorder": byteorder,
    }

    # Data area: raw sections first, each 8-aligned (the data area
    # itself is 8-aligned, see the header padding below), then the
    # pickled object sections, which need no alignment.
    table: list[dict] = []
    chunks: list[bytes] = []
    cursor = 0
    for name, blob in raw_sections:
        pad = (-cursor) % _SECTION_ALIGN
        if pad:
            chunks.append(b"\0" * pad)
            cursor += pad
        table.append(
            {
                "name": name,
                "offset": cursor,
                "length": len(blob),
                "sha256": hashlib.sha256(blob).hexdigest(),
                "encoding": "raw",
            }
        )
        chunks.append(bytes(blob))
        cursor += len(blob)
    for name, blob in zpickled:
        table.append(
            {
                "name": name,
                "offset": cursor,
                "length": len(blob),
                "sha256": hashlib.sha256(blob).hexdigest(),
                "encoding": "zpickle",
            }
        )
        chunks.append(blob)
        cursor += len(blob)

    header = json.dumps(
        {"sections": table, "meta": meta}, sort_keys=True
    ).encode("utf-8")
    # Space-pad the header (JSON tolerates trailing whitespace) so the
    # data area starts 8-aligned: prefix + header + header digest ≡ 0.
    header += b" " * (
        (-(_PREFIX.size + len(header) + _DIGEST_SIZE)) % _SECTION_ALIGN
    )

    buffer = bytearray()
    buffer += _PREFIX.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0, len(header))
    buffer += header
    buffer += hashlib.sha256(buffer).digest()
    for chunk in chunks:
        buffer += chunk
    digest = hashlib.sha256(buffer).digest()
    buffer += digest

    target = _write_atomic(path, buffer)
    return SnapshotInfo(
        path=str(target),
        version=SNAPSHOT_VERSION,
        size_bytes=len(buffer),
        element_count=meta["element_count"],
        path_count=meta["path_count"],
        expand_attributes=meta["expand_attributes"],
        section_sizes={entry["name"]: entry["length"] for entry in table},
        sha256=digest.hex(),
        seqno=int(seqno),
        document_ids=tuple(document_ids) if document_ids is not None else None,
    )


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def _parse_header(blob, source: str) -> dict:
    try:
        header = json.loads(bytes(blob).decode("utf-8"))
        header["sections"]
        header["meta"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SnapshotFormatError(f"{source}: malformed snapshot header: {exc}") from exc
    return header


def _validate_sections(
    sections, data_start: int, data_end: int, source: str
) -> None:
    for entry in sections:
        try:
            start = data_start + entry["offset"]
            stop = start + entry["length"]
            entry["name"]
        except (KeyError, TypeError) as exc:
            raise SnapshotFormatError(
                f"{source}: malformed section table entry: {exc}"
            ) from exc
        if not (data_start <= start <= stop <= data_end):
            raise SnapshotFormatError(
                f"{source}: section {entry['name']!r} overruns the file"
            )


def _check_version(version: int, source: str) -> None:
    if version not in SUPPORTED_SNAPSHOT_VERSIONS:
        supported = ", ".join(
            str(v) for v in sorted(SUPPORTED_SNAPSHOT_VERSIONS)
        )
        raise SnapshotVersionError(
            f"{source}: unsupported snapshot version {version} "
            f"(this build reads versions {supported}); re-run "
            "`lotusx index` on the corpus to write a current snapshot"
        )


def _data_start(header_length: int) -> int:
    # A header digest sits between the header and the data area.
    return _PREFIX.size + header_length + _DIGEST_SIZE


def _verify_snapshot_bytes(data, source: str) -> tuple[dict, int, int]:
    """Run the fixed check order (magic → digest → version → header) and
    return ``(header, data_area_offset, version)``."""
    if not bytes(data[: len(SNAPSHOT_MAGIC)]).startswith(SNAPSHOT_MAGIC):
        raise SnapshotFormatError(f"{source}: not a LotusX snapshot file")
    if len(data) < _PREFIX.size + _DIGEST_SIZE:
        raise SnapshotIntegrityError(f"{source}: snapshot is truncated")
    digest = hashlib.sha256(data[:-_DIGEST_SIZE]).digest()
    if digest != bytes(data[-_DIGEST_SIZE:]):
        raise SnapshotIntegrityError(
            f"{source}: checksum mismatch — the snapshot is truncated or corrupt"
        )
    _, version, _flags, header_length = _PREFIX.unpack_from(data)
    _check_version(version, source)
    header_start = _PREFIX.size
    header_end = header_start + header_length
    data_start = _data_start(header_length)
    if data_start > len(data) - _DIGEST_SIZE:
        raise SnapshotFormatError(f"{source}: header overruns the file")
    header = _parse_header(data[header_start:header_end], source)
    _validate_sections(
        header["sections"], data_start, len(data) - _DIGEST_SIZE, source
    )
    return header, data_start, version


def _read_snapshot_file(path: str | os.PathLike[str]) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc


def _stream_verify_snapshot(
    path: str | os.PathLike[str],
) -> tuple[dict, int, int, bytes]:
    """Verify the snapshot at ``path`` in streamed chunks and return
    ``(header, version, size_bytes, trailer_digest)``.

    Peak memory is one ~1 MiB chunk plus the header — never the whole
    file — so ``read_snapshot_info`` stays O(header) in space even for
    multi-gigabyte snapshots.
    """
    source = str(path)
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(_PREFIX.size)
            if not prefix.startswith(SNAPSHOT_MAGIC):
                raise SnapshotFormatError(f"{source}: not a LotusX snapshot file")
            size = os.fstat(handle.fileno()).st_size
            if size < _PREFIX.size + _DIGEST_SIZE:
                raise SnapshotIntegrityError(f"{source}: snapshot is truncated")
            _, version, _flags, header_length = _PREFIX.unpack_from(prefix)
            hasher = hashlib.sha256(prefix)
            hashed = size - _DIGEST_SIZE - _PREFIX.size
            header_parts: list[bytes] = []
            header_seen = 0
            while hashed > 0:
                chunk = handle.read(min(_STREAM_CHUNK, hashed))
                if not chunk:
                    raise SnapshotIntegrityError(
                        f"{source}: snapshot is truncated"
                    )
                hasher.update(chunk)
                hashed -= len(chunk)
                if header_seen < header_length:
                    take = chunk[: header_length - header_seen]
                    header_parts.append(take)
                    header_seen += len(take)
            trailer = handle.read(_DIGEST_SIZE)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if hasher.digest() != trailer:
        raise SnapshotIntegrityError(
            f"{source}: checksum mismatch — the snapshot is truncated or corrupt"
        )
    _check_version(version, source)
    if header_seen < header_length:
        raise SnapshotFormatError(f"{source}: header overruns the file")
    header = _parse_header(b"".join(header_parts), source)
    _validate_sections(
        header["sections"],
        _data_start(header_length),
        size - _DIGEST_SIZE,
        source,
    )
    return header, version, size, trailer


def read_snapshot_info(path: str | os.PathLike[str]) -> SnapshotInfo:
    """Verify ``path`` and return its metadata without materializing
    any sections.  The checksum is verified in streamed chunks; only
    the header is ever held in memory."""
    header, version, size, trailer = _stream_verify_snapshot(path)
    meta = header["meta"]
    return SnapshotInfo(
        path=str(path),
        version=version,
        size_bytes=size,
        element_count=meta["element_count"],
        path_count=meta["path_count"],
        expand_attributes=bool(meta["expand_attributes"]),
        section_sizes={
            entry["name"]: entry["length"] for entry in header["sections"]
        },
        sha256=trailer.hex(),
        seqno=int(meta.get("seqno", 0)),
        document_ids=(
            tuple(meta["document_ids"])
            if meta.get("document_ids") is not None
            else None
        ),
    )


class MappedSnapshot:
    """A refcounted ``mmap`` of one snapshot file.

    Every :class:`_SnapshotDatabase` served from the mapping holds one
    reference; the mapping is released when the last one drops
    (:meth:`decref`).  If query results still hold exported
    ``memoryview`` slices at that point, ``mmap.close()`` raises
    ``BufferError`` — we then *defer*: the master view is released, and
    the OS unmaps the region when Python's refcounting collects the last
    exported view.  Either way no live view is ever invalidated, which
    is what makes hot reload safe (the old generation's buffers outlive
    every in-flight request that touches them).
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = str(path)
        try:
            with open(path, "rb") as handle:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except OSError as exc:
            raise SnapshotError(f"cannot map snapshot {path}: {exc}") from exc
        except ValueError as exc:
            # Zero-length file: not mappable, certainly not a snapshot.
            raise SnapshotFormatError(
                f"{path}: not a LotusX snapshot file"
            ) from exc
        self._view: memoryview | None = memoryview(self._mmap)
        self._lock = threading.Lock()
        self._refs = 1
        self._released = False
        self._closed = False

    def view(self) -> memoryview:
        if self._view is None:
            raise SnapshotError(f"{self.path}: snapshot mapping was released")
        return self._view

    def __len__(self) -> int:
        return len(self._mmap)

    @property
    def references(self) -> int:
        with self._lock:
            return self._refs

    @property
    def mapped(self) -> bool:
        """True while the OS mapping is still in place (possibly only
        because exported views pin it)."""
        return not self._closed

    def incref(self) -> MappedSnapshot:
        with self._lock:
            if self._released:
                raise SnapshotError(
                    f"{self.path}: snapshot mapping was released"
                )
            self._refs += 1
        return self

    def decref(self) -> None:
        with self._lock:
            if self._released:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._released = True
            self._view = None
            self._try_close_locked()

    def try_close(self) -> bool:
        """Retry a deferred close; True once the mapping is closed."""
        with self._lock:
            if not self._released:
                return False
            self._try_close_locked()
            return self._closed

    def _try_close_locked(self) -> None:
        if self._closed:
            return
        try:
            self._mmap.close()
        except BufferError:
            # Exported views still pin the buffer; refcounting will
            # unmap when the last one dies.
            return
        self._closed = True


def _verify_mapped_snapshot(buf: memoryview, source: str) -> tuple[dict, int, int]:
    """Header-only verification for a mapped snapshot; returns
    ``(header, data_start, version)``.

    Unlike :func:`_verify_snapshot_bytes` this never touches the data
    area — that is the whole point of the mapped mode — so integrity of
    the hot sections is enforced lazily, per section, on first access.
    """
    if bytes(buf[: len(SNAPSHOT_MAGIC)]) != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{source}: not a LotusX snapshot file")
    if len(buf) < _PREFIX.size + _DIGEST_SIZE:
        raise SnapshotIntegrityError(f"{source}: snapshot is truncated")
    _, version, _flags, header_length = _PREFIX.unpack_from(buf)
    _check_version(version, source)
    header_end = _PREFIX.size + header_length
    data_start = _data_start(header_length)
    if data_start > len(buf) - _DIGEST_SIZE:
        raise SnapshotFormatError(f"{source}: header overruns the file")
    digest = hashlib.sha256(buf[:header_end]).digest()
    if digest != bytes(buf[header_end:data_start]):
        raise SnapshotIntegrityError(
            f"{source}: header checksum mismatch — the snapshot is corrupt"
        )
    header = _parse_header(buf[_PREFIX.size : header_end], source)
    _validate_sections(
        header["sections"], data_start, len(buf) - _DIGEST_SIZE, source
    )
    return header, data_start, version


class _SnapshotReader:
    """A verified snapshot buffer plus the parsed section table.

    ``buf`` is either the whole file as ``bytes`` (copying loads, fully
    digest-verified up front) or a ``memoryview`` of a
    :class:`MappedSnapshot` (zero-copy loads, header verified up front).
    In both modes each section's SHA-256 is checked once, on first
    access — for mapped snapshots that is the *only* data-area
    integrity check, so it must not be skipped.
    """

    def __init__(
        self,
        header: dict,
        data_start: int,
        version: int,
        buf,
        source: str,
        mapping: MappedSnapshot | None = None,
    ) -> None:
        self._buf = buf
        self._source = source
        self._data_start = data_start
        self._sections = {entry["name"]: entry for entry in header["sections"]}
        self._verified: set[str] = set()
        self._verify_lock = threading.Lock()
        self.meta = header["meta"]
        self.version = version
        self.mapping = mapping

    @classmethod
    def from_bytes(cls, data: bytes, source: str) -> _SnapshotReader:
        header, data_start, version = _verify_snapshot_bytes(data, source)
        return cls(header, data_start, version, data, source)

    @classmethod
    def from_mapping(cls, mapping: MappedSnapshot, source: str) -> _SnapshotReader:
        header, data_start, version = _verify_mapped_snapshot(
            mapping.view(), source
        )
        return cls(
            header, data_start, version, mapping.view(), source, mapping
        )

    def has(self, name: str) -> bool:
        return name in self._sections

    def _section(self, name: str):
        entry = self._sections.get(name)
        if entry is None:
            raise SnapshotFormatError(
                f"{self._source}: snapshot has no {name!r} section"
            )
        start = self._data_start + entry["offset"]
        blob = self._buf[start : start + entry["length"]]
        if name not in self._verified:
            digest = hashlib.sha256(blob).hexdigest()
            if digest != entry["sha256"]:
                raise SnapshotIntegrityError(
                    f"{self._source}: section {name!r} is corrupt "
                    "(checksum mismatch)"
                )
            with self._verify_lock:
                self._verified.add(name)
        return blob

    def payload(self, name: str):
        """Decode a zlib-pickled object section."""
        return _loads_section(self._section(name), name)

    def raw(self, name: str) -> memoryview:
        """A verified raw section as a ``memoryview`` (no copy when the
        underlying buffer is a mapping)."""
        blob = self._section(name)
        return blob if isinstance(blob, memoryview) else memoryview(blob)


# Columnar sentinel: the columnar section uses an array layout this
# platform cannot decode — rebuild from the labels.
_REBUILD = object()


class _SnapshotDatabase(LotusXDatabase):
    """A database whose components inflate lazily from a snapshot.

    The snapshot's integrity was fully verified at construction; after
    that each section is decoded at most once, the first time a query
    needs it (thread-safe), or all at once via :meth:`warm`.
    """

    def __init__(
        self,
        reader: _SnapshotReader,
        scorer: LotusXScorer | None,
        synonyms: dict[str, tuple[str, ...]] | None,
        expand_attributes: bool,
    ) -> None:
        # Deliberately no super().__init__ — that path *builds* indexes.
        self._reader = reader
        self._parts: dict[str, object] = {}
        self._inflate_lock = threading.RLock()
        self._closed = False
        self.expanded_attributes = expand_attributes
        self.scorer = scorer or LotusXScorer()
        self._synonyms = synonyms
        self._init_runtime_caches()

    def _part(self, name: str, build):
        value = self._parts.get(name)
        if value is None:
            with self._inflate_lock:
                value = self._parts.get(name)
                if value is None:
                    value = build()
                    self._parts[name] = value
        return value

    # Data descriptors shadow the attributes the base __init__ would
    # assign; each one decodes its section on first access.

    @property
    def document(self) -> Document:
        return self._part("document", lambda: self._reader.payload("document"))

    @property
    def labeled(self) -> LabeledDocument:
        return self._part("labeled", self._build_labeled)

    def _build_labeled(self) -> LabeledDocument:
        if self._reader.has("indexed_document"):
            tree = self._reader.payload("indexed_document")
        else:
            tree = self.document
        try:
            return _decode_labels(self._reader.payload("labels"), tree)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise SnapshotFormatError(
                f"snapshot labels section is inconsistent: {exc}"
            ) from exc

    @property
    def term_index(self) -> TermIndex:
        return self._part("term_index", self._build_term_index)

    def _build_term_index(self) -> TermIndex:
        try:
            index = _decode_terms_raw(
                self._reader.payload("terms"), self._reader.raw("terms.raw")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(
                f"snapshot terms section is inconsistent: {exc}"
            ) from exc
        if index is None:
            # Foreign array layout: rebuild from the labels.
            return TermIndex(self.labeled)
        return index

    @property
    def completion_index(self) -> CompletionIndex:
        return self._part("completion_index", self._build_completion_index)

    def _build_completion_index(self) -> CompletionIndex:
        try:
            index = _decode_completion_raw(
                self._reader.payload("completion"),
                self._reader.raw("completion.raw"),
                self._reader.raw("completion.keys"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(
                f"snapshot completion section is inconsistent: {exc}"
            ) from exc
        if index is None:
            return CompletionIndex(self.labeled, self.term_index)
        return index

    @property
    def streams(self) -> StreamFactory:
        return self._part("streams", self._load_streams)

    def _columnar_part(self):
        return self._part("columnar", self._load_columnar)

    def _columnar_elements(self, tag):
        """Element-object resolver for :class:`LazyElements` — only
        called if a query path actually needs element objects."""
        labeled = self.labeled
        return labeled.elements if tag is None else labeled.stream(tag)

    def _load_columnar(self):
        try:
            index = decode_columnar_raw(
                self._reader.payload("columnar"),
                self._reader.raw("columnar.raw"),
                self._columnar_elements,
            )
        except ValueError as exc:
            raise SnapshotFormatError(
                f"snapshot columnar section is inconsistent: {exc}"
            ) from exc
        return _REBUILD if index is None else index

    def _load_streams(self) -> StreamFactory:
        columnar = self._columnar_part()
        if columnar is _REBUILD:
            return StreamFactory(self.labeled, self.term_index)
        return StreamFactory(self.labeled, self.term_index, columnar=columnar)

    @property
    def autocomplete(self) -> AutocompleteEngine:
        return self._part(
            "autocomplete",
            lambda: AutocompleteEngine(self.labeled.guide, self.completion_index),
        )

    @property
    def rewriter(self) -> QueryRewriter:
        return self._part(
            "rewriter",
            lambda: QueryRewriter(
                default_rules(self.labeled.guide, self._synonyms)
            ),
        )

    def warm(self) -> LotusXDatabase:
        """Materialize every section now; returns ``self``."""
        self.document
        self.labeled
        self.term_index
        self.completion_index
        self.streams
        self.autocomplete
        self.rewriter
        return self

    def warm_hot(self) -> LotusXDatabase:
        """Materialize only the *hot* query-path sections (term postings,
        completion tries, columnar streams).  On an mmap-backed
        snapshot this is O(header) work — no document tree, no label
        store, no byte copies — which is the whole zero-copy warm-start
        story."""
        self.term_index
        self.completion_index
        self._columnar_part()
        return self

    def close(self) -> None:
        """Drop this database's reference on the snapshot mapping (if
        any).  Idempotent; a database loaded from bytes is a no-op."""
        if self._closed:
            return
        self._closed = True
        mapping = self._reader.mapping
        if mapping is not None:
            mapping.decref()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        if "labeled" not in self._parts:
            return "LotusXDatabase(snapshot, lazy)"
        return super().__repr__()


def _database_from_reader(
    reader: _SnapshotReader,
    scorer: LotusXScorer | None,
    eager: bool,
) -> LotusXDatabase:
    meta = reader.meta
    raw_synonyms = meta.get("synonyms")
    synonyms = (
        {term: tuple(alts) for term, alts in raw_synonyms.items()}
        if raw_synonyms
        else None
    )
    database = _SnapshotDatabase(
        reader, scorer, synonyms, bool(meta.get("expand_attributes", False))
    )
    if eager:
        database.warm()
    return database


def load_snapshot(
    path: str | os.PathLike[str],
    scorer: LotusXScorer | None = None,
    eager: bool = False,
    mmap: bool | str = False,
) -> LotusXDatabase:
    """Load a snapshot written by :func:`save_snapshot`.

    With ``mmap=False`` (the default) the whole file is read and its
    checksum verified before anything is decoded; sections then
    materialize lazily on first use (pass ``eager=True`` — or call
    :meth:`LotusXDatabase.warm` — to inflate everything immediately,
    e.g. before putting a server into rotation).

    With ``mmap=True`` the snapshot is mapped instead of read: only the
    header is verified up front (each section's SHA-256 is checked the
    first time it is touched), and the hot sections are served as
    ``memoryview`` slices of the mapping — zero copies, and forked
    workers or co-hosted processes share one set of physical pages.
    When the file cannot be served zero-copy (hot sections written with
    a foreign byte layout) the call silently falls back to the copying
    loader; pass ``mmap="require"`` to get a
    :class:`SnapshotMmapError` instead of the fallback.

    Raises
    ------
    SnapshotFormatError
        Not a snapshot file, or its structure cannot be parsed.
    SnapshotIntegrityError
        Truncated or corrupted file (checksum mismatch).
    SnapshotVersionError
        A format version this build does not read (1 and 2: re-run
        ``lotusx index``).
    SnapshotMmapError
        ``mmap="require"`` and the file cannot be served zero-copy.
    """
    source = str(path)
    if mmap:
        mapping = MappedSnapshot(path)
        try:
            reader = _SnapshotReader.from_mapping(mapping, source)
            native = _raw_layout_native(reader.meta)
            if not native and mmap == "require":
                raise SnapshotMmapError(
                    f"{source}: cannot serve zero-copy — "
                    "hot sections use a foreign byte layout"
                )
        except BaseException:
            mapping.decref()
            raise
        if native:
            return _database_from_reader(reader, scorer, eager)
        mapping.decref()
    data = _read_snapshot_file(path)
    reader = _SnapshotReader.from_bytes(data, source)
    return _database_from_reader(reader, scorer, eager)


def is_mmap_backed(database) -> bool:
    """True if ``database`` (or, for a sharded database, every shard)
    serves its hot sections from a snapshot mapping."""
    shards = getattr(database, "shards", None)
    if shards is not None:
        return bool(shards) and all(is_mmap_backed(s) for s in shards)
    reader = getattr(database, "_reader", None)
    return reader is not None and reader.mapping is not None


# ======================================================================
# Sharded snapshots
# ======================================================================

#: Manifest file name inside a sharded snapshot directory.
SHARD_MANIFEST = "corpus.json"
#: Format marker inside the corpus manifest.
SHARDED_SNAPSHOT_FORMAT = "lotusx-sharded-snapshot"
#: Version written by :func:`save_sharded_snapshot`.
SHARDED_SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class ShardedSnapshotInfo:
    """Metadata about a sharded snapshot directory."""

    path: str
    version: int
    shard_count: int
    spine_tag: str
    size_bytes: int
    element_count: int
    #: Per-section byte totals summed across all shard files.
    section_sizes: dict[str, int]
    #: Per-shard file metadata, shard order.
    shards: tuple[SnapshotInfo, ...]


def shard_file_name(index: int) -> str:
    return f"shard-{index:04d}.lxsnap"


def is_sharded_snapshot(path: str | os.PathLike[str]) -> bool:
    """Is ``path`` a sharded snapshot directory (vs a snapshot file)?"""
    target = Path(path)
    return target.is_dir() and (target / SHARD_MANIFEST).is_file()


def save_sharded_snapshot(
    database, directory: str | os.PathLike[str]
) -> ShardedSnapshotInfo:
    """Write a :class:`~repro.shard.database.ShardedDatabase` fleet.

    Layout: a directory holding one ordinary snapshot file per shard
    (each individually checksummed and loadable with
    :func:`load_snapshot`) plus a ``corpus.json`` manifest recording the
    spine tag, every shard's placement spec
    (:meth:`~repro.shard.partitioner.ShardSpec.as_dict`), file name, and
    content hash.  The manifest is written last, so a crash mid-save
    never leaves a directory that passes :func:`is_sharded_snapshot`
    with missing shard files.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    infos: list[SnapshotInfo] = []
    entries: list[dict] = []
    for index, (shard, spec) in enumerate(zip(database.shards, database.specs)):
        name = shard_file_name(index)
        info = save_snapshot(shard, target / name)
        infos.append(info)
        entries.append(
            {
                "file": name,
                "spec": spec.as_dict(),
                "sha256": info.sha256,
                "size_bytes": info.size_bytes,
            }
        )
    manifest = {
        "format": SHARDED_SNAPSHOT_FORMAT,
        "format_version": SHARDED_SNAPSHOT_VERSION,
        "spine_tag": database.spine_tag,
        "shard_count": len(entries),
        "element_count": database.element_count,
        "statistics": database.statistics().as_dict(),
        "shards": entries,
    }
    _write_json(target / SHARD_MANIFEST, manifest)
    section_sizes: dict[str, int] = {}
    for info in infos:
        for name, size in info.section_sizes.items():
            section_sizes[name] = section_sizes.get(name, 0) + size
    return ShardedSnapshotInfo(
        path=str(target),
        version=SHARDED_SNAPSHOT_VERSION,
        shard_count=len(infos),
        spine_tag=database.spine_tag,
        size_bytes=sum(info.size_bytes for info in infos),
        element_count=manifest["element_count"],
        section_sizes=section_sizes,
        shards=tuple(infos),
    )


def read_sharded_snapshot_info(
    path: str | os.PathLike[str],
) -> ShardedSnapshotInfo:
    """Verify a sharded snapshot directory and return its metadata."""
    manifest, entries = _read_shard_manifest(path)
    infos = tuple(
        read_snapshot_info(Path(path) / entry["file"]) for entry in entries
    )
    section_sizes: dict[str, int] = {}
    for info in infos:
        for name, size in info.section_sizes.items():
            section_sizes[name] = section_sizes.get(name, 0) + size
    return ShardedSnapshotInfo(
        path=str(path),
        version=manifest["format_version"],
        shard_count=len(infos),
        spine_tag=manifest["spine_tag"],
        size_bytes=sum(info.size_bytes for info in infos),
        element_count=manifest["element_count"],
        section_sizes=section_sizes,
        shards=infos,
    )


def _read_shard_manifest(path: str | os.PathLike[str]) -> tuple[dict, list[dict]]:
    target = Path(path)
    manifest = _read_json(target / SHARD_MANIFEST)
    if manifest.get("format") != SHARDED_SNAPSHOT_FORMAT:
        raise SnapshotFormatError(
            f"{target}: {SHARD_MANIFEST} is not a sharded snapshot manifest"
        )
    version = manifest.get("format_version")
    if version != SHARDED_SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{target}: unsupported sharded snapshot version {version!r} "
            f"(this build reads version {SHARDED_SNAPSHOT_VERSION})"
        )
    entries = manifest.get("shards")
    if not isinstance(entries, list) or not entries:
        raise SnapshotFormatError(f"{target}: manifest lists no shards")
    for entry in entries:
        if not isinstance(entry, dict) or "file" not in entry or "spec" not in entry:
            raise SnapshotFormatError(f"{target}: malformed shard entry in manifest")
    return manifest, entries


def load_sharded_snapshot(
    path: str | os.PathLike[str],
    scorer: LotusXScorer | None = None,
    eager: bool = False,
    executor_mode: str = "serial",
    replicas: int = 1,
    fleet_config=None,
    mmap: bool | str = False,
):
    """Load a sharded snapshot directory into a ``ShardedDatabase``.

    Each shard file is verified (checksum) up front, exactly like
    :func:`load_snapshot`; heavy sections still inflate lazily per shard
    (the facade's merged guide and term statistics touch the labels and
    terms sections at construction, but completion tries and columnar
    streams wait for the first query, or ``eager=True``).  ``mmap`` is
    forwarded to each shard's :func:`load_snapshot` — processes forked
    after the load (pre-fork serving) inherit the shard mappings, so they
    all share one set of physical pages.
    """
    from repro.shard.database import ShardedDatabase
    from repro.shard.partitioner import ShardSpec

    # Scatters always run inline; the keyword survives only for the
    # ledger's traced run, which names "serial" (goes with ROADMAP item 4b).
    if executor_mode != "serial":
        raise ValueError(f"unknown executor mode: {executor_mode!r}")

    manifest, entries = _read_shard_manifest(path)
    target = Path(path)
    databases = []
    specs = []
    for entry in entries:
        databases.append(
            load_snapshot(target / entry["file"], scorer, eager, mmap=mmap)
        )
        specs.append(ShardSpec.from_dict(entry["spec"]))
    synonyms = databases[0]._synonyms if databases else None
    database = ShardedDatabase(
        databases,
        specs,
        source_document=None,
        scorer=scorer,
        synonyms=synonyms,
        replicas=replicas,
        fleet_config=fleet_config,
    )
    if eager:
        database.warm()
    return database


# ======================================================================
# JSON helpers (sharded snapshot manifest)
# ======================================================================


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StoreError(f"cannot read {path.name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt JSON in {path.name}: {exc}") from exc
