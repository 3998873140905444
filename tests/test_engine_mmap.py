"""Zero-copy (mmap) snapshot serving: round trips, mapping lifecycle, cross-platform guards, and the hot-reload unmap hazard.

The claims under test:

* An ``mmap=True`` load is *behaviorally identical* to the built
  database and to the copying loader — same matches, completions,
  keyword results, statistics — while its hot columns are genuine
  ``memoryview`` slices of the file mapping (zero copies).
* The mapping's lifetime is governed by references, not loads: closing
  the database defers the unmap while exported views are live, and hot
  reload never invalidates a buffer an in-flight request still reads.
* Foreign byte layouts degrade safely: big-endian snapshots fall back
  to the copying decoder (or raise a typed error under
  ``mmap="require"``).
* The write path never mutates a mapped buffer: root-width patches go
  copy-on-write, and a writable checkpoint emits a current-format
  snapshot that reloads (mapped) to identical serving behavior.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
from array import array

import pytest

from repro.datasets import generate_dblp
from repro.engine.database import LotusXDatabase
from repro.engine.store import (
    SNAPSHOT_VERSION,
    MappedSnapshot,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotMmapError,
    _decode_terms_raw,
    is_mmap_backed,
    load_snapshot,
    load_sharded_snapshot,
    read_snapshot_info,
    save_sharded_snapshot,
    save_snapshot,
)
from repro.index.columnar import decode_columnar_raw

FOREIGN_ORDER = "big" if sys.byteorder == "little" else "little"

QUERIES = [
    "//article[./title]/author",
    "//inproceedings//author",
    "//article[./year]",
    "//*[./author]",
    "ordered://article[./title][./author]",
]


@pytest.fixture(scope="module")
def built_db() -> LotusXDatabase:
    return LotusXDatabase(
        generate_dblp(publications=30, seed=11),
        synonyms={"paper": ("article", "inproceedings")},
    )


@pytest.fixture(scope="module")
def snapshot_path(built_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("mmap") / "dblp.lxsnap"
    save_snapshot(built_db, path)
    return path


def _probe(db) -> list:
    """A serving-surface fingerprint: matches, ranked search, keyword
    hits, completions, statistics."""
    out = []
    for query in QUERIES:
        out.append(db.matches(query))
    out.append(
        [(r.xpath, r.score) for r in db.search("//paper/author").results]
    )
    for semantics in ("slca", "elca"):
        hits = db.keyword_search("twig xml", semantics=semantics).hits
        out.append([(h.element.order, h.score) for h in hits])
    out.append(db.complete_tag(prefix=""))
    out.append(db.statistics().as_dict())
    return out


# ---------------------------------------------------------------------------
# Behavioral equality and zero-copy structure
# ---------------------------------------------------------------------------


def test_mmap_load_identical_to_built_and_copying(built_db, snapshot_path):
    copying = load_snapshot(snapshot_path)
    mapped = load_snapshot(snapshot_path, mmap="require")
    assert is_mmap_backed(mapped)
    assert not is_mmap_backed(copying)
    assert _probe(mapped) == _probe(copying) == _probe(built_db)


def test_mmap_columns_are_views_of_the_mapping(snapshot_path):
    db = load_snapshot(snapshot_path, mmap="require")
    db.warm_hot()
    columnar = db.streams.columnar
    assert columnar is not None
    for tag in sorted(columnar.tags()) + [None]:
        stream = columnar.stream(tag)
        for column in (stream.starts, stream.ends, stream.levels,
                       stream.path_ids):
            assert isinstance(column, memoryview), tag
            assert column.readonly
    # Term postings and completion tries too — no array copies anywhere
    # on the hot path.
    postings = db.term_index._postings
    some_term = next(iter(postings))
    assert isinstance(postings[some_term].orders, memoryview)
    tag_trie = db.completion_index.tag_trie
    assert isinstance(tag_trie._weights, memoryview)


def test_warm_hot_skips_cold_sections(snapshot_path):
    db = load_snapshot(snapshot_path, mmap="require")
    db.warm_hot()
    assert "term_index" in db._parts
    assert "completion_index" in db._parts
    assert "document" not in db._parts
    assert "labeled" not in db._parts
    # Cold sections still inflate on demand afterwards.
    assert len(db.labeled) > 0


def test_eager_mmap_load(built_db, snapshot_path):
    db = load_snapshot(snapshot_path, eager=True, mmap=True)
    assert is_mmap_backed(db)
    assert _probe(db) == _probe(built_db)


# ---------------------------------------------------------------------------
# Mapping lifecycle
# ---------------------------------------------------------------------------


def test_mapping_refcount_and_deferred_close(snapshot_path):
    db = load_snapshot(snapshot_path, mmap="require")
    mapping = db._reader.mapping
    assert mapping.references == 1
    assert mapping.mapped
    db.close()
    # The reader's master view still pins the buffer: close is deferred,
    # never forced — no live view is ever invalidated.
    assert mapping.mapped
    del db
    gc.collect()
    assert mapping.try_close()
    assert not mapping.mapped


def test_close_is_idempotent(snapshot_path):
    db = load_snapshot(snapshot_path, mmap="require")
    db.close()
    db.close()  # no double-decref
    mapping = db._reader.mapping
    with pytest.raises(SnapshotError):
        mapping.incref()


def test_query_results_survive_database_close(snapshot_path):
    """Results computed from mapped buffers stay valid after the
    database (and its mapping reference) is gone — the exported views
    keep the pages alive."""
    db = load_snapshot(snapshot_path, mmap="require")
    stream = db.streams.columnar.stream("article")
    starts = stream.starts
    first = starts[0]
    db.close()
    del db, stream
    gc.collect()
    assert starts[0] == first  # view still readable, no SIGSEGV/crash


def test_bytes_mode_database_close_is_noop(snapshot_path):
    db = load_snapshot(snapshot_path)
    db.close()
    assert db.matches(QUERIES[0]) is not None  # still fully usable


def test_mapped_snapshot_rejects_garbage(tmp_path):
    empty = tmp_path / "empty.lxsnap"
    empty.write_bytes(b"")
    with pytest.raises(SnapshotFormatError):
        MappedSnapshot(empty)
    junk = tmp_path / "junk.lxsnap"
    junk.write_bytes(b"not a snapshot at all, but long enough to map")
    with pytest.raises(SnapshotFormatError):
        load_snapshot(junk, mmap=True)
    with pytest.raises(SnapshotError):
        MappedSnapshot(tmp_path / "missing.lxsnap")


def test_mapped_header_corruption_detected(snapshot_path, tmp_path):
    """mmap mode verifies the header digest at map time, and each
    section's checksum on first access."""
    data = bytearray(snapshot_path.read_bytes())
    # Flip a byte inside the header JSON (after the 14-byte prefix).
    data[20] ^= 0x41
    bad = tmp_path / "badheader.lxsnap"
    bad.write_bytes(bytes(data))
    with pytest.raises(SnapshotIntegrityError):
        load_snapshot(bad, mmap=True)

    # Flip a byte in the data area: the map succeeds (header intact),
    # the touched section fails its lazy checksum.
    data = bytearray(snapshot_path.read_bytes())
    data[len(data) // 2] ^= 0x41
    bad2 = tmp_path / "baddata.lxsnap"
    bad2.write_bytes(bytes(data))
    db = load_snapshot(bad2, mmap=True)
    with pytest.raises(SnapshotIntegrityError):
        db.warm()


# ---------------------------------------------------------------------------
# Cross-platform guards
# ---------------------------------------------------------------------------


def test_foreign_byteorder_falls_back_to_copying(built_db, tmp_path):
    path = tmp_path / "foreign.lxsnap"
    save_snapshot(built_db, path, _force_byteorder=FOREIGN_ORDER)
    # Plain load: the copying decoder byteswaps; behavior identical.
    db = load_snapshot(path)
    assert _probe(db) == _probe(built_db)
    # mmap=True: silently degrades to the copying loader.
    fallback = load_snapshot(path, mmap=True)
    assert not is_mmap_backed(fallback)
    assert _probe(fallback) == _probe(built_db)
    # mmap="require": a typed, actionable refusal.
    with pytest.raises(SnapshotMmapError, match="foreign byte layout"):
        load_snapshot(path, mmap="require")


def test_itemsize_guard_returns_rebuild_signal():
    """A directory claiming a different int width is refused by the raw
    decoders (``None`` = caller rebuilds), never misread."""
    assert _decode_terms_raw({"format": 1, "itemsize": 4}, b"") is None
    assert _decode_terms_raw({"format": 99, "itemsize": 8}, b"") is None
    assert (
        decode_columnar_raw(
            {"format": 1, "typecode": "q", "itemsize": 4}, b"", lambda t: []
        )
        is None
    )
    with pytest.raises(ValueError):
        decode_columnar_raw("not-a-dict", b"", lambda t: [])


# ---------------------------------------------------------------------------
# Copy-on-write: live writes over mapped buffers
# ---------------------------------------------------------------------------


def test_rewiden_root_copies_instead_of_writing_the_mapping(snapshot_path):
    db = load_snapshot(snapshot_path, mmap="require")
    columnar = db.streams.columnar
    root_tag = db.labeled.elements[0].tag
    stream = columnar.stream(root_tag)
    assert isinstance(stream.ends, memoryview)
    original_end = stream.ends[0]
    db.streams.rewiden_root(original_end + 100)
    patched = columnar.stream(root_tag)
    # The patched column is a private array copy; the mapping (and any
    # other process sharing its pages) is untouched.
    assert isinstance(patched.ends, array)
    assert patched.ends[0] == original_end + 100
    wild = columnar.stream(None)
    assert wild.ends[0] == original_end + 100


def test_writable_checkpoint_emits_current_format_and_serves_identically(
    tmp_path,
):
    """Checkpoint → snapshot → mmap reload round trip: the live
    written corpus and its mapped checkpoint agree on every surface."""
    from repro.write.writer import open_writable_database

    base = LotusXDatabase(generate_dblp(publications=12, seed=7))
    wal = tmp_path / "w.lxwal"
    db = open_writable_database(base, wal, synchronous=True)
    try:
        db.writer.insert_document(
            "<article><title>zero copy snapshots</title>"
            "<author>new author</author><year>2026</year></article>"
        )
        doc_id = db.writer._corpus.document_ids()[0]
        db.writer.delete_document(doc_id)
        db.writer.flush()
        checkpoint_path = tmp_path / "ckpt.lxsnap"
        db.writer.checkpoint(checkpoint_path)
        assert read_snapshot_info(checkpoint_path).version == SNAPSHOT_VERSION
        reloaded = load_snapshot(checkpoint_path, mmap="require")
        assert is_mmap_backed(reloaded)
        live = db.view
        for query in QUERIES:
            assert reloaded.matches(query) == live.matches(query), query
        assert reloaded.complete_tag(prefix="") == live.complete_tag(prefix="")
        reloaded.close()
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Sharded snapshots
# ---------------------------------------------------------------------------


def test_sharded_snapshot_mmap_round_trip(tmp_path):
    from repro.shard.database import ShardedDatabase

    document = generate_dblp(publications=24, seed=3)
    sharded = ShardedDatabase.from_document(document, 2)
    target = tmp_path / "fleet"
    save_sharded_snapshot(sharded, target)
    loaded = load_sharded_snapshot(target, mmap=True)
    try:
        assert is_mmap_backed(loaded)
        for query in QUERIES:
            assert loaded.matches(query) == sharded.matches(query), query
        assert loaded.complete_tag(prefix="") == sharded.complete_tag(prefix="")
    finally:
        loaded.close()
        sharded.close()


def test_sharded_close_releases_every_mapping(tmp_path):
    from repro.shard.database import ShardedDatabase

    document = generate_dblp(publications=10, seed=5)
    sharded = ShardedDatabase.from_document(document, 2)
    target = tmp_path / "fleet"
    save_sharded_snapshot(sharded, target)
    sharded.close()
    loaded = load_sharded_snapshot(target, mmap=True)
    mappings = [shard._reader.mapping for shard in loaded.shards]
    assert all(m.references == 1 for m in mappings)
    loaded.close()
    del loaded
    gc.collect()
    assert all(m.try_close() for m in mappings)


# ---------------------------------------------------------------------------
# Hot reload: the unmap hazard
# ---------------------------------------------------------------------------


def test_reload_swap_keeps_old_mapping_alive_for_inflight_stream(
    built_db, snapshot_path
):
    """Regression for the unmap hazard: a slow *streamed* response binds
    generation N, a reload swaps in N+1 mid-stream, and the stream must
    finish correctly off N's buffers — which therefore must not be
    unmapped by the swap."""
    from repro.server.pipeline import RequestPipeline, ServerConfig
    from repro.server.reload import DatabaseHolder, ReloadSource

    source = ReloadSource("snapshot", str(snapshot_path), mmap=True)
    holder = DatabaseHolder(source.build(), source)
    old_db = holder.current
    old_mapping = old_db._reader.mapping
    pipeline = RequestPipeline(holder, ServerConfig(max_concurrency=4))

    first_chunk = threading.Event()
    resume = threading.Event()
    chunks: list[bytes] = []

    def emit(chunk: bytes) -> None:
        chunks.append(chunk)
        if not first_chunk.is_set():
            first_chunk.set()
            # Hold the stream open across the reload below.
            assert resume.wait(timeout=10)

    body = json.dumps({"query": QUERIES[0], "stream": True}).encode()
    worker = threading.Thread(
        target=lambda: pipeline.run_search_stream(
            "/api/search", body, len(body), emit
        )
    )
    worker.start()
    assert first_chunk.wait(timeout=10)

    generation_before = holder.generation
    result = holder.reload()
    assert result["generation"] == generation_before + 1
    new_db = holder.current
    assert new_db is not old_db
    # The swap must NOT have released the old generation's mapping: the
    # in-flight stream still reads it.
    assert old_mapping.mapped
    assert old_mapping.references == 1

    resume.set()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert len(chunks) == 2  # preliminary + final
    final = json.loads(chunks[-1])
    assert "error" not in final
    oracle = [r.xpath for r in built_db.search(QUERIES[0]).results]
    assert [r["xpath"] for r in final["results"]] == oracle

    # Retire-by-GC: once the last reference drops, the mapping goes.
    del old_db
    gc.collect()
    assert old_mapping.try_close()
    assert not old_mapping.mapped
    # The new generation serves the same answers off its own mapping.
    assert is_mmap_backed(new_db)
    assert [
        r.xpath for r in holder.current.search(QUERIES[0]).results
    ] == oracle
