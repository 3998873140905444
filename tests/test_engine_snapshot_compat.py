"""Snapshot format compatibility: which versions open, and to what.

``tests/data/books_v3.lxsnap`` is ``lotusx index books.xml`` as written by
the last release that emitted format 3 (whose ``labels`` section still
carried Dewey / extended-Dewey columns and a pickled child-tag table).
Format 4 dropped those; the reader skips them, so the fixture must load —
mapped and copying — to exactly the answers a fresh build of the same XML
gives, and must still serve as the base of a writable checkpoint.
Versions 1 and 2 are refused with an error that says how to rebuild.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import pytest

from repro.engine.database import LotusXDatabase
from repro.engine.store import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotVersionError,
    is_mmap_backed,
    load_snapshot,
    read_snapshot_info,
    save_snapshot,
)
from repro.xmlio.builder import parse_string

DATA = Path(__file__).parent / "data"
V3_FIXTURE = DATA / "books_v3.lxsnap"
FIXTURE_XML = DATA / "books.xml"

QUERIES = [
    "//book/title",
    "//book[./author]/price",
    "//catalog//description",
    "//book[./genre]//author",
    "ordered://book[./title][./author]",
]

INSERTED = (
    "<book id='bk900'><title>snapshot formats</title>"
    "<author>ada lovelace</author><genre>reference</genre></book>"
)


def _answers(db) -> list:
    """search / matches / complete_tag / complete_value fingerprint."""
    out = []
    for query in QUERIES:
        out.append(db.matches(query))
        out.append([(r.xpath, r.score) for r in db.search(query).results])
    out.append(db.complete_tag(prefix=""))
    book = db.parse_query("//book")
    for prefix in ("", "a", "t"):
        out.append(db.complete_tag(book, book.root, prefix=prefix))
    for query in ("//book/genre", "//book/author"):
        pattern = db.parse_query(query)
        for prefix in ("", "h", "e"):
            out.append(db.complete_value(pattern, pattern.nodes()[-1], prefix))
    return out


@pytest.fixture(scope="module")
def fresh_db() -> LotusXDatabase:
    xml = FIXTURE_XML.read_text(encoding="utf-8")
    return LotusXDatabase(parse_string(xml, source_name="books.xml"))


def test_fixture_is_version_3():
    assert read_snapshot_info(V3_FIXTURE).version == 3


@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "copying"])
def test_v3_fixture_answers_like_a_fresh_build(fresh_db, mmap):
    loaded = load_snapshot(V3_FIXTURE, mmap=mmap)
    try:
        assert is_mmap_backed(loaded) == mmap
        assert _answers(loaded) == _answers(fresh_db)
        assert loaded.statistics().as_dict() == fresh_db.statistics().as_dict()
    finally:
        loaded.close()


def test_fresh_snapshot_is_current_version(fresh_db, tmp_path):
    path = tmp_path / "books.lxsnap"
    info = save_snapshot(fresh_db, path)
    assert info.version == read_snapshot_info(path).version == SNAPSHOT_VERSION == 4
    loaded = load_snapshot(path, mmap="require")
    try:
        assert _answers(loaded) == _answers(fresh_db)
    finally:
        loaded.close()


def _checkpoint_after_insert(base, work: Path) -> Path:
    from repro.write.writer import open_writable_database

    db = open_writable_database(base, work / "w.lxwal", synchronous=True)
    try:
        db.writer.insert_document(INSERTED)
        checkpoint = work / "ckpt.lxsnap"
        db.writer.checkpoint(checkpoint)
        live = _answers(db.view)
    finally:
        db.close()
    reloaded = load_snapshot(checkpoint, mmap="require")
    try:
        assert _answers(reloaded) == live
    finally:
        reloaded.close()
    return checkpoint


def test_v3_writable_checkpoint_writes_current_version(fresh_db, tmp_path):
    """A v3 file still opens as a writable base; its checkpoint is a v4
    file that answers exactly like the same insert over a fresh build."""
    (tmp_path / "v3").mkdir()
    (tmp_path / "fresh").mkdir()
    base = load_snapshot(V3_FIXTURE, mmap=True)
    from_v3 = _checkpoint_after_insert(base, tmp_path / "v3")
    from_fresh = _checkpoint_after_insert(fresh_db, tmp_path / "fresh")
    assert read_snapshot_info(from_v3).version == SNAPSHOT_VERSION
    first = load_snapshot(from_v3)
    second = load_snapshot(from_fresh)
    assert _answers(first) == _answers(second)
    assert first.matches("//book[./genre]/title") != fresh_db.matches(
        "//book[./genre]/title"
    )


@pytest.mark.parametrize("version", [1, 2])
def test_pre_v3_versions_are_refused(tmp_path, version):
    data = bytearray(V3_FIXTURE.read_bytes())
    struct.pack_into(">H", data, len(SNAPSHOT_MAGIC), version)
    body = bytes(data[: -hashlib.sha256().digest_size])
    path = tmp_path / f"v{version}.lxsnap"
    path.write_bytes(body + hashlib.sha256(body).digest())
    for load in (
        lambda: load_snapshot(path),
        lambda: load_snapshot(path, mmap=True),
        lambda: read_snapshot_info(path),
    ):
        with pytest.raises(SnapshotVersionError, match="lotusx index"):
            load()
