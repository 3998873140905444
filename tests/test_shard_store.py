"""Sharded snapshot persistence: layout, integrity, and warm-start."""

from __future__ import annotations

import json

import pytest

from repro.datasets import generate_dblp_xml
from repro.engine.database import LotusXDatabase
from repro.engine.store import (
    SHARD_MANIFEST,
    SnapshotFormatError,
    SnapshotVersionError,
    is_sharded_snapshot,
    load_sharded_snapshot,
    read_sharded_snapshot_info,
    save_sharded_snapshot,
    shard_file_name,
)
from repro.shard.database import ShardedDatabase


@pytest.fixture(scope="module")
def corpus_xml():
    return generate_dblp_xml(80, 5)


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory, corpus_xml):
    path = tmp_path_factory.mktemp("snap") / "fleet"
    database = ShardedDatabase.from_string(corpus_xml, 3)
    info = save_sharded_snapshot(database, path)
    database.close()
    return path, info


def test_sharded_snapshot_layout(snapshot_dir):
    path, info = snapshot_dir
    assert is_sharded_snapshot(path)
    assert not is_sharded_snapshot(path / SHARD_MANIFEST)
    assert info.shard_count == 3
    for index in range(3):
        assert (path / shard_file_name(index)).is_file()
    # Aggregated section sizes cover every standard snapshot section.
    assert set(info.section_sizes) >= {"labels", "terms", "completion"}
    assert info.size_bytes == sum(shard.size_bytes for shard in info.shards)


def test_read_sharded_snapshot_info_matches_save(snapshot_dir):
    path, info = snapshot_dir
    read_back = read_sharded_snapshot_info(path)
    assert read_back.shard_count == info.shard_count
    assert read_back.element_count == info.element_count
    assert read_back.section_sizes == info.section_sizes


def test_load_accepts_only_the_serial_executor_mode(snapshot_dir):
    path, _ = snapshot_dir
    load_sharded_snapshot(path, executor_mode="serial").close()
    for mode in ("auto", "thread", "process"):
        with pytest.raises(ValueError):
            load_sharded_snapshot(path, executor_mode=mode)


def test_warm_start_serves_identically(snapshot_dir, corpus_xml):
    path, _ = snapshot_dir
    mono = LotusXDatabase.from_string(corpus_xml)
    loaded = load_sharded_snapshot(path)
    try:
        assert loaded.shard_count == 3
        assert loaded.statistics().as_dict() == mono.statistics().as_dict()
        query = '//article[./title~"xml"]/author'
        expected = mono.search(query, k=5)
        got = loaded.search(query, k=5)
        assert [r.as_dict() for r in got.results] == [
            r.as_dict() for r in expected.results
        ]
        kw_expected = mono.keyword_search("twig join", k=5)
        kw_got = loaded.keyword_search("twig join", k=5)
        assert kw_got.as_dict() == kw_expected.as_dict()
    finally:
        loaded.close()


def test_manifest_format_is_validated(tmp_path, snapshot_dir):
    bad = tmp_path / "bad-fleet"
    bad.mkdir()
    (bad / SHARD_MANIFEST).write_text(json.dumps({"format": "other"}))
    with pytest.raises(SnapshotFormatError):
        read_sharded_snapshot_info(bad)

    path, _ = snapshot_dir
    manifest = json.loads((path / SHARD_MANIFEST).read_text())
    manifest["format_version"] = 999
    future = tmp_path / "future-fleet"
    future.mkdir()
    (future / SHARD_MANIFEST).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotVersionError):
        read_sharded_snapshot_info(future)


def test_plain_file_is_not_sharded(tmp_path):
    plain = tmp_path / "plain.lxsnap"
    plain.write_bytes(b"not a directory")
    assert not is_sharded_snapshot(plain)
    assert not is_sharded_snapshot(tmp_path / "missing")
