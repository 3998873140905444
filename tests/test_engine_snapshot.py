"""Snapshot persistence: round-trip behavioral equality plus the
corruption / compatibility error taxonomy.

Round-trip tests assert that ``load_snapshot(save_snapshot(db))`` is
*behaviorally* equal to the database that was saved — same matches, same
completions, same keyword results, same statistics — in both the lazy
and the eager loading modes.  Corruption tests assert that every way a
file can be wrong (truncated, bit-flipped, future version, not a
snapshot at all) surfaces as the right typed error before any state is
materialized.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct

import pytest

from repro.datasets import generate_dblp
from repro.engine.database import LotusXDatabase
from repro.engine.store import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
    load_snapshot,
    read_snapshot_info,
    save_snapshot,
)
from repro.twig.sample import sample_twig
from repro.xmlio.tree import Document, Element

_DIGEST_SIZE = hashlib.sha256().digest_size
_PREFIX = struct.Struct(">6sHHI")

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
    path = tmp_path_factory.mktemp("snap") / "dblp.lxsnap"
    save_snapshot(built_db, path)
    return path


@pytest.fixture(scope="module", params=["lazy", "eager"])
def loaded_db(request, snapshot_path) -> LotusXDatabase:
    return load_snapshot(snapshot_path, eager=request.param == "eager")


# ---------------------------------------------------------------------------
# Round-trip behavioral equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", QUERIES)
def test_round_trip_matches(built_db, loaded_db, query):
    assert loaded_db.matches(query) == built_db.matches(query)


def test_round_trip_complete_tag(built_db, loaded_db):
    assert loaded_db.complete_tag(prefix="") == built_db.complete_tag(prefix="")
    pattern = built_db.parse_query("//article")
    anchored = built_db.complete_tag(pattern, pattern.root, prefix="t")
    pattern_loaded = loaded_db.parse_query("//article")
    assert (
        loaded_db.complete_tag(pattern_loaded, pattern_loaded.root, prefix="t")
        == anchored
    )


def test_round_trip_complete_value(built_db, loaded_db):
    pattern = built_db.parse_query("//article/year")
    node = pattern.nodes()[-1]
    expected = built_db.complete_value(pattern, node, prefix="19")
    pattern_loaded = loaded_db.parse_query("//article/year")
    node_loaded = pattern_loaded.nodes()[-1]
    assert loaded_db.complete_value(pattern_loaded, node_loaded, "19") == expected


def test_round_trip_keyword_search(built_db, loaded_db):
    for semantics in ("slca", "elca"):
        expected = built_db.keyword_search("twig system", semantics=semantics)
        got = loaded_db.keyword_search("twig system", semantics=semantics)
        assert [(h.element.order, h.score) for h in got.hits] == [
            (h.element.order, h.score) for h in expected.hits
        ]


def test_round_trip_statistics(built_db, loaded_db):
    assert loaded_db.statistics().as_dict() == built_db.statistics().as_dict()


def test_round_trip_search_with_rewriting(built_db, loaded_db):
    # The synonym table is persisted, so rewriting behaves identically.
    expected = built_db.search("//paper/author")
    got = loaded_db.search("//paper/author")
    assert [r.xpath for r in got.results] == [r.xpath for r in expected.results]


def test_round_trip_expand_attributes(tmp_path):
    db = LotusXDatabase(
        generate_dblp(publications=10, seed=3), expand_attributes=True
    )
    path = tmp_path / "attrs.lxsnap"
    save_snapshot(db, path)
    loaded = load_snapshot(path)
    assert loaded.expanded_attributes is True
    query = "//article[./@key]"
    assert loaded.matches(query) == db.matches(query)
    # The caller-visible document stays the pristine (unexpanded) tree.
    assert all(
        not child.tag.startswith("@")
        for child in loaded.document.root.child_elements()
    )


def test_round_trip_random_documents(tmp_path):
    """Property check: random documents x sampled (satisfiable) twigs
    agree between the built database and its snapshot round-trip."""
    tags = ["a", "b", "c"]
    words = ["red", "blue", "green"]
    for seed in range(6):
        rng = random.Random(seed)
        root = Element("r")
        open_elements = [root]
        for _ in range(rng.randint(5, 30)):
            child = rng.choice(open_elements).make_child(rng.choice(tags))
            if rng.random() < 0.4:
                child.append_text(rng.choice(words))
            open_elements.append(child)
            if len(open_elements) > 5:
                open_elements.pop(0)
        db = LotusXDatabase(Document(root))
        path = tmp_path / f"rand-{seed}.lxsnap"
        save_snapshot(db, path)
        loaded = load_snapshot(path)
        for case in range(5):
            pattern = sample_twig(db.labeled, rng)
            assert loaded.matches(pattern) == db.matches(pattern), (
                f"seed={seed} case={case} pattern={pattern}"
            )


def test_read_snapshot_info(built_db, snapshot_path):
    info = read_snapshot_info(snapshot_path)
    assert info.version == SNAPSHOT_VERSION
    assert info.element_count == len(built_db.labeled)
    assert info.path_count == len(built_db.guide)
    assert info.expand_attributes is False
    assert set(info.section_sizes) == {
        "document",
        "labels",
        "terms",
        "terms.raw",
        "completion",
        "completion.raw",
        "completion.keys",
        "columnar",
        "columnar.raw",
    }
    assert info.size_bytes == snapshot_path.stat().st_size


def test_save_is_atomic_overwrite(built_db, tmp_path):
    path = tmp_path / "twice.lxsnap"
    first = save_snapshot(built_db, path)
    second = save_snapshot(built_db, path)
    assert first.sha256 == second.sha256  # deterministic bytes
    assert not path.with_name(path.name + ".tmp").exists()
    assert load_snapshot(path).matches(QUERIES[0]) == built_db.matches(QUERIES[0])


# ---------------------------------------------------------------------------
# Corruption and compatibility
# ---------------------------------------------------------------------------


def _rewrite_digest(data: bytes) -> bytes:
    """Recompute the trailing SHA-256 so only the *inner* mutation shows."""
    body = data[:-_DIGEST_SIZE]
    return body + hashlib.sha256(body).digest()


def test_truncated_snapshot(snapshot_path, tmp_path):
    data = snapshot_path.read_bytes()
    for keep in (len(data) - 7, len(data) // 2, 20):
        bad = tmp_path / f"trunc-{keep}.lxsnap"
        bad.write_bytes(data[:keep])
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(bad)


def test_flipped_byte_anywhere(snapshot_path, tmp_path):
    data = snapshot_path.read_bytes()
    # Version field, flags, header, section area, trailing digest: every
    # post-magic offset must fail closed as a checksum mismatch.
    offsets = [6, 8, 20, len(data) // 2, len(data) - 1]
    for offset in offsets:
        corrupt = bytearray(data)
        corrupt[offset] ^= 0x41
        bad = tmp_path / f"flip-{offset}.lxsnap"
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(bad)
        with pytest.raises(SnapshotIntegrityError):
            read_snapshot_info(bad)


def test_future_version_rejected(snapshot_path, tmp_path):
    data = bytearray(snapshot_path.read_bytes())
    # A *genuinely* different version re-seals the checksum; only then is
    # the version check reachable (a flipped version byte without the
    # reseal is indistinguishable from corruption).
    struct.pack_into(">H", data, len(SNAPSHOT_MAGIC), SNAPSHOT_VERSION + 1)
    bad = tmp_path / "future.lxsnap"
    bad.write_bytes(_rewrite_digest(bytes(data)))
    with pytest.raises(SnapshotVersionError):
        load_snapshot(bad)


def test_not_a_snapshot(tmp_path):
    for name, content in [
        ("doc.xml", b"<dblp><article/></dblp>"),
        ("empty.lxsnap", b""),
        ("short.lxsnap", b"LX"),
    ]:
        bad = tmp_path / name
        bad.write_bytes(content)
        with pytest.raises(SnapshotFormatError):
            load_snapshot(bad)


def test_missing_file(tmp_path):
    with pytest.raises(SnapshotError):
        load_snapshot(tmp_path / "nope.lxsnap")


def test_corrupt_section_with_valid_outer_digest(snapshot_path, tmp_path):
    """Craft a file whose outer checksum verifies but whose section blob
    is garbage: decoding must fail as a typed integrity error (the lazy
    per-section checksum), not leak a half-built database."""
    data = bytearray(snapshot_path.read_bytes())
    _, data_start = _header(data)
    data[data_start] ^= 0xFF
    bad = tmp_path / "inner.lxsnap"
    bad.write_bytes(_rewrite_digest(bytes(data)))
    db = load_snapshot(bad)  # verification passes; decode is lazy
    with pytest.raises(SnapshotIntegrityError):
        db.warm()


def test_malformed_labels_payload_fails_typed(built_db, tmp_path, monkeypatch):
    """A labels payload that verifies but lacks a column surfaces as a
    typed format error on first inflation, like every other section."""
    from repro.engine import store

    encode = store._encode_labels

    def without_parents(labeled):
        payload = encode(labeled)
        del payload["parent_orders"]
        return payload

    monkeypatch.setattr(store, "_encode_labels", without_parents)
    path = tmp_path / "noparents.lxsnap"
    save_snapshot(built_db, path)
    db = load_snapshot(path)
    with pytest.raises(SnapshotFormatError, match="labels"):
        db.labeled


def test_header_overrun_rejected(snapshot_path, tmp_path):
    data = bytearray(snapshot_path.read_bytes())
    struct.pack_into(">I", data, len(SNAPSHOT_MAGIC) + 4, 2**31)
    bad = tmp_path / "overrun.lxsnap"
    bad.write_bytes(_rewrite_digest(bytes(data)))
    with pytest.raises(SnapshotFormatError):
        load_snapshot(bad)


# ---------------------------------------------------------------------------
# Columnar section: round-trip, corruption
# ---------------------------------------------------------------------------


def _header(data: bytes) -> tuple[dict, int]:
    """(parsed JSON header, data-area start offset)."""
    _, _, _, header_length = _PREFIX.unpack_from(data)
    header_end = _PREFIX.size + header_length
    return json.loads(data[_PREFIX.size : header_end]), header_end + _DIGEST_SIZE


def test_columnar_section_round_trips(built_db, loaded_db):
    built_col = built_db.streams.columnar
    loaded_col = loaded_db.streams.columnar
    assert loaded_col is not None
    assert loaded_col.tags() == built_col.tags()
    for tag in sorted(built_col.tags()) + [None]:
        built_stream = built_col.stream(tag)
        loaded_stream = loaded_col.stream(tag)
        assert loaded_stream.starts == built_stream.starts
        assert loaded_stream.ends == built_stream.ends
        assert loaded_stream.levels == built_stream.levels
        assert loaded_stream.path_ids == built_stream.path_ids
    # Queries against the loaded database actually run the columnar
    # kernels (stats bypasses the match cache other tests may have warmed).
    from repro.twig.algorithms.common import AlgorithmStats

    before = loaded_db.counters["columnar_evaluations"]
    loaded_db.matches(QUERIES[0], stats=AlgorithmStats())
    assert loaded_db.counters["columnar_evaluations"] == before + 1


def test_lazy_snapshot_reports_columnar_without_inflating(snapshot_path):
    db = load_snapshot(snapshot_path)
    stats = db.cache_statistics()
    # Reporting is side-effect free: nothing materialized yet, so the
    # stream factory (and its columnar flag) is simply absent.
    assert stats["columnar_enabled"] is None
    assert stats["autocomplete_cache"] is None
    db.warm()
    stats = db.cache_statistics()
    assert stats["columnar_enabled"] is True
    assert stats["autocomplete_cache"]["entries"] == 0


def test_corrupt_columnar_section_fails_typed(snapshot_path, tmp_path):
    data = bytearray(snapshot_path.read_bytes())
    header, data_start = _header(data)
    entry = next(e for e in header["sections"] if e["name"] == "columnar")
    data[data_start + entry["offset"]] ^= 0xFF
    bad = tmp_path / "badcol.lxsnap"
    bad.write_bytes(_rewrite_digest(bytes(data)))
    db = load_snapshot(bad)  # outer digest was resealed; decode is lazy
    with pytest.raises(SnapshotIntegrityError):
        db.streams


def test_corruption_leaves_no_partial_state(snapshot_path, tmp_path):
    """A failed load raises before returning anything, and a valid load
    afterwards is unaffected (no module/global contamination)."""
    data = snapshot_path.read_bytes()
    bad = tmp_path / "bad.lxsnap"
    bad.write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotIntegrityError):
        load_snapshot(bad)
    good = load_snapshot(snapshot_path)
    assert len(good.labeled) == read_snapshot_info(snapshot_path).element_count
