"""Columnar label streams: column/object parity, skip-pointer edge
cases, derived views, and the raw-bytes (de)serialization contract."""

from __future__ import annotations

import sys
from array import array

import pytest

from repro.datasets import generate_dblp
from repro.engine.database import LotusXDatabase
from repro.index.columnar import (
    COLUMNAR_RAW_FORMAT,
    INF_INT,
    ColumnarIndex,
    ColumnarStream,
    decode_columnar_raw,
    encode_columnar_raw,
)


@pytest.fixture(scope="module")
def db() -> LotusXDatabase:
    return LotusXDatabase(generate_dblp(publications=15, seed=5))


@pytest.fixture(scope="module")
def index(db) -> ColumnarIndex:
    return ColumnarIndex.from_labeled(db.labeled)


# ---------------------------------------------------------------------------
# Column / object parity
# ---------------------------------------------------------------------------


def test_from_elements_parity(db, index):
    for tag in sorted(db.labeled.tags()) + [None]:
        elements = db.labeled.elements if tag is None else db.labeled.stream(tag)
        stream = index.stream(tag)
        assert len(stream) == len(elements)
        for i, element in enumerate(elements):
            assert stream.starts[i] == element.region.start
            assert stream.ends[i] == element.region.end
            assert stream.levels[i] == element.region.level
            assert stream.path_ids[i] == element.path_node.node_id
            # Materialization returns the shared object, not a copy.
            assert stream.element(i) is element


def test_starts_strictly_increasing(index):
    for tag in sorted(index.tags()) + [None]:
        starts = index.stream(tag).starts
        assert all(a < b for a, b in zip(starts, starts[1:]))


def test_unknown_tag_is_empty(index):
    stream = index.stream("no-such-tag")
    assert len(stream) == 0
    assert stream.seek_ge(0, 0) == 0


# ---------------------------------------------------------------------------
# seek_ge (the skip pointer)
# ---------------------------------------------------------------------------


def _reference_seek(starts, lo, value):
    for i in range(max(lo, 0), len(starts)):
        if starts[i] >= value:
            return i
    return len(starts)


def test_seek_ge_matches_linear_scan(index):
    stream = index.stream(None)
    starts = stream.starts
    n = len(starts)
    probes = {0, 1, INF_INT, starts[0], starts[-1], starts[-1] + 1}
    for s in starts[:: max(1, n // 17)]:
        probes.update((s - 1, s, s + 1))
    for lo in [0, 1, n // 3, n - 1, n, n + 5]:
        for value in sorted(probes):
            assert stream.seek_ge(lo, value) == _reference_seek(
                starts, lo, value
            ), f"lo={lo} value={value}"


def test_seek_ge_exhausted_cursor(index):
    stream = index.stream(None)
    n = len(stream)
    assert stream.seek_ge(n, 0) == n
    assert stream.seek_ge(n + 10, 0) == n
    assert stream.seek_ge(0, INF_INT) == n


def test_seek_ge_never_moves_backwards(index):
    stream = index.stream(None)
    lo = len(stream) // 2
    # A value already behind the cursor answers at the cursor itself.
    assert stream.seek_ge(lo, 0) == lo
    assert stream.seek_ge(lo, stream.starts[lo]) == lo


# ---------------------------------------------------------------------------
# Derived views
# ---------------------------------------------------------------------------


def test_where_matches_manual_filter(db, index):
    keep = lambda el: el.region.level == 2  # noqa: E731
    filtered = index.stream(None).where(keep)
    expected = [el for el in db.labeled.elements if keep(el)]
    assert filtered.elements == expected
    assert list(filtered.starts) == [el.region.start for el in expected]
    assert list(filtered.levels) == [el.region.level for el in expected]


def test_take_preserves_column_alignment(index):
    stream = index.stream(None)
    indices = list(range(0, len(stream), 3))
    taken = stream.take(indices)
    assert len(taken) == len(indices)
    for out_pos, in_pos in enumerate(indices):
        assert taken.starts[out_pos] == stream.starts[in_pos]
        assert taken.ends[out_pos] == stream.ends[in_pos]
        assert taken.path_ids[out_pos] == stream.path_ids[in_pos]
        assert taken.element(out_pos) is stream.element(in_pos)


# ---------------------------------------------------------------------------
# Raw-bytes (de)serialization
# ---------------------------------------------------------------------------


def _streams_equal(a: ColumnarStream, b: ColumnarStream) -> bool:
    return (
        list(a.starts) == list(b.starts)
        and list(a.ends) == list(b.ends)
        and list(a.levels) == list(b.levels)
        and list(a.path_ids) == list(b.path_ids)
        and list(a.elements) == list(b.elements)
    )


def _elements_for(labeled):
    return lambda tag: labeled.elements if tag is None else labeled.stream(tag)


def test_encode_decode_round_trip(db, index):
    directory, raw = encode_columnar_raw(index)
    decoded = decode_columnar_raw(directory, bytes(raw), _elements_for(db.labeled))
    assert decoded is not None
    assert decoded.tags() == index.tags()
    for tag in sorted(index.tags()) + [None]:
        assert _streams_equal(decoded.stream(tag), index.stream(tag))


def test_decode_foreign_byteorder_round_trips(db, index):
    """Columns written on the opposite-endian platform (bytes swapped,
    byteorder label flipped) decode to identical values."""
    foreign = "big" if sys.byteorder == "little" else "little"
    directory, raw = encode_columnar_raw(index, foreign)
    assert directory["byteorder"] == foreign
    decoded = decode_columnar_raw(directory, bytes(raw), _elements_for(db.labeled))
    assert decoded is not None
    for tag in sorted(index.tags()) + [None]:
        assert isinstance(decoded.stream(tag).starts, array)
        assert _streams_equal(decoded.stream(tag), index.stream(tag))


def test_decode_unmappable_layout_returns_none(db, index):
    """Layouts this platform cannot map — wrong format tag, typecode, or
    itemsize — decode to None (the caller rebuilds from labels)."""
    for mutation in (
        {"format": COLUMNAR_RAW_FORMAT + 1},
        {"typecode": "l"},
        {"itemsize": 4},
    ):
        directory, raw = encode_columnar_raw(index)
        directory.update(mutation)
        decoded = decode_columnar_raw(directory, raw, _elements_for(db.labeled))
        assert decoded is None, mutation


def test_decode_inconsistent_payload_raises(db, index):
    other = LotusXDatabase(generate_dblp(publications=4, seed=99))
    # Row counts disagree with the label store: caught when the lazy
    # element column first resolves.
    decoded = decode_columnar_raw(
        *encode_columnar_raw(index), _elements_for(other.labeled)
    )
    with pytest.raises(ValueError):
        decoded.stream(None).element(0)
    # A stream record is missing a column.
    directory, raw = encode_columnar_raw(index)
    del directory["all"]["ends"]
    with pytest.raises(ValueError):
        decode_columnar_raw(directory, raw, _elements_for(db.labeled))
    # Not a mapping at all.
    with pytest.raises(ValueError):
        decode_columnar_raw([], raw, _elements_for(db.labeled))
