"""Re-place vs re-index on the live write path.

A write re-indexes only the segment whose content changed.  A clean
segment whose label base moved is *re-placed*: a new database object
with new labels and columnar columns at the new base, sharing the
segment's document, term index and completion index.  Under test:

* (a) after a delete in a middle segment the later segments keep the
  very same index objects while their labels and columns move;
* (b) a view captured before the write keeps answering exactly as it
  did (the old database objects are never shifted in place);
* (c) the work a one-document write does is bounded by the segment it
  touches, never by the base.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import generate_dblp
from repro.engine.database import LotusXDatabase
from repro.engine.segmented import SegmentedDatabase
from repro.shard.partitioner import subtree_element_count
from repro.twig.parse import parse_twig
from repro.write.segments import Mutation, SegmentedCorpus
from repro.write.writer import open_writable_database
from repro.xmlio.builder import parse_string


def _document(n: int, authors: int = 1) -> str:
    names = "".join(f"<author>writer {n} {a}</author>" for a in range(authors))
    return (
        f"<article><title>placement study {n} marker{n}</title>"
        f"{names}<year>{2000 + n}</year></article>"
    )


def _mutation(seqno: int, op: str, doc_id: str, xml: str | None = None) -> Mutation:
    unit = parse_string(xml).root if xml is not None else None
    return Mutation(seqno, op, doc_id, unit)


@pytest.fixture()
def corpus() -> SegmentedCorpus:
    """Base of 30 publications plus three two-document delta segments."""
    corpus = SegmentedCorpus(LotusXDatabase(generate_dblp(publications=30, seed=5)))
    seqno = 0
    for batch in range(3):
        mutations = []
        for slot in range(2):
            seqno += 1
            n = 2 * batch + slot
            mutations.append(
                _mutation(seqno, "insert", f"doc-{n}", _document(n, authors=1 + slot))
            )
        result = corpus.apply(mutations)
        assert (result.segments_reindexed, result.segments_replaced) == (1, 0)
    assert corpus.segment_count == 4
    return corpus


def _regions(database) -> list[tuple[int, int, int]]:
    return [
        (e.region.start, e.region.end, e.region.level)
        for e in database.labeled.elements
    ]


def test_delete_in_middle_segment_replaces_the_suffix(corpus):
    middle, *later = corpus.segments[1:]
    before = [
        (s.database, s.database.term_index, s.database.completion_index,
         s.database.document, _regions(s.database))
        for s in later
    ]
    for segment in later:
        segment.database.streams.columnar  # built: the old columns must stay put
    removed = subtree_element_count(middle.units[0])
    total_before = corpus.total_elements

    result = corpus.apply([_mutation(7, "delete", "doc-0")])

    assert result.segments_reindexed == 1
    assert result.segments_replaced == len(later) == 2
    assert result.elements_reindexed == 1 + middle.element_count
    root_end = 2 * (total_before - removed) - 1
    for segment, (old_db, terms, completion, document, old_regions) in zip(
        later, before
    ):
        database = segment.database
        # Placement only: a new database around the very same indexes.
        assert database is not old_db
        assert database.term_index is terms
        assert database.completion_index is completion
        assert database.document is document
        assert database.labeled is not old_db.labeled
        assert database.labeled.guide is old_db.labeled.guide
        # Labels at the new base, root replica at the new corpus width.
        expected = [(0, root_end, 0)] + [
            (start - 2 * removed, end - 2 * removed, level)
            for start, end, level in old_regions[1:]
        ]
        assert _regions(database) == expected
        assert database.labeled.elements[1].region.start == (
            2 * segment.spec.element_offset + 1
        )
        # ... and so are the columnar columns.
        stream = database.streams.columnar.stream(None)
        assert list(stream.starts) == [r[0] for r in expected]
        assert list(stream.ends) == [r[1] for r in expected]
        titles = database.streams.columnar.stream("title")
        assert list(titles.starts) == [
            e.region.start for e in database.labeled.stream("title")
        ]
        # The objects a reader may still hold were not shifted.
        assert _regions(old_db) == old_regions
        old_stream = old_db.streams.columnar.stream(None)
        assert list(old_stream.starts) == [r[0] for r in old_regions]


def test_replaced_segments_answer_like_a_cold_rebuild(corpus):
    corpus.apply([_mutation(7, "delete", "doc-0")])
    view = corpus.build_view()
    oracle = LotusXDatabase(corpus.checkpoint_document())
    try:
        for query in ("//article/title", "//article[./author]/year", "//author"):
            got = view.search(query, k=50, rewrite=False)
            want = oracle.search(query, k=50, rewrite=False)
            assert _body(got) == _body(want), query
    finally:
        view.close()


def _body(response) -> str:
    payload = response.as_dict()
    payload.pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True)


def _answers(view) -> list[str]:
    """A fixed request set, rendered as the bytes a client would see.
    (None of it binds the corpus root, whose width a surviving segment
    still takes in place — see ``SegmentedCorpus._patch_root_width``.)"""
    out = []
    for query in (
        "//article/title",
        '//article[./title~"placement"]/author',
        "//inproceedings//author",
        '//article[./year="2003"]/title',
    ):
        out.append(_body(view.search(query, k=20)))
    for terms in ("placement marker3", "writer 4", "study"):
        out.append(_body(view.keyword_search(terms, k=10)))
    for prefix in ("", "a", "ti"):
        out.append(repr(view.complete_tag(prefix=prefix, k=10)))
    pattern = parse_twig("//article/author")
    out.append(repr(view.complete_value(pattern, pattern.nodes()[-1], "writer", k=10)))
    pattern = parse_twig("//article/title")
    out.append(
        repr(
            view.complete_value(
                pattern, pattern.nodes()[-1], "mark", k=10, whole_values=False
            )
        )
    )
    return out


def test_captured_view_is_isolated_from_a_later_write(corpus):
    database = SegmentedDatabase(corpus)
    try:
        captured = database.view
        before = _answers(captured)

        result = corpus.apply([_mutation(7, "delete", "doc-0")])
        assert result.segments_replaced == 2
        database._install_view(corpus.build_view())

        assert _answers(captured) == before
        # The write itself is visible through the new view.
        assert _answers(database.view) != before
        assert "marker0" not in "".join(_answers(database.view))
    finally:
        database.close()


def test_one_document_writes_never_reindex_the_base(tmp_path):
    base = LotusXDatabase(generate_dblp(publications=400, seed=9))
    base_elements = len(base.labeled)
    database = open_writable_database(
        base, tmp_path / "bounded.lxwal", synchronous=True
    )
    writer = database.writer
    corpus = writer._corpus
    try:
        def step(op, doc_id, xml=None):
            before = dict(writer.counters)
            writer.submit(op, doc_id, xml)
            return {
                key: writer.counters[key] - before[key]
                for key in (
                    "segments_reindexed", "segments_replaced", "elements_reindexed"
                )
            }

        for n in range(3):
            step("insert", f"doc-{n}", _document(n))
        assert corpus.segment_count == 4

        one = subtree_element_count(parse_string(_document(9)).root)
        # insert: the new document plus its root replica, nothing else.
        delta = step("insert", "doc-9", _document(9))
        assert delta == {
            "segments_reindexed": 1,
            "segments_replaced": 0,
            "elements_reindexed": 1 + one,
        }
        # update with a size change in a middle delta: that delta is
        # re-indexed, the deltas behind it are only re-placed.
        grown = _document(1, authors=3)
        delta = step("update", "doc-1", grown)
        assert delta == {
            "segments_reindexed": 1,
            "segments_replaced": 2,
            "elements_reindexed": 1
            + subtree_element_count(parse_string(grown).root),
        }
        # delete of a whole one-document delta: nothing to index at all.
        delta = step("delete", "doc-1")
        assert delta == {
            "segments_reindexed": 0,
            "segments_replaced": 2,
            "elements_reindexed": 0,
        }

        counters = writer.statistics()["counters"]
        assert counters["elements_reindexed"] < base_elements / 10
        assert counters["segments_rebuilt"] == counters["segments_reindexed"]
        # The base segment was never rebuilt, re-placed or copied.
        assert corpus.segments[0].database is base
        assert corpus.segments[0].units is None
    finally:
        database.close()
