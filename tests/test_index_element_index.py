"""Stream factory: per-tag and filtered columnar streams."""

import pytest

from repro.index.element_index import StreamFactory
from repro.index.term_index import TermIndex
from repro.labeling.assign import label_document
from repro.xmlio.builder import parse_string


@pytest.fixture()
def factory():
    doc = parse_string(
        "<r><a>one</a><b><a>two</a></b><a>three</a><c/></r>"
    )
    labeled = label_document(doc)
    return labeled, StreamFactory(labeled, TermIndex(labeled))


class TestStreams:
    def test_tag_stream(self, factory):
        _, streams = factory
        view = streams.columnar_stream("a")
        assert [e.tag for e in view.elements] == ["a", "a", "a"]
        assert list(view.starts) == [e.region.start for e in view.elements]

    def test_wildcard_stream_is_all_elements(self, factory):
        labeled, streams = factory
        assert list(streams.columnar_stream(None).elements) == labeled.elements

    def test_missing_tag_stream_empty(self, factory):
        _, streams = factory
        assert len(streams.columnar_stream("zzz")) == 0

    def test_filtered_stream(self, factory):
        _, streams = factory
        term_index = streams.term_index
        filtered = streams.filtered_columnar_stream(
            "a", lambda el: term_index.subtree_contains(el, "two")
        )
        assert len(filtered) == 1
        assert filtered.elements[0].element.text == "two"

    def test_no_filter_returns_base(self, factory):
        _, streams = factory
        assert streams.columnar_stream("a") is streams.columnar.stream("a")
