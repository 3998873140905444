"""Label assignment: region labels and path nodes agree with the tree."""

import pytest

from repro.index.columnar import ColumnarIndex
from repro.labeling.assign import label_document
from repro.xmlio.builder import parse_string


@pytest.fixture()
def labeled():
    return label_document(
        parse_string(
            "<r><a><b>x</b><c/></a><a><b>y</b></a><d><a><b>z</b></a></d></r>"
        )
    )


class TestBasicAssignment:
    def test_every_element_labeled(self, labeled):
        assert len(labeled) == labeled.document.count_elements()

    def test_elements_in_document_order(self, labeled):
        starts = [element.region.start for element in labeled.elements]
        assert starts == sorted(starts)

    def test_root_label(self, labeled):
        root = labeled.elements[0]
        assert root.region.level == 0
        assert root.path_node.path == ("r",)
        assert root.parent is None

    def test_levels_match_depth(self, labeled):
        for element in labeled.elements:
            assert element.region.level == len(element.element.path()) - 1

    def test_parent_links(self, labeled):
        for element in labeled.elements:
            if element.parent is not None:
                assert element.parent.element is element.element.parent
                assert element.parent.region.is_parent_of(element.region)

    def test_path_node_matches_path(self, labeled):
        for element in labeled.elements:
            assert element.path_node.path == element.element.path()


class TestConsistencyAcrossLabelKinds:
    def test_region_agrees_with_tree_ancestry(self, labeled):
        elements = labeled.elements
        for first in elements:
            descendants = set(map(id, first.element.iter_descendants()))
            for second in elements:
                assert first.region.is_ancestor_of(second.region) == (
                    id(second.element) in descendants
                )

    def test_all_orders_agree(self, labeled):
        by_region = sorted(labeled.elements, key=lambda e: e.region)
        assert by_region == labeled.elements
        assert [e.order for e in labeled.elements] == list(range(len(labeled)))

    def test_columnar_path_ids_match_path_nodes(self, labeled):
        index = ColumnarIndex.from_labeled(labeled)
        for tag in (None, *labeled.tags()):
            stream = index.stream(tag)
            assert list(stream.path_ids) == [
                e.path_node.node_id for e in stream.elements
            ]


class TestLookup:
    def test_label_of(self, labeled):
        b = labeled.document.root.find("a").find("b")
        assert labeled.label_of(b).element is b

    def test_label_of_foreign_element_raises(self, labeled):
        from repro.xmlio.tree import Element

        with pytest.raises(KeyError):
            labeled.label_of(Element("stranger"))

    def test_stream_in_document_order(self, labeled):
        stream = labeled.stream("b")
        assert len(stream) == 3
        starts = [element.region.start for element in stream]
        assert starts == sorted(starts)

    def test_stream_missing_tag_empty(self, labeled):
        assert labeled.stream("zzz") == []

    def test_tags(self, labeled):
        assert labeled.tags() == {"r", "a", "b", "c", "d"}
