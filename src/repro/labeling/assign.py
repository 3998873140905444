"""Label assignment: one pass that attaches every label to every element.

:func:`label_document` walks a parsed tree and produces a
:class:`LabeledDocument` in which every element carries

* a region label (``start``/``end``/``level``) — O(1) structural tests,
* its DataGuide path node — position identity for completion, validation
  and stream pruning (two elements share a path node exactly when they
  share their root-to-element tag path).

The DataGuide is built in a first cheap pass, then labels are assigned in
a second preorder pass.

:func:`place_labeled` is the second, much cheaper stage a sharded or
segmented corpus adds: it copies a labeled document to a position in a
larger corpus's tick space without relabeling anything else.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.labeling.region import Region
from repro.summary.dataguide import DataGuide, PathNode
from repro.xmlio.tree import Document, Element


class LabeledElement:
    """An element plus every label the engine needs.

    ``order`` is the element's preorder index (0-based, document order) and
    doubles as a dense id for side tables.
    """

    __slots__ = (
        "element",
        "order",
        "region",
        "path_node",
        "parent",
        "_child_ordinals",
    )

    def __init__(
        self,
        element: Element,
        order: int,
        region: Region,
        path_node: PathNode,
        parent: LabeledElement | None,
    ) -> None:
        self.element = element
        self.order = order
        self.region = region
        self.path_node = path_node
        self.parent = parent
        #: id(child element) -> 1-based ordinal among same-tag siblings;
        #: built on the first :meth:`child_ordinal` call.
        self._child_ordinals: dict[int, int] | None = None

    @property
    def tag(self) -> str:
        return self.element.tag

    def child_ordinal(self, child: LabeledElement) -> int:
        """1-based position of ``child`` among this element's children
        with the same tag (the XPath positional predicate).

        The first call counts all children once; the table lives and
        dies with this labeled tree, whose element children never change
        after labeling.
        """
        ordinals = self._child_ordinals
        if ordinals is None:
            ordinals = {}
            counts: dict[str, int] = {}
            for sibling in self.element.child_elements():
                count = counts.get(sibling.tag, 0) + 1
                counts[sibling.tag] = count
                ordinals[id(sibling)] = count
            self._child_ordinals = ordinals
        return ordinals[id(child.element)]

    @property
    def level(self) -> int:
        return self.region.level

    def is_ancestor_of(self, other: LabeledElement) -> bool:
        return self.region.is_ancestor_of(other.region)

    def is_parent_of(self, other: LabeledElement) -> bool:
        return self.region.is_parent_of(other.region)

    def __repr__(self) -> str:
        return f"LabeledElement({self.tag!r}, {self.region})"


class LabeledDocument:
    """A document with labels assigned and per-tag streams materialized."""

    def __init__(
        self,
        document: Document,
        guide: DataGuide,
        elements: list[LabeledElement],
    ) -> None:
        self.document = document
        self.guide = guide
        #: All labeled elements in document (preorder) order.
        self.elements = elements
        self._by_element_id = {id(le.element): le for le in elements}
        self._by_tag: dict[str, list[LabeledElement]] = {}
        for labeled in elements:
            self._by_tag.setdefault(labeled.tag, []).append(labeled)

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __getstate__(self):
        # _by_element_id is keyed by id(), which is not stable across
        # processes; drop it (and the other derived tables) and rebuild.
        return (self.document, self.guide, self.elements)

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def label_of(self, element: Element) -> LabeledElement:
        """The labels of ``element`` (must belong to this document)."""
        try:
            return self._by_element_id[id(element)]
        except KeyError:
            raise KeyError(f"element {element!r} is not part of this document") from None

    def stream(self, tag: str) -> list[LabeledElement]:
        """All elements with ``tag``, in document order (shared list —
        callers must not mutate)."""
        return self._by_tag.get(tag, [])

    def tags(self) -> set[str]:
        return set(self._by_tag)

    def __len__(self) -> int:
        return len(self.elements)

    def iter_elements(self) -> Iterator[LabeledElement]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"LabeledDocument(elements={len(self.elements)}, paths={len(self.guide)})"


def label_document(document: Document) -> LabeledDocument:
    """Assign all labels to ``document`` and return the labeled view."""
    guide = DataGuide.from_document(document)
    elements: list[LabeledElement] = []
    counter = 0  # shared start/end counter for region labels

    root_path_node = guide.node_for_path((document.root.tag,))
    assert root_path_node is not None  # the guide was built from this document

    def walk(
        element: Element,
        level: int,
        path_node: PathNode,
        parent: LabeledElement | None,
    ) -> None:
        nonlocal counter
        start = counter
        counter += 1
        # Recorded in preorder; the region end is known once the subtree
        # has been walked.
        labeled = LabeledElement(element, len(elements), None, path_node, parent)
        elements.append(labeled)
        children = path_node.children
        for child in element.child_elements():
            walk(child, level + 1, children[child.tag], labeled)
        labeled.region = Region(start, counter, level)
        counter += 1

    walk(document.root, 0, root_path_node, None)
    return LabeledDocument(document, guide, elements)


def place_labeled(
    labeled: LabeledDocument, tick_delta: int, root_end: int
) -> LabeledDocument:
    """A copy of ``labeled`` at another position in a corpus's tick space.

    Every non-root region moves by ``tick_delta`` ticks and the root
    spans ``(0, root_end)``.  The copy consists of *new*
    :class:`LabeledElement` objects — whoever still holds ``labeled``
    keeps reading the old position — over the same document, guide and
    path nodes, none of which depend on the position.  Orders are
    unchanged, so every order-keyed index built over ``labeled`` serves
    the copy as it is.
    """
    placed: list[LabeledElement] = []
    for source in labeled.elements:
        region = source.region
        parent = source.parent
        if parent is None:
            region = Region(0, root_end, 0)
        elif tick_delta:
            region = Region(
                region.start + tick_delta, region.end + tick_delta, region.level
            )
        copy = LabeledElement(
            source.element,
            source.order,
            region,
            source.path_node,
            # Preorder: a parent is placed before its children.
            None if parent is None else placed[parent.order],
        )
        copy._child_ordinals = source._child_ordinals
        placed.append(copy)
    return LabeledDocument(labeled.document, labeled.guide, placed)
