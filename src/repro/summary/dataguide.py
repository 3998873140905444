"""Strong DataGuide: a structural summary of every distinct tag path.

The DataGuide is a tree with one node per distinct root-to-element tag path
in the corpus, annotated with how many document elements share that path.
It is what makes LotusX "position-aware": given the position a user is
extending in a partially-built twig, the set of tags that can legally occur
there is read straight off the DataGuide instead of being guessed from
global tag frequencies.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.resilience.deadline import Deadline, charged
from repro.summary.paths import Path, format_path
from repro.xmlio.tree import Document, Element


class PathNode:
    """One distinct tag path in the corpus.

    Attributes
    ----------
    node_id:
        Dense integer id, assigned in discovery order (root is 0).
    tag:
        Tag name of the last path step ("" for the synthetic super-root).
    parent:
        Parent path node (None for the super-root).
    count:
        Number of document elements with exactly this path.
    text_count:
        Number of those elements that carry direct text.
    """

    __slots__ = ("node_id", "tag", "parent", "children", "count", "text_count")

    def __init__(self, node_id: int, tag: str, parent: PathNode | None) -> None:
        self.node_id = node_id
        self.tag = tag
        self.parent = parent
        self.children: dict[str, PathNode] = {}
        self.count = 0
        self.text_count = 0

    @property
    def path(self) -> Path:
        """Root-to-node tag path (excluding the synthetic super-root)."""
        parts: list[str] = []
        node: PathNode | None = self
        while node is not None and node.parent is not None:
            parts.append(node.tag)
            node = node.parent
        return tuple(reversed(parts))

    @property
    def depth(self) -> int:
        """Path length; the document root has depth 1."""
        return len(self.path)

    def child_tags(self) -> list[str]:
        """Tags that occur as children of this path, discovery order."""
        return list(self.children)

    def iter_subtree(self) -> Iterator[PathNode]:
        """This node and all path nodes below it, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children.values())))

    def descendant_tags(self) -> set[str]:
        """All tags occurring anywhere strictly below this path."""
        tags: set[str] = set()
        for node in self.iter_subtree():
            if node is not self:
                tags.add(node.tag)
        return tags

    def __repr__(self) -> str:
        return f"PathNode({format_path(self.path)}, count={self.count})"


class DataGuide:
    """Strong DataGuide over one or more documents.

    Build with :meth:`from_document` / :meth:`add_document`, or feed element
    paths manually with :meth:`add_path` (the store layer uses this to
    rebuild a guide from disk).
    """

    def __init__(self) -> None:
        self._super_root = PathNode(0, "", None)
        self._nodes: list[PathNode] = [self._super_root]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_document(cls, document: Document) -> DataGuide:
        guide = cls()
        guide.add_document(document)
        return guide

    def add_document(self, document: Document) -> None:
        """Fold every element of ``document`` into the guide."""
        self._add_element(document.root, self._super_root)

    def _add_element(self, element: Element, parent_node: PathNode) -> None:
        node = self._child_node(parent_node, element.tag)
        node.count += 1
        if element.direct_text.strip():
            node.text_count += 1
        for child in element.child_elements():
            self._add_element(child, node)

    def add_path(self, path: Path, count: int = 1, text_count: int = 0) -> PathNode:
        """Register ``path`` directly (used when loading from disk)."""
        node = self._super_root
        for tag in path:
            node = self._child_node(node, tag)
        node.count += count
        node.text_count += text_count
        return node

    def _child_node(self, parent: PathNode, tag: str) -> PathNode:
        child = parent.children.get(tag)
        if child is None:
            child = PathNode(len(self._nodes), tag, parent)
            parent.children[tag] = child
            self._nodes.append(child)
        return child

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def root_nodes(self) -> list[PathNode]:
        """Path nodes for document roots (one per distinct root tag)."""
        return list(self._super_root.children.values())

    def node(self, node_id: int) -> PathNode:
        return self._nodes[node_id]

    def node_for_path(self, path: Path) -> PathNode | None:
        """Exact-path lookup, or None if the path never occurs."""
        node = self._super_root
        for tag in path:
            node = node.children.get(tag)  # type: ignore[assignment]
            if node is None:
                return None
        return node

    def __len__(self) -> int:
        """Number of distinct paths (excluding the super-root)."""
        return len(self._nodes) - 1

    def iter_nodes(self) -> Iterator[PathNode]:
        """All path nodes (excluding the super-root), discovery order."""
        return iter(self._nodes[1:])

    def all_tags(self) -> set[str]:
        """Every tag name occurring in the corpus."""
        return {node.tag for node in self.iter_nodes()}

    def tag_count(self, tag: str) -> int:
        """Total number of elements with ``tag`` across all paths."""
        return sum(node.count for node in self.iter_nodes() if node.tag == tag)

    def tag_counts(self) -> dict[str, int]:
        """:meth:`tag_count` for every tag, in one pass over the guide."""
        counts: dict[str, int] = {}
        for node in self.iter_nodes():
            counts[node.tag] = counts.get(node.tag, 0) + node.count
        return counts

    def nodes_with_tag(self, tag: str) -> list[PathNode]:
        """All path nodes whose final step is ``tag``."""
        return [node for node in self.iter_nodes() if node.tag == tag]

    # ------------------------------------------------------------------
    # Position-aware queries
    # ------------------------------------------------------------------

    def child_tags_of(self, contexts: Iterable[PathNode]) -> dict[str, int]:
        """Tags that occur as a *child* of any context node, with counts."""
        tags: dict[str, int] = {}
        for context in contexts:
            for tag, child in context.children.items():
                tags[tag] = tags.get(tag, 0) + child.count
        return tags

    def descendant_tags_of(
        self, contexts: Iterable[PathNode], deadline: Deadline | None = None
    ) -> dict[str, int]:
        """Tags occurring anywhere *below* any of the (distinct) context
        nodes, with counts.

        A path below several nested contexts counts once per context
        above it, as if each context's subtree were walked on its own;
        one walk below the :func:`_outermost` contexts computes that,
        visiting every path once.  The paths visited are charged to
        ``deadline`` (see :func:`~repro.resilience.deadline.charged`).
        """
        tags: dict[str, int] = {}
        below = charged(_nested_below(set(contexts)), deadline, "summary.descendants")
        for node, above in below:
            tags[node.tag] = tags.get(node.tag, 0) + node.count * above
        return tags

    def __repr__(self) -> str:
        return f"DataGuide(paths={len(self)})"


def _nested_below(members: set[PathNode]) -> Iterator[tuple[PathNode, int]]:
    """Every path strictly below a member, once, with how many members
    lie above it."""
    stack = [
        (child, 1) for top in _outermost(members) for child in top.children.values()
    ]
    while stack:
        node, above = stack.pop()
        yield node, above
        if node in members:
            above += 1
        stack.extend((child, above) for child in node.children.values())


def strictly_below(nodes: Iterable[PathNode]) -> Iterator[PathNode]:
    """Every path strictly below a member of ``nodes``, once: the strict
    subtrees of the :func:`_outermost` members, in preorder."""
    for top in _outermost(nodes):
        subtree = top.iter_subtree()
        next(subtree)  # ``top`` itself
        yield from subtree


def _outermost(nodes: Iterable[PathNode]) -> list[PathNode]:
    """The members of ``nodes`` with no proper ancestor among them, in
    ``node_id`` order.

    Their subtrees are disjoint and contain every other member, so one
    walk below them reaches each path that a walk below any member would.
    """
    members = set(nodes)
    tops = []
    for node in members:
        parent = node.parent
        while parent is not None and parent not in members:
            parent = parent.parent
        if parent is None:
            tops.append(node)
    tops.sort(key=lambda node: node.node_id)
    return tops
