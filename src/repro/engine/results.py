"""Search results: ranked hits with snippets and provenance."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.labeling.assign import LabeledElement
from repro.ranking.scorer import MatchScore
from repro.twig.match import Match
from repro.twig.pattern import TwigPattern

#: Maximum snippet length in characters.
SNIPPET_LENGTH = 160


def element_xpath(
    element: LabeledElement, ordinal_offsets: dict[str, int] | None = None
) -> str:
    """Absolute positional XPath of ``element``: ``/dblp[1]/article[2]``.

    Positions are 1-based ordinals among *same-tag* siblings, matching
    XPath semantics.

    ``ordinal_offsets`` corrects the depth-1 step when ``element`` lives
    in a shard or segment holding only a slice of the root's children:
    per tag, the number of same-tag units in earlier slices.  Deeper
    ordinals are counted inside one slice-complete subtree and are exact.
    """
    steps: list[str] = []
    current: LabeledElement | None = element
    while current is not None:
        parent = current.parent
        tag = current.tag
        if parent is None:
            steps.append(f"/{tag}[1]")
        elif tag.startswith("@"):
            # Synthetic attribute node (repro.xmlio.transform): XPath
            # attribute steps carry no positional predicate.
            steps.append(f"/{tag}")
        else:
            ordinal = parent.child_ordinal(current)
            if ordinal_offsets and parent.parent is None:
                ordinal += ordinal_offsets.get(tag, 0)
            steps.append(f"/{tag}[{ordinal}]")
        current = parent
    return "".join(reversed(steps))


def make_snippet(
    element: LabeledElement,
    limit: int = SNIPPET_LENGTH,
    highlight_terms: tuple[str, ...] = (),
) -> str:
    """A one-line text preview of the element's subtree.

    With ``highlight_terms``, the window is centered on the first term
    occurrence and every term occurrence inside the window is wrapped in
    ``**…**`` (terminal- and markdown-friendly).
    """
    return snippet_from_text(
        " ".join(element.element.itertext()), limit, highlight_terms
    )


def snippet_from_text(
    raw_text: str,
    limit: int = SNIPPET_LENGTH,
    highlight_terms: tuple[str, ...] = (),
) -> str:
    """:func:`make_snippet` on pre-gathered subtree text.

    Used where the logical subtree spans several physical elements (the
    corpus root of a sharded or segmented database): the caller
    concatenates the per-shard texts and gets the exact monolithic
    snippet back.
    """
    text = " ".join(raw_text.split())
    if not highlight_terms:
        if len(text) > limit:
            text = text[: limit - 1].rstrip() + "…"
        return text

    lowered = text.lower()
    first = min(
        (lowered.find(term.lower()) for term in highlight_terms
         if lowered.find(term.lower()) != -1),
        default=-1,
    )
    start = 0
    prefix = ""
    if first > limit // 2:
        start = max(0, first - limit // 3)
        # Snap to a word boundary.
        space = text.find(" ", start)
        if space != -1 and space < first:
            start = space + 1
        prefix = "…"
    window = text[start : start + limit]
    suffix = "…" if start + limit < len(text) else ""
    for term in sorted(set(highlight_terms), key=len, reverse=True):
        window = _wrap_term(window, term)
    return prefix + window.rstrip() + suffix


def _wrap_term(text: str, term: str) -> str:
    """Wrap case-insensitive occurrences of ``term`` in ``**…**``."""
    out: list[str] = []
    lowered = text.lower()
    needle = term.lower()
    position = 0
    while True:
        found = lowered.find(needle, position)
        if found == -1:
            out.append(text[position:])
            return "".join(out)
        out.append(text[position:found])
        out.append("**" + text[found : found + len(term)] + "**")
        position = found + len(term)


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One ranked search hit.

    ``outputs`` are the elements bound to the pattern's output nodes (one
    per output node); ``score`` carries the structural/textual breakdown
    and any rewrite penalty; ``source_query`` renders the (possibly
    rewritten) pattern that produced the hit.
    """

    outputs: tuple[LabeledElement, ...]
    score: MatchScore
    match: Match
    source_query: str
    rewrite_steps: tuple[str, ...] = ()
    #: The (possibly rewritten) query's search terms, for highlighting.
    terms: tuple[str, ...] = ()

    @property
    def primary(self) -> LabeledElement:
        return self.outputs[0]

    @property
    def snippet(self) -> str:
        """Plain one-line preview (no markup)."""
        return make_snippet(self.primary)

    @property
    def highlighted_snippet(self) -> str:
        """Preview centered on and highlighting the query terms."""
        return make_snippet(self.primary, highlight_terms=self.terms)

    @property
    def xpath(self) -> str:
        return element_xpath(self.primary, self.match.ordinal_offsets)

    def fragment(self) -> str:
        """The primary output's subtree as an XML fragment.

        Synthetic attribute nodes (``@name``, from attribute expansion)
        render as ``name="value"`` since they have no element form.
        """
        return element_fragment(self.primary)

    def as_dict(self) -> dict:
        return {
            "xpath": self.xpath,
            "tag": self.primary.tag,
            "snippet": self.snippet,
            "highlighted_snippet": self.highlighted_snippet,
            "score": self.score.as_dict(),
            "source_query": self.source_query,
            "rewrite_steps": list(self.rewrite_steps),
        }


def element_fragment(element: LabeledElement) -> str:
    """Serialize ``element``'s subtree as an XML fragment.

    A synthetic attribute node renders as ``name="value"``.  For regular
    elements from an attribute-expanded database, the synthetic ``@name``
    children are stripped first — the information is already carried by
    the elements' real ``attributes``.
    """
    from repro.xmlio.escape import escape_attribute
    from repro.xmlio.serializer import serialize
    from repro.xmlio.tree import Element, Text

    if element.tag.startswith("@"):
        return f'{element.tag[1:]}="{escape_attribute(element.element.text)}"'

    def strip_synthetic(source: Element) -> Element:
        copy = Element(source.tag, dict(source.attributes))
        for child in source.children:
            if isinstance(child, Text):
                copy.append_text(child.value)
            elif isinstance(child, Element) and not child.tag.startswith("@"):
                copy.append(strip_synthetic(child))
        return copy

    return serialize(strip_synthetic(element.element))


@dataclass
class SearchResponse:
    """Full response of :meth:`repro.engine.database.LotusXDatabase.search`."""

    query: str
    results: list[SearchResult] = field(default_factory=list)
    total_matches: int = 0
    used_rewrites: bool = False
    rewrites_tried: int = 0
    elapsed_seconds: float = 0.0
    #: True when a deadline expired mid-search and ``results`` only
    #: covers what could be salvaged within the budget.
    truncated: bool = False
    #: Which corners were cut to meet the deadline (e.g. ``"deadline"``
    #: when matching was cut short, ``"rewrites-skipped"`` when rewrite
    #: exploration was abandoned to save the remaining budget).
    degraded: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "total_matches": self.total_matches,
            "used_rewrites": self.used_rewrites,
            "rewrites_tried": self.rewrites_tried,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "truncated": self.truncated,
            "degraded": list(self.degraded),
            "results": [result.as_dict() for result in self.results],
        }

    def to_xml(self) -> str:
        """The hits as one ``<results>`` document (fragment export)."""
        parts = [f'<results query="{_attr(self.query)}">']
        for result in self.results:
            parts.append(
                f'  <hit xpath="{_attr(result.xpath)}"'
                f' score="{result.score.combined:.4f}">'
            )
            fragment = result.fragment()
            if fragment.startswith("<"):
                parts.append("    " + fragment)
            else:
                parts.append(f"    <attribute {fragment}/>")
            parts.append("  </hit>")
        parts.append("</results>")
        return "\n".join(parts)


def _attr(value: str) -> str:
    from repro.xmlio.escape import escape_attribute

    return escape_attribute(value)
