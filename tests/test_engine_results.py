"""Search result objects: xpaths, snippets, serialization."""

from repro.engine.results import element_xpath, make_snippet


class TestElementXPath:
    def test_positions_count_same_tag_siblings(self, small_labeled):
        articles = small_labeled.stream("article")
        assert element_xpath(articles[0]) == "/dblp[1]/article[1]"
        assert element_xpath(articles[1]) == "/dblp[1]/article[2]"

    def test_mixed_tags_get_independent_counters(self, small_labeled):
        inproceedings = small_labeled.stream("inproceedings")
        # inproceedings records come after two articles but count as [1], [2].
        assert element_xpath(inproceedings[0]) == "/dblp[1]/inproceedings[1]"

    def test_deep_path(self, small_labeled):
        editor_author = [
            e for e in small_labeled.stream("author") if e.parent.tag == "editor"
        ][0]
        assert (
            element_xpath(editor_author)
            == "/dblp[1]/book[1]/editor[1]/author[1]"
        )

    def test_root(self, small_labeled):
        assert element_xpath(small_labeled.elements[0]) == "/dblp[1]"

    def test_interleaved_siblings_match_a_sibling_scan(self):
        from repro.labeling.assign import label_document
        from repro.xmlio.builder import parse_string

        labeled = label_document(
            parse_string(
                "<r><a/><b><c/><a/><c/></b><a/>text<b/><a><a/></a><b/></r>"
            )
        )
        for element in labeled.elements[1:]:
            siblings = element.parent.element.child_elements()
            ordinal = [s for s in siblings if s.tag == element.tag].index(
                element.element
            ) + 1
            assert element_xpath(element).endswith(f"/{element.tag}[{ordinal}]")
        assert element_xpath(labeled.elements[-1]) == "/r[1]/b[3]"

    def test_siblings_are_counted_once_per_parent(self, monkeypatch):
        from repro.labeling.assign import label_document
        from repro.xmlio.builder import parse_string
        from repro.xmlio.tree import Element

        labeled = label_document(
            parse_string("<r>" + "<a><b/><b/></a>" * 50 + "</r>")
        )
        scans = []
        original = Element.child_elements
        monkeypatch.setattr(
            Element,
            "child_elements",
            lambda self: (scans.append(self.tag), original(self))[1],
        )
        paths = [element_xpath(b) for b in labeled.stream("b")]
        assert paths[-1] == "/r[1]/a[50]/b[2]" and len(set(paths)) == 100
        # One scan of <r>'s children and one per <a> — not one per path.
        assert scans.count("r") == 1 and scans.count("a") == 50

    def test_ordinal_offsets_shift_depth_one_only(self, small_labeled):
        editor_author = [
            e for e in small_labeled.stream("author") if e.parent.tag == "editor"
        ][0]
        offsets = {"book": 4, "author": 9, "dblp": 3}
        assert (
            element_xpath(editor_author, offsets)
            == "/dblp[1]/book[5]/editor[1]/author[1]"
        )
        assert element_xpath(small_labeled.elements[0], offsets) == "/dblp[1]"
        assert element_xpath(editor_author, {}) == element_xpath(editor_author)

    def test_attribute_nodes_carry_no_ordinal(self):
        from repro.engine.database import LotusXDatabase

        db = LotusXDatabase.from_string(
            '<r><a key="k1"/><a key="k2"/></r>', expand_attributes=True
        )
        keys = db.labeled.stream("@key")
        assert [element_xpath(k) for k in keys] == ["/r[1]/a[1]/@key", "/r[1]/a[2]/@key"]


class TestSnippet:
    def test_whitespace_collapsed(self, small_labeled):
        root_snippet = make_snippet(small_labeled.elements[0])
        assert "\n" not in root_snippet

    def test_truncated_with_ellipsis(self, small_labeled):
        snippet = make_snippet(small_labeled.elements[0], limit=20)
        assert len(snippet) <= 20
        assert snippet.endswith("…")

    def test_short_text_untouched(self, small_labeled):
        year = small_labeled.stream("year")[0]
        assert make_snippet(year) == "2002"


class TestSearchResultDict:
    def test_as_dict_fields(self, small_db):
        hit = small_db.search("//article/title").results[0]
        data = hit.as_dict()
        assert set(data) == {
            "xpath",
            "tag",
            "snippet",
            "highlighted_snippet",
            "score",
            "source_query",
            "rewrite_steps",
        }
        assert data["tag"] == "title"


class TestHighlighting:
    def test_terms_wrapped(self, small_db):
        hit = small_db.search('//article[./title~"twig"]').results[0]
        assert "**twig**" in hit.highlighted_snippet

    def test_no_terms_no_markup(self, small_db):
        hit = small_db.search("//article/title").results[0]
        assert "**" not in hit.highlighted_snippet

    def test_window_centers_on_term(self, small_labeled):
        long_element = small_labeled.elements[0]  # whole corpus text
        snippet = make_snippet(
            long_element, limit=40, highlight_terms=("springer",)
        )
        assert "**springer**" in snippet
        assert snippet.startswith("…")

    def test_case_insensitive_highlight(self):
        from repro.engine.database import LotusXDatabase

        db = LotusXDatabase.from_string("<r><t>The TWIG joins</t></r>")
        hit = db.search('//t[.~"twig"]').results[0]
        assert "**TWIG**" in hit.highlighted_snippet


class TestFragmentExport:
    def test_fragment_is_valid_xml(self, small_db):
        hit = small_db.search("//article", rewrite=False).results[0]
        from repro.xmlio.builder import parse_string

        fragment = hit.fragment()
        assert parse_string(fragment).root.tag == "article"

    def test_fragment_strips_synthetic_attribute_nodes(self):
        from repro.engine.database import LotusXDatabase
        from repro.xmlio.builder import parse_string

        db = LotusXDatabase.from_string(
            '<r><a k="v"><b>x</b></a></r>', expand_attributes=True
        )
        fragment = db.search("//a", rewrite=False).results[0].fragment()
        parsed = parse_string(fragment)
        assert parsed.root.attributes == {"k": "v"}
        assert [c.tag for c in parsed.root.child_elements()] == ["b"]

    def test_attribute_node_fragment(self):
        from repro.engine.database import LotusXDatabase

        db = LotusXDatabase.from_string(
            '<r><a k="v&quot;q"/></r>', expand_attributes=True
        )
        fragment = db.search("//a/@k", rewrite=False).results[0].fragment()
        assert fragment == 'k="v&quot;q"'

    def test_response_to_xml_parses(self, small_db):
        from repro.xmlio.builder import parse_string

        response = small_db.search('//article[./title~"twig"]', rewrite=False)
        document = parse_string(response.to_xml())
        assert document.root.tag == "results"
        hits = document.root.find_all("hit")
        assert len(hits) == len(response)
        assert hits[0].attributes["xpath"].startswith("/dblp")
