"""The lotusx command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.xml"
    exit_code = main(
        ["generate", "dblp", "--size", "30", "--seed", "4", "-o", str(path)]
    )
    assert exit_code == 0
    return str(path)


class TestGenerate:
    def test_stdout_output(self, capsys):
        assert main(["generate", "books", "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<catalog>")

    def test_unknown_dataset_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "mystery"])


class TestStats:
    def test_prints_key_figures(self, corpus, capsys):
        assert main(["stats", corpus]) == 0
        out = capsys.readouterr().out
        assert "element_count" in out
        assert "distinct_paths" in out

    def test_missing_file_is_error(self, capsys):
        assert main(["stats", "/nonexistent.xml"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSearch:
    def test_human_output(self, corpus, capsys):
        assert main(["search", corpus, "//article/author", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert "/dblp[1]/" in out

    def test_json_output(self, corpus, capsys):
        assert main(["search", corpus, "//article/title", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"]

    def test_bad_query_is_error(self, corpus, capsys):
        assert main(["search", corpus, "//a[["]) == 1
        assert "error:" in capsys.readouterr().err

    def test_algorithm_flag(self, corpus, capsys):
        assert (
            main(["search", corpus, "//article/author", "--algorithm", "naive"]) == 0
        )

    def test_no_rewrite_flag(self, corpus, capsys):
        assert main(["search", corpus, "//article/zzzz", "--no-rewrite"]) == 0
        assert "0 matches" in capsys.readouterr().out


class TestComplete:
    def test_tag_completion(self, corpus, capsys):
        assert main(["complete", corpus, "--query", "//article", "--prefix", "t"]) == 0
        assert "title" in capsys.readouterr().out

    def test_first_node_completion(self, corpus, capsys):
        assert main(["complete", corpus, "--prefix", "a"]) == 0
        assert "article" in capsys.readouterr().out

    def test_value_completion(self, corpus, capsys):
        assert (
            main(
                [
                    "complete",
                    corpus,
                    "--query",
                    "//article/year",
                    "--node",
                    "1",
                    "--values",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.strip()  # some year values proposed


class TestKeyword:
    def test_keyword_search(self, corpus, capsys):
        assert main(["keyword", corpus, "xml twig", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "answers for terms" in out

    def test_keyword_elca_semantics(self, corpus, capsys):
        assert (
            main(["keyword", corpus, "xml", "--semantics", "elca", "-k", "2"]) == 0
        )

    def test_bad_semantics_rejected(self, corpus):
        with pytest.raises(SystemExit):
            main(["keyword", corpus, "xml", "--semantics", "bogus"])


class TestSchemaAndProfile:
    def test_schema_prints_dtd(self, corpus, capsys):
        assert main(["schema", corpus]) == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT dblp" in out
        assert "#PCDATA" in out

    def test_profile_prints_all_algorithms(self, corpus, capsys):
        assert main(["profile", corpus, "//article[./author]/title"]) == 0
        out = capsys.readouterr().out
        for name in ("structural-join", "twig-stack"):
            assert name in out

    def test_profile_path_query_includes_pathstack(self, corpus, capsys):
        assert main(["profile", corpus, "//article/author"]) == 0
        assert "path-stack" in capsys.readouterr().out


class TestExamplesAndSamples:
    def test_examples_lists_starter_queries(self, corpus, capsys):
        assert main(["examples", corpus, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("--") >= 3
        assert "//" in out

    def test_samples_prints_match_counts(self, corpus, capsys):
        assert main(["samples", corpus, "--count", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert all("matches" in line for line in out)

    def test_samples_deterministic(self, corpus, capsys):
        main(["samples", corpus, "--count", "2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["samples", corpus, "--count", "2", "--seed", "5"])
        assert capsys.readouterr().out == first


class TestGlobalFlags:
    def test_expand_attributes_flag(self, corpus, capsys):
        assert (
            main(["--expand-attributes", "search", corpus, "//article/@key", "-k", "2"])
            == 0
        )
        assert "@key" in capsys.readouterr().out

    def test_generate_treebank(self, capsys):
        assert main(["generate", "treebank", "--size", "3"]) == 0
        assert capsys.readouterr().out.startswith("<treebank>")


class TestExplainAndSave:
    def test_explain(self, corpus, capsys):
        assert main(["explain", corpus, "//article/author"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["algorithm"] == "path-stack"

    def test_index_is_the_persistence_command(self, corpus, capsys, tmp_path):
        from repro.engine.store import SNAPSHOT_VERSION, read_snapshot_info

        target = tmp_path / "corpus.lxsnap"
        assert main(["index", corpus, str(target)]) == 0
        assert read_snapshot_info(target).version == SNAPSHOT_VERSION
        with pytest.raises(SystemExit):
            main(["save", corpus, str(tmp_path / "store")])


class TestServeWritableFlags:
    """`serve --writable` flag validation fails fast, before binding."""

    def test_wal_without_writable_is_error(self, corpus, capsys):
        assert main(["serve", corpus, "--wal", "/tmp/x.lxwal"]) == 1
        assert "--wal requires --writable" in capsys.readouterr().err

    def test_writable_rejects_sharded_serving(self, corpus, capsys):
        assert main(["serve", corpus, "--writable", "--shards", "2"]) == 1
        assert "monolithic" in capsys.readouterr().err

    def test_writable_rejects_replicas(self, corpus, capsys):
        assert main(["serve", corpus, "--writable", "--replicas", "2"]) == 1
        assert "--replicas" in capsys.readouterr().err

    def test_writable_rejects_expand_attributes(self, corpus, capsys):
        code = main(["--expand-attributes", "serve", corpus, "--writable"])
        assert code == 1
        assert "--expand-attributes" in capsys.readouterr().err


class TestCorpusSpec:
    """`--corpus NAME=PATH[,OPT=VAL...]` decoding."""

    def test_bare_spec(self):
        from repro.cli import _parse_corpus_spec

        name, path, options = _parse_corpus_spec("dblp=data/dblp.xml")
        assert (name, path) == ("dblp", "data/dblp.xml")
        assert options == {
            "quota": None, "shards": 1, "writable": False, "wal": None
        }

    def test_all_options(self):
        from repro.cli import _parse_corpus_spec

        _, path, options = _parse_corpus_spec(
            "a=a.xml,quota=2,shards=3"
        )
        assert path == "a.xml"
        assert options["quota"] == 2
        assert options["shards"] == 3

    def test_writable_and_wal(self):
        from repro.cli import _parse_corpus_spec

        _, _, options = _parse_corpus_spec("a=a.xml,writable=1,wal=w.lxwal")
        assert options["writable"] is True
        assert options["wal"] == "w.lxwal"
        _, _, options = _parse_corpus_spec("a=a.xml,writable=0")
        assert options["writable"] is False

    @pytest.mark.parametrize(
        "spec,fragment",
        [
            ("nopath", "NAME=PATH"),
            ("=x.xml", "NAME=PATH"),
            ("a=", "NAME=PATH"),
            ("a=a.xml,color=red", "unknown option"),
            ("a=a.xml,quota=0", "quota must be at least 1"),
            ("a=a.xml,shards=0", "shards must be at least 1"),
            ("a=a.xml,writable=1,shards=2", "cannot shard"),
        ],
    )
    def test_bad_specs_are_rejected(self, spec, fragment):
        from repro.cli import _parse_corpus_spec

        with pytest.raises(ValueError, match=fragment):
            _parse_corpus_spec(spec)


class TestServeTenantFlags:
    """Multi-tenant serve flag validation fails fast, before loading."""

    def test_default_tenant_requires_corpus(self, corpus, capsys):
        code = main(["serve", corpus, "--default-tenant", "a"])
        assert code == 1
        assert "require --corpus" in capsys.readouterr().err

    def test_tenant_admin_requires_corpus(self, corpus, capsys):
        assert main(["serve", corpus, "--tenant-admin"]) == 1
        assert "require --corpus" in capsys.readouterr().err

    def test_corpus_excludes_positional(self, corpus, capsys):
        code = main(["serve", corpus, "--corpus", f"a={corpus}"])
        assert code == 1
        assert "cannot be combined" in capsys.readouterr().err

    def test_corpus_excludes_snapshot(self, corpus, capsys):
        code = main(
            ["serve", "--corpus", f"a={corpus}", "--snapshot", "/tmp/s"]
        )
        assert code == 1
        assert "cannot be combined" in capsys.readouterr().err

    def test_corpus_excludes_top_level_writable(self, corpus, capsys):
        code = main(["serve", "--corpus", f"a={corpus}", "--writable"])
        assert code == 1
        assert "writable=1" in capsys.readouterr().err

    def test_default_tenant_must_name_a_corpus(self, corpus, capsys):
        code = main(
            [
                "serve",
                "--corpus",
                f"a={corpus}",
                "--default-tenant",
                "missing",
            ]
        )
        assert code == 1
        assert "not a --corpus" in capsys.readouterr().err


class TestTenantSubcommand:
    """`lotusx tenant ...` against a live multi-tenant server."""

    @pytest.fixture()
    def live_server(self, corpus):
        import threading

        from repro.server.aio import make_async_server
        from repro.server.reload import DatabaseHolder, ReloadSource
        from repro.tenant.registry import TenantRegistry

        registry = TenantRegistry()
        source = ReloadSource("xml", corpus)
        registry.add(
            "dblp", holder=DatabaseHolder(source.build(), source, label="dblp")
        )
        server = make_async_server(registry)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    def test_list_prints_the_table(self, live_server, capsys):
        assert main(["tenant", "list", "--url", live_server]) == 0
        out = capsys.readouterr().out
        assert "*dblp" in out  # the default marker hugs the name column
        assert "(* = default; admin off)" in out

    def test_reload_reports_the_new_generation(self, live_server, capsys):
        code = main(["tenant", "reload", "dblp", "--url", live_server])
        assert code == 0
        out = capsys.readouterr().out
        assert "reloaded tenant dblp: generation 2" in out

    def test_add_against_admin_off_server_fails(
        self, live_server, corpus, capsys
    ):
        code = main(["tenant", "add", "extra", corpus, "--url", live_server])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_reload_unknown_tenant_fails(self, live_server, capsys):
        code = main(["tenant", "reload", "ghost", "--url", live_server])
        assert code == 1
        assert "unknown_tenant" in capsys.readouterr().err
