"""The count-built completion index against the insertion-built oracle.

``CompletionIndex`` no longer pushes tokens through a node trie: it sums
weights out of the term index's postings and packs each dict once.  The
node trie survives in ``tests/trie_oracle.py`` only as the reference —
here the old build (re-read every element's text, re-tokenize, insert
key by key) is replayed into oracle tries and every trie of the new
index must hold the same ``items()`` and answer the same
``complete(prefix, k)`` for every prefix up to three characters, over
the seeded generators and over generated documents with non-ASCII and
shared-prefix text.  A snapshot saved from a fresh build must load —
mapped and copying — to the same answers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_books, generate_dblp, generate_xmark
from repro.engine.database import LotusXDatabase
from repro.engine.store import (
    SNAPSHOT_VERSION,
    load_snapshot,
    read_snapshot_info,
    save_snapshot,
)
from repro.index.completion_index import CompletionIndex
from repro.index.term_index import TermIndex
from repro.index.text import completion_value, tokenize
from repro.labeling.assign import label_document
from repro.xmlio.tree import Document, Element, Text
from tests.trie_oracle import Trie

KS = (1, 3, 10)


def oracle_tries(labeled) -> dict:
    """The pre-packed build, verbatim: one ``Trie.add`` per tag path,
    token occurrence and value occurrence."""
    tries = {
        "tag": Trie(),
        "global_token": Trie(),
        "global_value": Trie(),
        "path_token": {},
        "path_value": {},
    }
    for path_node in labeled.guide.iter_nodes():
        tries["tag"].add(path_node.tag, path_node.count)
    for labeled_element in labeled.elements:
        text = labeled_element.element.direct_text
        if not text.strip():
            continue
        path_id = labeled_element.path_node.node_id
        for token in tokenize(text):
            tries["path_token"].setdefault(path_id, Trie()).add(token)
            tries["global_token"].add(token)
        value = completion_value(text)
        if value is not None:
            tries["path_value"].setdefault(path_id, Trie()).add(value)
            tries["global_value"].add(value)
    return tries


def index_tries(index: CompletionIndex) -> dict:
    return {
        "tag": index.tag_trie,
        "global_token": index.global_token_trie,
        "global_value": index.global_value_trie,
        "path_token": index._path_token_tries,
        "path_value": index._path_value_tries,
    }


def assert_same_trie(actual, expected, where: str) -> None:
    items = list(expected.items())
    assert list(actual.items()) == items, where
    assert len(actual) == len(expected), where
    prefixes = {"", "zzz-no-such-prefix"}
    for key, _ in items:
        prefixes.update(key[:length] for length in (1, 2, 3))
    for prefix in sorted(prefixes):
        for k in KS:
            assert actual.complete(prefix, k) == expected.complete(prefix, k), (
                f"{where}: complete({prefix!r}, {k})"
            )


def assert_same_tries(actual: dict, expected: dict) -> None:
    for name in ("tag", "global_token", "global_value"):
        assert_same_trie(actual[name], expected[name], name)
    for name in ("path_token", "path_value"):
        assert set(actual[name]) == set(expected[name]), name
        for path_id, trie in expected[name].items():
            assert_same_trie(actual[name][path_id], trie, f"{name}[{path_id}]")


def build(document: Document):
    labeled = label_document(document)
    return labeled, CompletionIndex(labeled, TermIndex(labeled))


CORPORA = {
    "dblp": lambda: generate_dblp(publications=120, seed=11),
    "xmark": lambda: generate_xmark(items=25, seed=5),
    "books": lambda: generate_books(books=40, seed=3),
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_count_built_index_matches_insertion_oracle(name):
    labeled, index = build(CORPORA[name]())
    assert_same_tries(index_tries(index), oracle_tries(labeled))


# Mixed-case tags, text that shares prefixes, and characters outside
# ASCII (which the tokenizer splits on but whole values keep).
_TAGS = st.sampled_from(["a", "ab", "Ab", "b", "é"])
_TEXT = st.text(alphabet="abAB 1-'éß中", max_size=10)


@st.composite
def documents(draw) -> Document:
    root = Element("root")
    for _ in range(draw(st.integers(0, 6))):
        child = Element(draw(_TAGS))
        child.append(Text(draw(_TEXT)))
        for _ in range(draw(st.integers(0, 2))):
            leaf = Element(draw(_TAGS))
            leaf.append(Text(draw(_TEXT)))
            child.append(leaf)
        root.append(child)
    return Document(root)


@settings(max_examples=60, deadline=None)
@given(documents())
def test_count_built_index_matches_oracle_on_generated_documents(document):
    labeled, index = build(document)
    assert_same_tries(index_tries(index), oracle_tries(labeled))


# ----------------------------------------------------------------------
# Snapshots: the packed buffers are written as they are
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fresh_db():
    return LotusXDatabase(generate_dblp(publications=80, seed=7))


@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "copying"])
def test_fresh_build_snapshot_loads_to_identical_tries(fresh_db, tmp_path, mmap):
    path = tmp_path / "fresh.lxsnap"
    save_snapshot(fresh_db, path)
    assert read_snapshot_info(path).version == SNAPSHOT_VERSION
    loaded = load_snapshot(path, mmap=mmap)
    try:
        assert_same_tries(
            index_tries(loaded.completion_index), oracle_tries(fresh_db.labeled)
        )
    finally:
        loaded.close()
