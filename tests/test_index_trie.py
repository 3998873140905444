"""The node-trie oracle itself: weighted top-k completion, including a brute-force property."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.trie_oracle import Trie


@pytest.fixture()
def loaded():
    trie = Trie()
    for key, weight in [
        ("author", 10),
        ("article", 25),
        ("art", 3),
        ("booktitle", 7),
        ("book", 12),
        ("year", 40),
    ]:
        trie.add(key, weight)
    return trie


class TestBasics:
    def test_len_counts_distinct_keys(self, loaded):
        assert len(loaded) == 6

    def test_weight_lookup(self, loaded):
        assert loaded.weight("article") == 25
        assert loaded.weight("absent") == 0

    def test_contains(self, loaded):
        assert "book" in loaded
        assert "boo" not in loaded  # prefix but not a key

    def test_add_accumulates(self):
        trie = Trie()
        trie.add("x", 2)
        trie.add("x", 3)
        assert trie.weight("x") == 5
        assert len(trie) == 1

    def test_nonpositive_weight_rejected(self):
        trie = Trie()
        with pytest.raises(ValueError):
            trie.add("x", 0)

    def test_empty_key_supported(self):
        trie = Trie()
        trie.add("", 4)
        assert trie.weight("") == 4
        assert len(trie) == 1


class TestCompletion:
    def test_orders_by_weight(self, loaded):
        assert [k for k, _ in loaded.complete("a")] == ["article", "author", "art"]

    def test_prefix_filters(self, loaded):
        assert [k for k, _ in loaded.complete("boo")] == ["book", "booktitle"]

    def test_k_limits(self, loaded):
        assert len(loaded.complete("", k=2)) == 2
        assert [k for k, _ in loaded.complete("", k=2)] == ["year", "article"]

    def test_missing_prefix_empty(self, loaded):
        assert loaded.complete("zzz") == []

    def test_k_zero(self, loaded):
        assert loaded.complete("a", k=0) == []

    def test_exact_key_is_candidate(self, loaded):
        assert ("book", 12) in loaded.complete("book")

    def test_ties_break_alphabetically(self):
        trie = Trie()
        for key in ["beta", "alpha", "gamma"]:
            trie.add(key, 5)
        assert [k for k, _ in trie.complete("")] == ["alpha", "beta", "gamma"]


class TestIteration:
    def test_iter_prefix_lexicographic(self, loaded):
        keys = [k for k, _ in loaded.iter_prefix("a")]
        assert keys == sorted(keys)
        assert keys == ["art", "article", "author"]

    def test_items_covers_everything(self, loaded):
        assert len(list(loaded.items())) == len(loaded)


# ---------------------------------------------------------------------------
# Property: complete() == brute-force top-k
# ---------------------------------------------------------------------------

keys = st.text(alphabet="abc", min_size=0, max_size=6)


@given(
    entries=st.lists(st.tuples(keys, st.integers(1, 50)), max_size=40),
    prefix=st.text(alphabet="abc", max_size=3),
    k=st.integers(1, 10),
)
@settings(max_examples=200, deadline=None)
def test_complete_matches_bruteforce(entries, prefix, k):
    trie = Trie()
    weights: dict[str, int] = {}
    for key, weight in entries:
        trie.add(key, weight)
        weights[key] = weights.get(key, 0) + weight
    expected = sorted(
        ((key, weight) for key, weight in weights.items() if key.startswith(prefix)),
        key=lambda item: (-item[1], item[0]),
    )[:k]
    assert trie.complete(prefix, k) == expected


def test_complete_large_random_against_bruteforce():
    rng = random.Random(9)
    trie = Trie()
    weights: dict[str, int] = {}
    for _ in range(2000):
        key = "".join(rng.choice("abcdef") for _ in range(rng.randint(1, 8)))
        weight = rng.randint(1, 100)
        trie.add(key, weight)
        weights[key] = weights.get(key, 0) + weight
    for prefix in ["", "a", "ab", "abc", "f", "zzz"]:
        expected = sorted(
            (
                (key, weight)
                for key, weight in weights.items()
                if key.startswith(prefix)
            ),
            key=lambda item: (-item[1], item[0]),
        )[:10]
        assert trie.complete(prefix, 10) == expected
