"""PackedTrie equivalence: the flat, mmap-servable completion trie must
be observably identical to the list-node :class:`Trie` it replaced (kept
in ``tests/trie_oracle.py`` as the reference).

The contract is exact, not approximate: ``complete`` returns the same
top-k in the same order (descending weight, ties alphabetical),
``iter_prefix``/``items`` the same lexicographic streams, ``weight`` and
``in`` the same point lookups — over adversarial key sets (prefixes of
each other, equal weights, unicode, empty) and over both heap-backed and
``memoryview``-backed buffers.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.index.packed import (
    PackedTrie,
    build_rmq,
    pack_items,
    rmq_table_length,
)
from tests.trie_oracle import Trie

WORDS = [
    "a", "ab", "abc", "abd", "b", "ba", "banana", "band", "bandit",
    "año", "ärm", "中文", "中国", "zz", "z",
]


def _random_trie(rng: random.Random, size: int) -> Trie:
    trie = Trie()
    for _ in range(size):
        if rng.random() < 0.5:
            key = rng.choice(WORDS)
        else:
            key = "".join(rng.choice("abcdxyz") for _ in range(rng.randint(1, 6)))
        # Repeated adds accumulate weight, like the real indexes do;
        # small range forces plenty of equal-weight ties.
        trie.add(key, rng.randint(1, 4))
    return trie


def _prefixes(trie: Trie, rng: random.Random) -> list[str]:
    keys = [key for key, _ in trie.items()]
    probes = ["", "a", "ab", "ban", "中", "nope", "zzz"]
    for key in rng.sample(keys, min(5, len(keys))):
        probes.append(key)
        probes.append(key[: max(1, len(key) // 2)])
        probes.append(key + "x")
    return probes


@pytest.mark.parametrize("seed", range(20))
def test_packed_matches_trie_exactly(seed):
    rng = random.Random(seed)
    trie = _random_trie(rng, rng.randint(1, 60))
    packed = PackedTrie.from_trie(trie)

    assert len(packed) == len(trie)
    assert list(packed.items()) == list(trie.items())
    for prefix in _prefixes(trie, rng):
        assert list(packed.iter_prefix(prefix)) == list(trie.iter_prefix(prefix))
        for k in (0, 1, 2, 5, 1000):
            assert packed.complete(prefix, k) == trie.complete(prefix, k), (
                f"seed={seed} prefix={prefix!r} k={k}"
            )
    for key, weight in trie.items():
        assert packed.weight(key) == weight
        assert key in packed
    assert "definitely-not-present" not in packed
    assert packed.weight("definitely-not-present") == 0


def test_empty_trie():
    packed = PackedTrie.from_trie(Trie())
    assert len(packed) == 0
    assert packed.complete("", 10) == []
    assert list(packed.items()) == []
    assert "x" not in packed


def test_prefix_of_another_key():
    trie = Trie()
    for key, weight in [("a", 1), ("ab", 5), ("abc", 3), ("b", 2)]:
        trie.add(key, weight)
    packed = PackedTrie.from_trie(trie)
    assert packed.complete("a", 10) == trie.complete("a", 10)
    assert packed.complete("ab", 10) == trie.complete("ab", 10)
    assert list(packed.iter_prefix("a")) == list(trie.iter_prefix("a"))


def test_equal_weights_break_ties_alphabetically():
    trie = Trie()
    for key in ["delta", "alpha", "charlie", "bravo"]:
        trie.add(key, 7)
    packed = PackedTrie.from_trie(trie)
    assert packed.complete("", 10) == [
        ("alpha", 7), ("bravo", 7), ("charlie", 7), ("delta", 7)
    ]
    assert packed.complete("", 2) == [("alpha", 7), ("bravo", 7)]


def test_pack_items_rejects_unsorted_keys():
    with pytest.raises(ValueError):
        pack_items([("b", 1), ("a", 2)])
    with pytest.raises(ValueError):
        pack_items([("a", 1), ("a", 2)])


def test_rmq_table_matches_naive_argmax():
    rng = random.Random(99)
    weights = [rng.randint(0, 9) for _ in range(37)]
    assert len(build_rmq(weights)) == rmq_table_length(len(weights))
    keys = [f"k{i:03d}" for i in range(len(weights))]
    packed = PackedTrie(*pack_items(zip(keys, weights)))
    for lo in range(len(weights)):
        for hi in range(lo + 1, len(weights) + 1):
            best = packed._argmax(lo, hi)
            naive = max(range(lo, hi), key=lambda i: (weights[i], -i))
            assert best == naive, f"[{lo}, {hi})"


def test_memoryview_backed_buffers():
    """The loader hands the trie mmap-backed memoryviews, not arrays —
    results must be identical."""
    trie = _random_trie(random.Random(5), 40)
    blob, offsets, weights, rmq = pack_items(trie.items())
    packed = PackedTrie(
        memoryview(blob),
        memoryview(offsets.tobytes()).cast("q"),
        memoryview(weights.tobytes()).cast("q"),
        memoryview(rmq.tobytes()).cast("q"),
    )
    reference = PackedTrie(blob, offsets, weights, rmq)
    assert list(packed.items()) == list(trie.items())
    for prefix in ("", "a", "ab", "ba", "中"):
        assert packed.complete(prefix, 10) == reference.complete(prefix, 10)
        assert packed.complete(prefix, 10) == trie.complete(prefix, 10)


def test_single_key():
    trie = Trie()
    trie.add("only", 3)
    packed = PackedTrie.from_trie(trie)
    assert packed.complete("o", 10) == [("only", 3)]
    assert packed.complete("only", 10) == [("only", 3)]
    assert packed.complete("onlyx", 10) == []
    assert len(build_rmq(array("q", [3]))) == 0
