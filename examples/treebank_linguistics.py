"""Deep recursion: twig search over parse trees (Treebank-like).

Linguistic corpora are the classical stress test for XML search: the same
tags (NP inside NP inside VP…) nest to depth 15+, so the DataGuide has
hundreds of paths and parent-child chains are highly selective.  This
example shows where the engine's machinery earns its keep on such data —
guide-pruned evaluation, recursive twigs, and position-aware completion
over a huge path space.

Run with::

    python examples/treebank_linguistics.py
"""

import time

from repro import LotusXDatabase
from repro.datasets import generate_treebank
from repro.twig.algorithms.common import build_columnar_streams
from repro.twig.algorithms.twig_stack import twig_stack_match_columnar


def main() -> None:
    database = LotusXDatabase(generate_treebank(sentences=150, seed=17))
    stats = database.statistics()
    print(
        f"Corpus: {stats.element_count} elements,"
        f" depth up to {stats.max_depth},"
        f" {stats.distinct_paths} distinct paths from just"
        f" {stats.distinct_tags} tags"
    )

    # Recursive twigs: same-tag nesting.
    print("\n--- recursive structure queries ---")
    for query in ["//NP//NP", "//NP//NP//NP", "//S//S", "//PP/NP/PP"]:
        print(f"  {query:15} -> {len(database.matches(query)):5} matches")

    # Linguistic pattern: a verb phrase whose object NP has a PP attachment.
    query = '//VP[./VB][./NP[./PP]]'
    print(f"\n--- {query} ---")
    for hit in database.search(query, k=3, rewrite=False):
        print(f"  {hit.xpath}")
        print(f"    {hit.snippet[:70]}")

    # Guide pruning shines on recursive data: a parent-child chain admits
    # few of the hundreds of paths each tag occurs at.
    print("\n--- guide-pruned evaluation (same answers, less work) ---")
    pattern = database.parse_query("//sentence/S/NP/NN")
    plain_streams = build_columnar_streams(pattern, database.streams)
    pruned_streams = build_columnar_streams(
        pattern, database.streams, database.guide
    )
    started = time.perf_counter()
    plain = twig_stack_match_columnar(pattern, plain_streams)
    plain_ms = (time.perf_counter() - started) * 1000
    started = time.perf_counter()
    pruned = twig_stack_match_columnar(pattern, pruned_streams)
    pruned_ms = (time.perf_counter() - started) * 1000
    assert len(plain) == len(pruned)
    print(
        f"  stream volume {sum(map(len, plain_streams.values()))} -> "
        f"{sum(map(len, pruned_streams.values()))},"
        f"  time {plain_ms:.1f} ms -> {pruned_ms:.1f} ms"
    )

    # Position-aware completion stays sharp despite the path explosion.
    print("\n--- completion under //S/NP (deep recursive context) ---")
    np_pattern = database.parse_query("//S/NP")
    for candidate in database.complete_tag(np_pattern, np_pattern.nodes()[1], ""):
        print(f"  {candidate.text:6} x{candidate.count}")


if __name__ == "__main__":
    main()
