"""Sampled twig workloads: every sampled pattern must have a match."""

import random

import pytest

from repro.twig.sample import sample_twig, sample_workload


class TestSampleTwig:
    def test_every_sample_has_a_match(self, small_db):
        rng = random.Random(0)
        for _ in range(50):
            pattern = sample_twig(small_db.labeled, rng)
            assert small_db.matches(pattern), str(pattern)

    def test_samples_have_matches_on_generated_corpora(self, dblp_db, xmark_db):
        for db in (dblp_db, xmark_db):
            rng = random.Random(7)
            for _ in range(25):
                pattern = sample_twig(db.labeled, rng, max_nodes=6)
                assert db.matches(pattern), str(pattern)

    def test_max_nodes_respected(self, small_db):
        rng = random.Random(1)
        for _ in range(20):
            assert sample_twig(small_db.labeled, rng, max_nodes=3).size <= 3

    def test_single_node_allowed(self, small_db):
        rng = random.Random(2)
        pattern = sample_twig(small_db.labeled, rng, max_nodes=1)
        assert pattern.size == 1

    def test_invalid_max_nodes(self, small_db):
        with pytest.raises(ValueError):
            sample_twig(small_db.labeled, random.Random(0), max_nodes=0)

    def test_predicates_appear(self, dblp_db):
        rng = random.Random(3)
        patterns = [
            sample_twig(dblp_db.labeled, rng, predicate_probability=0.9)
            for _ in range(20)
        ]
        assert any(pattern.predicates() for pattern in patterns)

    def test_descendant_probability_extremes(self, small_db):
        all_child = sample_workload(
            small_db.labeled, seed=4, count=10, descendant_probability=0.0
        )
        # With probability 0, direct-child witnesses always use "/".
        for pattern in all_child:
            for node in pattern.nodes():
                if node.parent is not None:
                    assert small_db.matches(pattern)


class TestSampleWorkload:
    def test_deterministic(self, small_db):
        first = [str(p) for p in sample_workload(small_db.labeled, 9, 10)]
        second = [str(p) for p in sample_workload(small_db.labeled, 9, 10)]
        assert first == second

    def test_different_seeds_differ(self, dblp_db):
        first = [str(p) for p in sample_workload(dblp_db.labeled, 1, 10)]
        second = [str(p) for p in sample_workload(dblp_db.labeled, 2, 10)]
        assert first != second

    def test_all_algorithms_agree_on_samples(self, small_db):
        from repro.twig.planner import Algorithm

        for pattern in sample_workload(small_db.labeled, 11, 15):
            baseline = [m.key() for m in small_db.matches(pattern, Algorithm.NAIVE)]
            for algorithm in (Algorithm.STRUCTURAL_JOIN, Algorithm.TWIG_STACK):
                assert [
                    m.key() for m in small_db.matches(pattern, algorithm)
                ] == baseline, str(pattern)
