"""The algorithm planner."""

import pytest

from repro.twig.algorithms.common import AlgorithmStats
from repro.twig.parse import parse_twig
from repro.twig.planner import Algorithm, choose_algorithm, evaluate


class TestChoice:
    def test_paths_go_to_path_stack(self):
        assert choose_algorithm(parse_twig("//a/b//c")) is Algorithm.PATH_STACK
        assert choose_algorithm(parse_twig("//a")) is Algorithm.PATH_STACK

    def test_twigs_go_to_twig_stack(self):
        assert choose_algorithm(parse_twig("//a[./b][./c]")) is Algorithm.TWIG_STACK


class TestEvaluate:
    @pytest.mark.parametrize(
        "algorithm",
        [
            Algorithm.AUTO,
            Algorithm.NAIVE,
            Algorithm.STRUCTURAL_JOIN,
            Algorithm.TWIG_STACK,
            Algorithm.PATH_STACK,
        ],
    )
    def test_every_algorithm_reachable(self, small_db, algorithm):
        pattern = parse_twig("//article/author")
        matches = evaluate(pattern, small_db.labeled, small_db.streams, algorithm)
        assert len(matches) == 3

    def test_stats_forwarded(self, small_db):
        stats = AlgorithmStats()
        evaluate(
            parse_twig("//article/author"),
            small_db.labeled,
            small_db.streams,
            Algorithm.TWIG_STACK,
            stats,
        )
        assert stats.elements_scanned > 0
        assert stats.matches == 3


class TestKernelInventory:
    """One kernel family: the columnar stream kernels plus the naive
    oracle.  A second copy of a kernel (or a new one) must be added here
    on purpose, not slip in unnoticed."""

    def test_algorithm_enum_holds_exactly_the_kept_kernels(self):
        assert {algorithm.value for algorithm in Algorithm} == {
            "auto",
            "naive",
            "structural-join",
            "path-stack",
            "twig-stack",
        }

    def test_algorithms_package_exports_exactly_the_kept_kernels(self):
        import repro.twig.algorithms as algorithms

        assert sorted(algorithms.__all__) == [
            "AlgorithmStats",
            "build_columnar_streams",
            "build_partial_order_check",
            "filter_ordered",
            "naive_match",
            "order_constraint_pairs",
            "path_stack_match_columnar",
            "structural_join_match_columnar",
            "structural_join_pairs_columnar",
            "twig_stack_match_columnar",
        ]

    def test_algorithms_package_holds_exactly_the_kept_modules(self):
        import pkgutil

        import repro.twig.algorithms as algorithms

        modules = {m.name for m in pkgutil.iter_modules(algorithms.__path__)}
        assert modules == {
            "common",
            "naive",
            "ordered",
            "path_stack",
            "structural_join",
            "twig_stack",
        }
