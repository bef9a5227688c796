"""Acceptance suite: one test per release criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces its own wall-clock budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from tcover import (
    ElementSet,
    approx_total_cover,
    exact_total_cover,
    is_total_cover,
    matched_vertices_cover,
    maximum_matching,
    serialize_graph,
    total_graph,
)
from tcover.cli import main
from tcover.exact import _total_cover_masks
from tcover.instances import complete, cycle, gnp, hard_instance, path, star

from helpers import (brute_force_maximum_matching, closed_neighbourhood_masks, connected,
                     enumerate_graphs, petersen, verify_matching)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.perf_counter() - start:.1f}s]")


def test_criterion_1_hard_family_reproduction():
    with criterion(1, "hard-family reproduction", 60):
        for n in (4, 6, 8):
            g = hard_instance(n)
            assert maximum_matching(g).size == n
            rungs = range(g.n + 2 * n, g.n + 2 * n + n // 2)
            known = ElementSet(g, [0, *rungs])
            assert is_total_cover(known)[0]
            assert len(known) == n // 2 + 1
            assert exact_total_cover(g, max_elements=64).size == n // 2 + 1
            result = approx_total_cover(g)
            assert len(result.cover) == (
                result.matching.size + result.bad_vertex_count + result.isolated_count
            )
            assert len(result.cover) == n  # m = n, k = t = 0


def test_criterion_2_tightness_trends():
    with criterion(2, "tightness trends at n=100", 1):
        n = 100
        g = hard_instance(n)
        optimum = Fraction(n, 2) + 1
        baseline_ratio = Fraction(len(matched_vertices_cover(maximum_matching(g))), optimum)
        assert baseline_ratio == Fraction(200, 51)
        assert baseline_ratio >= Fraction(38, 10)
        result = approx_total_cover(g)
        alg_ratio = Fraction(len(result.cover), optimum)
        assert alg_ratio == Fraction(100, 51)
        assert Fraction(19, 10) <= alg_ratio <= 2


def test_criterion_3_oracle_sweep():
    with criterion(3, "oracle sweep on 5-vertex corpus and connected 6-vertex corpus", 300):
        cases = list(enumerate_graphs(5))
        cases += [g for g in enumerate_graphs(6) if connected(g)]
        assert len(cases) == 1024 + 26704
        for g in cases:
            result = approx_total_cover(g)
            assert is_total_cover(result.cover)[0]
            alg_size = len(result.cover)
            assert alg_size == (
                result.matching.size + result.bad_vertex_count + result.isolated_count
            )
            exact_size = exact_total_cover(g).size
            assert result.lower_bound <= exact_size <= alg_size <= 2 * exact_size


def test_criterion_4_total_graph_identity():
    with criterion(4, "total cover vs total graph domination", 120):
        corpus = [g for n in range(6) for g in enumerate_graphs(n)]
        corpus += [path(4), cycle(5), complete(4), star(5), hard_instance(4)]
        assert len(corpus) == 1105
        for g in corpus:
            # the exact oracle's cover masks are the closed neighbourhoods
            # of T(g), so its total covers are T(g)'s dominating sets
            assert _total_cover_masks(g) == closed_neighbourhood_masks(total_graph(g))


def test_criterion_5_matching_correctness():
    with criterion(5, "maximum matching vs brute force", 120):
        corpus = [g for n in range(7) for g in enumerate_graphs(n)]
        corpus += [cycle(n) for n in (3, 5, 7, 9, 11)]
        corpus.append(petersen())
        for g in corpus:
            blossom = maximum_matching(g)
            assert blossom.size == brute_force_maximum_matching(g).size
            assert verify_matching(g, blossom, "maximum")


def test_criterion_6_randomized_robustness():
    with criterion(6, "500 seeded random instances", 300):
        probabilities = (0.1, 0.3, 0.5)
        for i in range(500):
            n = 4 + i % 9  # 4 .. 12
            p = probabilities[(i // 9) % 3]
            g = gnp(n, p, 1000 + i)
            result = approx_total_cover(g)
            assert is_total_cover(result.cover)[0]
            size = len(result.cover)
            assert size == (
                result.matching.size + result.bad_vertex_count + result.isolated_count
            )
            assert size <= 2 * result.lower_bound or result.lower_bound == 0
            if g.n + len(g.edges) <= 32:
                assert size <= 2 * exact_total_cover(g).size


def test_criterion_7_compare_determinism(tmp_path):
    with criterion(7, "byte-identical comparison CSV", 60):
        files = []
        for name, g in [
            ("hard4", hard_instance(4)),
            ("hard6", hard_instance(6)),
            ("k3", complete(3)),
            ("c5", cycle(5)),
            ("gnp", gnp(9, 0.3, 7)),
        ]:
            f = tmp_path / f"{name}.gr"
            f.write_text(serialize_graph(g))
            files.append(str(f))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(["compare", *files, "--csv", str(first)]) == 0
        assert main(["compare", *files, "--csv", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
