from itertools import combinations

import pytest

from tcover import (
    BudgetExceededError,
    ElementSet,
    Graph,
    SearchLimits,
    TooLargeError,
    approx_total_cover,
    cross_check_total_graph,
    exact_dominating_set,
    exact_total_cover,
    first_uncovered,
    total_cover_lower_bound,
    total_graph,
)
from tcover.instances import complete, cycle, enumerate_graphs, hard_instance, path, star


def test_exact_total_cover_k3():
    assert exact_total_cover(complete(3)).size == 2


def test_exact_total_cover_p3_picks_middle_vertex():
    result = exact_total_cover(path(3))
    assert result.size == 1
    assert result.optimum == ElementSet.of(path(3), vertices=[1])


def test_exact_total_cover_hard_instance():
    g = hard_instance(4)
    result = exact_total_cover(g, SearchLimits(max_elements=64))
    assert result.size == 3
    # lexicographically first optimum: the apex plus the two rungs
    assert result.optimum == ElementSet.of(g, vertices=[0], edges=[8, 9])


def test_exact_total_cover_isolated():
    assert exact_total_cover(Graph(3, [])).size == 3


def test_exact_total_cover_empty_graph():
    result = exact_total_cover(Graph(0, []))
    assert result.size == 0
    assert len(result.optimum) == 0


def test_exact_dominating_set_examples():
    assert exact_dominating_set(complete(3)).size == 1
    assert exact_dominating_set(cycle(5)).size == 2
    assert exact_dominating_set(Graph(2, [])).size == 2


def test_exact_dominating_set_optimum_is_lexicographic():
    result = exact_dominating_set(complete(3))
    assert result.optimum == ElementSet.of(complete(3), vertices=[0])


def test_too_large_guards():
    with pytest.raises(TooLargeError):
        exact_total_cover(complete(20))  # 210 elements
    with pytest.raises(TooLargeError):
        exact_dominating_set(complete(3), SearchLimits(max_elements=2))


def test_budget_exceeded_reports_cardinality():
    with pytest.raises(BudgetExceededError) as err:
        exact_total_cover(complete(3), SearchLimits(max_candidates=3))
    assert err.value.cardinality_reached == 1
    with pytest.raises(BudgetExceededError):
        exact_dominating_set(cycle(5), SearchLimits(max_candidates=2))


def test_limits_validation():
    with pytest.raises(ValueError):
        SearchLimits(max_elements=-1)


def test_start_size_shortcut_agrees():
    for g in (complete(3), path(4), hard_instance(2), star(4)):
        base = exact_total_cover(g)
        r = approx_total_cover(g)
        bound = total_cover_lower_bound(
            r.matching_size, r.bad_vertex_count, r.isolated_count
        )
        shortcut = exact_total_cover(g, SearchLimits(start_size=bound))
        assert shortcut.size == base.size
        assert shortcut.candidates_checked <= base.candidates_checked


def test_results_are_deterministic():
    g = cycle(6)
    a = exact_total_cover(g)
    b = exact_total_cover(g)
    assert a.optimum == b.optimum
    assert a.candidates_checked == b.candidates_checked


def test_no_smaller_cover_exists():
    # independent re-verification at size - 1 for a few graphs
    for g in (complete(3), path(5), hard_instance(4)):
        best = exact_total_cover(g, SearchLimits(max_elements=64)).size
        assert best > 0
        n, m = g.n, len(g.edges)
        for combo in combinations(range(n + m), best - 1):
            vertex_ids = {i for i in combo if i < n}
            edge_ids = {i - n for i in combo if i >= n}
            assert first_uncovered(g, vertex_ids, edge_ids) is not None


def test_cross_check_examples():
    assert cross_check_total_graph(complete(3)).agree
    report = cross_check_total_graph(path(4))
    assert (report.total_cover_size, report.total_graph_domination_size) == (2, 2)
    single = cross_check_total_graph(Graph(1, []))
    assert (single.total_cover_size, single.total_graph_domination_size, single.agree) == (1, 1, True)


def test_cross_check_small_corpus():
    for g in enumerate_graphs(3):
        assert cross_check_total_graph(g).agree


def test_cross_check_connected_six_vertex_sample():
    # deterministic stride through the 6-vertex corpus; the full sweep of
    # the exact oracles against each other lives in the acceptance suite
    from helpers import connected

    checked = 0
    for i, g in enumerate(enumerate_graphs(6)):
        if i % 31 == 0 and connected(g):
            assert cross_check_total_graph(g).agree
            checked += 1
    assert checked > 800


def test_lower_bound_below_exact():
    for g in enumerate_graphs(4):
        r = approx_total_cover(g)
        assert r.lower_bound <= exact_total_cover(g).size


def test_dominating_oracle_against_cover_oracle_on_total_graphs():
    # the two oracles implement different predicates; they must still
    # agree through the element bijection
    for g in (star(4), cycle(4), path(5)):
        tg, _ = total_graph(g)
        assert exact_total_cover(g).size == exact_dominating_set(tg).size
