import hashlib
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import tcover.exact
from tcover import (
    BudgetExceededError,
    CertificateError,
    ElementSet,
    Graph,
    GraphError,
    TooLargeError,
    approx_total_cover,
    exact_total_cover,
    is_total_cover,
    total_graph,
)
from tcover.exact import MAX_CANDIDATES, _smallest_covering, _total_cover_masks
from tcover.instances import complete, cycle, gnp, hard_instance, path, star

from helpers import closed_neighbourhood_masks, connected, enumerate_graphs, petersen


def test_exact_total_cover_k3():
    assert exact_total_cover(complete(3)).size == 2


def test_exact_total_cover_p3_picks_middle_vertex():
    result = exact_total_cover(path(3))
    assert result.size == 1
    assert result.optimum == ElementSet(path(3), [1])


def test_exact_total_cover_hard_instance():
    g = hard_instance(4)
    result = exact_total_cover(g, max_elements=64)
    assert result.size == 3
    # lexicographically first optimum: the apex plus the two rungs
    assert result.optimum == ElementSet(g, [0, g.n + 8, g.n + 9])


def test_exact_total_cover_isolated():
    assert exact_total_cover(Graph(3, [])).size == 3


def test_exact_total_cover_empty_graph():
    result = exact_total_cover(Graph(0, []))
    assert (result.size, result.candidates_checked) == (0, 1)
    assert len(result.optimum) == 0
    with pytest.raises(BudgetExceededError, match="^exceeded max_candidates=0 at cardinality 0$"):
        exact_total_cover(Graph(0, []), max_candidates=0)


def test_too_large_guards():
    with pytest.raises(TooLargeError):
        exact_total_cover(complete(20))  # 210 elements


def test_budget_exceeded_reports_cardinality():
    # the size of the best cover found: all 6 elements of K3 until the third
    # node finds an optimum of 2
    for budget, reached in ((2, 6), (3, 2)):
        with pytest.raises(BudgetExceededError,
                           match=f"^exceeded max_candidates={budget} at cardinality {reached}$") as err:
            exact_total_cover(complete(3), max_candidates=budget)
        assert err.value.cardinality_reached == reached


def test_limits_validation():
    # checked ahead of the size guard, which would call the empty graph's
    # 0 elements too many for max_elements=-1
    for limits in ({"max_elements": -1}, {"max_candidates": -1}):
        with pytest.raises(GraphError, match="^search limits must be non-negative$"):
            exact_total_cover(Graph(0), **limits)


def test_guards_are_keyword_only():
    # a bare number could be either guard
    with pytest.raises(TypeError):
        exact_total_cover(hard_instance(8), 40)


def test_results_are_deterministic():
    g = cycle(6)
    a = exact_total_cover(g)
    b = exact_total_cover(g)
    assert a == b  # no wall-clock field to differ


def test_no_smaller_cover_exists():
    # independent re-verification at size - 1 for a few graphs
    for g in (complete(3), path(5), hard_instance(4)):
        best = exact_total_cover(g, max_elements=64).size
        assert best > 0
        for combo in combinations(range(g.n + len(g.edges)), best - 1):
            assert not is_total_cover(ElementSet(g, combo))[0]


def test_lower_bound_below_exact():
    for g in enumerate_graphs(4):
        r = approx_total_cover(g)
        assert r.lower_bound <= exact_total_cover(g).size


def assert_masks_are_the_total_graph_neighbourhoods(g: Graph) -> None:
    # a total cover of g is a dominating set of T(g), element by element:
    # mask x of the exact oracle is the closed neighbourhood of vertex x of
    # T(g), read off row x of total_graph(g)
    assert _total_cover_masks(g) == closed_neighbourhood_masks(total_graph(g))


def smallest_dominating_set_size(rows: tuple[tuple[int, ...], ...]) -> int:
    return len(_smallest_covering(closed_neighbourhood_masks(rows), MAX_CANDIDATES)[0])


def test_cross_check_examples():
    for g in (complete(3), path(4), Graph(1, []), hard_instance(64), petersen(), star(50),
              complete(7), gnp(30, 0.1, 5), gnp(300, 0.02, 1), gnp(2000, 0.001, 1)):
        assert_masks_are_the_total_graph_neighbourhoods(g)
    assert smallest_dominating_set_size(total_graph(path(4))) == exact_total_cover(path(4)).size == 2
    assert smallest_dominating_set_size(total_graph(Graph(1, []))) == 1


def test_cross_check_small_corpus():
    graphs = [g for n in range(6) for g in enumerate_graphs(n)]
    assert len(graphs) == 1100
    for g in graphs:
        assert_masks_are_the_total_graph_neighbourhoods(g)


def test_cross_check_connected_six_vertex_sample():
    # deterministic stride through the 6-vertex corpus
    checked = 0
    for i, g in enumerate(enumerate_graphs(6)):
        if i % 31 == 0 and connected(g):
            assert_masks_are_the_total_graph_neighbourhoods(g)
            checked += 1
    assert checked == 854


def test_dominating_oracle_against_cover_oracle_on_total_graphs():
    # a smallest dominating set of T(g), searched on masks built from
    # total_graph(g)'s rows, has the size of a smallest total cover of g
    for g in (star(4), cycle(4), path(5)):
        assert smallest_dominating_set_size(total_graph(g)) == exact_total_cover(g).size


def test_total_graph_and_exact_masks_are_pinned():
    # sha256 of the reprs over every graph of at most 5 vertices plus six
    # larger ones: rewriting either builder must not move a single edge or bit
    graphs = [g for n in range(6) for g in enumerate_graphs(n)]
    graphs += [hard_instance(8), petersen(), star(50), complete(7), gnp(30, 0.1, 5), gnp(300, 0.02, 1)]
    # each total graph as (vertex count, edge tuple), its edges (x, y), y > x, read off its rows
    tg = [(len(rows), tuple((x, y) for x, row in enumerate(rows) for y in row if y > x))
          for rows in map(total_graph, graphs)]
    masks = [_total_cover_masks(g) for g in graphs]
    assert hashlib.sha256(repr(tg).encode()).hexdigest() == \
        "574f92ad4b812f9419d14508e6176d1127f3cc85804bdec93617e510ddff4c67"
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == \
        "9259a8131f1ed48386e237dc367bd123ff090d4115f73f512f5fbb10a3a2a7b3"


def golden_corpus():
    """All graphs with at most 5 vertices, then the seeded gnp(4..12) graphs
    of at most 28 elements among 200 draws."""
    for n in range(6):
        yield from enumerate_graphs(n)
    for seed in range(200):
        g = gnp(4 + seed % 9, (0.1, 0.2, 0.3)[seed % 3], seed)
        if g.n + len(g.edges) <= 28:
            yield g


# sha256 over one "size nodes [vertex ids] [edge ids]" line per graph of
# golden_corpus(), recorded from the branch and bound: the same search must
# return the same optimum after the same number of nodes.  The line splits
# the optimum's ids into vertices (id < n) and edges (id - n).
GOLDEN_EXACT = "b6059958b872ad2cb282e527328f9e23dc0c1529b8e0cbee6a8651abfdb425bd"


# sha256 over one "size" line per graph of golden_corpus(), recorded from the
# lexicographic enumeration: any search must find optima of these sizes.
GOLDEN_EXACT_SIZES = "0284ac6e6e64f1b86e99c8beae484caf6eb13656b010d7dc9d7bd28ee291ea02"


def test_exact_sizes_golden():
    lines = [str(exact_total_cover(g).size) for g in golden_corpus()]
    assert len(lines) == 1283
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_EXACT_SIZES


def test_exact_oracles_golden():
    lines = []
    for g in golden_corpus():
        r = exact_total_cover(g)
        ids = list(r.optimum)
        lines.append(f"{r.size} {r.candidates_checked} "
                     f"{[x for x in ids if x < g.n]} {[x - g.n for x in ids if x >= g.n]}")
    assert len(lines) == 1283
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_EXACT


# Nodes visited, recorded from the same searches: one fewer must stop the
# search holding an optimum it has not yet proved, exactly that many must
# succeed.
@pytest.mark.parametrize("build, nodes", [
    (lambda: hard_instance(6), 47),
    (lambda: gnp(9, 0.3, 7), 27),
])
def test_budget_boundary_golden(build, nodes):
    g = build()
    with pytest.raises(BudgetExceededError) as err:
        exact_total_cover(g, max_candidates=nodes - 1)
    assert err.value.cardinality_reached == 4
    assert str(err.value) == f"exceeded max_candidates={nodes - 1} at cardinality 4"
    result = exact_total_cover(g, max_candidates=nodes)
    assert (result.size, result.candidates_checked) == (4, nodes)


def test_wrong_masks_raise_certificate_error(monkeypatch):
    # masks claiming that every element covers everything make {vertex 1}
    # win at cardinality 1; the confirmation must catch that it does not
    original = tcover.exact._total_cover_masks

    def covers_everything(g):
        count = len(original(g))
        return [(1 << count) - 1] * count

    monkeypatch.setattr(tcover.exact, "_total_cover_masks", covers_everything)
    with pytest.raises(CertificateError, match="^exact total cover misses vertex 3$"):
        exact_total_cover(path(3))


def test_exact_optimum_is_confirmed_by_is_total_cover(monkeypatch):
    # the search result is handed to the one cover check, whose verdict stands
    def rejects_everything(d):
        return False, 0

    monkeypatch.setattr(tcover.exact, "is_total_cover", rejects_everything)
    with pytest.raises(CertificateError, match="^exact total cover misses vertex 1$"):
        exact_total_cover(path(3))


def plain_first_covering(masks):
    """Reference for _smallest_covering's size: the first candidate, by size
    and then in itertools.combinations order, whose masks OR to all ones."""
    everything = (1 << len(masks)) - 1
    for size in range(len(masks) + 1):
        for combo in combinations(range(len(masks)), size):
            covered = 0
            for i in combo:
                covered |= masks[i]
            if covered == everything:
                return combo


@st.composite
def mask_searches(draw):
    """Up to 14 masks, the closed neighbourhoods of a graph of random
    density: each holds its own bit, and bit j of mask i is bit i of mask
    j.  Then a candidate budget, 0 included."""
    count = draw(st.integers(0, 14))
    thinning = draw(st.integers(0, 3))  # ANDs of random words make sparser masks
    masks = [1 << i for i in range(count)]
    for i in range(count):
        word = (1 << count) - 1
        for _ in range(thinning + 1):
            word &= draw(st.integers(0, (1 << count) - 1))
        for j in range(i + 1, count):
            if word >> j & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    budget = draw(st.one_of(st.just(0), st.integers(1, 1 << count)))
    return masks, budget


def assert_covers(masks, chosen):
    covered = 0
    for i in chosen:
        covered |= masks[i]
    assert covered == (1 << len(masks)) - 1
    assert len(set(chosen)) == len(chosen)


@settings(max_examples=300, deadline=None)
@given(mask_searches())
@example(([], MAX_CANDIDATES))
@example(([], 0))
def test_first_covering_matches_the_plain_enumeration(case):
    # the branch and bound finds a cover of the size of the plain
    # enumeration's first, unbudgeted, and a budget below its node count
    # stops it
    masks, budget = case
    optimum = len(plain_first_covering(masks))
    chosen, nodes = _smallest_covering(masks, MAX_CANDIDATES)
    assert len(chosen) == optimum
    assert_covers(masks, chosen)
    if budget < nodes:
        with pytest.raises(BudgetExceededError) as err:
            _smallest_covering(masks, budget)
        assert optimum <= err.value.cardinality_reached <= len(masks)
    else:
        assert _smallest_covering(masks, budget) == (chosen, nodes)


def test_search_deeper_than_the_recursion_limit():
    # each of the 1100 isolated vertices is a forced branch, one level deeper
    g = Graph(1104, [(0, 1), (0, 2), (0, 3)])
    result = exact_total_cover(g, max_elements=1107)
    assert (result.size, result.candidates_checked) == (1101, 1104)


def ilp_total_cover_size(g):
    """The minimum total cover size by HiGHS: minimise the chosen elements
    so that every closed neighbourhood, read off adj and the incidence
    lists derived here from g.edges, holds one."""
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, count = g.n, g.n + len(g.edges)
    inc = [[] for _ in range(n)]
    for e, (u, v) in enumerate(g.edges):
        inc[u].append(e)
        inc[v].append(e)
    rows = np.zeros((count, count))
    for v in range(n):
        rows[v, [v, *g.adj[v], *(n + e for e in inc[v])]] = 1
    for e, (u, v) in enumerate(g.edges):
        rows[n + e, [u, v, *(n + f for f in inc[u] + inc[v])]] = 1
    result = milp(np.ones(count), constraints=LinearConstraint(rows, lb=1),
                  integrality=np.ones(count), bounds=Bounds(0, 1))
    assert result.success, result.message
    return round(result.fun)


# Sparse gnp graphs past the reach of the old lexicographic enumeration
# (about 50 elements), with their optima measured by HiGHS.
ILP_GRAPHS = {
    "gnp(20,3/19,0)": (lambda: gnp(20, 3 / 19, 0), 9),
    "gnp(22,3/21,1)": (lambda: gnp(22, 3 / 21, 1), 9),
    "gnp(24,3/23,2)": (lambda: gnp(24, 3 / 23, 2), 10),
    "gnp(26,3/25,0)": (lambda: gnp(26, 3 / 25, 0), 11),
    "gnp(28,3/27,1)": (lambda: gnp(28, 3 / 27, 1), 11),
    "gnp(30,3/29,5)": (lambda: gnp(30, 3 / 29, 5), 13),
    "gnp(30,0.1,5)": (lambda: gnp(30, 0.1, 5), 13),
}


@pytest.mark.parametrize("name", sorted(ILP_GRAPHS))
def test_exact_total_cover_equals_the_ilp(name):
    build, optimum = ILP_GRAPHS[name]
    g = build()
    assert exact_total_cover(g, max_elements=100).size == optimum
    assert ilp_total_cover_size(g) == optimum
