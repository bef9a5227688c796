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
    SearchLimits,
    TooLargeError,
    approx_total_cover,
    cross_check_total_graph,
    exact_dominating_set,
    exact_total_cover,
    is_total_cover,
    total_cover_lower_bound,
    total_graph,
)
from tcover.exact import _first_covering
from tcover.instances import complete, cycle, enumerate_graphs, gnp, hard_instance, path, star


def test_exact_total_cover_k3():
    assert exact_total_cover(complete(3)).size == 2


def test_exact_total_cover_p3_picks_middle_vertex():
    result = exact_total_cover(path(3))
    assert result.size == 1
    assert result.optimum == ElementSet(path(3), [1])


def test_exact_total_cover_hard_instance():
    g = hard_instance(4)
    result = exact_total_cover(g, SearchLimits(max_elements=64))
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
        exact_total_cover(Graph(0, []), SearchLimits(max_candidates=0))


def test_exact_dominating_set_examples():
    assert exact_dominating_set(complete(3)).size == 1
    assert exact_dominating_set(cycle(5)).size == 2
    assert exact_dominating_set(Graph(2, [])).size == 2


def test_exact_dominating_set_optimum_is_lexicographic():
    result = exact_dominating_set(complete(3))
    assert result.optimum == ElementSet(complete(3), [0])


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


@pytest.mark.parametrize("oracle,count", [(exact_total_cover, 6), (exact_dominating_set, 3)])
def test_start_size_beyond_the_elements_is_a_value_error(oracle, count):
    with pytest.raises(ValueError, match=r"^start_size=1 exceeds the 0 elements$") as err:
        oracle(Graph(0, []), SearchLimits(start_size=1))
    assert type(err.value) is ValueError
    assert oracle(complete(3), SearchLimits(start_size=count)).size == count
    with pytest.raises(ValueError, match=f"^start_size={count + 1} exceeds the {count} elements$"):
        oracle(complete(3), SearchLimits(start_size=count + 1))


def test_start_size_shortcut_agrees():
    for g in (complete(3), path(4), hard_instance(2), star(4)):
        base = exact_total_cover(g)
        r = approx_total_cover(g)
        bound = total_cover_lower_bound(
            r.matching.size, r.bad_vertex_count, r.isolated_count
        )
        shortcut = exact_total_cover(g, SearchLimits(start_size=bound))
        assert shortcut.size == base.size
        assert shortcut.candidates_checked <= base.candidates_checked


def test_results_are_deterministic():
    g = cycle(6)
    a = exact_total_cover(g)
    b = exact_total_cover(g)
    assert a == b  # no wall-clock field to differ


def test_no_smaller_cover_exists():
    # independent re-verification at size - 1 for a few graphs
    for g in (complete(3), path(5), hard_instance(4)):
        best = exact_total_cover(g, SearchLimits(max_elements=64)).size
        assert best > 0
        for combo in combinations(range(g.n + len(g.edges)), best - 1):
            assert not is_total_cover(g, ElementSet(g, combo))[0]


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
        tg = total_graph(g)
        assert exact_total_cover(g).size == exact_dominating_set(tg).size


def golden_corpus():
    """All graphs with at most 5 vertices, then the seeded gnp(4..12) graphs
    of at most 28 elements among 200 draws."""
    for n in range(6):
        yield from enumerate_graphs(n)
    for seed in range(200):
        g = gnp(4 + seed % 9, (0.1, 0.2, 0.3)[seed % 3], seed)
        if g.n + len(g.edges) <= 28:
            yield g


# sha256 over one "size candidates [vertex ids] [edge ids]" line per graph of
# golden_corpus(), recorded from the searches that tested each candidate
# with first_uncovered and with a per-vertex membership scan: a faster test
# must return the same optimum after the same number of candidates.  The
# line splits the optimum's ids into vertices (id < n) and edges (id - n).
GOLDEN_EXACT = {
    "exact_total_cover": "c08e15a82f5cd145991126660667be08168c1d936416498348ea4609ab4c69cf",
    "exact_dominating_set": "77b712599b0ff68544db42e78ee6f9c86738147baffd80f76f3419009cfc3da8",
}


@pytest.mark.parametrize("oracle", [exact_total_cover, exact_dominating_set],
                         ids=lambda oracle: oracle.__name__)
def test_exact_oracles_golden(oracle):
    lines = []
    for g in golden_corpus():
        r = oracle(g)
        ids = sorted(r.optimum.ids)
        lines.append(f"{r.size} {r.candidates_checked} "
                     f"{[x for x in ids if x < g.n]} {[x - g.n for x in ids if x >= g.n]}")
    assert len(lines) == 1283
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_EXACT[oracle.__name__]


# Candidates checked, recorded from the same searches: one fewer must stop
# the search at the same cardinality, exactly that many must succeed.
@pytest.mark.parametrize("build, oracle, candidates", [
    (lambda: hard_instance(6), exact_total_cover, 6608),
    (lambda: gnp(9, 0.3, 7), exact_total_cover, 1965),
    (lambda: hard_instance(6), exact_dominating_set, 584),
    (lambda: gnp(9, 0.3, 7), exact_dominating_set, 179),
])
def test_budget_boundary_golden(build, oracle, candidates):
    g = build()
    with pytest.raises(BudgetExceededError) as err:
        oracle(g, SearchLimits(max_candidates=candidates - 1))
    assert err.value.cardinality_reached == 4
    assert str(err.value) == f"exceeded max_candidates={candidates - 1} at cardinality 4"
    result = oracle(g, SearchLimits(max_candidates=candidates))
    assert (result.size, result.candidates_checked) == (4, candidates)


@pytest.mark.parametrize("oracle, builder, message", [
    (exact_total_cover, "_total_cover_masks", "exact total cover misses vertex 3"),
    (exact_dominating_set, "_domination_masks", "exact dominating set misses vertex 3"),
])
def test_wrong_masks_raise_certificate_error(monkeypatch, oracle, builder, message):
    # masks claiming that every element covers everything make {vertex 1}
    # win at cardinality 1; the confirmation must catch that it does not
    original = getattr(tcover.exact, builder)

    def covers_everything(g):
        count = len(original(g))
        return [(1 << count) - 1] * count

    monkeypatch.setattr(tcover.exact, builder, covers_everything)
    with pytest.raises(CertificateError, match=f"^{message}$"):
        oracle(path(3))


def test_exact_optimum_is_confirmed_by_is_total_cover(monkeypatch):
    # the search result is handed to the one cover check, whose verdict stands
    def rejects_everything(g, d):
        return False, 0

    monkeypatch.setattr(tcover.exact, "is_total_cover", rejects_everything)
    with pytest.raises(CertificateError, match="^exact total cover misses vertex 1$"):
        exact_total_cover(path(3))


def plain_first_covering(masks, limits):
    """Reference for _first_covering: every candidate of every size, in
    itertools.combinations order, tested with one OR of its masks."""
    everything = (1 << len(masks)) - 1
    checked = 0
    for size in range(limits.start_size, len(masks) + 1):
        for combo in combinations(range(len(masks)), size):
            checked += 1
            if checked > limits.max_candidates:
                raise BudgetExceededError(
                    f"exceeded max_candidates={limits.max_candidates} at cardinality {size}",
                    cardinality_reached=size,
                )
            covered = 0
            for i in combo:
                covered |= masks[i]
            if covered == everything:
                return combo, checked


@st.composite
def mask_searches(draw):
    """Up to 14 masks, each holding its own bit and, at random density,
    others; a start size and a candidate budget, 0 included."""
    count = draw(st.integers(0, 14))
    thinning = draw(st.integers(0, 3))  # ANDs of random words make sparser masks
    masks = []
    for i in range(count):
        mask = (1 << count) - 1
        for _ in range(thinning + 1):
            mask &= draw(st.integers(0, (1 << count) - 1))
        masks.append(mask | 1 << i)
    budget = draw(st.one_of(st.just(0), st.integers(1, 1 << count)))
    return masks, SearchLimits(max_candidates=budget, start_size=draw(st.integers(0, count)))


def search_outcome(search, masks, limits):
    try:
        return search(masks, limits)
    except BudgetExceededError as err:
        return str(err), err.cardinality_reached


@settings(max_examples=300, deadline=None)
@given(mask_searches())
@example(([], SearchLimits()))
@example(([], SearchLimits(max_candidates=0)))
def test_first_covering_matches_the_plain_enumeration(case):
    masks, limits = case
    assert (search_outcome(_first_covering, masks, limits)
            == search_outcome(plain_first_covering, masks, limits))


# Recorded from the plain enumeration, which tested every candidate: the
# walk skips most of them, and must count each one it skips.
@pytest.mark.parametrize("build, optimum, candidates", [
    (lambda: gnp(16, 0.12, 3), [0, 1, 2, 3, 7, 11, 12, 13, 14, 15], 5_711_584),
    (lambda: path(16), [0, 2, 4, 9, 14, 22, 27], 1_087_328),
    (lambda: cycle(16), [0, 1, 6, 11, 20, 25, 30], 1_233_367),
])
def test_skipped_subtrees_are_counted_whole(build, optimum, candidates):
    result = exact_total_cover(build())
    assert (sorted(result.optimum.ids), result.size, result.candidates_checked) == (
        optimum, len(optimum), candidates)


def test_search_deeper_than_the_recursion_limit():
    result = exact_total_cover(Graph(1500), SearchLimits(max_elements=1500, start_size=1499))
    assert (result.size, result.candidates_checked) == (1500, 1501)
