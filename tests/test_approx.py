import os
import random
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, strategies as st

import pytest

import tcover
from tcover import (
    Element,
    ElementSet,
    Graph,
    Matching,
    NotMaximumError,
    approx_total_cover,
    bad_vertex_assignment,
    greedy_domination_cover,
    is_total_cover,
    matched_vertices_cover,
    maximum_matching,
    total_cover_lower_bound,
)
from tcover.instances import (
    add_isolated,
    complete,
    cycle,
    enumerate_graphs,
    hard_instance,
    path,
    petersen,
    star,
)

from helpers import small_graphs


def test_bad_vertices_of_triangle():
    k3 = complete(3)
    assignment = bad_vertex_assignment(k3, Matching(k3, [0]))
    assert assignment.pairs == ((2, 0),)
    assert assignment.count == 1


def test_hard_instance_has_no_bad_vertices():
    g = hard_instance(4)
    assert bad_vertex_assignment(g, maximum_matching(g)).count == 0


def test_triangle_free_graphs_have_no_bad_vertices():
    for g in (cycle(6), petersen(), star(5)):
        assert bad_vertex_assignment(g, maximum_matching(g)).count == 0


def test_bad_vertex_collision_signals_non_maximum():
    # vertices 2 and 3 each close a triangle over the single matching
    # edge (0,1); edge (0,1) alone is therefore not a maximum matching
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    with pytest.raises(NotMaximumError):
        bad_vertex_assignment(g, Matching(g, [0]))


def test_bad_vertex_takes_lowest_edge_id():
    # unmatched vertex 4 of K5 closes triangles over both matching edges
    k5 = complete(5)
    matching = maximum_matching(k5)
    assignment = bad_vertex_assignment(k5, matching)
    assert assignment.count == 1
    (v, eid), = assignment.pairs
    assert v == 4
    assert eid == min(matching.edge_ids)


def test_lower_bound_values():
    assert total_cover_lower_bound(1, 1, 0) == 1
    assert total_cover_lower_bound(4, 0, 0) == 2
    assert total_cover_lower_bound(3, 1, 2) == 4


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        total_cover_lower_bound(-1, 0, 0)
    with pytest.raises(ValueError):
        total_cover_lower_bound(1, 2, 0)


def test_approx_k2():
    g = Graph(2, [(0, 1)])
    result = approx_total_cover(g)
    assert result.cover == ElementSet.of(g, edges=[0])
    assert (result.matching_size, result.bad_vertex_count, result.isolated_count) == (1, 0, 0)
    assert result.lower_bound == 1
    assert result.certified_ratio == 1


def test_approx_k3():
    g = complete(3)
    result = approx_total_cover(g)
    assert result.cover == ElementSet.of(g, vertices=[2], edges=[0])
    assert len(result.cover) == 2 == result.matching_size + result.bad_vertex_count


def test_approx_isolated_only():
    g = Graph(3, [])
    result = approx_total_cover(g)
    assert result.cover == ElementSet.of(g, vertices=[0, 1, 2])
    assert result.isolated_count == 3
    assert result.certified_ratio == 1


def test_approx_empty_graph():
    result = approx_total_cover(Graph(0, []))
    assert len(result.cover) == 0
    assert result.lower_bound == 0
    assert result.certified_ratio == 1


def test_approx_hard_instance_trace():
    g = hard_instance(4)
    result = approx_total_cover(g)
    assert len(result.cover) == 4
    assert (result.matching_size, result.bad_vertex_count, result.isolated_count) == (4, 0, 0)
    reasons = [step.reason for step in result.trace]
    assert reasons == ["endpoint", "matching-edge", "matching-edge", "matching-edge"]
    # the single endpoint addition is the rail top that covers the apex
    assert result.trace[0].element == Element.vertex(1)


def test_approx_with_isolated_vertex():
    g = add_isolated(Graph(2, [(0, 1)]), 1)
    result = approx_total_cover(g)
    assert len(result.cover) == 2
    assert {step.step for step in result.trace} == {1, 3}


def test_approx_k5_uses_bad_round():
    result = approx_total_cover(complete(5))
    assert result.bad_vertex_count == 1
    assert [s.reason for s in result.trace].count("bad-vertex") == 1
    assert [s.reason for s in result.trace].count("bad-edge") == 1


def test_matched_vertices_cover_examples():
    k2 = Graph(2, [(0, 1)])
    assert matched_vertices_cover(k2) == ElementSet.of(k2, vertices=[0, 1])
    assert len(matched_vertices_cover(hard_instance(4), "maximum")) == 8
    empty2 = Graph(2, [])
    assert matched_vertices_cover(empty2) == ElementSet.of(empty2, vertices=[0, 1])


def test_matched_vertices_cover_maximal_mode():
    g = hard_instance(4)
    for mode in ("maximal", "maximum"):
        cover = matched_vertices_cover(g, mode)
        assert is_total_cover(g, cover)[0]
    with pytest.raises(ValueError):
        matched_vertices_cover(g, "approximate")


def test_greedy_domination_star():
    g = star(5)
    cover = greedy_domination_cover(g)
    assert is_total_cover(g, cover)[0]
    assert len(cover) <= 2
    assert 0 in cover.vertex_ids


def test_greedy_domination_k2():
    g = Graph(2, [(0, 1)])
    # T(K2) is a triangle; the tie breaks to the lowest id, vertex 0
    assert greedy_domination_cover(g) == ElementSet.of(g, vertices=[0])


def test_greedy_domination_single_vertex():
    g = Graph(1, [])
    assert greedy_domination_cover(g) == ElementSet.of(g, vertices=[0])


def test_sweep_small_graphs():
    for g in enumerate_graphs(4):
        result = approx_total_cover(g)
        ok, witness = is_total_cover(g, result.cover)
        assert ok, witness
        assert len(result.cover) == (
            result.matching_size + result.bad_vertex_count + result.isolated_count
        )
        assert len(result.cover) <= 2 * result.lower_bound or result.lower_bound == 0
        assert result.certified_ratio <= 2
        # chosen bad edges pairwise distinct
        matching = maximum_matching(g)
        assignment = bad_vertex_assignment(g, matching)
        edge_ids = assignment.edge_ids()
        assert len(edge_ids) == len(set(edge_ids))
        # baselines stay valid too
        assert is_total_cover(g, matched_vertices_cover(g))[0]
        assert is_total_cover(g, greedy_domination_cover(g))[0]


@given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 200))
def test_factor_two_certificate_is_algebraic(matching_size, extra, isolated):
    # m + k + t never exceeds twice ceil((m+k)/2) + t, for any k <= m
    bad = min(extra, matching_size)
    size = matching_size + bad + isolated
    bound = total_cover_lower_bound(matching_size, bad, isolated)
    assert size <= 2 * bound
    if size:
        assert Fraction(size, bound) <= 2


@given(small_graphs())
def test_approx_valid_on_random_graphs(g):
    result = approx_total_cover(g)
    assert is_total_cover(g, result.cover)[0]
    assert len(result.cover) == (
        result.matching_size + result.bad_vertex_count + result.isolated_count
    )


CERTIFICATE_UNDER_O = """
import sys
import tcover.approx
from tcover import CertificateError, Element
from tcover.instances import path

if __debug__:
    sys.exit("expected to run under python -O")
tcover.approx.is_total_cover = lambda g, d: (False, Element.vertex(1))
try:
    tcover.approx.approx_total_cover(path(3))
except CertificateError as exc:
    print(exc)
    sys.exit(0)
sys.exit("approx_total_cover returned a cover that failed validation")
"""


def test_certificate_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(tcover.__file__))
    env = {**os.environ, "PYTHONPATH": src}  # the child needs only tcover and the stdlib
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFICATE_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "constructed cover misses vertex 2\n"


def planted_graph(seed: int) -> Graph:
    """64,000 vertices under shuffled labels: a 60,000-vertex random graph
    of average degree 4 that contains a perfect matching, 1,000 disjoint
    triangles and 1,000 isolated vertices, so m = 31,000, k = t = 1,000."""
    rng = random.Random(seed)
    label = list(range(64000))
    rng.shuffle(label)
    core = {(2 * i, 2 * i + 1) for i in range(30000)}
    while len(core) < 120000:
        u, v = sorted(rng.sample(range(60000), 2))
        core.add((u, v))
    pairs = sorted(core)
    for a in range(60000, 63000, 3):
        pairs += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return Graph(64000, [(label[u], label[v]) for u, v in pairs])


@pytest.mark.parametrize("build, m, k, t", [
    (lambda: path(200001), 100000, 0, 0),
    (lambda: star(100001), 1, 0, 0),
    (lambda: planted_graph(7), 31000, 1000, 1000),
], ids=["path200001", "star100001", "planted64k"])
def test_approx_at_scale(build, m, k, t):
    result = approx_total_cover(build())
    assert (result.matching_size, result.bad_vertex_count, result.isolated_count) == (m, k, t)
