import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc

from hypothesis import given, settings, strategies as st

import pytest

import tcover
from tcover import (
    CertificateError,
    ElementSet,
    Graph,
    GraphError,
    Matching,
    TraceStep,
    approx_total_cover,
    bad_vertex_assignment,
    exact_total_cover,
    greedy_domination_cover,
    is_total_cover,
    matched_vertices_cover,
    maximum_matching,
    serialize_cover,
    total_cover_lower_bound,
)
from tcover.instances import complete, cycle, gnp, hard_instance, path, star

from helpers import (enumerate_graphs, golden_graph, greedy_maximal_matching, petersen,
                     reference_trace, shuffled_copies, small_graphs, sparse_graphs_with_a_hub,
                     verify_matching)


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
    with pytest.raises(CertificateError, match="^vertices 2 and 3 both close a triangle over "
                       "matching edge 0; the matching is not maximum$"):
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
    # bad input, so a GraphError, which is a ValueError and exits 2
    with pytest.raises(GraphError, match="^certificate quantities must be non-negative$"):
        total_cover_lower_bound(-1, 0, 0)
    with pytest.raises(GraphError, match="^bad vertex count cannot exceed the matching size$"):
        total_cover_lower_bound(1, 2, 0)


def test_approx_k2():
    g = Graph(2, [(0, 1)])
    result = approx_total_cover(g)
    assert result.cover == ElementSet(g, [g.n + 0])
    assert (result.matching.size, result.bad_vertex_count, result.isolated_count) == (1, 0, 0)
    assert len(result.cover) == result.lower_bound == 1


def test_approx_k3():
    g = complete(3)
    result = approx_total_cover(g)
    assert result.cover == ElementSet(g, [2, g.n + 0])
    assert len(result.cover) == 2 == result.matching.size + result.bad_vertex_count


def test_approx_isolated_only():
    g = Graph(3, [])
    result = approx_total_cover(g)
    assert result.cover == ElementSet(g, [0, 1, 2])
    assert result.isolated_count == 3
    assert len(result.cover) == result.lower_bound == 3


def test_approx_empty_graph():
    result = approx_total_cover(Graph(0, []))
    assert len(result.cover) == 0
    assert result.lower_bound == 0


def test_approx_hard_instance_trace():
    g = hard_instance(4)
    result = approx_total_cover(g)
    assert len(result.cover) == 4
    assert (result.matching.size, result.bad_vertex_count, result.isolated_count) == (4, 0, 0)
    trace = tuple(result.trace)
    assert [step.reason for step in trace] == ["endpoint", "matching-edge", "matching-edge",
                                               "matching-edge"]
    # the single endpoint addition is the rail top that covers the apex
    assert trace[0].element == 1


def test_approx_with_isolated_vertex():
    g = Graph(3, [(0, 1)])
    result = approx_total_cover(g)
    assert len(result.cover) == 2
    assert {step.step for step in result.trace} == {1, 3}


def test_step3_rejects_a_matching_edge_with_two_unmatched_sides(monkeypatch):
    # in path(4) the lone middle edge leaves 0 and 3 unmatched, one beside
    # each endpoint: an augmenting path, so the matching is not maximum
    g = path(4)
    monkeypatch.setattr(tcover.approx, "maximum_matching", lambda graph: Matching(path(4), [1]))
    with pytest.raises(CertificateError) as info:
        approx_total_cover(g)
    assert str(info.value) == "both endpoints of matching edge 1 reach unmatched vertices"


@settings(max_examples=200, deadline=None)
@given(sparse_graphs_with_a_hub())
def test_step3_trace_matches_the_per_endpoint_scan(g):
    assert tuple(approx_total_cover(g).trace) == reference_trace(g)


@given(small_graphs(), small_graphs())
def test_cover_of_a_disjoint_union_is_the_union_of_the_covers(g, h):
    # each search stays in its root's component and steps 2 and 3 read only
    # neighbourhoods, so U = G + H (H's vertices shifted by n_G) is covered
    # as G and H are; G's edges rank first in U, then H's shifted edges
    u = Graph(g.n + h.n, [*g.edges, *((a + g.n, b + g.n) for a, b in h.edges)])
    n, m_g = u.n, len(g.edges)
    covers = approx_total_cover(g), approx_total_cover(h)
    ids = [x if x < g.n else n + x - g.n for x in covers[0].cover]
    ids += [g.n + x if x < h.n else n + m_g + x - h.n for x in covers[1].cover]
    result = approx_total_cover(u)
    assert result.cover == ElementSet(u, ids)
    assert result.matching.size == covers[0].matching.size + covers[1].matching.size
    assert result.bad_vertex_count == covers[0].bad_vertex_count + covers[1].bad_vertex_count
    assert result.isolated_count == covers[0].isolated_count + covers[1].isolated_count


def test_trace_step_is_a_named_tuple():
    step = TraceStep(step=1, reason="isolated", element=0)
    assert step == TraceStep(1, "isolated", 0) == (1, "isolated", 0)
    assert TraceStep._fields == ("step", "reason", "element")
    assert (step.step, step.reason, step.element) == tuple(step)
    assert repr(step) == "TraceStep(step=1, reason='isolated', element=0)"
    with pytest.raises(AttributeError):
        step.reason = "endpoint"


@pytest.mark.parametrize("build", [lambda: Graph(1 << 16), lambda: gnp(4000, 5e-4, 3)],
                         ids=["edgeless65536", "gnp4000"])
def test_result_retains_under_100_bytes_per_cover_element(build):
    # storing each element once (a flag byte in the cover, an int in the step
    # order, a mate entry per vertex) takes 49 and 82 bytes per element here;
    # a TraceStep per element plus a frozenset of ids took 152 and 269
    g = build()
    tracemalloc.start()
    try:
        result = approx_total_cover(g)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 100 * len(result.cover)


def test_approx_k5_uses_bad_round():
    result = approx_total_cover(complete(5))
    assert result.bad_vertex_count == 1
    assert [s.reason for s in result.trace].count("bad-vertex") == 1
    assert [s.reason for s in result.trace].count("bad-edge") == 1


def test_matched_vertices_cover_examples():
    k2 = Graph(2, [(0, 1)])
    assert matched_vertices_cover(maximum_matching(k2)) == ElementSet(k2, [0, 1])
    g = hard_instance(4)
    assert len(matched_vertices_cover(maximum_matching(g))) == 8
    empty2 = Graph(2, [])
    assert matched_vertices_cover(maximum_matching(empty2)) == ElementSet(empty2, [0, 1])


def test_matched_vertices_cover_maximal_mode():
    g = hard_instance(4)
    for find in (greedy_maximal_matching, maximum_matching):
        cover = matched_vertices_cover(find(g))
        assert is_total_cover(cover)[0]


def test_matched_vertices_cover_reuses_a_given_matching():
    for g in (hard_instance(4), complete(5), Graph(7, path(5).edges)):
        result = approx_total_cover(g)
        assert result.matching == maximum_matching(g)
        assert matched_vertices_cover(result.matching) == matched_vertices_cover(
            maximum_matching(g))


def test_each_baseline_certifies_its_cover(monkeypatch):
    k3 = complete(3)
    monkeypatch.setattr(tcover.graph, "is_total_cover", lambda d: (False, 0))
    for build in (lambda: matched_vertices_cover(maximum_matching(k3)),
                  lambda: greedy_domination_cover(k3)):
        with pytest.raises(CertificateError, match=r"^baseline cover misses vertex 1$"):
            build()


def test_greedy_domination_star():
    g = star(5)
    cover = greedy_domination_cover(g)
    assert is_total_cover(cover)[0]
    assert len(cover) <= 2
    assert 0 in set(cover)


def test_greedy_domination_k2():
    g = Graph(2, [(0, 1)])
    # T(K2) is a triangle; the tie breaks to the lowest id, vertex 0
    assert greedy_domination_cover(g) == ElementSet(g, [0])


def test_greedy_domination_single_vertex():
    g = Graph(1, [])
    assert greedy_domination_cover(g) == ElementSet(g, [0])


def test_greedy_domination_edgeless_is_not_quadratic():
    # every vertex is its own pick; a full scan of the gains per pick took
    # about 2 s at 10,000 vertices and minutes at 100,000
    g = Graph(100_000)
    start = time.perf_counter()
    cover = greedy_domination_cover(g)
    elapsed = time.perf_counter() - start
    assert list(cover) == list(range(100_000))
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"


def test_greedy_domination_of_a_star_holds_only_the_rows():
    # gains, heap and T(G)'s rows; T(G) as a Graph, with its 502,500-pair
    # edge tuple, made this peak at 42.6 MiB
    g = star(1001)
    tracemalloc.start()
    try:
        cover = greedy_domination_cover(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert list(cover) == [0]


def test_greedy_domination_heap_holds_one_int_per_entry():
    # a (-gain, id) tuple per heap entry and a list of dominated flags made
    # this peak at 29.4 MiB; one int per entry and a bytearray, 15.6 MiB
    g = Graph(1 << 18)
    tracemalloc.start()
    try:
        cover = greedy_domination_cover(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert len(cover) == 1 << 18


# sha256 of the cover file, recorded from the greedy that recomputed every
# gain on each pick: keeping the gains must return the very same cover.
GOLDEN_GREEDY = {
    "gnp300": (lambda: gnp(300, 0.02, 1), 145,
               "ad1a040cf9cf2300fc42b5a925449b138f90e22289f7fca85df43dc58e5ca73d"),
    "hard200": (lambda: hard_instance(200), 101,
                "0672073002720231e3937f1a15ce4e6a6d3121c7ef19d8ea8fbf9c20d0bde5e8"),
    "gnp600": (lambda: gnp(600, 0.01, 2), 273,
               "43388bd6609fe693b52fce7f44116db8e462de9332538b69257991738adc987a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GREEDY))
def test_greedy_domination_golden(name):
    build, size, digest = GOLDEN_GREEDY[name]
    cover = greedy_domination_cover(build())
    assert len(cover) == size
    assert hashlib.sha256(serialize_cover(cover).encode()).hexdigest() == digest


# (size, sha256 of the cover file) of the matched-vertices baseline on each
# golden graph, under the maximum and the greedy maximal matching, recorded
# while the baseline still chose its matching from a mode string.
GOLDEN_MATCHED_VERTICES = {
    ("gnp300", "maximum"): (300, "cf5753f674edd69b286deb0b4ca7131d8c2bdc72da1144ff58532645ffa57d06"),
    ("gnp300", "maximal"): (294, "32ff451d085c04627c156fdc67bd804d468ae9d167e6d07d4dd97742fb227b77"),
    ("gnp600", "maximum"): (590, "b08616f0cae155244e1952cfaab574bc5d5552c518ccdcb029ab8210754d15b4"),
    ("gnp600", "maximal"): (502, "39e7321ffcc147c96dba1679651308ad0a097936198628a70b7b768e3e211e6d"),
    ("hard3000", "maximum"): (6000, "0d6c11ecaf487e916738a8bdb8bc5713a5bad8830944f16f3e2fd820588f703d"),
    ("hard3000", "maximal"): (6000, "0d6c11ecaf487e916738a8bdb8bc5713a5bad8830944f16f3e2fd820588f703d"),
    ("star8001", "maximum"): (2, "f7273fc22e528de8d6ffa5c41bcb6fed3776391ceedfc2718e2e5191af2d37f6"),
    ("star8001", "maximal"): (2, "f7273fc22e528de8d6ffa5c41bcb6fed3776391ceedfc2718e2e5191af2d37f6"),
    ("triangles", "maximum"): (584, "2e81649250485d6f94a5f0d17ddd7dab9f0d52d8287e259fb24ecd727b0b29ff"),
    ("triangles", "maximal"): (584, "2e81649250485d6f94a5f0d17ddd7dab9f0d52d8287e259fb24ecd727b0b29ff"),
}


@pytest.mark.parametrize("name,kind", sorted(GOLDEN_MATCHED_VERTICES))
def test_matched_vertices_golden(name, kind):
    size, digest = GOLDEN_MATCHED_VERTICES[name, kind]
    g = golden_graph(name)
    find = maximum_matching if kind == "maximum" else greedy_maximal_matching
    cover = matched_vertices_cover(find(g))
    assert len(cover) == size
    assert hashlib.sha256(serialize_cover(cover).encode()).hexdigest() == digest


def test_sweep_small_graphs():
    for g in enumerate_graphs(4):
        result = approx_total_cover(g)
        ok, witness = is_total_cover(result.cover)
        assert ok, witness
        assert len(result.cover) == (
            result.matching.size + result.bad_vertex_count + result.isolated_count
        )
        assert len(result.cover) <= 2 * result.lower_bound
        # chosen bad edges pairwise distinct
        matching = maximum_matching(g)
        assignment = bad_vertex_assignment(g, matching)
        edge_ids = [eid for _, eid in assignment.pairs]
        assert len(edge_ids) == len(set(edge_ids))
        # baselines stay valid too
        assert is_total_cover(matched_vertices_cover(matching))[0]
        assert is_total_cover(greedy_domination_cover(g))[0]


@given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 200))
def test_factor_two_certificate_is_algebraic(matching_size, extra, isolated):
    # m + k + t never exceeds twice ceil((m+k)/2) + t, for any k <= m
    bad = min(extra, matching_size)
    size = matching_size + bad + isolated
    bound = total_cover_lower_bound(matching_size, bad, isolated)
    assert size <= 2 * bound


@given(small_graphs())
def test_approx_valid_on_random_graphs(g):
    result = approx_total_cover(g)
    assert is_total_cover(result.cover)[0]
    assert len(result.cover) == (
        result.matching.size + result.bad_vertex_count + result.isolated_count
    )


@given(shuffled_copies())
def test_certificate_is_invariant_under_shuffled_edges(case):
    # edge ids are the pairs' ranks, so results are equal as wholes:
    # matching, trace, cover, baselines and the exact optimum
    g, shuffled = case
    assert maximum_matching(shuffled) == maximum_matching(g)
    assert approx_total_cover(shuffled) == approx_total_cover(g)
    assert greedy_domination_cover(shuffled) == greedy_domination_cover(g)
    if g.n + len(g.edges) <= 20:
        assert exact_total_cover(shuffled) == exact_total_cover(g)


# each takes the graph g and a graph h, and reads a matching of h against g
GUARDED = {
    "bad_vertex_assignment": lambda g, h: bad_vertex_assignment(g, maximum_matching(h)),
    "verify_matching": lambda g, h: verify_matching(g, maximum_matching(h), "maximum"),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_a_matching_or_cover_of_another_graph_is_rejected(name):
    check = GUARDED[name]
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])  # k = 2, t = 1
    # the library's guard raises GraphError, the independent helper a plain ValueError
    error = GraphError if name == "bad_vertex_assignment" else ValueError
    for other in (Graph(6, g.edges), Graph(g.n + 1, g.edges)):
        with pytest.raises(error, match="^the matching belongs to another graph$"):
            check(g, other)
    # the same edges listed in another order, each pair reversed, are the same graph
    shuffled = Graph(g.n, [(v, u) for u, v in reversed(g.edges)])
    assert check(g, shuffled) == check(g, g)


CERTIFICATE_UNDER_O = """
import sys
import tcover.approx
import tcover.graph
from tcover import CertificateError
from tcover.instances import path

if __debug__:
    sys.exit("expected to run under python -O")
tcover.graph.is_total_cover = lambda d: (False, 1)
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
    (lambda: hard_instance(100_000), 100000, 0, 0),
], ids=["path200001", "star100001", "planted64k", "hard100000"])
def test_approx_at_scale(build, m, k, t):
    result = approx_total_cover(build())
    assert (result.matching.size, result.bad_vertex_count, result.isolated_count) == (m, k, t)
