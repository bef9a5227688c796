import hashlib
import tracemalloc

from hypothesis import given, strategies as st
import pytest

from tcover import (
    ElementSet,
    Graph,
    GraphError,
    is_total_cover,
    maximum_matching,
    serialize_graph,
)
from tcover.instances import complete, cycle, gnp, hard_instance, path, star
from tcover.graph import MAX_VERTICES

from helpers import enumerate_graphs, petersen


@pytest.mark.parametrize("make, n", [
    (path, MAX_VERTICES + 1),
    (cycle, MAX_VERTICES + 1),
    (star, MAX_VERTICES + 1),
    (complete, MAX_VERTICES + 1),
    (lambda n: gnp(n, 0.5, 1), MAX_VERTICES + 1),
    (hard_instance, MAX_VERTICES // 2),  # 2n + 1 vertices
])
def test_generators_reject_more_than_max_vertices_before_allocating(make, n):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError,
                           match=f"^vertex count {MAX_VERTICES + 1} exceeds MAX_VERTICES={MAX_VERTICES}$"):
            make(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [2897, 100000, MAX_VERTICES])
def test_complete_rejects_more_than_max_vertices_edges_before_allocating(n):
    assert 2896 * 2895 // 2 <= MAX_VERTICES < 2897 * 2896 // 2
    tracemalloc.start()
    try:
        with pytest.raises(GraphError,
                           match=fr"^complete\({n}\) has {n * (n - 1) // 2} edges, more than MAX_VERTICES={MAX_VERTICES}$"):
            complete(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hard_instance_structure():
    g = hard_instance(4)
    assert g.n == 9
    assert len(g.edges) == 10
    assert list(g.edges) == [
        (0, 1), (0, 2), (0, 3), (0, 4),       # spokes
        (1, 5), (2, 6), (3, 7), (4, 8),       # rails
        (5, 6), (7, 8),                        # rungs
    ]


def test_hard_instance_smallest():
    g = hard_instance(2)
    assert (g.n, len(g.edges)) == (5, 5)


def test_hard_instance_parameter_checks():
    with pytest.raises(GraphError, match="^family requires even n, got 3$"):
        hard_instance(3)
    with pytest.raises(GraphError, match="^family requires n >= 2, got 0$"):
        hard_instance(0)


def test_hard_instance_matching_and_cover():
    for n in (2, 4, 6, 8):
        g = hard_instance(n)
        assert maximum_matching(g).size == n
        rungs = range(g.n + 2 * n, g.n + 2 * n + n // 2)
        cover = ElementSet(g, [0, *rungs])
        assert is_total_cover(cover)[0]
        assert len(cover) == n // 2 + 1


def test_standard_families():
    assert len(path(3).edges) == 2
    assert len(cycle(5).edges) == 5
    assert len(complete(4).edges) == 6
    assert len(star(5).adj[0]) == 4
    assert path(1).n == 1


def test_family_parameter_checks():
    with pytest.raises(GraphError, match="^path requires n >= 1, got 0$"):
        path(0)
    with pytest.raises(GraphError, match="^cycle requires n >= 3, got 2$"):
        cycle(2)
    with pytest.raises(GraphError, match="^star requires n >= 1, got 0$"):
        star(0)
    with pytest.raises(GraphError, match="^complete requires n >= 1, got 0$"):
        complete(0)


def test_gnp_extremes():
    # draws come in chunks of n - 1; for odd n the last chunk is half full
    for n in [*range(41), 257]:
        for seed in (7, 2**64 - 1):
            assert gnp(n, 1.0, seed) == (complete(n) if n else Graph(0))
            assert len(gnp(n, 0.0, seed).edges) == 0


def test_gnp_working_memory_is_linear_in_n():
    tracemalloc.start()
    try:
        gnp(4000, 0.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # a flag byte per pair would take 8 MB


@pytest.mark.parametrize("make, n, limit", [(path, 1 << 16, 18), (hard_instance, 1 << 15, 20)])
def test_generators_hand_graph_their_pairs_lazily(make, n, limit):
    # Graph's keys and edges take about 14 MiB here; a list of the pairs beside them adds 8 more
    tracemalloc.start()
    try:
        make(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit << 20


def test_gnp_is_deterministic():
    a = gnp(10, 0.3, 42)
    b = gnp(10, 0.3, 42)
    assert a == b
    assert gnp(10, 0.3, 43) != a  # a different seed moves at least one pair


def splitmix64_gnp_pairs(n, p, seed):
    """Per-pair reference: one splitmix64 draw per pair (u, v), u < v, in
    lexicographic order, kept when the draw falls below p * 2**64."""
    mask = (1 << 64) - 1
    threshold = int(p * 2.0 ** 64)
    state = seed & mask
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            if z ^ (z >> 31) < threshold:
                pairs.append((u, v))
    return pairs


@given(
    st.integers(0, 70) | st.sampled_from([0, 1, 2]),
    st.sampled_from([0.0, 1.0, 1e-12]) | st.floats(0.0, 1.0),
    st.sampled_from([0, 2**64 - 1, 2**64 + 5, -1]) | st.integers(0, 2**64 - 1),
)
def test_gnp_matches_per_pair_splitmix64(n, p, seed):
    assert list(gnp(n, p, seed).edges) == splitmix64_gnp_pairs(n, p, seed)


# sha256 of serialize_graph(gnp(n, p, seed)), recorded from the per-pair
# generator; the first is the perfbench gen-gnp input at seed 101.
GOLDEN_GNP = [
    ((1200, 0.0033, 2972571474616006777),
     "4240084fa087b81ca324d3403994ec9f5bef841874b29af0f1bcfcae2c3afda0"),
    ((2000, 0.001, 1), "4f34a8b9c564893a4a06e9bb04be99407300aa581cd24d0bd827e064dda49f50"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_GNP, ids=["gen-gnp-101", "n2000"])
def test_gnp_golden_hashes(args, digest):
    text = serialize_graph(gnp(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gnp_parameter_checks():
    with pytest.raises(GraphError, match="^gnp requires 0 <= p <= 1, got 1.5$"):
        gnp(5, 1.5, 0)
    with pytest.raises(GraphError, match="^gnp requires n >= 0, got -1$"):
        gnp(-1, 0.5, 0)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_enumerate_guard():
    with pytest.raises(GraphError, match="^enumeration is limited to 0 <= n <= 6, got 7$"):
        next(enumerate_graphs(7))


def test_enumerate_is_deterministic():
    first = [list(g.edges) for g in enumerate_graphs(3)]
    second = [list(g.edges) for g in enumerate_graphs(3)]
    assert first == second
    assert first[0] == []
    assert first[-1] == [(0, 1), (0, 2), (1, 2)]


def test_petersen():
    g = petersen()
    assert g.n == 10
    assert len(g.edges) == 15
    assert all(len(g.adj[v]) == 3 for v in range(10))
