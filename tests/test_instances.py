import hashlib

from hypothesis import given, strategies as st
import pytest

from tcover import (
    ElementSet,
    Graph,
    OddParameterError,
    ParameterOutOfRangeError,
    add_isolated,
    is_total_cover,
    isolated_vertices,
    maximum_matching,
    serialize_graph,
)
from tcover.instances import (
    complete,
    cycle,
    enumerate_graphs,
    gnp,
    hard_instance,
    path,
    petersen,
    star,
)


def test_hard_instance_structure():
    g = hard_instance(4)
    assert g.n == 9
    assert len(g.edges) == 10
    assert g.edge_pairs() == [
        (0, 1), (0, 2), (0, 3), (0, 4),       # spokes
        (1, 5), (2, 6), (3, 7), (4, 8),       # rails
        (5, 6), (7, 8),                        # rungs
    ]


def test_hard_instance_smallest():
    g = hard_instance(2)
    assert (g.n, len(g.edges)) == (5, 5)


def test_hard_instance_parameter_checks():
    with pytest.raises(OddParameterError):
        hard_instance(3)
    with pytest.raises(ParameterOutOfRangeError):
        hard_instance(0)


def test_hard_instance_matching_and_cover():
    for n in (2, 4, 6, 8):
        g = hard_instance(n)
        assert maximum_matching(g).size == n
        rungs = range(2 * n, 2 * n + n // 2)
        cover = ElementSet(g, vertices=[0], edges=rungs)
        assert is_total_cover(g, cover)[0]
        assert len(cover) == n // 2 + 1


def test_standard_families():
    assert len(path(3).edges) == 2
    assert len(cycle(5).edges) == 5
    assert len(complete(4).edges) == 6
    assert len(star(5).adj[0]) == 4
    assert path(1).n == 1


def test_family_parameter_checks():
    with pytest.raises(ParameterOutOfRangeError):
        path(0)
    with pytest.raises(ParameterOutOfRangeError):
        cycle(2)
    with pytest.raises(ParameterOutOfRangeError):
        star(0)
    with pytest.raises(ParameterOutOfRangeError):
        complete(0)


def test_gnp_extremes():
    assert len(gnp(10, 0.0, 7).edges) == 0
    assert gnp(10, 1.0, 7) == complete(10)


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
    assert gnp(n, p, seed).edge_pairs() == splitmix64_gnp_pairs(n, p, seed)


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
    with pytest.raises(ParameterOutOfRangeError):
        gnp(5, 1.5, 0)
    with pytest.raises(ParameterOutOfRangeError):
        gnp(-1, 0.5, 0)


def test_add_isolated():
    g = add_isolated(Graph(2, [(0, 1)]), 2)
    assert g.n == 4
    assert isolated_vertices(g) == [2, 3]
    unchanged = add_isolated(cycle(4), 0)
    assert unchanged == cycle(4)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_enumerate_guard():
    with pytest.raises(ParameterOutOfRangeError):
        next(enumerate_graphs(7))


def test_enumerate_is_deterministic():
    first = [g.edge_pairs() for g in enumerate_graphs(3)]
    second = [g.edge_pairs() for g in enumerate_graphs(3)]
    assert first == second
    assert first[0] == []
    assert first[-1] == [(0, 1), (0, 2), (1, 2)]


def test_petersen():
    g = petersen()
    assert g.n == 10
    assert len(g.edges) == 15
    assert all(len(g.adj[v]) == 3 for v in range(10))
