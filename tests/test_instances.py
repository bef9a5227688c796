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
