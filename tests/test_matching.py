import hashlib
import os
import random
import subprocess
import sys
import tracemalloc

from hypothesis import given, settings, strategies as st

import pytest

import tcover
from tcover import (
    Graph,
    GraphError,
    Matching,
    TooLargeError,
    maximum_matching,
)
from tcover.instances import complete, cycle, gnp, hard_instance, path

from helpers import (brute_force_maximum_matching, chorded_odd_cycles, enumerate_graphs,
                     golden_graph, greedy_maximal_matching, petersen, reference_maximum_matching,
                     small_graphs, sparse_graphs_with_a_hub, sparse_graphs_with_pendant_triangles,
                     verify_matching)


def test_matching_partner_map():
    g = path(4)
    m = Matching(g, [0, 2])
    assert m.size == 2
    assert m.mate == (1, 0, 3, 2)
    assert m.edge_ids == (0, 2)
    assert [v for v in range(g.n) if not m.is_matched(v)] == []


def test_matching_rejects_shared_endpoint():
    g = path(3)
    with pytest.raises(GraphError):
        Matching(g, [0, 1])


def test_greedy_k2():
    assert greedy_maximal_matching(Graph(2, [(0, 1)])).size == 1


def test_greedy_p3_takes_first_edge():
    m = greedy_maximal_matching(path(3))
    assert sorted(m.edge_ids) == [0]


def test_greedy_c4():
    assert greedy_maximal_matching(cycle(4)).size == 2


def test_maximum_hard_instance():
    assert maximum_matching(hard_instance(4)).size == 4


def test_maximum_matching_is_reproducible():
    g = hard_instance(4)
    first = maximum_matching(g)
    second = maximum_matching(g)
    assert first.edge_ids == second.edge_ids
    # frozen: the spoke (0,1) plus the last three rails
    assert sorted(first.edge_ids) == [0, 5, 6, 7]


def test_matching_serializes_as_cover_file():
    from tcover import ElementSet, parse_cover, serialize_cover

    g = cycle(6)
    m = maximum_matching(g)
    ids = {g.n + eid for eid in m.edge_ids}
    text = serialize_cover(ElementSet(g, ids))
    assert all(line.startswith("e ") for line in text.splitlines())
    assert set(parse_cover(text, g)) == ids


def test_maximum_odd_cycle():
    assert maximum_matching(cycle(5)).size == 2


def test_maximum_petersen():
    assert maximum_matching(petersen()).size == 5


def test_brute_force_examples():
    assert brute_force_maximum_matching(complete(3)).size == 1
    assert brute_force_maximum_matching(complete(4)).size == 2
    assert brute_force_maximum_matching(cycle(7)).size == 3


def test_brute_force_guard():
    with pytest.raises(TooLargeError):
        brute_force_maximum_matching(complete(8))  # 28 edges


def test_verify_modes():
    k2 = Graph(2, [(0, 1)])
    assert verify_matching(k2, Matching(k2, [0]), "maximum")
    p3 = path(3)
    assert Matching(p3, []).mate == (-1, -1, -1)  # valid: the constructor accepts it
    assert not verify_matching(p3, Matching(p3, []), "maximal")
    c5 = cycle(5)
    assert verify_matching(c5, greedy_maximal_matching(c5), "maximum")


def test_verify_rejects_bad_edge_sets():
    p3 = path(3)
    with pytest.raises(GraphError, match="share endpoint"):
        Matching(p3, [0, 1])  # share vertex 1
    with pytest.raises(GraphError, match="leaves"):
        Matching(p3, [7])  # no such edge


# expected GraphError: the ids make no Matching; mode None: only construct one
@pytest.mark.parametrize("g, ids, mode, expected", [
    (path(3), [-1], None, GraphError),
    (path(3), [2], None, GraphError),  # id == len(g.edges)
    (path(3), [0, 0], None, True),  # a repeated id is one edge
    (path(3), [0, 0], "maximum", True),
    (path(3), [0, 1], None, GraphError),  # share vertex 1
    (path(3), [0, 1], "maximal", GraphError),
    (path(4), [1], "maximal", True),
    (path(4), [1], "maximum", False),
    (Graph(3, []), [], "maximum", True),
    (Graph(0, []), [], "maximum", True),
], ids=["negative", "one-past-last", "duplicate", "duplicate-maximum", "shared-endpoint",
        "shared-endpoint-maximal", "equal-graph-maximal", "equal-graph-maximum",
        "edgeless", "empty"])
def test_verify_matching_validity_edges(g, ids, mode, expected):
    equal = Graph(g.n, g.edges)  # each matching is built on a graph equal to g, not g itself
    if expected is GraphError:
        with pytest.raises(GraphError):
            Matching(equal, ids)
        return
    matching = Matching(equal, ids)
    assert matching.edge_ids == tuple(sorted(set(ids)))
    assert mode is None or verify_matching(g, matching, mode) is expected


def test_verify_detects_non_maximum():
    # matching {middle edge} of P4 is maximal but not maximum
    p4 = path(4)
    assert verify_matching(p4, Matching(p4, [1]), "maximal")
    assert not verify_matching(p4, Matching(p4, [1]), "maximum")


def test_verify_mode_validation():
    with pytest.raises(ValueError):
        verify_matching(path(3), Matching(path(3)), "biggest")
    with pytest.raises(ValueError, match="unknown mode 'valid'"):
        verify_matching(path(3), Matching(path(3)), "valid")


def test_verify_rejects_a_matching_of_another_graph():
    # the same edges as path(4) in another order make the same graph
    reordered = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert reordered == path(4)
    assert verify_matching(reordered, Matching(path(4), [0, 2]), "maximum")
    # another edge set is another graph, whatever the ids name
    closed = Graph(4, [(0, 1), (2, 3), (0, 3)])
    with pytest.raises(ValueError, match="another graph"):
        verify_matching(closed, Matching(path(4), [0, 2]), "maximum")


@pytest.mark.parametrize("g", [path(3001), cycle(3001)], ids=["path3001", "cycle3001"])
def test_verify_maximum_on_long_alternating_paths(g):
    assert verify_matching(g, maximum_matching(g), "maximum")


def test_verify_finds_a_long_augmenting_path():
    # the inner edges of P3000 leave both ends free: one augmenting path
    # through all 3000 vertices
    g = path(3000)
    assert not verify_matching(g, Matching(g, range(1, 2998, 2)), "maximum")


def test_blossom_handles_odd_components():
    # triangle pair joined by a bridge: 0-1-2-0, 3-4-5-3, bridge 2-3
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert maximum_matching(g).size == 3
    assert brute_force_maximum_matching(g).size == 3


def test_exhaustive_small_corpus():
    for n in range(5):
        for g in enumerate_graphs(n):
            blossom = maximum_matching(g)
            brute = brute_force_maximum_matching(g)
            assert blossom.size == brute.size, g.edges
            assert verify_matching(g, blossom, "maximum")
            greedy = greedy_maximal_matching(g)
            assert verify_matching(g, greedy, "maximal")
            assert 2 * greedy.size >= blossom.size


def test_cycles_and_paths():
    for n in range(3, 16):
        assert maximum_matching(cycle(n)).size == n // 2
        assert maximum_matching(path(n)).size == n // 2


@given(small_graphs())
def test_matching_invariants_random(g):
    blossom = maximum_matching(g)
    assert verify_matching(g, blossom, "maximal")
    greedy = greedy_maximal_matching(g)
    assert 2 * greedy.size >= blossom.size
    unmatched = [v for v in range(g.n) if not blossom.is_matched(v)]
    # unmatched vertices of a maximum matching form an independent set
    assert not any(
        g.edge_id(u, v) is not None for i, u in enumerate(unmatched) for v in unmatched[i + 1:]
    )


@given(small_graphs(max_n=5))
def test_maximum_matches_brute_force_random(g):
    assert maximum_matching(g).size == brute_force_maximum_matching(g).size


# sha256 of the space-joined sorted edge ids, recorded from the search that
# allocated its arrays per root: a faster search must return the very same
# matching, not just one of the same size.
GOLDEN_MATCHINGS = {
    "hard3000": "f495a8d30a835259e0288cab35b6a9006dcd121e0bb49d8a68e5bbc7bec31076",
    "star8001": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    "gnp600": "8c96c8461a692b37b0f816737bbf6c5f19101847c32c71e699a6d8feae04ca88",
    "gnp300": "db8a01e198387ac5ede66cada37096aafd2ea5f5472981c180b3e594de479ddd",
    "triangles": "66a245624f4de97df73f12f599f05c80be0073cf4f9921d71a78fc0fced2c857",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MATCHINGS))
def test_maximum_matching_golden(name):
    ids = sorted(maximum_matching(golden_graph(name)).edge_ids)
    digest = hashlib.sha256(" ".join(map(str, ids)).encode()).hexdigest()
    assert digest == GOLDEN_MATCHINGS[name]


def test_maximum_matching_golden_small_batch():
    # 200 small random graphs catch blossom bookkeeping that only changes
    # the BFS order now and then, e.g. the order absorbed vertices enqueue in
    lines = []
    for seed in range(200):
        g = gnp(40, (0.05, 0.1, 0.2)[seed % 3], seed)
        lines.append(" ".join(map(str, sorted(maximum_matching(g).edge_ids))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b986c2b3545bf0316a15ee7341ba47f6f63c7ebd06638c8211d05c478a32ec14"


# The free-neighbour step and dead vertices must not move a single edge:
# the search without them is the oracle.
def test_matching_equals_reference_on_every_small_graph():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert maximum_matching(g).edge_ids == reference_maximum_matching(g).edge_ids, g.edges


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_graphs_with_pendant_triangles(), chorded_odd_cycles(),
                 sparse_graphs_with_a_hub()))
def test_matching_equals_reference_on_random_graphs(g):
    assert maximum_matching(g).edge_ids == reference_maximum_matching(g).edge_ids


def test_matching_of_an_edgeless_graph_peaks_under_48_mib():
    # the mates and the dead flags are the only per-vertex lists, 8 MiB each
    # at 2**20 vertices, and the Matching builds its mates as a list, then a
    # tuple: 32 MiB.  Search labels shared by all searches took 88 MiB.
    g = Graph(1 << 20)
    tracemalloc.start()
    try:
        maximum_matching(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


@pytest.mark.parametrize("n, seed", [(100, 1), (400, 2), (1000, 3), (2000, 4)])
def test_maximum_matching_size_matches_networkx(n, seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < 3 * n // 2:  # average degree 3
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(pairs)
    expected = len(nx.max_weight_matching(reference, maxcardinality=True))
    assert maximum_matching(Graph(n, sorted(pairs))).size == expected


MATCHED_NON_EDGE_UNDER_O = """
import sys
from tcover import CertificateError, Graph, maximum_matching

if __debug__:
    sys.exit("expected to run under python -O")
g = Graph(2)
g.adj = ((1,), (0,))  # adjacency that names a pair the edge tuple lacks
try:
    maximum_matching(g)
except CertificateError as exc:
    print(exc)
    sys.exit(0)
sys.exit("maximum_matching returned a matching of non-edges")
"""


def test_matched_pair_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(tcover.__file__))
    env = {**os.environ, "PYTHONPATH": src}  # the child needs only tcover and the stdlib
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MATCHED_NON_EDGE_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "matched pair (0, 1) is not an edge of the graph\n"
