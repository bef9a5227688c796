"""Shared test utilities: corpus iteration and hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from tcover import ElementSet, Graph
from tcover.instances import gnp


def connected(g: Graph) -> bool:
    """Independent connectivity check (plain DFS)."""
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


@st.composite
def small_graphs(draw, max_n: int = 6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def graphs_with_element_sets(draw, max_n: int = 5):
    g = draw(small_graphs(max_n=max_n))
    total = g.n + len(g.edges)
    mask = draw(st.integers(min_value=0, max_value=max(0, (1 << total) - 1)))
    return g, ElementSet(g, [x for x in range(total) if mask >> x & 1])


@st.composite
def scrambled_edge_lists(draw):
    """A small or gnp graph, and its edge list shuffled, with each pair's
    endpoints swapped at random."""
    g = draw(st.one_of(
        small_graphs(max_n=7),
        st.builds(gnp, st.integers(2, 40), st.sampled_from([0.05, 0.1, 0.2, 0.4]),
                  st.integers(0, 2**64 - 1)),
    ))
    pairs = draw(st.permutations(g.edges))
    swaps = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return g, [(v, u) if swap else (u, v) for (u, v), swap in zip(pairs, swaps)]


def shuffled_copies():
    """A graph of scrambled_edge_lists(), and the graph built from its
    scrambled edge list."""
    return scrambled_edge_lists().map(lambda case: (case[0], Graph(case[0].n, case[1])))


def triangles_and_isolates() -> Graph:
    """200 vertex-disjoint triangles, every third one bridged to the next,
    then 50 isolated vertices: many bad vertices, blossoms and step-1 picks."""
    pairs = []
    for i in range(200):
        a = 3 * i
        pairs += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        if i % 3 == 0:
            pairs.append((a + 2, a + 3))
    return Graph(650, pairs)


def golden_graph(name: str) -> Graph:
    """Graphs whose matchings and `solve --trace` output are pinned by hash."""
    from tcover.instances import hard_instance, star

    return {
        "hard3000": lambda: hard_instance(3000),
        "star8001": lambda: star(8001),
        "gnp600": lambda: gnp(600, 0.005, seed=3),
        "gnp300": lambda: gnp(300, 0.05, seed=5),
        "triangles": triangles_and_isolates,
    }[name]()
