"""Shared test utilities: corpus iteration and hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from tcover import ElementSet, Graph


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
    vertices = [i for i in range(g.n) if mask >> i & 1]
    edges = [e for e in range(len(g.edges)) if mask >> (g.n + e) & 1]
    return g, ElementSet.of(g, vertices=vertices, edges=edges)
