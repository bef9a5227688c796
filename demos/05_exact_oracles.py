"""The exact oracle, and the identity tying covers to domination.

The exact search is a branch and bound over closed-neighbourhood
bitmasks: it keeps the best cover found and stops when no open branch
can beat it, so its answers are minimum.  An element of G is a vertex of
the total graph T(G) under one numbering (vertex v is id v, edge e is id
n + e), and a total cover of G is exactly a dominating set of T(G).  So
the optimum the oracle returns, read as a vertex set of T(G), must
dominate T(G); the check below reads T(G)'s adjacency rows directly.
"""

from itertools import combinations

from tcover import Graph, exact_total_cover, serialize_cover, total_graph
from tcover.instances import complete, cycle, hard_instance, path, star


def dominates(rows, ids):
    """Every vertex v of the adjacency rows is in ids or has a neighbour in ids."""
    return all(v in ids or not ids.isdisjoint(row) for v, row in enumerate(rows))


g = cycle(6)
result = exact_total_cover(g)
print("minimum total cover of C6:")
print(serialize_cover(result.optimum), end="")
print(f"size {result.size}, {result.candidates_checked} search nodes")
print("as vertices of T(C6):", list(result.optimum))

print(f"\n{'graph':<18} {'T(G) vertices':>14} {'min total cover':>16} {'dominates T(G)':>15}")
for name, g in [
    ("P5", path(5)),
    ("C5", cycle(5)),
    ("K4", complete(4)),
    ("star on 6", star(6)),
    ("hard family n=4", hard_instance(4)),
]:
    result = exact_total_cover(g)
    rows = total_graph(g)
    mark = "yes" if dominates(rows, set(result.optimum)) else "NO"
    print(f"{name:<18} {len(rows):>14} {result.size:>16} {mark:>15}")

# The identity holds on every labeled 4-vertex graph, checked live: each
# graph is a subset of the six vertex pairs.
pairs = list(combinations(range(4), 2))
graphs = [Graph(4, chosen) for k in range(len(pairs) + 1) for chosen in combinations(pairs, k)]
agreements = sum(dominates(total_graph(g), set(exact_total_cover(g).optimum)) for g in graphs)
print(f"\noptimum dominates T(G) on all {len(graphs)} labeled 4-vertex graphs: {agreements}/{len(graphs)}")
