"""Two ways to match: greedy scan and blossom search.

The covering algorithm needs a genuinely maximum matching, and on
general graphs that requires handling odd cycles.  This script compares
the greedy maximal matching with the blossom-based maximum matching on
graphs where the difference shows.  No matching of an n-vertex graph has
more than floor(n/2) edges, so each matching below is proved maximum by
counting: it has exactly that many.
"""

from tcover import Graph, Matching, maximum_matching
from tcover.instances import cycle


def maximum_by_count(g, m):
    assert m.size == g.n // 2, f"{m.size} edges, floor(n/2) = {g.n // 2}"
    return f"{m.size} edges = floor({g.n}/2), so maximum"


# A greedy scan takes, in ascending id order, every edge whose endpoints
# are both still free.  On the path 2-0-1-3 the middle edge (0,1) has the
# lowest id, so the scan takes it first and then cannot extend; the
# maximum matching pairs everyone.
p4 = Graph(4, [(2, 0), (0, 1), (1, 3)])
free, taken = [True] * p4.n, []
for eid, (u, v) in enumerate(p4.edges):
    if free[u] and free[v]:
        free[u] = free[v] = False
        taken.append(eid)
print("P4 greedy size:", Matching(p4, taken).size)
print("P4 maximum    :", maximum_by_count(p4, maximum_matching(p4)))

# Odd cycles are the classic trap for naive augmenting-path search.
for n in (5, 7, 9, 11):
    print(f"C{n}: maximum matching has", maximum_by_count(cycle(n), maximum_matching(cycle(n))))

# Two triangles joined by a bridge force a blossom contraction.
g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
m = maximum_matching(g)
print("\ntwo bridged triangles:")
print("  blossom search:", list(m.edge_ids))
print("  size          :", maximum_by_count(g, m))

# The Petersen graph (outer 5-cycle, inner pentagram, five spokes) has a
# perfect matching, and the blossom search finds one.
pet = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
print("\nPetersen graph:", maximum_by_count(pet, maximum_matching(pet)))
