"""Three ways to match: greedy scan, blossom search, exhaustive search.

The covering algorithm needs a genuinely maximum matching, and on
general graphs that requires handling odd cycles.  This script compares
the greedy maximal matching with the blossom-based maximum matching and
the brute-force oracle on graphs where the difference shows.
"""

from tcover import (
    Graph,
    brute_force_maximum_matching,
    greedy_maximal_matching,
    maximum_matching,
    verify_matching,
)
from tcover.instances import cycle, petersen

# On a path 0-1-2-3, the greedy scan grabs edge (0,1) first and then
# cannot extend; the maximum matching pairs everyone.
p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
print("P4 greedy size:", greedy_maximal_matching(p4).size)
print("P4 maximum size:", maximum_matching(p4).size)

# Odd cycles are the classic trap for naive augmenting-path search.
for n in (5, 7, 9, 11):
    m = maximum_matching(cycle(n))
    assert verify_matching(cycle(n), m, "maximum")
    print(f"C{n}: maximum matching has {m.size} edges (floor(n/2) = {n // 2})")

# Two triangles joined by a bridge force a blossom contraction.
g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
print("\ntwo bridged triangles:")
print("  blossom search:", sorted(maximum_matching(g).edge_ids))
print("  brute force   :", brute_force_maximum_matching(g).size, "edges")

# The Petersen graph has a perfect matching; both searches agree.
pet = petersen()
blossom = maximum_matching(pet)
oracle = brute_force_maximum_matching(pet)
print("\nPetersen graph: blossom", blossom.size, "| brute force", oracle.size)
print("verified maximum:", verify_matching(pet, blossom, "maximum"))
