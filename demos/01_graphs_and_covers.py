"""Graphs, elements, and what it means to cover them totally.

A total cover may mix vertices and edges: every vertex and edge left
outside the set has to be adjacent or incident to something inside it.
This walk-through builds a few graphs by hand, tests candidate covers,
and shows the file formats used by the ``tcover`` command line tool.
"""

from tcover import (
    ElementSet,
    Graph,
    format_element,
    is_total_cover,
    parse_graph,
    serialize_graph,
    total_graph,
)

# A path on four vertices: 0 - 1 - 2 - 3
p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
print("graph:", p4)
print("adjacency of vertex 1:", p4.adj[1])
print("edges:", list(p4.edges))

# An element is named by its vertex id in the total graph (introduced
# below): vertex v is v, edge e is n + e.  Try the two inner vertices.
candidate = ElementSet(p4, [1, 2])
ok, witness = is_total_cover(candidate)
print("\n{vertex 1, vertex 2} is a total cover:", ok)

# A single middle edge is NOT enough: the first end vertex touches
# nothing chosen.  (Displayed names are 1-indexed, as in the file formats.)
candidate = ElementSet(p4, [p4.n + 1])
ok, witness = is_total_cover(candidate)
print("{middle edge} is a total cover:", ok, "- first uncovered:", format_element(p4, witness))

# Mixing kinds works: one vertex and one edge suffice here.
candidate = ElementSet(p4, [1, p4.n + 2])
print("{vertex 1, edge (2,3)} is a total cover:", is_total_cover(candidate)[0])

# The total graph makes the adjacency-or-incidence relation ordinary
# vertex adjacency: one vertex per element of the original graph, with
# the ids ElementSet uses.  Vertex v keeps its id and edge e becomes
# vertex n + e; total_graph returns its adjacency rows, row x for id x.
rows = total_graph(p4)
print("\ntotal graph of P4 has", len(rows), "vertices")
print("its vertex 5 stands for", format_element(p4, 5), "and touches", rows[5])
print("the cover above as ids:", list(candidate))

# Everything serializes to a small line-oriented text format.
print("\ngraph file for P4:")
print(serialize_graph(p4), end="")
reparsed = parse_graph(serialize_graph(p4))
print("round-trips:", reparsed == p4)
