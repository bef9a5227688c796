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
print("edges:", p4.edge_pairs())

# Try to cover it with the two inner vertices.
candidate = ElementSet.of(p4, vertices=[1, 2])
ok, witness = is_total_cover(p4, candidate)
print("\n{vertex 1, vertex 2} is a total cover:", ok)

# A single middle edge is NOT enough: the first end vertex touches
# nothing chosen.  (Displayed names are 1-indexed, as in the file formats.)
candidate = ElementSet.of(p4, edges=[1])
ok, witness = is_total_cover(p4, candidate)
print("{middle edge} is a total cover:", ok, "- first uncovered:", format_element(p4, witness))

# Mixing kinds works: one vertex and one edge suffice here.
candidate = ElementSet.of(p4, vertices=[1], edges=[2])
print("{vertex 1, edge (2,3)} is a total cover:", is_total_cover(p4, candidate)[0])

# The total graph makes the adjacency-or-incidence relation ordinary
# vertex adjacency: one vertex per element of the original graph.
tg, elements = total_graph(p4)
print("\ntotal graph of P4:", tg)
print("its vertex 5 stands for", format_element(p4, elements[5]))

# Everything serializes to a small line-oriented text format.
print("\ngraph file for P4:")
print(serialize_graph(p4), end="")
reparsed = parse_graph(serialize_graph(p4))
print("round-trips:", reparsed == p4)
