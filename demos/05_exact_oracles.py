"""Exact oracles, and the identity tying covers to domination.

The exact searches are one branch and bound over closed-neighbourhood
bitmasks: it keeps the best cover found and stops when no open branch
can beat it, so its answers are minimum.  Minimum total covers of a
graph and minimum dominating sets of its total graph must agree in size;
the two oracles build their masks separately and share no covering
logic, which makes that agreement a real consistency check rather than
a tautology.
"""

from tcover import (
    cross_check_total_graph,
    exact_dominating_set,
    exact_total_cover,
    serialize_cover,
)
from tcover.instances import complete, cycle, enumerate_graphs, hard_instance, path, star

g = cycle(6)
result = exact_total_cover(g)
print("minimum total cover of C6:")
print(serialize_cover(result.optimum), end="")
print(f"size {result.size}, {result.candidates_checked} search nodes")

print("\ndominating C6 directly needs", exact_dominating_set(g).size, "vertices")

print(f"\n{'graph':<18} {'min total cover':>16} {'min dom. of total graph':>24}")
for name, g in [
    ("P5", path(5)),
    ("C5", cycle(5)),
    ("K4", complete(4)),
    ("star on 6", star(6)),
    ("hard family n=4", hard_instance(4)),
]:
    report = cross_check_total_graph(g)
    mark = "ok" if report.agree else "MISMATCH"
    print(f"{name:<18} {report.total_cover_size:>16} "
          f"{report.total_graph_domination_size:>24}   {mark}")

# The identity holds on every labeled 4-vertex graph, checked live:
agreements = sum(cross_check_total_graph(g).agree for g in enumerate_graphs(4))
print(f"\nagreement on all 64 labeled 4-vertex graphs: {agreements}/64")
