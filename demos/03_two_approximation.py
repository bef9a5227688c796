"""The certificate-carrying 2-approximation, step by step.

The construction returns a cover of exactly m + k + t elements (maximum
matching edges, triangle-closing unmatched vertices, isolated vertices)
and the bound ceil((m+k)/2) + t that no total cover can beat.  The ratio
size/bound, printed as two integers, is a per-run guarantee: the size
never exceeds twice the bound, whatever the input.
"""

from tcover import Graph, approx_total_cover, element_cover_line, is_total_cover
from tcover.instances import complete, cycle, gnp

for name, g in [
    ("K5", complete(5)),
    ("C7", cycle(7)),
    ("C7 plus two isolated vertices", Graph(9, cycle(7).edges)),
    ("random G(12, 0.3)", gnp(12, 0.3, 2024)),
]:
    result = approx_total_cover(g)
    print(f"{name}:")
    print(f"  cover size {len(result.cover)}"
          f" = m {result.matching.size} + k {result.bad_vertex_count}"
          f" + t {result.isolated_count}")
    print(f"  lower bound {result.lower_bound},"
          f" certified ratio {len(result.cover)}/{result.lower_bound}")
    assert is_total_cover(result.cover)[0]
    print()

# The trace records every addition: which step made it and why.
g = complete(5)
print("trace on K5:")
for step in approx_total_cover(g).trace:
    print(f"  step {step.step} [{step.reason}] adds {element_cover_line(g, step.element)}")
