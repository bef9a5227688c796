"""Total covers of undirected graphs.

A total cover is a set of vertices and edges such that every other
vertex and edge of the graph is adjacent or incident to a member.  The
package provides a matching-based approximation that certifies a factor
of two on every run, an exact oracle for desk-scale verification, two
baseline constructions, deterministic instance generators, and a command
line front end (``tcover``).
"""

from .approx import (
    ApproxResult,
    BadVertexAssignment,
    CertificateError,
    TraceStep,
    approx_total_cover,
    bad_vertex_assignment,
    greedy_domination_cover,
    matched_vertices_cover,
    total_cover_lower_bound,
)
from .exact import (
    BudgetExceededError,
    ExactResult,
    TooLargeError,
    exact_total_cover,
)
from .graph import (
    ElementSet,
    Graph,
    GraphError,
    ParseError,
    element_cover_line,
    format_element,
    is_total_cover,
    isolated_vertices,
    parse_cover,
    parse_graph,
    serialize_cover,
    serialize_graph,
    total_graph,
)
from .instances import (
    complete,
    cycle,
    gnp,
    hard_instance,
    path,
    star,
)
from .matching import (
    Matching,
    greedy_maximal_matching,
    maximum_matching,
)

__all__ = [
    "ApproxResult",
    "BadVertexAssignment",
    "BudgetExceededError",
    "CertificateError",
    "ElementSet",
    "ExactResult",
    "Graph",
    "GraphError",
    "Matching",
    "ParseError",
    "TooLargeError",
    "TraceStep",
    "approx_total_cover",
    "bad_vertex_assignment",
    "complete",
    "cycle",
    "element_cover_line",
    "exact_total_cover",
    "format_element",
    "gnp",
    "greedy_domination_cover",
    "greedy_maximal_matching",
    "hard_instance",
    "is_total_cover",
    "isolated_vertices",
    "matched_vertices_cover",
    "maximum_matching",
    "parse_cover",
    "parse_graph",
    "path",
    "serialize_cover",
    "serialize_graph",
    "star",
    "total_cover_lower_bound",
    "total_graph",
]
