"""Matching-based 2-approximation for minimum total covers.

The algorithm builds a cover of exactly m + k + t elements, where m is
the maximum matching size, k counts unmatched vertices that close a
triangle over a matching edge, and t counts isolated vertices.  No total
cover can have fewer than ceil((m+k)/2) + t elements, so every run comes
with a self-contained certificate that its output is within a factor of
two of the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Element, ElementSet, Graph, format_element, is_total_cover
from .graph import isolated_vertices, total_graph
from .matching import CertificateError, Matching, greedy_maximal_matching, maximum_matching


class NotMaximumError(ValueError):
    """The supplied matching cannot be maximum (a guarantee that only
    holds for maximum matchings was violated)."""


@dataclass(frozen=True)
class BadVertexAssignment:
    """Unmatched vertices adjacent to both endpoints of a matching edge,
    each paired with its chosen matching edge id.

    Vertices appear in ascending order; each picks its lowest-id
    qualifying edge.  For a maximum matching the chosen edges are
    automatically pairwise distinct (two such vertices sharing an edge
    would form an augmenting path).
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.pairs)

    def edge_ids(self) -> list[int]:
        return [eid for _, eid in self.pairs]


@dataclass(frozen=True)
class TraceStep:
    """One element added to the cover: which algorithm step added it and why.

    Reason tags: isolated, bad-vertex, bad-edge, endpoint, matching-edge.
    """

    step: int
    reason: str
    element: Element


@dataclass(frozen=True)
class ApproxResult:
    """A total cover plus the quantities certifying its size.

    The cover has exactly matching_size + bad_vertex_count +
    isolated_count elements; lower_bound is a valid lower bound on every
    total cover; certified_ratio = size / lower_bound never exceeds 2.
    """

    cover: ElementSet
    matching_size: int
    bad_vertex_count: int
    isolated_count: int
    lower_bound: int
    certified_ratio: Fraction
    trace: tuple[TraceStep, ...]


def bad_vertex_assignment(g: Graph, matching: Matching) -> BadVertexAssignment:
    """Find the bad vertices for a maximum matching.

    A bad vertex is unmatched and adjacent to both endpoints of some
    matching edge.  Raises NotMaximumError when two bad vertices claim
    the same matching edge, which cannot happen for a maximum matching.
    """
    pairs: list[tuple[int, int]] = []
    claimed: dict[int, int] = {}
    for v in range(g.n):
        if matching.is_matched(v):
            continue
        # matching edges with both endpoints in N(v) are the edges u-mate(u)
        # for neighbors u whose mate is a neighbor too; keep the lowest id
        neighbors = set(g.adj[v])
        eid = min(
            (g.edge_id(u, mate) for u in g.adj[v] if (mate := matching.partner(u)) in neighbors),
            default=None,
        )
        if eid is None:
            continue
        if eid in claimed:
            raise NotMaximumError(
                f"vertices {claimed[eid]} and {v} both close a triangle over "
                f"matching edge {eid}; the matching is not maximum"
            )
        claimed[eid] = v
        pairs.append((v, eid))
    return BadVertexAssignment(tuple(pairs))


def total_cover_lower_bound(matching_size: int, bad_vertex_count: int, isolated_count: int) -> int:
    """ceil((m + k) / 2) + t: no total cover can be smaller.

    Sketch: each bad vertex closes a triangle over its own matching edge,
    and those triangles are pairwise disjoint, so no single element can
    serve two of them; isolated vertices must be picked outright; and any
    element covers at most two matching edges.
    """
    if matching_size < 0 or bad_vertex_count < 0 or isolated_count < 0:
        raise ValueError("certificate quantities must be non-negative")
    if bad_vertex_count > matching_size:
        raise ValueError("bad vertex count cannot exceed the matching size")
    return (matching_size + bad_vertex_count + 1) // 2 + isolated_count


def approx_total_cover(g: Graph) -> ApproxResult:
    """Build a total cover of size m + k + t, within twice the optimum.

    Step 1: every isolated vertex goes into the cover and leaves the
    working graph.  Step 2: for each bad vertex, add it together with its
    matching edge and remove the triangle's three vertices.  Step 3: walk
    the remaining matching edges in ascending id order; when an endpoint
    still has an uncovered unmatched neighbor, add that endpoint (one
    addition covers all its unmatched neighbors), otherwise add the edge
    itself.  Each step record lands in the trace.
    """
    trace: list[TraceStep] = []
    cover_vertices: set[int] = set()
    cover_edges: set[int] = set()
    alive = [True] * g.n

    isolates = isolated_vertices(g)
    for v in isolates:
        cover_vertices.add(v)
        alive[v] = False
        trace.append(TraceStep(1, "isolated", Element.vertex(v)))
    isolated_count = len(isolates)

    matching = maximum_matching(g)
    matching_size = matching.size
    assignment = bad_vertex_assignment(g, matching)
    for v, eid in assignment.pairs:
        e = g.edges[eid]
        cover_vertices.add(v)
        cover_edges.add(eid)
        trace.append(TraceStep(2, "bad-vertex", Element.vertex(v)))
        trace.append(TraceStep(2, "bad-edge", Element.edge(eid)))
        alive[v] = alive[e.u] = alive[e.v] = False
    bad_vertex_count = assignment.count

    # Step 3 works on the surviving graph.  Only endpoint additions can
    # cover a surviving unmatched vertex (edges added here join two
    # matched vertices, and the step-1/2 elements lost all unmatched
    # neighbors with their removal), so a covered flag per unmatched
    # vertex tracks coverage exactly.
    covered = [False] * g.n

    def unmatched_neighbors(x: int) -> list[int]:
        return [z for z in g.adj[x] if alive[z] and not matching.is_matched(z)]

    # Step 3 adds only the edge it visits, so edges found here are step 2's.
    for e in matching.edges():
        if e.id in cover_edges:
            continue
        near_u = unmatched_neighbors(e.u)
        near_v = unmatched_neighbors(e.v)
        # With a maximum matching at most one endpoint can see unmatched
        # vertices: two distinct ones give an augmenting path, a shared
        # one would have been a bad vertex.
        if near_u and near_v:
            raise NotMaximumError(f"both endpoints of matching edge {e.id} reach unmatched vertices")
        endpoint = None
        if any(not covered[z] for z in near_u):
            endpoint = e.u
        elif any(not covered[z] for z in near_v):
            endpoint = e.v
        if endpoint is not None:
            cover_vertices.add(endpoint)
            trace.append(TraceStep(3, "endpoint", Element.vertex(endpoint)))
            for z in near_u if endpoint == e.u else near_v:
                covered[z] = True
        else:
            cover_edges.add(e.id)
            trace.append(TraceStep(3, "matching-edge", Element.edge(e.id)))

    cover = ElementSet.of(g, vertices=sorted(cover_vertices), edges=sorted(cover_edges))
    size = len(cover)
    if size != matching_size + bad_vertex_count + isolated_count:
        raise CertificateError(f"cover has {size} elements, not m + k + t")
    lower_bound = total_cover_lower_bound(matching_size, bad_vertex_count, isolated_count)
    ratio = Fraction(size, lower_bound) if lower_bound > 0 else Fraction(1)
    if ratio > 2:
        raise CertificateError(f"certified ratio {ratio} exceeds 2")
    ok, witness = is_total_cover(g, cover)
    if not ok:
        raise CertificateError(f"constructed cover misses {format_element(g, witness)}")
    return ApproxResult(
        cover=cover,
        matching_size=matching_size,
        bad_vertex_count=bad_vertex_count,
        isolated_count=isolated_count,
        lower_bound=lower_bound,
        certified_ratio=ratio,
        trace=tuple(trace),
    )


def matched_vertices_cover(g: Graph, matching_mode: str = "maximum") -> ElementSet:
    """Baseline: both endpoints of every matching edge, plus all isolated
    vertices.

    Any maximal matching works (mode "maximal" uses the greedy scan, mode
    "maximum" the blossom search): every edge has a matched endpoint, and
    every non-isolated unmatched vertex has only matched neighbors.  The
    size is 2|M| + t, which can approach four times the optimum.
    """
    if matching_mode == "maximum":
        matching = maximum_matching(g)
    elif matching_mode == "maximal":
        matching = greedy_maximal_matching(g)
    else:
        raise ValueError(f"unknown matching mode {matching_mode!r}")
    vertices = set(isolated_vertices(g))
    for e in matching.edges():
        vertices.add(e.u)
        vertices.add(e.v)
    return ElementSet.of(g, vertices=sorted(vertices))


def greedy_domination_cover(g: Graph) -> ElementSet:
    """Baseline: greedy dominating set of the total graph, mapped back.

    Repeatedly picks the total-graph vertex that dominates the most
    not-yet-dominated vertices (ties to the lowest id) until everything
    is dominated, then translates the picks back into vertices and edges
    of ``g``.  Standard greedy, so the size is within a logarithmic
    factor of the optimum.
    """
    tg, elements = total_graph(g)
    undominated = set(range(tg.n))
    picks: list[int] = []
    while undominated:
        best = -1
        best_gain = -1
        for v in range(tg.n):
            gain = (v in undominated) + sum(1 for u in tg.adj[v] if u in undominated)
            if gain > best_gain:
                best, best_gain = v, gain
        picks.append(best)
        undominated.discard(best)
        undominated.difference_update(tg.adj[best])
    return ElementSet(g, [elements[v] for v in picks])
