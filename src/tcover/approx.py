"""Matching-based 2-approximation for minimum total covers.

The algorithm builds a cover of exactly m + k + t elements, where m is
the maximum matching size, k counts unmatched vertices that close a
triangle over a matching edge, and t counts isolated vertices.  No total
cover can have fewer than ceil((m+k)/2) + t elements, so every run comes
with a self-contained certificate that its output is within a factor of
two of the optimum.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import compress
from typing import Iterator, NamedTuple

from .graph import CertificateError, ElementSet, Graph, format_element, is_total_cover
from .graph import isolated_vertices, total_graph
from .matching import Matching, maximum_matching

__all__ = [
    "ApproxResult",
    "BadVertexAssignment",
    "TraceStep",
    "approx_total_cover",
    "bad_vertex_assignment",
    "greedy_domination_cover",
    "matched_vertices_cover",
    "total_cover_lower_bound",
]


class BadVertexAssignment(NamedTuple):
    """Unmatched vertices adjacent to both endpoints of a matching edge,
    each paired with its chosen matching edge id.

    Vertices appear in ascending order; each picks its lowest-id
    qualifying edge, whose pair is lexicographically least.  For a
    maximum matching the chosen edges are automatically pairwise distinct
    (two such vertices sharing an edge would form an augmenting path).
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:  # shadows tuple.count: the number of bad vertices
        return len(self.pairs)


class TraceStep(NamedTuple):
    """One element added to the cover: which algorithm step added it and why.

    Reason tags: isolated, bad-vertex, bad-edge, endpoint, matching-edge.
    The element is numbered as in ElementSet: vertex v is v, edge e is n + e.
    A named tuple, so a step unpacks as (step, reason, element).
    """

    step: int
    reason: str
    element: int


class ApproxResult(NamedTuple):
    """A total cover plus the quantities certifying its size.

    The cover has exactly matching.size + bad_vertex_count +
    isolated_count elements, where matching is the maximum matching the
    cover was built from; lower_bound is a valid lower bound on every
    total cover, and the cover has at most twice that many elements.
    ``order`` is the cover in step order; ``trace`` derives each step from it.
    """

    cover: ElementSet
    matching: Matching
    bad_vertex_count: int
    isolated_count: int
    lower_bound: int
    order: tuple[int, ...]

    @property
    def trace(self) -> Iterator[TraceStep]:
        """The isolated vertices, then each bad vertex and its edge, then
        the step-3 endpoints and matching edges, in ``order``."""
        n, t = self.cover.graph.n, self.isolated_count
        for i, x in enumerate(self.order):
            if i < t:
                yield TraceStep(1, "isolated", x)
            elif i < t + 2 * self.bad_vertex_count:
                yield TraceStep(2, "bad-vertex" if x < n else "bad-edge", x)
            else:
                yield TraceStep(3, "endpoint" if x < n else "matching-edge", x)


def bad_vertex_assignment(g: Graph, matching: Matching) -> BadVertexAssignment:
    """Find the bad vertices for a maximum matching.

    A bad vertex is unmatched and adjacent to both endpoints of some
    matching edge.  Raises CertificateError when two bad vertices claim
    the same matching edge, which cannot happen for a maximum matching,
    and ValueError if the matching belongs to another graph.
    """
    if matching.graph != g:
        raise ValueError("the matching belongs to another graph")
    claimed: dict[int, int] = {}
    partner = matching.mate  # -1 for an unmatched vertex, never a neighbor
    for v, near in enumerate(g.adj):
        if partner[v] != -1 or len(near) < 2:
            continue
        # matching edges with both endpoints in N(v) are the edges u-mate(u)
        # for neighbors u whose mate is a neighbor too; the first such u is
        # the smaller endpoint of the least pair, so its edge has the lowest id
        neighbors = set(near)
        eid = next((g.edge_id(u, mate) for u in near if (mate := partner[u]) in neighbors), None)
        if eid is None:
            continue
        if eid in claimed:
            raise CertificateError(
                f"vertices {claimed[eid]} and {v} both close a triangle over "
                f"matching edge {eid}; the matching is not maximum"
            )
        claimed[eid] = v
    return BadVertexAssignment(tuple(zip(claimed.values(), claimed)))


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
    the remaining matching edges in ascending id order, which is their
    pairs' lexicographic order; when an endpoint still has an uncovered
    unmatched neighbor, add that endpoint (one addition covers all its
    unmatched neighbors), otherwise add the edge itself.  The result
    keeps the elements in the order the steps added them.
    """
    order = isolated_vertices(g)
    t = len(order)

    matching = maximum_matching(g)
    assignment = bad_vertex_assignment(g, matching)
    # Step 3 works on the surviving graph, whose unmatched vertices are the
    # ones that are unmatched and not bad (isolated ones have no neighbors).
    # Only endpoint additions can cover them (edges added here join two
    # matched vertices, and the step-1/2 elements lost all unmatched
    # neighbors with their removal), so the set of unmatched vertices
    # covered so far tracks coverage exactly.
    unmatched = [mate == -1 for mate in matching.mate]
    for v, eid in assignment.pairs:
        order += (v, g.n + eid)
        unmatched[v] = False
    bad_edges = {eid for _, eid in assignment.pairs}
    # each vertex's unmatched neighbors, gathered once from the unmatched side
    near: defaultdict[int, list[int]] = defaultdict(list)
    for z in compress(range(g.n), unmatched):
        for x in g.adj[z]:
            near[x].append(z)
    covered: set[int] = set()
    for eid in matching.edge_ids:
        if eid in bad_edges:
            continue
        u, v = g.edges[eid]
        near_u = near.get(u, ())
        near_v = near.get(v, ())
        # With a maximum matching at most one endpoint can see unmatched
        # vertices: two distinct ones give an augmenting path, a shared
        # one would have been a bad vertex.
        if near_u and near_v:
            raise CertificateError(f"both endpoints of matching edge {eid} reach unmatched vertices")
        endpoint, reach = (u, near_u) if near_u else (v, near_v)
        order.append(g.n + eid if covered.issuperset(reach) else endpoint)
        covered.update(reach)

    # the size law below also proves no element was added twice, since
    # order always has exactly m + k + t entries
    cover = ElementSet(g, order)
    size = len(cover)
    if size != matching.size + assignment.count + t:
        raise CertificateError(f"cover has {size} elements, not m + k + t")
    lower_bound = total_cover_lower_bound(matching.size, assignment.count, t)
    if size > 2 * lower_bound:
        raise CertificateError(f"cover of {size} elements exceeds twice the lower bound {lower_bound}")
    ok, witness = is_total_cover(cover)
    if not ok:
        raise CertificateError(f"constructed cover misses {format_element(g, witness)}")
    return ApproxResult(
        cover=cover,
        matching=matching,
        bad_vertex_count=assignment.count,
        isolated_count=t,
        lower_bound=lower_bound,
        order=tuple(order),
    )


def matched_vertices_cover(matching: Matching) -> ElementSet:
    """Baseline: both endpoints of every edge of a maximal ``matching``,
    plus all isolated vertices of its graph ``matching.graph``.

    Any maximal matching works, such as ``greedy_maximal_matching``,
    ``maximum_matching`` or ``ApproxResult.matching``: every edge has a
    matched endpoint, and every non-isolated unmatched vertex has only
    matched neighbors.  The size is 2|M| + t, which can approach four
    times the optimum.
    """
    g = matching.graph
    matched = [x for eid in matching.edge_ids for x in g.edges[eid]]
    return ElementSet(g, isolated_vertices(g) + matched)


def greedy_domination_cover(g: Graph) -> ElementSet:
    """Baseline: greedy dominating set of the total graph, mapped back.

    Repeatedly picks the total-graph vertex that dominates the most
    not-yet-dominated vertices (ties to the lowest id) until everything
    is dominated; the picks are the elements of ``g`` by their ids.
    Standard greedy, so the size is within a logarithmic factor of the
    optimum.  The candidates wait in a lazy heap, one int per entry:
    ``id - gain * total`` over the ``total`` total-graph vertices, which
    orders as the pair (-gain, id) since 0 <= id < total, and ``divmod``
    by ``total`` gives the pair back.  Gains only fall, so a popped entry
    whose gain is stale goes back with its current gain, and the first
    fresh top is the lowest-id best pick.
    """
    rows = total_graph(g)
    total = len(rows)
    gain = [1 + len(row) for row in rows]  # undominated members of N[x]
    heap = [x - d * total for x, d in enumerate(gain)]
    heapq.heapify(heap)
    dominated = bytearray(total)
    picks: list[int] = []
    while heap:
        negated, best = divmod(heapq.heappop(heap), total)
        if gain[best] != -negated:
            if gain[best]:
                heapq.heappush(heap, best - gain[best] * total)
            continue
        picks.append(best)
        for y in (best, *rows[best]):
            if not dominated[y]:
                dominated[y] = 1
                gain[y] -= 1
                for x in rows[y]:
                    gain[x] -= 1
    return ElementSet(g, picks)
