"""Maximal and maximum matchings.

The maximum matching routine is an augmenting-path search with odd-cycle
(blossom) contraction, so it is correct on general graphs.  Everything
scans vertices and edges in ascending id order, which makes the returned
matching itself (not just its size) reproducible.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, GraphError


class CertificateError(RuntimeError):
    """A result broke its certificate (a matched pair that is not an edge;
    a matching taken as maximum that is not; a cover whose size is not
    m + k + t, whose ratio exceeds two, or that misses an element): a
    solver bug, never bad input."""


class Matching:
    """A set of pairwise vertex-disjoint edges of one graph: ``edge_ids``
    ascending, and ``mate[v]`` the vertex matched to ``v``, -1 if none."""

    __slots__ = ("graph", "edge_ids", "mate")

    def __init__(self, graph: Graph, edge_ids: Iterable[int] = ()):
        mate = [-1] * graph.n
        ids = sorted(set(edge_ids))
        for eid in ids:
            if not 0 <= eid < len(graph.edges):
                raise GraphError(f"edge id {eid} leaves [0, {len(graph.edges)})")
            u, v = graph.edges[eid]
            if mate[u] != -1 or mate[v] != -1:
                raise GraphError(f"matching edges share endpoint at edge {eid}")
            mate[u] = v
            mate[v] = u
        self.graph = graph
        self.edge_ids = tuple(ids)
        self.mate = tuple(mate)

    @property
    def size(self) -> int:
        return len(self.edge_ids)

    def is_matched(self, v: int) -> bool:
        return self.mate[v] != -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.graph == other.graph and self.edge_ids == other.edge_ids

    def __repr__(self) -> str:
        return f"Matching(size={self.size}, edge_ids={list(self.edge_ids)})"


def greedy_maximal_matching(g: Graph) -> Matching:
    """Scan edges in ascending id order, taking every edge whose endpoints
    are both still free.  The result is maximal: no edge of the graph has
    two unmatched endpoints."""
    free = [True] * g.n
    taken = []
    for eid, (u, v) in enumerate(g.edges):
        if free[u] and free[v]:
            free[u] = free[v] = False
            taken.append(eid)
    return Matching(g, taken)


def maximum_matching(g: Graph) -> Matching:
    """Compute a maximum-cardinality matching of a general graph.

    Grows an alternating tree from each unmatched vertex in ascending
    order.  When a scanned edge closes an odd cycle, the cycle is
    contracted onto its nearest common ancestor (the blossom base) and the
    search continues in the contracted graph; when it reaches another
    unmatched vertex, the alternating path is flipped to gain one edge.
    Neighbors are scanned in ascending order, so the output is
    deterministic.  A search costs in proportion to the vertices it
    touches, not to n: it keeps its tree parents and its outer vertices'
    blossom bases in two dicts of its own, which go when it returns.  Only
    the mates and the dead flags are kept per vertex.

    Three shortcuts return the very matching the plain search would.  A
    root with no neighbor starts no search, as it can never be matched.  A
    root with a free neighbor is matched to the first one unsearched: the
    search scans the root's neighbors first and would augment to it.  A
    failed search (a Hungarian tree, Edmonds 1965) marks its vertices
    dead, and later searches skip dead neighbors.  Every outer vertex of
    a failed tree has all its neighbors in the tree, so a later search
    could enter it only at an inner vertex, reach only the bases of its
    blossoms and label only its vertices: no live vertex would change its
    label, base or place in the queue, and no free vertex lies inside.

    Raises CertificateError if a matched pair is not an edge of g.
    """
    n, adj = g.n, g.adj
    match = [-1] * n
    dead = [False] * n

    # A search's labels: parent holds the tree parents, and base the
    # blossom base of every outer vertex, so its keys are the outer ones.
    def lowest_common_base(a: int, b: int, parent: dict[int, int], base: dict[int, int]) -> int:
        on_path = set()
        x = a
        while True:
            x = base[x]
            on_path.add(x)
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if y in on_path:
                return y
            y = parent[match[y]]

    def mark_cycle(
        x: int, anchor: int, child: int, in_blossom: set[int], parent: dict[int, int], base: dict[int, int]
    ) -> None:
        while base[x] != anchor:
            in_blossom.add(base[x])
            in_blossom.add(base.get(match[x], match[x]))
            parent[x] = child
            child = match[x]
            x = parent[match[x]]

    def find_augmenting_path(root: int) -> list[int]:
        # Augments and returns [], or returns the failed tree's vertices.
        queue = [root]  # every outer vertex, in the order it was labelled
        parent: dict[int, int] = {}
        base = {root: root}
        members: dict[int, list[int]] = {}  # blossom base -> its vertices, once grown
        for v in queue:
            for w in adj[v]:
                if dead[w] or match[v] == w:
                    continue
                if w in base:
                    if base[v] == base[w]:
                        continue
                    # second endpoint is an outer vertex: contract the odd cycle
                    anchor = lowest_common_base(v, w, parent, base)
                    in_blossom: set[int] = set()
                    mark_cycle(v, anchor, w, in_blossom, parent, base)
                    mark_cycle(w, anchor, v, in_blossom, parent, base)
                    # ascending, the order in which a scan of all vertices meets them
                    absorbed = sorted([x for b in in_blossom for x in members.pop(b, (b,))])
                    for x in absorbed:
                        if x not in base:
                            queue.append(x)
                        base[x] = anchor
                    members.setdefault(anchor, [anchor]).extend(absorbed)
                elif w not in parent:
                    parent[w] = v
                    mate = match[w]
                    if mate == -1:
                        # augment along root .. v - w
                        x = w
                        while x != -1:
                            prev = parent[x]
                            nxt = match[prev]
                            match[x] = prev
                            match[prev] = x
                            x = nxt
                        return []
                    # an unlabelled vertex's mate is unlabelled too
                    base[mate] = mate
                    queue.append(mate)
        # the failed tree: its outer vertices and every vertex with a parent
        return queue + list(parent)

    for root in range(n):
        if match[root] != -1 or not adj[root]:
            continue
        for w in adj[root]:
            if match[w] == -1:
                match[root], match[w] = w, root
                break
        else:  # no free neighbour
            for x in find_augmenting_path(root):
                dead[x] = True

    matching = Matching(g, [eid for eid, (u, v) in enumerate(g.edges) if match[u] == v])
    if matching.mate != tuple(match):
        v = next(v for v in range(n) if matching.mate[v] != match[v])
        raise CertificateError(f"matched pair ({v}, {match[v]}) is not an edge of the graph")
    return matching
