"""Maximal and maximum matchings, with a brute-force oracle.

The maximum matching routine is an augmenting-path search with odd-cycle
(blossom) contraction, so it is correct on general graphs.  Everything
scans vertices and edges in ascending id order, which makes the returned
matching itself (not just its size) reproducible.
"""

from __future__ import annotations

from typing import Iterable, Union

from .graph import Edge, Graph, GraphError, TooLargeError

BRUTE_FORCE_EDGE_LIMIT = 24


class CertificateError(RuntimeError):
    """A result broke its certificate (a matched pair that is not an edge;
    a cover whose size is not m + k + t, whose ratio exceeds two, or that
    misses an element): a solver bug, never bad input."""


class Matching:
    """A set of pairwise vertex-disjoint edges of one graph."""

    __slots__ = ("graph", "edge_ids", "_partner")

    def __init__(self, graph: Graph, edge_ids: Iterable[int] = ()):
        partner = [-1] * graph.n
        ids = sorted(set(edge_ids))
        for eid in ids:
            if not 0 <= eid < len(graph.edges):
                raise GraphError(f"edge id {eid} leaves [0, {len(graph.edges)})")
            e = graph.edges[eid]
            if partner[e.u] != -1 or partner[e.v] != -1:
                raise GraphError(f"matching edges share endpoint at edge {eid}")
            partner[e.u] = e.v
            partner[e.v] = e.u
        self.graph = graph
        self.edge_ids = frozenset(ids)
        self._partner = tuple(partner)

    @property
    def size(self) -> int:
        return len(self.edge_ids)

    def partner(self, v: int) -> Union[int, None]:
        mate = self._partner[v]
        return None if mate == -1 else mate

    def is_matched(self, v: int) -> bool:
        return self._partner[v] != -1

    def edges(self) -> list[Edge]:
        return [self.graph.edges[eid] for eid in sorted(self.edge_ids)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.graph == other.graph and self.edge_ids == other.edge_ids

    def __repr__(self) -> str:
        return f"Matching(size={self.size}, edge_ids={sorted(self.edge_ids)})"


def greedy_maximal_matching(g: Graph) -> Matching:
    """Scan edges in ascending id order, taking every edge whose endpoints
    are both still free.  The result is maximal: no edge of the graph has
    two unmatched endpoints."""
    free = [True] * g.n
    taken = []
    for e in g.edges:
        if free[e.u] and free[e.v]:
            free[e.u] = free[e.v] = False
            taken.append(e.id)
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
    touches, not to n: the per-vertex arrays are allocated once and each
    search resets only the entries it wrote.

    Raises CertificateError if a matched pair is not an edge of g.
    """
    n = g.n
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n

    def find_augmenting_path(root: int, queue: list[int], inner: list[int]) -> None:
        # queue starts as [root] and keeps every vertex ever enqueued (head
        # walks it); inner records every vertex given a tree parent.
        # Together they are all the entries of parent/base/in_queue written.
        members: dict[int, list[int]] = {}  # blossom base -> its vertices, once grown

        def lowest_common_base(a: int, b: int) -> int:
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

        def mark_cycle(x: int, anchor: int, child: int, in_blossom: set[int]) -> None:
            while base[x] != anchor:
                in_blossom.add(base[x])
                in_blossom.add(base[match[x]])
                parent[x] = child
                child = match[x]
                x = parent[match[x]]

        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in g.adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or (match[w] != -1 and parent[match[w]] != -1):
                    # second endpoint is an outer vertex: contract the odd cycle
                    anchor = lowest_common_base(v, w)
                    in_blossom: set[int] = set()
                    mark_cycle(v, anchor, w, in_blossom)
                    mark_cycle(w, anchor, v, in_blossom)
                    # ascending, the order in which a scan of all vertices meets them
                    absorbed = sorted([x for b in in_blossom for x in members.pop(b, (b,))])
                    for x in absorbed:
                        base[x] = anchor
                        if not in_queue[x]:
                            in_queue[x] = True
                            queue.append(x)
                    members.setdefault(anchor, [anchor]).extend(absorbed)
                elif parent[w] == -1:
                    parent[w] = v
                    inner.append(w)
                    if match[w] == -1:
                        # augment along root .. v - w
                        x = w
                        while x != -1:
                            prev = parent[x]
                            nxt = match[prev]
                            match[x] = prev
                            match[prev] = x
                            x = nxt
                        return
                    mate = match[w]
                    if not in_queue[mate]:
                        in_queue[mate] = True
                        queue.append(mate)

    for root in range(n):
        if match[root] == -1:
            queue, inner = [root], []
            in_queue[root] = True
            find_augmenting_path(root, queue, inner)
            for x in queue:
                parent[x] = -1
                base[x] = x
                in_queue[x] = False
            for x in inner:
                parent[x] = -1

    edge_ids = set()
    for v in range(n):
        if match[v] > v:
            eid = g.edge_id(v, match[v])
            if eid is None:
                raise CertificateError(f"matched pair ({v}, {match[v]}) is not an edge of the graph")
            edge_ids.add(eid)
    return Matching(g, edge_ids)


def brute_force_maximum_matching(g: Graph) -> Matching:
    """Exhaustive maximum matching, for cross-checking on small graphs.

    Depth-first over edge subsets in ascending id order (take before
    skip), pruning branches that cannot beat the best found and stopping
    at the floor(n/2) ceiling.  Guarded at BRUTE_FORCE_EDGE_LIMIT edges.
    """
    m = len(g.edges)
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(f"{m} edges exceeds the brute-force guard of {BRUTE_FORCE_EDGE_LIMIT}")
    best: list[int] = []
    chosen: list[int] = []
    used = [False] * g.n
    ceiling = g.n // 2
    done = False

    def search(i: int) -> None:
        nonlocal best, done
        if done:
            return
        if len(chosen) > len(best):
            best = chosen.copy()
            if len(best) == ceiling:
                done = True
                return
        if i == m or len(chosen) + (m - i) <= len(best):
            return
        e = g.edges[i]
        if not used[e.u] and not used[e.v]:
            used[e.u] = used[e.v] = True
            chosen.append(i)
            search(i + 1)
            chosen.pop()
            used[e.u] = used[e.v] = False
        search(i + 1)

    search(0)
    return Matching(g, best)


def _augmenting_path_exists(g: Graph, partner: tuple[int, ...]) -> bool:
    # Exhaustive depth-first search over simple alternating paths; after
    # each non-matching edge the matched continuation is forced, so the
    # tree only branches at outer vertices.  Slow but independent of the
    # blossom machinery above.  The explicit stack keeps long paths clear
    # of the recursion limit.
    for root in range(g.n):
        if partner[root] != -1:
            continue
        visited = {root}
        stack = [(root, iter(g.adj[root]))]  # outer vertices of the current path
        while stack:
            v, neighbors = stack[-1]
            for w in neighbors:
                if w == partner[v] or w in visited:
                    continue
                if partner[w] == -1:
                    return True
                mate = partner[w]
                if mate in visited:
                    continue
                visited.update((w, mate))
                stack.append((mate, iter(g.adj[mate])))
                break
            else:
                stack.pop()
                visited.difference_update((v, partner[v]))
    return False


def verify_matching(g: Graph, matching, mode: str = "valid") -> bool:
    """Check a matching (a Matching or a collection of edge ids).

    mode "valid": the ids make a Matching of g (edges exist and are
    pairwise vertex-disjoint).
    mode "maximal": additionally no edge of g could still be added.
    mode "maximum": additionally no augmenting path exists, established
    by an independent exhaustive alternating-path search.
    Raises ValueError if a Matching belongs to another graph.
    """
    if mode not in ("valid", "maximal", "maximum"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(matching, Matching):
        if matching.graph != g:
            raise ValueError("the matching belongs to another graph")
        matching = matching.edge_ids
    try:
        checked = Matching(g, matching)
    except GraphError:
        return False
    partner = checked._partner
    if mode == "valid":
        return True
    if mode == "maximal":
        return all(partner[e.u] != -1 or partner[e.v] != -1 for e in g.edges)
    return not _augmenting_path_exists(g, partner)
