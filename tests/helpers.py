"""Shared test utilities: independent oracles, the small-graph corpus and
hypothesis strategies."""

from __future__ import annotations

import random
from typing import Iterator

from hypothesis import strategies as st

from tcover import ElementSet, Graph, GraphError, TooLargeError, TraceStep, bad_vertex_assignment
from tcover import maximum_matching
from tcover.graph import isolated_vertices
from tcover.instances import gnp
from tcover.matching import CertificateError, Matching


def connected(g: Graph) -> bool:
    """Independent connectivity check (plain DFS)."""
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def closed_neighbourhood_masks(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """Bit v and the bits of v's neighbours, for every adjacency row v."""
    masks = []
    for v, row in enumerate(rows):
        mask = 1 << v
        for w in row:
            mask |= 1 << w
        masks.append(mask)
    return masks


@st.composite
def small_graphs(draw, max_n: int = 6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def graphs_with_element_sets(draw, max_n: int = 5):
    g = draw(small_graphs(max_n=max_n))
    total = g.n + len(g.edges)
    mask = draw(st.integers(min_value=0, max_value=max(0, (1 << total) - 1)))
    return g, ElementSet(g, [x for x in range(total) if mask >> x & 1])


@st.composite
def scrambled_edge_lists(draw):
    """A small or gnp graph, and its edge list shuffled, with each pair's
    endpoints swapped at random."""
    g = draw(st.one_of(
        small_graphs(max_n=7),
        st.builds(gnp, st.integers(2, 40), st.sampled_from([0.05, 0.1, 0.2, 0.4]),
                  st.integers(0, 2**64 - 1)),
    ))
    pairs = draw(st.permutations(g.edges))
    swaps = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return g, [(v, u) if swap else (u, v) for (u, v), swap in zip(pairs, swaps)]


def shuffled_copies():
    """A graph of scrambled_edge_lists(), and the graph built from its
    scrambled edge list."""
    return scrambled_edge_lists().map(lambda case: (case[0], Graph(case[0].n, case[1])))


def relabelled(n: int, pairs: list[tuple[int, int]], rng) -> Graph:
    """The graph on n vertices with its vertex labels shuffled by rng."""
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in pairs])


@st.composite
def sparse_graphs_with_pendant_triangles(draw):
    """A random sparse core, triangles hung from some of its vertices by one
    edge, isolated vertices, all relabelled: many searches fail, next to
    blossoms and free neighbours.  At most 300 vertices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    core = draw(st.integers(0, 150))
    triangles = draw(st.integers(0, 40))
    n = core + 3 * triangles + draw(st.integers(0, 30))
    degree = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    pairs = set()
    wanted = min(int(degree * core / 2), core * (core - 1) // 2)
    while len(pairs) < wanted:
        pairs.add(tuple(sorted(rng.sample(range(core), 2))))
    for i in range(triangles):
        a = core + 3 * i
        pairs |= {(a, a + 1), (a, a + 2), (a + 1, a + 2)}
        if core and rng.random() < 0.8:
            pairs.add((rng.randrange(core), a + rng.randrange(3)))
    return relabelled(n, sorted(pairs), rng)


@st.composite
def sparse_graphs_with_a_hub(draw):
    """A graph of sparse_graphs_with_pendant_triangles() with one vertex
    joined to a share of the others: a hub whose side of the matching sees
    many unmatched vertices, beside isolated vertices that stay isolated.
    At most 300 vertices."""
    g = draw(sparse_graphs_with_pendant_triangles())
    if g.n < 2:
        return g
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    hub = rng.randrange(g.n)
    share = draw(st.sampled_from([0.05, 0.2, 0.5]))
    spokes = {(min(hub, w), max(hub, w)) for w in range(g.n) if w != hub and rng.random() < share}
    return Graph(g.n, sorted(set(g.edges) | spokes))


@st.composite
def chorded_odd_cycles(draw):
    """Vertex-disjoint odd cycles joined by random chords, relabelled:
    blossoms form next to trees that earlier searches gave up."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.sampled_from([3, 5, 7, 9]), min_size=1, max_size=15))
    pairs = set()
    start = 0
    for length in lengths:
        pairs |= {tuple(sorted((start + i, start + (i + 1) % length))) for i in range(length)}
        start += length
    n = start + draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, len(lengths) * 2))):
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return relabelled(n, sorted(pairs), rng)


def triangles_and_isolates() -> Graph:
    """200 vertex-disjoint triangles, every third one bridged to the next,
    then 50 isolated vertices: many bad vertices, blossoms and step-1 picks."""
    pairs = []
    for i in range(200):
        a = 3 * i
        pairs += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        if i % 3 == 0:
            pairs.append((a + 2, a + 3))
    return Graph(650, pairs)


def golden_graph(name: str) -> Graph:
    """Graphs whose matchings and `solve --trace` output are pinned by hash."""
    from tcover.instances import hard_instance, star

    return {
        "hard3000": lambda: hard_instance(3000),
        "star8001": lambda: star(8001),
        "gnp600": lambda: gnp(600, 0.005, seed=3),
        "gnp300": lambda: gnp(300, 0.05, seed=5),
        "gnp2000": lambda: gnp(2000, 0.001, seed=1),  # 428 of its searches fail
        "triangles": triangles_and_isolates,
    }[name]()


def reference_maximum_matching(g: Graph) -> Matching:
    """maximum_matching as it was before its free-neighbor step and dead
    vertices, kept verbatim as the oracle for its exact edge ids.

    Compute a maximum-cardinality matching of a general graph.

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


def reference_trace(g: Graph) -> tuple[TraceStep, ...]:
    """approx_total_cover's trace as it was built before step 3 gathered
    unmatched neighbors from the unmatched side, kept verbatim as the
    oracle for steps 1-3: each remaining matching edge filters both of its
    endpoints' adjacency lists."""
    isolates = isolated_vertices(g)
    trace = [TraceStep(1, "isolated", v) for v in isolates]

    matching = maximum_matching(g)
    assignment = bad_vertex_assignment(g, matching)
    # Step 3 works on the surviving graph, whose unmatched vertices are the
    # ones that are unmatched and not bad (isolated ones have no neighbors).
    # Only endpoint additions can cover them (edges added here join two
    # matched vertices, and the step-1/2 elements lost all unmatched
    # neighbors with their removal), so a covered flag per unmatched
    # vertex tracks coverage exactly.
    unmatched = [mate == -1 for mate in matching.mate]
    for v, eid in assignment.pairs:
        trace.append(TraceStep(2, "bad-vertex", v))
        trace.append(TraceStep(2, "bad-edge", g.n + eid))
        unmatched[v] = False
    bad_edges = {eid for _, eid in assignment.pairs}
    covered = [False] * g.n

    def unmatched_neighbors(x: int) -> list[int]:
        return [z for z in g.adj[x] if unmatched[z]]

    for eid in sorted(set(matching.edge_ids) - bad_edges):
        u, v = g.edges[eid]
        near_u = unmatched_neighbors(u)
        near_v = unmatched_neighbors(v)
        # With a maximum matching at most one endpoint can see unmatched
        # vertices: two distinct ones give an augmenting path, a shared
        # one would have been a bad vertex.
        if near_u and near_v:
            raise CertificateError(f"both endpoints of matching edge {eid} reach unmatched vertices")
        endpoint, near = (u, near_u) if near_u else (v, near_v)
        if any(not covered[z] for z in near):
            trace.append(TraceStep(3, "endpoint", endpoint))
            for z in near:
                covered[z] = True
        else:
            trace.append(TraceStep(3, "matching-edge", g.n + eid))
    return tuple(trace)


def reference_first_fault(n: int, pairs) -> str | None:
    """The message of the first fault Graph(n, pairs) must raise, or None
    for valid input.  Walks the pairs in order and tests
    each for its range, then for a self-loop, then for a repeat of an
    earlier unordered pair, reading nothing from tcover.graph."""
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) leaves [0, {n})"
        if u == v:
            return f"edge ({u}, {v}) is a self-loop"
        pair = (min(u, v), max(u, v))
        if pair in seen:
            return f"edge ({pair[0]}, {pair[1]}) appears twice"
        seen.add(pair)
    return None


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, pairs)


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    if not 0 <= n <= 6:
        raise GraphError(f"enumeration is limited to 0 <= n <= 6, got {n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


BRUTE_FORCE_EDGE_LIMIT = 24


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
        u, v = g.edges[i]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            chosen.append(i)
            search(i + 1)
            chosen.pop()
            used[u] = used[v] = False
        search(i + 1)

    search(0)
    return Matching(g, best)


def _augmenting_path_exists(g: Graph, partner: tuple[int, ...]) -> bool:
    # Exhaustive depth-first search over simple alternating paths; after
    # each non-matching edge the matched continuation is forced, so the
    # tree only branches at outer vertices.  Slow but independent of
    # maximum_matching's blossom machinery.  The explicit stack keeps long
    # paths clear of the recursion limit.
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


def verify_matching(g: Graph, matching: Matching, mode: str) -> bool:
    """Check a Matching of g, which is valid by construction.

    mode "maximal": no edge of g could still be added.
    mode "maximum": no augmenting path exists, established by an
    independent exhaustive alternating-path search.
    Raises ValueError for another mode or a matching of another graph.
    """
    if mode not in ("maximal", "maximum"):
        raise ValueError(f"unknown mode {mode!r}")
    if matching.graph != g:
        raise ValueError("the matching belongs to another graph")
    mate = matching.mate
    if mode == "maximal":
        return all(mate[u] != -1 or mate[v] != -1 for u, v in g.edges)
    return not _augmenting_path_exists(g, mate)
