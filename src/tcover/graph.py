"""Immutable undirected graphs and the element model.

The covering problems in this package live on vertices and edges
together: a *total cover* is a set of vertices and edges such that every
vertex and edge outside the set is adjacent or incident to a member.
An element is numbered as its vertex of the total graph: vertex ``v`` is
``v`` and edge ``e`` is ``n + e``.  This module holds the graph type,
element sets, the total-cover validity check, the total-graph
construction, the text file formats used by the command line tools, and
the package's error classes for bad input and for a broken certificate.
"""

from __future__ import annotations

import io
from bisect import bisect_left
from itertools import chain, compress
from typing import Iterable, Iterator, Optional

__all__ = [
    "CertificateError",
    "ElementSet",
    "Graph",
    "GraphError",
    "ParseError",
    "element_cover_line",
    "format_element",
    "is_total_cover",
    "isolated_vertices",
    "parse_cover",
    "parse_graph",
    "serialize_cover",
    "serialize_graph",
    "total_graph",
]


class GraphError(ValueError):
    """Bad input, which the command line reports with exit 2: a graph that
    is not simple, a vertex, edge or element id out of range, a vertex
    count outside [0, MAX_VERTICES], a matching whose edges share an
    endpoint or that belongs to another graph, inconsistent certificate
    quantities, a generator parameter out of range, a negative search
    guard, or a usage error.
    ParseError is the one case that carries a file line number."""


class ParseError(GraphError):
    """A graph or cover file line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CertificateError(RuntimeError):
    """A result broke its certificate (a matched pair that is not an edge;
    a matching taken as maximum that is not; a cover whose size is not
    m + k + t, whose ratio exceeds two, or that misses an element): a
    solver bug, never bad input.  The command line reports it with exit 3."""


# Graph allocates per vertex before it reads an edge, so a header may not
# declare more vertices than this.
MAX_VERTICES = 1 << 22


def check_vertex_count(n: int) -> None:
    """Raises GraphError unless 0 <= n <= MAX_VERTICES."""
    if n < 0:
        raise GraphError(f"vertex count {n} is negative")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds MAX_VERTICES={MAX_VERTICES}")


class Graph:
    """An immutable simple undirected graph with dense vertex and edge ids.

    Vertices are the integers ``0 .. n-1``; edge ``e`` is ``edges[e]``,
    the pair ``(u, v)`` with ``u < v``, and ids are the pairs' ranks in
    lexicographic order, whatever the input's order.  Each ``adj[v]`` is
    sorted ascending, which makes every algorithm in this package
    deterministic.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        """Raises GraphError for a vertex outside [0, n), a self-loop or a
        repeated pair, naming the first offending pair in input order.
        ``pairs`` may be any iterable; it is read once, and only after ``n``
        is checked, so the generators hand over lazy pairs and leave the
        vertex count to Graph."""
        check_vertex_count(n)
        keys: dict[int, None] = {}  # pair (u, v), u < v, as u * n + v, in input order
        for u, v in pairs:
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) leaves [0, {n})")
            if u == v:
                raise GraphError(f"edge ({u}, {v}) is a self-loop")
            key = u * n + v if u < v else v * n + u
            if key in keys:
                raise GraphError(f"edge ({key // n}, {key % n}) appears twice")
            keys[key] = None
        # sorted is linear on already sorted input, such as every generator's
        edges = [divmod(key, n) for key in sorted(keys)]
        del keys  # freed before the lists are made, which lowers the construction peak
        # edgeless vertices share (), so a bare header costs a pointer per vertex;
        # with pairs at least half as many as vertices, the set costs more than it saves
        adj: list = [()] * n
        for v in range(n) if 2 * len(edges) >= n else set(chain.from_iterable(edges)):
            adj[v] = []
        # a vertex meets its smaller neighbours (as v), then its larger (as u), ascending
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in range(n):  # one list at a time, each freed as its tuple is made
            adj[v] = tuple(adj[v])
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self.adj: tuple[tuple[int, ...], ...] = tuple(adj)

    def edge_id(self, u: int, v: int) -> Optional[int]:
        """The id of edge ``{u, v}``; None for a pair that is not an edge."""
        pair = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, pair)
        return i if i < len(self.edges) and self.edges[i] == pair else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def isolated_vertices(g: Graph) -> list[int]:
    """Vertices with no incident edge, ascending."""
    return [v for v in range(g.n) if not g.adj[v]]


class ElementSet:
    """A set of vertices and edges of one graph, held as one flag byte per
    vertex of its total graph: vertex ``v`` is ``v`` and edge ``e`` is
    ``n + e``, and ``flags[x]`` is 1 when ``x`` is in the set.

    Every id is validated against the graph at construction.  Iteration
    yields ids ascending: vertices ascending, then edges ascending.
    """

    __slots__ = ("graph", "flags")

    def __init__(self, graph: Graph, ids: Iterable[int] = ()):
        """Raises GraphError naming the first id outside
        [0, n + |E|), in the order given; TypeError for a non-integer."""
        total = graph.n + len(graph.edges)
        flags = bytearray(total)
        for x in ids:
            if not 0 <= x < total:
                raise GraphError(f"total-graph vertex {x} leaves [0, {total})")
            flags[x] = 1
        self.graph = graph
        self.flags = bytes(flags)

    def __len__(self) -> int:
        return self.flags.count(1)

    def __iter__(self) -> Iterator[int]:
        return compress(range(len(self.flags)), self.flags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.graph == other.graph and self.flags == other.flags

    def __repr__(self) -> str:
        return f"ElementSet(ids={list(self)})"


def is_total_cover(d: ElementSet) -> tuple[bool, Optional[int]]:
    """Check whether ``d`` is a total cover of its graph ``d.graph``.

    The hubs are the chosen vertices and both endpoints of every chosen
    edge.  A vertex is covered when it is a hub or has a chosen neighbour;
    an edge is covered when it is chosen or has a hub endpoint.  Returns
    ``(True, None)`` when valid, otherwise ``(False, witness)`` where the
    witness is the lowest id of an uncovered element (vertices before
    edges), so it is reproducible.
    """
    g, flags = d.graph, d.flags
    n = g.n
    hubs = bytearray(flags[:n])
    for u, v in compress(g.edges, flags[n:]):
        hubs[u] = hubs[v] = 1
    for v in range(n):
        if not hubs[v] and not any(map(flags.__getitem__, g.adj[v])):
            return False, v
    for eid, (u, v) in enumerate(g.edges):
        if not flags[n + eid] and not hubs[u] and not hubs[v]:
            return False, n + eid
    return True, None


def total_graph(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The total graph of ``g`` as its adjacency rows.

    The total graph has one vertex per element of ``g``: original
    vertices keep their ids, edge ``e`` becomes vertex ``n + e``.  Two
    total-graph vertices are adjacent exactly when the corresponding
    elements are adjacent or incident in ``g``.  Row ``x`` holds the
    neighbours of ``x``, ascending by construction from the checked ``g``.
    """
    n, edges = g.n, g.edges
    incident: list = [[] if near else () for near in g.adj]  # ascending; edgeless ones share ()
    for x, (u, v) in enumerate(edges, n):
        incident[u].append(x)
        incident[v].append(x)
    rows = [near + tuple(ids) for near, ids in zip(g.adj, incident)]
    for x, (u, v) in enumerate(edges, n):
        ids = incident[u] + incident[v]
        ids.sort()  # x twice, every other edge at u or v once
        i = bisect_left(ids, x)
        del ids[i:i + 2]
        rows.append((u, v, *ids))
    return tuple(rows)


def format_element(g: Graph, x: int) -> str:
    """Human-readable, 1-indexed form: ``vertex 3`` or ``edge (1,2)``."""
    if x < g.n:
        return f"vertex {x + 1}"
    u, v = g.edges[x - g.n]
    return f"edge ({u + 1},{v + 1})"


def element_cover_line(g: Graph, x: int) -> str:
    """Cover-file form of one element: ``v 3`` or ``e 1 2`` (1-indexed)."""
    if x < g.n:
        return f"v {x + 1}"
    u, v = g.edges[x - g.n]
    return f"e {u + 1} {v + 1}"


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Only ``"\\n"`` ends a line, and lines starting with ``#`` or ``c`` are
    comments.  Exactly one header ``p edge <n> <m>`` must appear before
    the ``e <u> <v>`` lines, whose endpoints are 1-indexed.  Syntax
    problems raise ParseError with the line number; semantic problems
    (range, loops, duplicates) are reported by graph construction.
    """
    n = -1
    declared_edges = -1
    pairs: list[tuple[int, int]] = []
    line_no = 0
    for line_no, raw in enumerate(text.removesuffix("\n").split("\n") if text else (), 1):
        fields = raw.split()
        if len(fields) == 3 and fields[0] == "e" and n >= 0:
            try:
                pairs.append((int(fields[1]) - 1, int(fields[2]) - 1))
            except ValueError:
                raise ParseError(line_no, f"non-integer endpoints in {raw.strip()!r}") from None
            continue
        if not fields or fields[0][0] in "#c":
            continue
        line = raw.strip()
        if fields[0] == "p":
            if n >= 0:
                raise ParseError(line_no, "duplicate 'p edge' header")
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(line_no, f"malformed header {line!r}")
            try:
                n, declared_edges = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(line_no, f"non-integer header fields in {line!r}") from None
            if n < 0 or declared_edges < 0:
                raise ParseError(line_no, "negative counts in header")
        elif fields[0] == "e":
            if n < 0:
                raise ParseError(line_no, "edge line before 'p edge' header")
            raise ParseError(line_no, f"malformed edge line {line!r}")
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    if n < 0:
        raise ParseError(line_no + 1, "missing 'p edge' header")
    if len(pairs) != declared_edges:
        raise ParseError(line_no, f"header declared {declared_edges} edges, file has {len(pairs)}")
    return Graph(n, pairs)


def serialize_graph(g: Graph) -> str:
    """Graph file text; parse_graph(serialize_graph(g)) reproduces g."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_cover(text: str, g: Graph) -> ElementSet:
    """Parse a cover file against a graph.

    Lines, ended by ``"\\n"`` only, are ``v <id>`` or ``e <u> <v>`` with
    1-indexed ids; ``#`` comments and blank lines are skipped.  Every
    fault raises ParseError with its line number, a vertex outside
    ``g`` and a pair that is not an edge of ``g`` included.
    """
    ids: list[int] = []
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "v" and len(fields) == 2:
            try:
                idx = int(fields[1]) - 1
            except ValueError:
                raise ParseError(line_no, f"non-integer vertex in {line!r}") from None
            if not 0 <= idx < g.n:
                raise ParseError(line_no, f"vertex {idx + 1} leaves [1, {g.n}]")
            ids.append(idx)
        elif fields[0] == "e" and len(fields) == 3:
            try:
                u, v = int(fields[1]) - 1, int(fields[2]) - 1
            except ValueError:
                raise ParseError(line_no, f"non-integer endpoints in {line!r}") from None
            eid = g.edge_id(u, v)
            if eid is None:
                raise ParseError(line_no, f"({u + 1},{v + 1}) is not an edge of the graph")
            ids.append(g.n + eid)
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    return ElementSet(g, ids)


def serialize_cover(d: ElementSet) -> str:
    """Cover file text: vertices ascending, then edges ascending, each
    line as ``element_cover_line`` renders it.  The lines go into one
    buffer as they are made, straight from the flags, with no list of
    them and no element_cover_line call per line."""
    g, flags = d.graph, d.flags
    out = io.StringIO()
    write = out.write
    for v in compress(range(1, g.n + 1), flags):
        write(f"v {v}\n")
    for u, v in compress(g.edges, flags[g.n:]):
        write(f"e {u + 1} {v + 1}\n")
    return out.getvalue()
