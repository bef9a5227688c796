"""Immutable undirected graphs and the vertex/edge element model.

The covering problems in this package live on vertices and edges
together: a *total cover* is a set of vertices and edges such that every
vertex and edge outside the set is adjacent or incident to a member.
This module holds the graph type, elements and element sets, the
total-cover validity check, the total-graph construction, and the text
file formats used by the command line tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class GraphError(ValueError):
    """Base class for graph construction, element, and file errors."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered vertex pair appears more than once."""


class VertexOutOfRangeError(GraphError):
    """A vertex index lies outside [0, n)."""


class UnknownEdgeError(GraphError):
    """A vertex pair does not name an edge of the graph."""


class ParseError(GraphError):
    """A graph or cover file line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TooLargeError(ValueError):
    """An exhaustive search was requested beyond its size guard."""


class BudgetExceededError(ValueError):
    """An exhaustive search exceeded its candidate budget."""

    def __init__(self, message: str, cardinality_reached: int):
        super().__init__(message)
        self.cardinality_reached = cardinality_reached


@dataclass(frozen=True)
class Edge:
    """An undirected edge, stored with u < v and a dense id."""

    u: int
    v: int
    id: int


@dataclass(frozen=True)
class Element:
    """A vertex or an edge of a graph, the unit of a total cover."""

    kind: str  # "vertex" or "edge"
    index: int

    @classmethod
    def vertex(cls, index: int) -> "Element":
        return cls("vertex", index)

    @classmethod
    def edge(cls, index: int) -> "Element":
        return cls("edge", index)


class Graph:
    """An immutable simple undirected graph with dense vertex and edge ids.

    Vertices are the integers ``0 .. n-1``.  Edges get ids in input order
    after canonicalising each pair to ``u < v``.  Adjacency and incidence
    lists are sorted ascending, which makes every algorithm in this
    package deterministic.
    """

    __slots__ = ("n", "edges", "adj", "inc", "_pair_ids")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        """Raises SelfLoopError, DuplicateEdgeError, or VertexOutOfRangeError,
        each naming the offending pair."""
        if n < 0:
            raise VertexOutOfRangeError(f"vertex count {n} is negative")
        edges: list[Edge] = []
        pair_ids: dict[tuple[int, int], int] = {}
        adj: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            if not (0 <= u < n) or not (0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u}, {v}) leaves [0, {n})")
            if u == v:
                raise SelfLoopError(f"edge ({u}, {v}) is a self-loop")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in pair_ids:
                raise DuplicateEdgeError(f"edge ({a}, {b}) appears twice")
            eid = len(edges)
            pair_ids[(a, b)] = eid
            edges.append(Edge(a, b, eid))
            adj[a].append(b)
            adj[b].append(a)
            inc[a].append(eid)
            inc[b].append(eid)
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self.inc: tuple[tuple[int, ...], ...] = tuple(tuple(i) for i in inc)
        self._pair_ids = pair_ids

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def edge_id(self, u: int, v: int) -> Optional[int]:
        a, b = (u, v) if u < v else (v, u)
        return self._pair_ids.get((a, b))

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(e.u, e.v) for e in self.edges]

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
    """A set of vertices and edges of one graph.

    Every member is validated against the graph at construction.
    Iteration yields vertices ascending, then edges ascending.
    """

    __slots__ = ("graph", "vertex_ids", "edge_ids")

    def __init__(self, graph: Graph, elements: Iterable[Element] = ()):
        vertex_ids: set[int] = set()
        edge_ids: set[int] = set()
        for el in elements:
            if el.kind == "vertex":
                if not 0 <= el.index < graph.n:
                    raise VertexOutOfRangeError(f"vertex {el.index} leaves [0, {graph.n})")
                vertex_ids.add(el.index)
            elif el.kind == "edge":
                if not 0 <= el.index < len(graph.edges):
                    raise UnknownEdgeError(f"edge id {el.index} leaves [0, {len(graph.edges)})")
                edge_ids.add(el.index)
            else:
                raise GraphError(f"unknown element kind {el.kind!r}")
        self.graph = graph
        self.vertex_ids = frozenset(vertex_ids)
        self.edge_ids = frozenset(edge_ids)

    @classmethod
    def of(cls, graph: Graph, vertices: Iterable[int] = (), edges: Iterable[int] = ()) -> "ElementSet":
        els = [Element.vertex(v) for v in vertices]
        els += [Element.edge(e) for e in edges]
        return cls(graph, els)

    def __len__(self) -> int:
        return len(self.vertex_ids) + len(self.edge_ids)

    def __contains__(self, el: Element) -> bool:
        if el.kind == "vertex":
            return el.index in self.vertex_ids
        return el.index in self.edge_ids

    def __iter__(self) -> Iterator[Element]:
        for v in sorted(self.vertex_ids):
            yield Element.vertex(v)
        for e in sorted(self.edge_ids):
            yield Element.edge(e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.vertex_ids == other.vertex_ids
            and self.edge_ids == other.edge_ids
        )

    def __repr__(self) -> str:
        return f"ElementSet(vertices={sorted(self.vertex_ids)}, edges={sorted(self.edge_ids)})"


def all_elements(g: Graph) -> ElementSet:
    """The full element set V + E of a graph."""
    return ElementSet.of(g, vertices=range(g.n), edges=range(len(g.edges)))


def first_uncovered(g: Graph, vertex_ids, edge_ids) -> Optional[Element]:
    """First element not covered by the given vertex/edge id sets.

    A vertex outside the set is covered by an adjacent chosen vertex or an
    incident chosen edge; an edge outside the set is covered by a chosen
    endpoint or a chosen edge sharing an endpoint.  Scans vertices by
    ascending id, then edges by ascending id, so the witness is
    reproducible.  Returns None when everything is covered.
    """
    adj = g.adj
    inc = g.inc
    for v in range(g.n):
        if v in vertex_ids:
            continue
        if any(u in vertex_ids for u in adj[v]):
            continue
        if any(e in edge_ids for e in inc[v]):
            continue
        return Element.vertex(v)
    for e in g.edges:
        if e.id in edge_ids:
            continue
        if e.u in vertex_ids or e.v in vertex_ids:
            continue
        if any(f in edge_ids for f in inc[e.u]):
            continue
        if any(f in edge_ids for f in inc[e.v]):
            continue
        return Element.edge(e.id)
    return None


def is_total_cover(g: Graph, d: ElementSet) -> tuple[bool, Optional[Element]]:
    """Check whether ``d`` is a total cover of ``g``.

    Returns ``(True, None)`` when valid, otherwise ``(False, witness)``
    where the witness is the first uncovered element (lowest vertex id
    first, then lowest edge id).
    """
    witness = first_uncovered(g, d.vertex_ids, d.edge_ids)
    return witness is None, witness


def total_graph(g: Graph) -> tuple[Graph, tuple[Element, ...]]:
    """Build the total graph of ``g`` and the element bijection.

    The total graph has one vertex per element of ``g``: original
    vertices keep their ids, edge ``e`` becomes vertex ``n + e.id``.  Two
    total-graph vertices are adjacent exactly when the corresponding
    elements are adjacent or incident in ``g``.  Also returns a tuple
    mapping each total-graph vertex id to the Element it stands for.
    """
    n = g.n
    pairs = g.edge_pairs()
    for e in g.edges:
        pairs.append((e.u, n + e.id))
        pairs.append((e.v, n + e.id))
    for v in range(n):
        incident = g.inc[v]
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                pairs.append((n + incident[i], n + incident[j]))
    return Graph(n + len(g.edges), pairs), tuple(all_elements(g))


def format_element(g: Graph, el: Element) -> str:
    """Human-readable, 1-indexed form: ``vertex 3`` or ``edge (1,2)``."""
    if el.kind == "vertex":
        return f"vertex {el.index + 1}"
    e = g.edges[el.index]
    return f"edge ({e.u + 1},{e.v + 1})"


def element_cover_line(g: Graph, el: Element) -> str:
    """Cover-file form of one element: ``v 3`` or ``e 1 2`` (1-indexed)."""
    if el.kind == "vertex":
        return f"v {el.index + 1}"
    e = g.edges[el.index]
    return f"e {e.u + 1} {e.v + 1}"


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Lines starting with ``#`` or ``c`` are comments.  Exactly one header
    ``p edge <n> <m>`` must appear before the ``e <u> <v>`` lines, whose
    endpoints are 1-indexed.  Syntax problems raise ParseError with the
    line number; semantic problems (range, loops, duplicates) are
    reported by graph construction.
    """
    n = -1
    declared_edges = -1
    pairs: list[tuple[int, int]] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), 1):
        last_line = line_no
        line = raw.strip()
        if not line or line[0] in "#c":
            continue
        fields = line.split()
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
            if len(fields) != 3:
                raise ParseError(line_no, f"malformed edge line {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, f"non-integer endpoints in {line!r}") from None
            pairs.append((u - 1, v - 1))
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    if n < 0:
        raise ParseError(last_line + 1, "missing 'p edge' header")
    if len(pairs) != declared_edges:
        raise ParseError(last_line, f"header declared {declared_edges} edges, file has {len(pairs)}")
    return Graph(n, pairs)


def serialize_graph(g: Graph) -> str:
    """Graph file text; parse_graph(serialize_graph(g)) reproduces g."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines += [f"e {e.u + 1} {e.v + 1}" for e in g.edges]
    return "\n".join(lines) + "\n"


def parse_cover(text: str, g: Graph) -> ElementSet:
    """Parse a cover file against a graph.

    Lines are ``v <id>`` or ``e <u> <v>`` with 1-indexed ids; ``#``
    comments and blank lines are skipped.  An edge line whose pair is not
    an edge of ``g`` raises UnknownEdgeError.
    """
    elements: list[Element] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
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
                raise VertexOutOfRangeError(f"line {line_no}: vertex {idx + 1} leaves [1, {g.n}]")
            elements.append(Element.vertex(idx))
        elif fields[0] == "e" and len(fields) == 3:
            try:
                u, v = int(fields[1]) - 1, int(fields[2]) - 1
            except ValueError:
                raise ParseError(line_no, f"non-integer endpoints in {line!r}") from None
            eid = g.edge_id(u, v) if u != v else None
            if eid is None:
                raise UnknownEdgeError(f"line {line_no}: ({u + 1},{v + 1}) is not an edge of the graph")
            elements.append(Element.edge(eid))
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    return ElementSet(g, elements)


def serialize_cover(d: ElementSet) -> str:
    """Cover file text: vertices ascending, then edges ascending."""
    g = d.graph
    lines = [element_cover_line(g, el) for el in d]
    return "\n".join(lines) + "\n" if lines else ""
