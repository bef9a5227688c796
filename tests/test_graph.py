from hypothesis import given

import pytest

from tcover import (
    DuplicateEdgeError,
    Element,
    ElementSet,
    Graph,
    ParseError,
    SelfLoopError,
    UnknownEdgeError,
    VertexOutOfRangeError,
    all_elements,
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
from tcover.instances import complete, enumerate_graphs, path

from helpers import graphs_with_element_sets, small_graphs


def test_build_k2():
    g = Graph(2, [(0, 1)])
    assert g.n == 2
    assert [(e.u, e.v, e.id) for e in g.edges] == [(0, 1, 0)]


def test_build_k3_adjacency():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.adj[1] == (0, 2)
    assert g.adj[0] == (1, 2)
    assert g.inc[1] == (0, 1)


def test_build_canonicalizes_pairs():
    g = Graph(3, [(2, 0)])
    assert (g.edges[0].u, g.edges[0].v) == (0, 2)
    assert g.edge_id(0, 2) == 0
    assert g.edge_id(2, 0) == 0


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        Graph(3, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        Graph(2, [(0, 2)])


def test_isolated_vertices():
    assert isolated_vertices(Graph(2, [(0, 1)])) == []
    assert isolated_vertices(Graph(3, [])) == [0, 1, 2]
    assert isolated_vertices(Graph(3, [(0, 1)])) == [2]


def test_total_graph_of_k2_is_triangle():
    tg, elements = total_graph(Graph(2, [(0, 1)]))
    assert tg.n == 3
    assert len(tg.edges) == 3
    assert elements == (Element.vertex(0), Element.vertex(1), Element.edge(0))


def test_total_graph_of_isolated_vertex():
    tg, elements = total_graph(Graph(1, []))
    assert tg.n == 1
    assert len(tg.edges) == 0
    assert elements == (Element.vertex(0),)


def test_total_graph_of_p3_center_degree():
    tg, _ = total_graph(path(3))
    assert tg.n == 5
    # middle vertex sees both neighbors and both incident edges
    assert tg.degree(1) == 4


def test_total_graph_counts():
    for g in enumerate_graphs(4):
        tg, _ = total_graph(g)
        m = len(g.edges)
        shared = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n))
        assert tg.n == g.n + m
        assert len(tg.edges) == 3 * m + shared


def test_is_total_cover_k2_edge():
    g = Graph(2, [(0, 1)])
    ok, witness = is_total_cover(g, ElementSet.of(g, edges=[0]))
    assert ok and witness is None


def test_is_total_cover_k3_single_vertex_fails():
    g = complete(3)
    ok, witness = is_total_cover(g, ElementSet.of(g, vertices=[0]))
    assert not ok
    assert witness == Element.edge(g.edge_id(1, 2))


def test_is_total_cover_everything():
    for g in [Graph(0, []), complete(3), path(4)]:
        ok, _ = is_total_cover(g, all_elements(g))
        assert ok


@given(graphs_with_element_sets())
def test_cover_agrees_with_total_graph_domination(case):
    # membership version of "total cover of g == dominating set of T(g)",
    # with the domination side coded here from scratch
    g, d = case
    tg, elements = total_graph(g)
    members = {i for i, el in enumerate(elements) if el in d}
    dominated = all(
        v in members or any(u in members for u in tg.adj[v])
        for v in range(tg.n)
    )
    assert is_total_cover(g, d)[0] == dominated


def test_element_set_validates():
    g = Graph(2, [(0, 1)])
    with pytest.raises(VertexOutOfRangeError):
        ElementSet.of(g, vertices=[2])
    with pytest.raises(UnknownEdgeError):
        ElementSet.of(g, edges=[1])


def test_element_set_iteration_order():
    g = complete(3)
    d = ElementSet.of(g, vertices=[2, 0], edges=[1])
    assert list(d) == [Element.vertex(0), Element.vertex(2), Element.edge(1)]
    assert len(d) == 3


def test_parse_k2():
    g = parse_graph("p edge 2 1\ne 1 2\n")
    assert g.n == 2
    assert g.edge_pairs() == [(0, 1)]


def test_parse_skips_comments():
    g = parse_graph("# header comment\nc another\np edge 2 1\n\ne 1 2\n")
    assert g.edge_pairs() == [(0, 1)]


def test_parse_out_of_range_delegates():
    with pytest.raises(VertexOutOfRangeError):
        parse_graph("p edge 2 1\ne 1 3\n")


def test_parse_syntax_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("p edge 2 1\nq 1 2\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_graph("e 1 2\n")  # edge before header
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\np edge 2 1\ne 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("p edge 2 2\ne 1 2\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_graph("")  # missing header


def test_serialize_empty_graph():
    assert serialize_graph(Graph(0, [])) == "p edge 0 0\n"
    assert parse_graph("p edge 0 0\n").n == 0


@given(small_graphs())
def test_graph_roundtrip(g):
    again = parse_graph(serialize_graph(g))
    assert again.n == g.n
    assert again.edges == g.edges


def test_parse_cover_vertex_and_edge():
    g = Graph(2, [(0, 1)])
    assert parse_cover("v 1\n", g) == ElementSet.of(g, vertices=[0])
    assert parse_cover("e 1 2\n", g) == ElementSet.of(g, edges=[0])
    assert parse_cover("# note\nv 2\ne 2 1\n", g) == ElementSet.of(g, vertices=[1], edges=[0])


def test_parse_cover_unknown_edge():
    g = Graph(2, [(0, 1)])
    with pytest.raises(UnknownEdgeError):
        parse_cover("e 1 3\n", g)


def test_parse_cover_vertex_out_of_range():
    g = Graph(2, [(0, 1)])
    with pytest.raises(VertexOutOfRangeError):
        parse_cover("v 3\n", g)


def test_parse_cover_bad_line():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ParseError):
        parse_cover("w 1\n", g)


@given(graphs_with_element_sets())
def test_cover_roundtrip(case):
    g, d = case
    assert parse_cover(serialize_cover(d), g) == d


def test_element_formatting():
    g = complete(3)
    assert format_element(g, Element.vertex(1)) == "vertex 2"
    assert format_element(g, Element.edge(g.edge_id(1, 2))) == "edge (2,3)"
    assert element_cover_line(g, Element.vertex(0)) == "v 1"
    assert element_cover_line(g, Element.edge(0)) == "e 1 2"
