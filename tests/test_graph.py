import contextlib
import tracemalloc

from hypothesis import given, strategies as st

import pytest

from tcover import (
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
from tcover.graph import MAX_VERTICES
from tcover.instances import complete, cycle, hard_instance, path, star

from helpers import (enumerate_graphs, graphs_with_element_sets, petersen, reference_first_fault,
                     scrambled_edge_lists, shuffled_copies, small_graphs)


def test_build_k2():
    g = Graph(2, [(0, 1)])
    assert g.n == 2
    assert g.edges == ((0, 1),)
    assert type(g.edges[0]) is tuple
    assert Graph.__slots__ == ("n", "edges", "adj")


def test_build_k3_adjacency():
    # ids are the pairs' lexicographic ranks: (0, 2) is edge 1, (1, 2) edge 2
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.adj[1] == (0, 2)
    assert g.adj[0] == (1, 2)
    assert [g.edge_id(1, w) for w in g.adj[1]] == [0, 2]


def test_build_canonicalizes_pairs():
    g = Graph(3, [(2, 0)])
    assert g.edges[0] == (0, 2)
    assert g.edge_id(0, 2) == 0
    assert g.edge_id(2, 0) == 0


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match=r"^edge \(0, 0\) is a self-loop$"):
        Graph(3, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(GraphError, match=r"^edge \(0, 1\) appears twice$"):
        Graph(3, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"^edge \(0, 2\) leaves \[0, 2\)$"):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError, match="^vertex count -1 is negative$"):
        Graph(-1)


def test_header_above_the_vertex_ceiling_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(GraphError,
                           match=f"^vertex count {MAX_VERTICES + 1} exceeds MAX_VERTICES={MAX_VERTICES}$"):
            parse_graph(f"p edge {MAX_VERTICES + 1} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_edgeless_vertices_cost_a_pointer_each():
    # 2**18 vertices hold one 2 MB tuple; two empty lists per vertex peaked at 32 MB
    tracemalloc.start()
    try:
        g = parse_graph("p edge 262144 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    assert g.adj[0] == g.adj[-1] == ()


FIRST_FAULTS = [
    ([(0, 1), (1, 0), (0, 9)], "edge (0, 1) appears twice"),
    ([(0, 9), (0, 1), (1, 0)], "edge (0, 9) leaves [0, 5)"),
    ([(0, 1), (2, 2), (1, 0)], "edge (2, 2) is a self-loop"),
    ([(3, 4), (0, 1), (4, 3), (2, 2)], "edge (3, 4) appears twice"),
    ([(1, 2), (-1, 0)], "edge (-1, 0) leaves [0, 5)"),
    ([(4, 1), (1, 4), (7, 7)], "edge (1, 4) appears twice"),
    ([(2, 3), (3, 2), (1, 1)], "edge (2, 3) appears twice"),
    ([(2, 3), (9, 9), (3, 2)], "edge (9, 9) leaves [0, 5)"),
]


@pytest.mark.parametrize("pairs, message", FIRST_FAULTS)
def test_build_reports_the_first_fault_in_input_order(pairs, message):
    with pytest.raises(GraphError) as err:
        Graph(5, pairs)
    assert (type(err.value), str(err.value)) == (GraphError, message)


@pytest.mark.parametrize("pairs, message", FIRST_FAULTS)
def test_build_reads_a_generator_once_and_reports_its_first_fault(pairs, message):
    with pytest.raises(GraphError) as err:
        Graph(5, (pair for pair in pairs))
    assert (type(err.value), str(err.value)) == (GraphError, message)


@st.composite
def pair_lists(draw):
    """n in 0..6 and pairs with endpoints in -1..n+1, some of them repeated
    reversed, in random order."""
    n = draw(st.integers(0, 6))
    ends = st.integers(-1, n + 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=12))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return n, draw(st.permutations(pairs + [(v, u) for u, v in repeats]))


@given(pair_lists())
def test_build_agrees_with_the_reference_first_fault(case):
    n, pairs = case
    fault = reference_first_fault(n, pairs)
    for given_pairs in (pairs, iter(pairs)):
        if fault is None:
            assert Graph(n, given_pairs).edges == tuple(sorted({(min(p), max(p)) for p in pairs}))
        else:
            with pytest.raises(GraphError) as err:
                Graph(n, given_pairs)
            assert (type(err.value), str(err.value)) == (GraphError, fault)


def assert_one_record_per_edge(g):
    # adj[v] is sorted, and edge_id agrees with a scan of g.edges for every
    # pair, vertices outside [0, n) included
    scanned = {}
    for eid, (u, v) in enumerate(g.edges):
        assert u < v
        scanned[u, v] = scanned[v, u] = eid
    for v in range(g.n):
        assert list(g.adj[v]) == sorted(g.adj[v])
    for u in range(-1, g.n + 1):
        for v in range(-1, g.n + 1):
            assert g.edge_id(u, v) == scanned.get((u, v))


@given(shuffled_copies())
def test_edge_id_agrees_with_a_scan(case):
    for g in case:
        assert_one_record_per_edge(g)


@given(shuffled_copies())
def test_a_graph_is_its_edge_set(case):
    g, shuffled = case
    assert shuffled == g
    assert (shuffled.edges, shuffled.adj) == (g.edges, g.adj)
    assert list(g.edges) == sorted(g.edges)
    assert serialize_graph(shuffled) == serialize_graph(g)


def test_edge_id_agrees_with_a_scan_on_the_hard_family():
    for n in (2, 4, 12):
        assert_one_record_per_edge(hard_instance(n))


def test_isolated_vertices():
    assert isolated_vertices(Graph(2, [(0, 1)])) == []
    assert isolated_vertices(Graph(3, [])) == [0, 1, 2]
    assert isolated_vertices(Graph(3, [(0, 1)])) == [2]


def test_total_graph_of_k2_is_triangle():
    # vertices keep their ids, edge 0 becomes vertex n + 0 = 2
    assert total_graph(Graph(2, [(0, 1)])) == ((1, 2), (0, 2), (0, 1))


def test_total_graph_of_isolated_vertex():
    assert total_graph(Graph(1, [])) == ((),)


def test_total_graph_of_p3_center_degree():
    rows = total_graph(path(3))
    assert len(rows) == 5
    # middle vertex sees both neighbors and both incident edges
    assert len(rows[1]) == 4


def test_total_graph_counts():
    for g in enumerate_graphs(4):
        rows = total_graph(g)
        m = len(g.edges)
        shared = sum(len(a) * (len(a) - 1) // 2 for a in g.adj)
        assert len(rows) == g.n + m
        assert sum(map(len, rows)) == 2 * (3 * m + shared)


def assert_total_graph_is_the_checked_graph(g: Graph) -> None:
    # Graph() rebuilt from the pairs (x, y), y > x, of the rows has the
    # rows as its adjacency only if they are symmetric, ascending, and
    # free of loops and repeats
    rows = total_graph(g)
    assert len(rows) == g.n + len(g.edges)
    checked = Graph(len(rows), [(x, y) for x, row in enumerate(rows) for y in row if y > x])
    assert checked.adj == rows


@pytest.mark.parametrize("g", [hard_instance(8), star(50), petersen(), complete(6), Graph(0), Graph(5)],
                         ids=["hard8", "star50", "petersen", "k6", "empty", "isolated5"])
def test_total_graph_equals_the_checked_constructor(g):
    assert_total_graph_is_the_checked_graph(g)


@given(st.one_of(small_graphs(), scrambled_edge_lists().map(lambda case: case[0])))
def test_total_graph_equals_the_checked_constructor_on_drawn_graphs(g):
    assert_total_graph_is_the_checked_graph(g)


def test_total_graph_of_a_star_is_its_rows():
    # 1,005,000 row entries; a Graph with its 502,500-pair edge tuple
    # peaked at 42.6 MiB, a pair list handed to Graph() at 161.8 MiB
    g = star(1001)
    tracemalloc.start()
    try:
        rows = total_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert sum(map(len, rows)) == 2 * (3 * 1000 + 1000 * 999 // 2)


def test_total_graph_shares_one_empty_row_for_edgeless_vertices():
    # an empty incidence list per vertex peaked at 322.2 MiB; the three
    # lists of 2**22 pointers (incidence, rows, result) take 96 MiB; the
    # rows of T(G) may outnumber MAX_VERTICES, which bounds only g
    g = Graph(MAX_VERTICES, [(0, 1)])
    tracemalloc.start()
    try:
        rows = total_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 << 20
    assert rows[:3] == ((1, MAX_VERTICES), (0, MAX_VERTICES), ())
    assert rows[-1] == (0, 1)


def test_is_total_cover_k2_edge():
    g = Graph(2, [(0, 1)])
    ok, witness = is_total_cover(g, ElementSet(g, [g.n + 0]))
    assert ok and witness is None


def test_is_total_cover_k3_single_vertex_fails():
    g = complete(3)
    ok, witness = is_total_cover(g, ElementSet(g, [0]))
    assert not ok
    assert witness == g.n + g.edge_id(1, 2)


def test_is_total_cover_rejects_a_cover_of_another_graph():
    for g, other, ids in [(path(3), path(5), [6]), (path(5), path(3), [0, 1, 2])]:
        with pytest.raises(ValueError, match="^the cover belongs to another graph$"):
            is_total_cover(g, ElementSet(other, ids))


def test_is_total_cover_everything():
    for g in [Graph(0, []), complete(3), path(4)]:
        ok, _ = is_total_cover(g, ElementSet(g, range(g.n + len(g.edges))))
        assert ok


@given(graphs_with_element_sets())
def test_cover_agrees_with_total_graph_domination(case):
    # membership version of "total cover of g == dominating set of T(g)",
    # with the domination side coded here from scratch
    # and the witness pinned to the lowest undominated total-graph vertex
    g, d = case
    rows = total_graph(g)
    ids = set(d)
    undominated = [
        v for v in range(len(rows))
        if v not in ids and not any(u in ids for u in rows[v])
    ]
    assert is_total_cover(g, d) == (
        (False, undominated[0]) if undominated else (True, None)
    )


def test_element_set_validates():
    # K2's elements are total-graph vertices 0 and 1 (its vertices), 2 (its edge)
    g = Graph(2, [(0, 1)])
    assert list(ElementSet(g, [2])) == [2]
    for bad in (3, -1):
        with pytest.raises(GraphError, match=rf"^total-graph vertex {bad} leaves \[0, 3\)$"):
            ElementSet(g, [bad])


def test_element_set_rejects_a_non_integer_id():
    # a float id would be written as "v 2.0", which parse_cover rejects
    with pytest.raises(TypeError):
        ElementSet(path(3), [1.0])


def test_element_set_names_the_first_bad_id_given():
    # a frozenset of {0, 5, 9} or {1, 2, 6, 10} would yield 9 or 10 first
    g = Graph(2, [(0, 1)])
    with pytest.raises(GraphError, match=r"^total-graph vertex 5 leaves \[0, 3\)$"):
        ElementSet(g, iter([0, 5, 9]))
    with pytest.raises(GraphError, match=r"^total-graph vertex 6 leaves \[0, 3\)$"):
        ElementSet(g, iter([1, 2, 6, 10]))


def test_element_set_iteration_order():
    g = complete(3)
    d = ElementSet(g, [g.n + 1, 2, 0])
    assert list(d) == [0, 2, g.n + 1]  # vertices ascending, then edges ascending
    assert len(d) == 3


def test_parse_k2():
    g = parse_graph("p edge 2 1\ne 1 2\n")
    assert g.n == 2
    assert list(g.edges) == [(0, 1)]


def test_parse_skips_comments():
    g = parse_graph("# header comment\nc another\np edge 2 1\n\ne 1 2\n")
    assert list(g.edges) == [(0, 1)]


def test_parse_out_of_range_delegates():
    with pytest.raises(GraphError, match=r"^edge \(0, 2\) leaves \[0, 2\)$"):
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


@pytest.mark.parametrize("text, message", [
    ("p edge 2 1\n  e 1\tx \n", "line 2: non-integer endpoints in 'e 1\\tx'"),
    ("p edge 4 1\ne 1  2 3\n", "line 2: malformed edge line 'e 1  2 3'"),
    ("p edge 4 1\ne 1\n", "line 2: malformed edge line 'e 1'"),
    ("e 1 2 3\n", "line 1: edge line before 'p edge' header"),
    ("p edge 2 1\n\tq 1 2\n", "line 2: unrecognized line 'q 1 2'"),
    ("p edge 2 1\np edge 2 1\n", "line 2: duplicate 'p edge' header"),
    ("p edge 2\n", "line 1: malformed header 'p edge 2'"),
    ("p edge two 1\n", "line 1: non-integer header fields in 'p edge two 1'"),
    ("p edge 2 -1\n", "line 1: negative counts in header"),
    ("c p edge 2 1\n", "line 2: missing 'p edge' header"),
    ("p edge 2 2\ne 1 2\n", "line 2: header declared 2 edges, file has 1"),
])
def test_parse_error_texts(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_parse_reads_any_line_led_by_c_as_a_comment():
    assert parse_graph("p edge 2 1\ncat 1 2\ne 1 2\nc\n").edges == ((0, 1),)


# str.splitlines() also ends a line at each of these
@pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                         ids=lambda brk: f"U+{ord(brk):04X}")
def test_only_a_newline_ends_a_line(brk):
    # so a comment line cannot add an edge, and line numbers count newlines
    with pytest.raises(ParseError) as err:
        parse_graph(f"p edge 3 2\n# a comment{brk}e 1 2\ne 2 3\n")
    assert str(err.value) == "line 3: header declared 2 edges, file has 1"
    with pytest.raises(ParseError) as err:
        parse_graph(f"p edge 3 1\n# note{brk}\nx\n")
    assert str(err.value) == "line 3: unrecognized line 'x'"
    g = path(3)
    assert parse_cover(f"v 1\n# note{brk}v 2\n", g) == ElementSet(g, [0])
    with pytest.raises(ParseError) as err:
        parse_cover(f"# note{brk}\nw 1\n", g)
    assert str(err.value) == "line 2: unrecognized line 'w 1'"


def test_a_carriage_return_before_the_newline_is_whitespace():
    assert parse_graph("p edge 2 1\r\ne 1 2\r\n").edges == ((0, 1),)
    g = path(3)
    assert parse_cover("v 1\r\ne 2 3\r\n", g) == ElementSet(g, [0, g.n + 1])


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
    assert parse_cover("v 1\n", g) == ElementSet(g, [0])
    assert parse_cover("e 1 2\n", g) == ElementSet(g, [g.n + 0])
    assert parse_cover("# note\nv 2\ne 2 1\n", g) == ElementSet(g, [1, g.n + 0])


def test_parse_cover_unknown_edge():
    # 0 and 4 name vertices outside path(3): a pair holding one is no edge,
    # and 0 must not wrap around to the last vertex
    g = path(3)
    for u, v in [(1, 3), (0, 2), (4, 2), (2, 4), (2, 0), (2, 2)]:
        with pytest.raises(ParseError, match=rf"^line 1: \({u},{v}\) is not an edge of the graph$") as err:
            parse_cover(f"e {u} {v}\n", g)
        assert err.value.line_no == 1


def test_parse_cover_vertex_out_of_range():
    g = Graph(2, [(0, 1)])
    for bad in (0, 3):
        with pytest.raises(ParseError, match=rf"^line 1: vertex {bad} leaves \[1, 2\]$") as err:
            parse_cover(f"v {bad}\n", g)
        assert err.value.line_no == 1


def test_parse_cover_bad_line():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ParseError):
        parse_cover("w 1\n", g)


def test_serialize_cover_keeps_no_list_of_its_lines():
    # the text alone is 2.1 MiB; with a list of its 2**18 line strings the peak is 18.7 MiB
    d = ElementSet(Graph(1 << 18), range(1 << 18))
    tracemalloc.start()
    try:
        text = serialize_cover(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20
    assert text.count("\n") == 1 << 18 and text.endswith("v 262144\n")


@given(graphs_with_element_sets())
def test_cover_roundtrip(case):
    g, d = case
    assert parse_cover(serialize_cover(d), g) == d


def test_element_formatting():
    g = complete(3)
    assert format_element(g, 1) == "vertex 2"
    assert format_element(g, g.n + g.edge_id(1, 2)) == "edge (2,3)"
    assert element_cover_line(g, 0) == "v 1"
    assert element_cover_line(g, g.n + 0) == "e 1 2"


# Counts are small or above MAX_VERTICES: a header within the ceiling
# makes Graph allocate per declared vertex, which is slow, not an error.
FIELDS = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.integers(min_value=MAX_VERTICES + 1, max_value=10**30).map(str),
    st.sampled_from(["", "x", "1.5", "+2", "0x1", "\u0663", "\uff11\uff12", "1_0"]),
    st.text(max_size=4),
)
LINES = st.one_of(
    st.lists(FIELDS, max_size=3).map(lambda fields: " ".join(["p", "edge", *fields])),
    st.lists(FIELDS, max_size=3).map(lambda fields: " ".join(["e", *fields])),
    st.lists(FIELDS, max_size=2).map(lambda fields: " ".join(["v", *fields])),
    st.sampled_from(["", "   ", "# comment", "c comment"]),
    st.text(max_size=8),
)


@given(st.lists(LINES, max_size=8).map("\n".join))
def test_parsers_raise_only_graph_errors(text):
    with contextlib.suppress(GraphError):
        parse_graph(text)
    with contextlib.suppress(GraphError):
        parse_cover(text, cycle(5))
