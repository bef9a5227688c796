import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

import tcover.approx
import tcover.cli
import tcover.exact
from tcover import (
    BadVertexAssignment,
    CertificateError,
    Graph,
    Matching,
    approx_total_cover,
    bad_vertex_assignment,
    element_cover_line,
    serialize_graph,
)
from tcover.cli import format_ratio, main
from tcover.graph import MAX_VERTICES
from tcover.instances import complete, cycle, gnp, hard_instance, path, star

from helpers import (golden_graph, petersen, scrambled_edge_lists,
                     sparse_graphs_with_pendant_triangles, small_graphs)


@pytest.fixture
def hard4(tmp_path):
    target = tmp_path / "hard4.gr"
    target.write_text(serialize_graph(hard_instance(4)))
    return str(target)


@pytest.fixture
def k3(tmp_path):
    target = tmp_path / "k3.gr"
    target.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    return str(target)


@pytest.fixture
def p4(tmp_path):
    target = tmp_path / "p4.gr"
    target.write_text(serialize_graph(path(4)))
    return str(target)


def test_solve_reports_certificate(hard4, capsys):
    assert main(["solve", hard4]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "size=4 m=4 k=0 t=0 lb=2 ratio=2.0000"


def test_solve_k2(tmp_path, capsys):
    graph = tmp_path / "k2.gr"
    graph.write_text("p edge 2 1\ne 1 2\n")
    assert main(["solve", str(graph)]) == 0
    assert "size=1 m=1 k=0 t=0 lb=1 ratio=1.0000" in capsys.readouterr().out


def test_solve_reads_any_line_ending(tmp_path, capsys):
    # files are read with universal newlines, so "\r\n" and a lone "\r" end
    # a line as "\n" does
    for ending in (b"\n", b"\r\n", b"\r"):
        graph = tmp_path / "k2.gr"
        graph.write_bytes(ending.join([b"# k2", b"p edge 2 1", b"e 1 2", b""]))
        assert main(["solve", str(graph)]) == 0
        assert capsys.readouterr().out.startswith("size=1 m=1 k=0 t=0 lb=1 ratio=1.0000\n")


def test_solve_empty_graph(tmp_path, capsys):
    graph = tmp_path / "empty.gr"
    graph.write_text("p edge 0 0\n")
    assert main(["solve", str(graph)]) == 0
    assert "size=0" in capsys.readouterr().out


def test_solve_trace_lines(hard4, capsys):
    assert main(["solve", hard4, "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "3 endpoint v 2",
        "3 matching-edge e 3 7",
        "3 matching-edge e 4 8",
        "3 matching-edge e 5 9",
    ]


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_graphs(), sparse_graphs_with_pendant_triangles()))
def test_solve_writes_what_the_reference_formatter_renders(g):
    # the trace and cover writers stream their lines without
    # element_cover_line, which stays the rendering of one element
    result = approx_total_cover(g)
    with tempfile.TemporaryDirectory() as tmp:
        graph, cover = os.path.join(tmp, "g.gr"), os.path.join(tmp, "out.cover")
        with open(graph, "w") as handle:
            handle.write(serialize_graph(g))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["solve", graph, "--trace", "--output", cover]) == 0
        with open(cover) as handle:
            cover_text = handle.read()
    assert out.getvalue().split("\n", 1)[1] == "".join(
        f"{s.step} {s.reason} {element_cover_line(g, s.element)}\n" for s in result.trace)
    assert cover_text == "".join(f"{element_cover_line(g, x)}\n" for x in sorted(result.order))


def test_solve_trace_keeps_no_list_of_its_lines(tmp_path, monkeypatch):
    # measured from the moment the result exists: a slice copy of the
    # 2**18 - 2 isolated vertices in its step order adds 2 MiB, a list of
    # the trace lines 20 MiB (one edge, so that slice is not all of order,
    # which CPython would hand back uncopied)
    graph = tmp_path / "g.gr"
    graph.write_text("p edge 262144 1\ne 1 2\n")
    held = []

    def then_reset_the_peak(g):
        result = approx_total_cover(g)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return result

    monkeypatch.setattr(tcover.cli, "approx_total_cover", then_reset_the_peak)
    with open(tmp_path / "trace.out", "w") as handle, contextlib.redirect_stdout(handle):
        tracemalloc.start()
        try:
            assert main(["solve", str(graph), "--trace"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - held[0] < 1 << 20
    lines = (tmp_path / "trace.out").read_text().splitlines()
    assert len(lines) == 1 + (1 << 18) - 1
    assert lines[-2:] == ["1 isolated v 262144", "3 matching-edge e 1 2"]


def test_solve_writes_cover_that_verifies(hard4, tmp_path, capsys):
    cover = tmp_path / "out.cover"
    assert main(["solve", hard4, "--output", str(cover)]) == 0
    assert main(["verify", hard4, "--cover", str(cover)]) == 0
    assert "VALID size=4" in capsys.readouterr().out


def test_solve_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p edge 2 1\nq 1 2\n")
    assert main(["solve", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_solve_missing_file(tmp_path):
    assert main(["solve", str(tmp_path / "nope.gr")]) == 2


@pytest.mark.parametrize("text, message", [
    ("p edge 3 1\ne 2 2\n", "edge (1, 1) is a self-loop"),
    ("p edge 3 2\ne 1 2\ne 2 1\n", "edge (0, 1) appears twice"),
    ("p edge 3 1\ne 1 10\n", "edge (0, 9) leaves [0, 3)"),
], ids=["self-loop", "duplicate", "out-of-range"])
def test_graph_file_fault_texts(tmp_path, capsys, text, message):
    # Graph's texts, 0-indexed pairs included, reach stderr and the CSV as
    # they are; the csv module quotes the cell for its comma
    graph = tmp_path / "x.gr"
    graph.write_text(text)
    assert main(["solve", str(graph)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["compare", str(graph)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "x.gr" + "," * 13 + f'"{message}"'


def test_exact_reports_optimum(hard4, capsys):
    assert main(["exact", hard4, "--max-elements", "64"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("size=3")
    assert out[1:] == ["v 1", "e 6 7", "e 8 9"]


def test_exact_lower_bound_flag_is_gone(k3, capsys):
    flag = "--" + "-".join(("start", "at", "lower", "bound"))  # the removed flag
    with pytest.raises(SystemExit) as err:
        main(["exact", k3, flag])
    assert err.value.code == 2
    assert f"tcover: error: unrecognized arguments: {flag}\n" in capsys.readouterr().err


def test_exact_never_runs_the_approximation(hard4, capsys, monkeypatch):
    assert main(["exact", hard4, "--max-elements", "64"]) == 0
    expected = capsys.readouterr().out

    def refuse(g):
        raise AssertionError("exact ran the approximation")

    monkeypatch.setattr(tcover.cli, "approx_total_cover", refuse)
    assert main(["exact", hard4, "--max-elements", "64"]) == 0
    assert capsys.readouterr().out == expected


def test_exact_guard_exit(tmp_path, capsys):
    big = tmp_path / "k20.gr"
    big.write_text(serialize_graph(complete(20)))
    assert main(["exact", str(big)]) == 4
    assert capsys.readouterr().err == "error: 210 elements exceeds max_elements=32\n"


def test_exact_budget_exit(k3):
    assert main(["exact", k3, "--max-candidates", "3"]) == 5


# `exact FILE` stdout, recorded from the branch and bound: the node count
# and the optimum are pinned.
GOLDEN_EXACT_STDOUT = {
    "hard6": (lambda: hard_instance(6), "size=4 candidates=47\nv 1\ne 8 9\ne 10 11\ne 12 13\n"),
    "gnp9": (lambda: gnp(9, 0.3, 7), "size=4 candidates=27\nv 5\nv 8\nv 9\ne 1 3\n"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXACT_STDOUT))
def test_exact_stdout_golden(name, tmp_path, capsys):
    build, expected = GOLDEN_EXACT_STDOUT[name]
    graph = tmp_path / "g.gr"
    graph.write_text(serialize_graph(build()))
    assert main(["exact", str(graph)]) == 0
    assert capsys.readouterr().out == expected


EXACT_UNDER_O = """
import sys
import tcover.exact
from tcover.cli import main

if __debug__:
    sys.exit("expected to run under python -O")
count = lambda g: g.n + len(g.edges)
tcover.exact._total_cover_masks = lambda g: [(1 << count(g)) - 1] * count(g)
sys.exit(main(["exact", sys.argv[1]]))
"""


def test_exact_confirmation_survives_python_O(k3):
    src = os.path.dirname(os.path.dirname(tcover.exact.__file__))
    env = {**os.environ, "PYTHONPATH": src}  # the child needs only tcover and the stdlib
    proc = subprocess.run(
        [sys.executable, "-O", "-c", EXACT_UNDER_O, k3],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "internal error: exact total cover misses edge (2,3)\n"
    assert proc.stdout == ""


def cli_outputs(graph_file):
    """stdout and written files of every command that reads one graph."""
    outputs = []
    cover = graph_file + ".cover"
    for argv in (["solve", graph_file, "--trace", "--output", cover],
                 ["exact", graph_file, "--max-elements", "20"]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            outputs.append((main(argv), out.getvalue()))
    with open(cover) as handle:
        outputs.append(handle.read())
    return outputs


@settings(max_examples=40, deadline=None)
@given(scrambled_edge_lists())
def test_output_ignores_the_order_of_edge_lines(case):
    g, pairs = case
    with tempfile.TemporaryDirectory() as tmp:
        listed = os.path.join(tmp, "sorted.gr")
        scrambled = os.path.join(tmp, "scrambled.gr")
        with open(listed, "w") as handle:
            handle.write(serialize_graph(g))
        with open(scrambled, "w") as handle:
            handle.write(f"p edge {g.n} {len(pairs)}\n")
            handle.writelines(f"e {u + 1} {v + 1}\n" for u, v in pairs)
        assert cli_outputs(scrambled) == cli_outputs(listed)
        report = os.path.join(tmp, "report.csv")
        assert main(["compare", listed, scrambled, "--csv", report]) == 0
        with open(report) as handle:
            rows = list(csv.reader(handle))[1:]
    assert len(rows) == 2
    assert rows[0][1:] == rows[1][1:]  # all but the instance name


def compare_row(graph_file, capsys):
    """The one CSV row of `compare FILE`, by column name."""
    assert main(["compare", graph_file]) == 0
    [row] = csv.DictReader(capsys.readouterr().out.splitlines())
    return row


def test_baseline_matched_vertices(hard4, capsys):
    assert compare_row(hard4, capsys)["baseline_size"] == "8"


def test_baseline_greedy_domination(tmp_path, capsys):
    graph = tmp_path / "star10.gr"
    graph.write_text(serialize_graph(star(10)))
    assert int(compare_row(str(graph), capsys)["greedy_size"]) <= 2


def test_baseline_isolated_vertices(tmp_path, capsys):
    graph = tmp_path / "iso3.gr"
    graph.write_text("p edge 3 0\n")
    assert compare_row(str(graph), capsys)["baseline_size"] == "3"


def star_of_all_elements(g):
    # T(G)'s rows replaced by a star on element 0, so the greedy picks it alone
    total = g.n + len(g.edges)
    return [tuple(range(1, total))] + [(0,)] * (total - 1)


def test_compare_certifies_its_baseline_columns(k3, capsys, monkeypatch):
    # the greedy's one pick, vertex 1, leaves edge (2,3) uncovered
    monkeypatch.setattr(tcover.approx, "total_graph", star_of_all_elements)
    assert main(["compare", k3]) == 3
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1] == ["k3.gr"] + [""] * 12 + ["internal error: baseline cover misses edge (2,3)"]


def test_verify_invalid_cover(k3, tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("v 1\n")
    assert main(["verify", k3, "--cover", str(cover)]) == 1
    assert "INVALID witness=edge (2,3)" in capsys.readouterr().out


def test_verify_valid_pair(k3, tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("v 1\ne 2 3\n")
    assert main(["verify", k3, "--cover", str(cover)]) == 0
    assert "VALID size=2" in capsys.readouterr().out


def test_verify_cover_parse_error(k3, tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    for line, message in [("e 1 9", "(1,9) is not an edge of the graph"),
                          ("v 4", "vertex 4 leaves [1, 3]")]:
        cover.write_text(f"{line}\n")
        assert main(["verify", k3, "--cover", str(cover)]) == 2
        assert capsys.readouterr().err == f"error: line 1: {message}\n"


def test_gen_writes_header(tmp_path, capsys):
    out = tmp_path / "f4.gr"
    assert main(["gen", "figure1", "--n", "4", "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "n=9 edges=10"
    assert out.read_text().splitlines()[0] == "p edge 9 10"


def test_gen_stdout(capsys):
    assert main(["gen", "path", "--n", "3"]) == 0
    assert capsys.readouterr().out == "p edge 3 2\ne 1 2\ne 2 3\n"


def test_gen_odd_parameter_exit(capsys):
    assert main(["gen", "figure1", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: family requires even n, got 3\n"


def test_gen_gnp_deterministic(tmp_path):
    a, b = tmp_path / "a.gr", tmp_path / "b.gr"
    assert main(["gen", "gnp", "--n", "10", "--p", "0.3", "--seed", "42", "-o", str(a)]) == 0
    assert main(["gen", "gnp", "--n", "10", "--p", "0.3", "--seed", "42", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_gnp_requires_p_and_seed(capsys):
    # --p and --seed go with gnp, and with gnp alone
    for argv, message in [
        (["gnp", "--n", "5"], "gnp requires --p and --seed"),
        (["path", "--n", "3", "--p", "0.5"], "path takes no --p or --seed"),
        (["star", "--n", "3", "--seed", "2"], "star takes no --p or --seed"),
    ]:
        assert main(["gen", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, count", [
    (["gnp", "--n", str(MAX_VERTICES + 1), "--p", "0", "--seed", "1"], MAX_VERTICES + 1),
    (["star", "--n", "100000000"], 100000000),
])
def test_gen_above_the_vertex_ceiling_exits_2_at_once(argv, count, capsys):
    tracemalloc.start()
    try:
        assert main(["gen", *argv]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err == f"error: vertex count {count} exceeds MAX_VERTICES={MAX_VERTICES}\n"


def test_gen_complete_above_the_edge_ceiling_exits_2_at_once(capsys):
    tracemalloc.start()
    try:
        assert main(["gen", "complete", "--n", "100000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err == (
        f"error: complete(100000) has 4999950000 edges, more than MAX_VERTICES={MAX_VERTICES}\n")


# sha256 of `gen` stdout for every non-random family, then
# serialize_graph(petersen()), recorded while cycle and petersen still
# sorted their pairs themselves.
GOLDEN_GEN = "2cd2223c0336e03830e782b8cce7966c261d8527f53618d37c6ca7a90808920d"


def test_gen_families_golden(capsys):
    outputs = []
    for family, n in [("figure1", 6), ("path", 7), ("cycle", 7), ("star", 7), ("complete", 6)]:
        assert main(["gen", family, "--n", str(n)]) == 0
        outputs.append(capsys.readouterr().out)
    outputs.append(serialize_graph(petersen()))
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == GOLDEN_GEN


def test_compare_csv_content(hard4, k3, tmp_path):
    out = tmp_path / "report.csv"
    assert main(["compare", hard4, k3, "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "instance,n,edges,m,k,t,alg_size,lower_bound,exact_size,"
        "baseline_size,greedy_size,ratio_vs_lb,ratio_vs_exact,error"
    )
    assert lines[1].startswith("hard4.gr,9,10,4,0,0,4,2,3,8,")
    assert ",1.3333," in lines[1]  # alg 4 vs exact 3
    assert lines[2].startswith("k3.gr,3,3,1,1,0,2,1,2,")


def test_compare_ratio_column_on_hard_family(tmp_path):
    files = []
    for n in (4, 6, 8, 10, 12):
        f = tmp_path / f"hard{n}.gr"
        f.write_text(serialize_graph(hard_instance(n)))
        files.append(str(f))
    out = tmp_path / "report.csv"
    assert main(["compare", *files, "--csv", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5
    # 19 and 28 elements fit MAX_ELEMENTS = 32; 37, 46 and 55 do not
    for row, exact in zip(rows, ["3", "4", "", "", ""]):
        fields = row.split(",")
        assert fields[11] == "2.0000"  # ratio_vs_lb
        assert fields[8] == exact


def test_compare_exact_columns_stop_at_max_elements(tmp_path):
    # the exact oracle runs when n + |E| <= MAX_ELEMENTS = 32, and only then
    for name, g, alg, exact, ratio in [("cycle16", cycle(16), "8", "7", "1.1429"),  # 32
                                       ("path17", path(17), "8", "", ""),  # 33
                                       ("hard8", hard_instance(8), "8", "", "")]:  # 37
        graph = tmp_path / f"{name}.gr"
        graph.write_text(serialize_graph(g))
        out = tmp_path / "report.csv"
        assert main(["compare", str(graph), "--csv", str(out)]) == 0
        [row] = csv.DictReader(out.read_text().splitlines())
        assert (row["alg_size"], row["exact_size"], row["ratio_vs_exact"], row["error"]) == \
            (alg, exact, ratio, "")


def oracle_ratio(num, den):
    # num/den rounded to four decimals, halves up; a ratio over 0 reads 1
    if den == 0:
        return "1.0000"
    units = math.floor(Fraction(num, den) * 10000 + Fraction(1, 2))
    return f"{units // 10000}.{units % 10000:04d}"


@given(st.integers(0, 10**7), st.integers(0, 10**7))
def test_format_ratio_agrees_with_rational_rounding(num, den):
    assert format_ratio(num, den) == oracle_ratio(num, den)


@pytest.mark.parametrize("num, den, text", [
    (0, 0, "1.0000"), (2, 3, "0.6667"), (1, 20000, "0.0001"), (1, 20001, "0.0000"),
    (200, 51, "3.9216"), (8, 4, "2.0000"),
])
def test_format_ratio_pinned(num, den, text):
    assert format_ratio(num, den) == text == oracle_ratio(num, den)


def test_compare_records_errors_and_continues(k3, tmp_path):
    bad = tmp_path / "broken.gr"
    bad.write_text("p edge 1 1\n")
    out = tmp_path / "report.csv"
    assert main(["compare", str(bad), k3, "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("broken.gr,")
    assert "header declared 1 edges" in lines[1]
    assert lines[2].startswith("k3.gr,3,")


def test_compare_records_non_utf8_input_and_continues(tmp_path):
    inst = tmp_path / "instances"
    inst.mkdir()
    (inst / "a.gr").write_text("p edge 2 1\ne 1 2\n")
    (inst / "c.gr").write_text("p edge 3 1\ne 1 2\n")
    clean = tmp_path / "clean.csv"
    assert main(["compare", "--dir", str(inst), "--csv", str(clean)]) == 0
    (inst / "b.gr").write_bytes(b"p edge 2 1\ne 1 \xff\n")
    out = tmp_path / "report.csv"
    assert main(["compare", "--dir", str(inst), "--csv", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[2][:-1] == ["b.gr"] + [""] * 12
    assert "can't decode byte 0xff" in rows[2][-1]
    lines = out.read_text().splitlines()
    assert lines[:2] + lines[3:] == clean.read_text().splitlines()


def test_header_above_the_vertex_ceiling_is_an_input_error(tmp_path, capsys):
    huge = tmp_path / "huge.gr"
    huge.write_text(f"p edge {MAX_VERTICES + 1} 0\n")
    message = f"vertex count {MAX_VERTICES + 1} exceeds MAX_VERTICES={MAX_VERTICES}"
    assert main(["solve", str(huge)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    out = tmp_path / "report.csv"
    assert main(["compare", str(huge), "--csv", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1] == ["huge.gr"] + [""] * 12 + [message]


@pytest.mark.parametrize("argv", [
    ["solve", "{bad}"],
    ["verify", "{graph}", "--cover", "{bad}"],
])
def test_non_utf8_input_exits_2(k3, tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p edge 2 1\ne 1 \xff\n")
    assert main([arg.format(graph=k3, bad=bad) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_compare_is_byte_deterministic(hard4, k3, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["compare", hard4, k3, "--csv", str(a)]) == 0
    assert main(["compare", hard4, k3, "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_dir_mode(tmp_path, capsys):
    inst = tmp_path / "instances"
    inst.mkdir()
    (inst / "b.gr").write_text("p edge 2 1\ne 1 2\n")
    (inst / "a.gr").write_text("p edge 1 0\n")
    (inst / "c.gr").mkdir()  # not a file, so not an instance
    assert main(["compare", "--dir", str(inst)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["a.gr", "b.gr"]  # sorted by name


def test_compare_searches_one_matching_per_row(hard4, k3, tmp_path, monkeypatch):
    # the matched-vertices baseline reuses the approximation's matching
    calls = []
    search = tcover.approx.maximum_matching

    def counting(g):
        calls.append(g)
        return search(g)

    monkeypatch.setattr(tcover.approx, "maximum_matching", counting)
    assert main(["compare", hard4, k3, "--csv", str(tmp_path / "report.csv")]) == 0
    assert len(calls) == 2


def test_compare_requires_inputs(capsys):
    assert main(["compare"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no input instances (pass files or --dir)\n"


def test_compare_tags_internal_errors_and_exits_3(hard4, k3, tmp_path, monkeypatch):
    solve = tcover.cli.approx_total_cover

    def broken_on_k3(g):
        if g.n == 3:
            raise CertificateError("cover has 3 elements, not m + k + t")
        return solve(g)

    clean = tmp_path / "clean.csv"
    assert main(["compare", hard4, "--csv", str(clean)]) == 0
    monkeypatch.setattr(tcover.cli, "approx_total_cover", broken_on_k3)
    out = tmp_path / "report.csv"
    assert main(["compare", k3, hard4, "--csv", str(out)]) == 3
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1] == ["k3.gr"] + [""] * 12 + ["internal error: cover has 3 elements, not m + k + t"]
    assert out.read_text().splitlines()[2] == clean.read_text().splitlines()[1]


def doubled_bad_pairs(g, matching):
    # each bad vertex claims its edge twice, so the cover falls short of m + k + t
    return BadVertexAssignment(bad_vertex_assignment(g, matching).pairs * 2)


FAILED_VALIDATIONS = [
    ("solve", "k3", tcover.approx, "is_total_cover", lambda d: (False, 0),
     "constructed cover misses vertex 1"),
    ("exact", "k3", tcover.exact, "is_total_cover", lambda d: (False, 0),
     "exact total cover misses vertex 1"),
    ("solve", "k3", tcover.approx, "bad_vertex_assignment", doubled_bad_pairs,
     "cover has 2 elements, not m + k + t"),
    ("solve", "hard4", tcover.approx, "total_cover_lower_bound", lambda m, k, t: 1,
     "cover of 4 elements exceeds twice the lower bound 1"),
    ("solve", "p4", tcover.approx, "maximum_matching", lambda g: Matching(path(4), [1]),
     "both endpoints of matching edge 1 reach unmatched vertices"),
]


@pytest.mark.parametrize("command, graph, patched, name, replacement, message", FAILED_VALIDATIONS,
                         ids=[f"{case[0]}-{case[2].__name__}-{case[5]}" for case in FAILED_VALIDATIONS])
def test_failed_validation_exits_3(request, capsys, monkeypatch, command, graph, patched, name,
                                   replacement, message):
    monkeypatch.setattr(patched, name, replacement)
    argv = [command, request.getfixturevalue(graph)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"internal error: {message}\n"
    assert captured.out == ""


def test_compare_tags_a_non_maximum_matching_and_exits_3(p4, capsys, monkeypatch):
    monkeypatch.setattr(tcover.approx, "maximum_matching", lambda g: Matching(path(4), [1]))
    assert main(["compare", p4]) == 3
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    message = "internal error: both endpoints of matching edge 1 reach unmatched vertices"
    assert rows[1] == ["p4.gr"] + [""] * 12 + [message]


def test_matched_non_edge_exits_3(k3, capsys, monkeypatch):
    def parse_broken(text):
        g = Graph(2)
        g.adj = ((1,), (0,))  # adjacency that names a pair the edge tuple lacks
        return g

    monkeypatch.setattr(tcover.cli, "parse_graph", parse_broken)
    assert main(["solve", k3]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: matched pair (0, 1) is not an edge of the graph\n"
    assert captured.out == ""


def out_of_memory(text):
    raise MemoryError  # as the interpreter raises it: with no text


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_running_out_of_memory_exits_6(k3, tmp_path, capsys, monkeypatch, command):
    # exit 1 means an invalid cover, so a MemoryError must not end in a
    # traceback and the interpreter's exit 1
    cover = tmp_path / "c.cover"
    cover.write_text("v 1\n")
    monkeypatch.setattr(tcover.cli, "parse_graph", out_of_memory)
    argv = [command, k3] + (["--cover", str(cover)] if command == "verify" else [])
    assert main(argv) == 6
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


def test_compare_records_running_out_of_memory_and_continues(hard4, k3, tmp_path, monkeypatch):
    parse = tcover.cli.parse_graph

    def out_of_memory_on_k3(text):
        return out_of_memory(text) if text.startswith("p edge 3 ") else parse(text)

    clean = tmp_path / "clean.csv"
    assert main(["compare", hard4, "--csv", str(clean)]) == 0
    monkeypatch.setattr(tcover.cli, "parse_graph", out_of_memory_on_k3)
    out = tmp_path / "report.csv"
    assert main(["compare", k3, hard4, "--csv", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1] == ["k3.gr"] + [""] * 12 + ["out of memory"]
    assert out.read_text().splitlines()[2] == clean.read_text().splitlines()[1]


def test_compare_row_that_fails_part_way_holds_only_its_error(hard4, k3, tmp_path, monkeypatch):
    # the greedy baseline runs after the approximation and the other
    # baseline have finished: their results must not stand beside the error
    greedy = tcover.cli.greedy_domination_cover

    def out_of_memory_on_k3(g):
        if g.n == 3:
            raise MemoryError
        return greedy(g)

    clean = tmp_path / "clean.csv"
    assert main(["compare", hard4, "--csv", str(clean)]) == 0
    monkeypatch.setattr(tcover.cli, "greedy_domination_cover", out_of_memory_on_k3)
    out = tmp_path / "report.csv"
    assert main(["compare", k3, hard4, "--csv", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1] == ["k3.gr"] + [""] * 12 + ["out of memory"]
    assert out.read_text().splitlines()[2] == clean.read_text().splitlines()[1]


def test_every_exported_error_has_an_exit_code():
    # one public class per exit code, and ParseError, which only adds its
    # line number to GraphError; main looks an exception up by its MRO, so
    # a public error class with no listed base would end in a traceback
    errors = {name: getattr(tcover, name) for name in tcover.__all__}
    errors = {name: cls for name, cls in errors.items()
              if isinstance(cls, type) and issubclass(cls, BaseException)}
    assert set(errors) == {"GraphError", "ParseError", "CertificateError", "TooLargeError",
                           "BudgetExceededError"}
    assert errors["ParseError"].__bases__ == (errors["GraphError"],)
    for name, cls in errors.items():
        assert name == "ParseError" or cls in tcover.cli.EXIT_CODES, name


def test_solve_validates_the_cover_once(k3, monkeypatch):
    calls = []

    def counting(check):
        def wrapper(d):
            calls.append(d)
            return check(d)
        return wrapper

    for module in (tcover.approx, tcover.cli):
        monkeypatch.setattr(module, "is_total_cover", counting(module.is_total_cover))
    assert main(["solve", k3]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "{graph}", "--output", "{out}"],
    ["gen", "path", "--n", "3", "-o", "{out}"],
    ["compare", "{graph}", "--csv", "{out}"],
])
def test_unwritable_output_exits_2(k3, tmp_path, capsys, argv):
    out = tmp_path / "no" / "such" / "dir" / "x"
    assert main([arg.format(graph=k3, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing is printed before the output file is opened
    assert captured.err.startswith("error: [Errno 2] No such file or directory")


def test_negative_search_limit_is_a_usage_error(k3, capsys):
    # exact_total_cover refuses a negative guard with a GraphError, which
    # main reports as one `error:` line; a malformed guard is argparse's
    for flag in ("--max-candidates", "--max-elements"):
        assert main(["exact", k3, flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search limits must be non-negative\n"
    with pytest.raises(SystemExit) as err:
        main(["exact", k3, "--max-elements", "x"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("tcover exact: error: argument --max-elements: invalid int value: 'x'\n")
    assert captured.out == ""


def test_module_entry_point(tmp_path):
    graph = tmp_path / "k2.gr"
    graph.write_text("p edge 2 1\ne 1 2\n")
    src = os.path.dirname(os.path.dirname(tcover.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}  # the child needs only tcover and the stdlib
    proc = subprocess.run(
        [sys.executable, "-m", "tcover", "solve", str(graph)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("size=1")


# sha256 of `solve FILE --trace` stdout and of its --output cover file,
# recorded from the quadratic matching and bad-vertex scan: speed-ups must
# keep traces and covers byte-identical.
GOLDEN_SOLVES = {
    "hard3000": (
        "dd8543ad527c7a8816e09a7761cf340682c2dcde55e6b42aee1a1ea6303c01e8",
        "94b94da57e3b7e761fde9a24bd990dac385102695f906f689743d0186a415831",
    ),
    "star8001": (
        "43067b2a8366979e6aabae3a62a2a1e4c1197fe4e3679d1a51ccee3d8a7f07db",
        "eac17682a4980d82cdaf1b907de8759770394c191cb6c9f4f409ff990f6e5aec",
    ),
    "gnp600": (
        "8e48a562f22379a81f9aed8f5da54aab1910a23b8f9833cfdc62dd4c3e48ec94",
        "4e5e5de4cf20400ff3d54944f10f418eea565a563b371f152cfd2f83d6955f33",
    ),
    "gnp300": (
        "6e3b1104b49e861b222b3f08dea23459457ce18caedff05f9ff1e2676181078a",
        "0893adce88597bfbde0e120861b0c911ceb3d14446d70f964c21a026ce5bfeb9",
    ),
    "triangles": (
        "1567367a73ee7a5f83a6d6abd5f60e3ace1a0e2b1f1e05247a58042a6610287f",
        "90dcb91a50bd67c6beb52357f0246d9eac68b0afc166f17682f224a38798e11e",
    ),
    # recorded before maximum_matching skipped the trees of failed searches
    "gnp2000": (
        "90c8974cd30f9aad1390b3a5491b044708607c9d043198e65a1a6ac3b4ce1ae0",
        "11ee8c1abe3017639ff1bdd63dc777e46b206acd634e88ea52611d19cdf45efb",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVES))
def test_solve_trace_and_cover_golden(name, tmp_path, capsys):
    graph = tmp_path / "g.gr"
    graph.write_text(serialize_graph(golden_graph(name)))
    cover = tmp_path / "out.cover"
    assert main(["solve", str(graph), "--trace", "--output", str(cover)]) == 0
    stdout = capsys.readouterr().out
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (stdout, cover.read_text()))
    assert digests == GOLDEN_SOLVES[name]


# sha256 of `verify` stdout over VERIFY_GRAPHS, each checked against its
# `solve --output` cover with one element deleted, every
# floor(|cover|/40)-th in turn (179 runs), recorded while covers still held
# vertex and edge ids apart: a witness must name the same element.
VERIFY_GRAPHS = ("gnp300", "gnp600", "hard3000", "star8001", "triangles")
GOLDEN_VERIFY = "0aecfb76958b50ec3adffbf21635e3f64c90ace4f2e1a5212b38d63289390dfa"


def test_verify_witness_golden(tmp_path, capsys):
    graph, cover, cut = tmp_path / "g.gr", tmp_path / "out.cover", tmp_path / "cut.cover"
    outputs = []
    for name in VERIFY_GRAPHS:
        graph.write_text(serialize_graph(golden_graph(name)))
        assert main(["solve", str(graph), "--output", str(cover)]) == 0
        capsys.readouterr()
        lines = cover.read_text().splitlines(keepends=True)
        for i in range(0, len(lines), max(1, len(lines) // 40)):
            cut.write_text("".join(lines[:i] + lines[i + 1:]))
            main(["verify", str(graph), "--cover", str(cut)])
            outputs.append(capsys.readouterr().out)
    assert len(outputs) == 179
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == GOLDEN_VERIFY


def compare_corpus(directory):
    """Graph files for the pinned `compare --dir` run: exact rows, rows past
    the exact limit, isolated vertices, and one file that fails to parse."""
    graphs = {
        "hard4.gr": hard_instance(4),
        "hard6.gr": hard_instance(6),
        "hard50.gr": hard_instance(50),
        "c7plus2.gr": Graph(9, cycle(7).edges),
        "petersen.gr": petersen(),
    }
    graphs.update({f"gnp{s:02d}.gr": gnp(8 + s % 5, 0.3, s) for s in range(20)})
    for name, g in graphs.items():
        (directory / name).write_text(serialize_graph(g))
    (directory / "range.gr").write_text("p edge 3 2\ne 1 2\ne 2 4\n")


# sha256 of `compare --dir` stdout on compare_corpus(), recorded before the
# approximation stopped keeping its cover sets beside the trace.
GOLDEN_COMPARE = "792909d93d1de48b4ccc84e0c5e1c64b0a453b8341ceaa59ee330197d751a3f7"


def test_compare_csv_golden(tmp_path, capsys):
    compare_corpus(tmp_path)
    assert main(["compare", "--dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_COMPARE
