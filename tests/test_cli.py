import csv
import hashlib
import subprocess
import sys

import pytest

import tcover.approx
import tcover.cli
from tcover import CertificateError, Element, Graph, parse_graph, serialize_graph
from tcover.cli import main
from tcover.instances import complete, hard_instance, star

from helpers import golden_graph


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


def test_solve_reports_certificate(hard4, capsys):
    assert main(["solve", hard4]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "size=4 m=4 k=0 t=0 lb=2 ratio=2.0000"


def test_solve_k2(tmp_path, capsys):
    graph = tmp_path / "k2.gr"
    graph.write_text("p edge 2 1\ne 1 2\n")
    assert main(["solve", str(graph)]) == 0
    assert "size=1 m=1 k=0 t=0 lb=1 ratio=1.0000" in capsys.readouterr().out


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


def test_exact_reports_optimum(hard4, capsys):
    assert main(["exact", hard4, "--max-elements", "64"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("size=3")
    assert out[1:] == ["v 1", "e 6 7", "e 8 9"]


def test_exact_start_at_lower_bound(k3, capsys):
    assert main(["exact", k3, "--start-at-lower-bound"]) == 0
    assert capsys.readouterr().out.startswith("size=2")


def test_exact_guard_exit(tmp_path):
    big = tmp_path / "k20.gr"
    big.write_text(serialize_graph(complete(20)))
    assert main(["exact", str(big)]) == 4


def test_exact_budget_exit(k3):
    assert main(["exact", k3, "--max-candidates", "3"]) == 5


def test_baseline_matched_vertices(hard4, capsys):
    assert main(["baseline", hard4, "--method", "matched-vertices"]) == 0
    assert capsys.readouterr().out.strip() == "size=8 valid=true"


def test_baseline_greedy_domination(tmp_path, capsys):
    graph = tmp_path / "star10.gr"
    graph.write_text(serialize_graph(star(10)))
    assert main(["baseline", str(graph), "--method", "greedy-domination"]) == 0
    out = capsys.readouterr().out
    size = int(out.split()[0].split("=")[1])
    assert size <= 2


def test_baseline_isolated_vertices(tmp_path, capsys):
    graph = tmp_path / "iso3.gr"
    graph.write_text("p edge 3 0\n")
    assert main(["baseline", str(graph), "--method", "matched-vertices"]) == 0
    assert "size=3" in capsys.readouterr().out


def test_baseline_maximal_mode(hard4, capsys):
    assert main(["baseline", hard4, "--method", "matched-vertices",
                 "--matching", "maximal"]) == 0
    assert "valid=true" in capsys.readouterr().out


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


def test_verify_cover_parse_error(k3, tmp_path):
    cover = tmp_path / "cover.txt"
    cover.write_text("e 1 9\n")
    assert main(["verify", k3, "--cover", str(cover)]) == 2


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
    assert "even" in capsys.readouterr().err


def test_gen_gnp_deterministic(tmp_path):
    a, b = tmp_path / "a.gr", tmp_path / "b.gr"
    assert main(["gen", "gnp", "--n", "10", "--p", "0.3", "--seed", "42", "-o", str(a)]) == 0
    assert main(["gen", "gnp", "--n", "10", "--p", "0.3", "--seed", "42", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_gnp_requires_p_and_seed(capsys):
    assert main(["gen", "gnp", "--n", "5"]) == 2


def test_gen_isolated_flag(tmp_path, capsys):
    out = tmp_path / "k2iso.gr"
    assert main(["gen", "complete", "--n", "2", "--isolated", "2", "-o", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 4
    assert len(g.edges) == 1


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
    assert main(["compare", *files, "--csv", str(out), "--exact-limit", "0"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        fields = row.split(",")
        assert fields[11] == "2.0000"  # ratio_vs_lb
        assert fields[8] == ""  # exact disabled


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
    assert main(["compare", "--dir", str(inst)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("a.gr,")  # sorted by name
    assert lines[2].startswith("b.gr,")


def test_compare_requires_inputs(capsys):
    assert main(["compare"]) == 2


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


@pytest.mark.parametrize("command, patched, message", [
    ("solve", tcover.approx, "constructed cover misses vertex 1"),
    ("baseline", tcover.cli, "baseline cover misses vertex 1"),
])
def test_failed_validation_exits_3(k3, capsys, monkeypatch, command, patched, message):
    monkeypatch.setattr(patched, "is_total_cover", lambda g, d: (False, Element.vertex(0)))
    argv = [command, k3] + (["--method", "matched-vertices"] if command == "baseline" else [])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"internal error: {message}\n"
    assert captured.out == ""


def test_matched_non_edge_exits_3(k3, capsys, monkeypatch):
    monkeypatch.setattr(Graph, "edge_id", lambda self, u, v: None)
    assert main(["solve", k3]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: matched pair (0, 1) is not an edge of the graph\n"
    assert captured.out == ""


def test_solve_validates_the_cover_once(k3, monkeypatch):
    calls = []

    def counting(check):
        def wrapper(g, d):
            calls.append(d)
            return check(g, d)
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
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


def test_negative_search_limit_is_not_mapped(k3):
    with pytest.raises(ValueError, match="search limits must be non-negative"):
        main(["exact", k3, "--max-elements", "-1"])


def test_module_entry_point(tmp_path):
    graph = tmp_path / "k2.gr"
    graph.write_text("p edge 2 1\ne 1 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tcover.cli", "solve", str(graph)],
        capture_output=True,
        text=True,
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
