"""Tests of the benchmark itself: generators, checker, smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import gen  # noqa: E402
from tcover.cli import main  # noqa: E402
from tcover.graph import serialize_graph  # noqa: E402
from tcover.instances import gnp  # noqa: E402

WORKLOADS = ("solve-sparse", "solve-hubs", "compare-batch", "gen-gnp")


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def solve(tmp_path, workload: str, seed: int = 5) -> tuple[str, str, str]:
    inputs = gen.write_inputs(workload, seed, True, str(tmp_path))
    cover = tmp_path / "cover"
    stdout = run_cli(["solve", inputs["graph"], "--trace", "--output", str(cover)])
    with open(inputs["graph"], encoding="utf-8") as handle:
        return handle.read(), stdout, cover.read_text()


@pytest.mark.parametrize("workload", ["solve-sparse", "solve-hubs"])
def test_checker_accepts_solve_and_rejects_any_single_removal(tmp_path, workload):
    graph, stdout, cover = solve(tmp_path, workload)
    errors, props = check.check_solve(graph, stdout, cover)
    assert errors == []
    assert props["size"] == len(cover.splitlines())
    lines = cover.splitlines()
    for i in range(len(lines)):
        shorter = "".join(line + "\n" for j, line in enumerate(lines) if j != i)
        assert check.check_solve(graph, stdout, shorter)[0], f"accepted cover without {lines[i]}"


def test_uncovered_finds_the_gap_a_removal_leaves():
    # path 1-2-3-4; the cover {vertex 2, edge (3,4)} is valid
    g = check.CheckedGraph("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    assert check.uncovered(g, {1}, {(2, 3)}) == []
    assert check.uncovered(g, {1}, set()) == ["vertex 4", "edge (3,4)"]
    assert check.uncovered(g, set(), {(2, 3)}) == ["vertex 1", "vertex 2", "edge (1,2)"]


def test_checker_rejects_a_wrong_certificate(tmp_path):
    graph, stdout, cover = solve(tmp_path, "solve-sparse")
    head, rest = stdout.split("\n", 1)
    fields = dict(field.split("=") for field in head.split())
    fields["lb"] = str(int(fields["lb"]) - 1)
    bad = " ".join(f"{k}={v}" for k, v in fields.items()) + "\n" + rest
    assert any("lb" in err for err in check.check_solve(graph, bad, cover)[0])


def test_checker_compare_accepts_tcover_and_rejects_tampering(tmp_path):
    inputs = gen.write_inputs("compare-batch", 2, True, str(tmp_path))
    out = tmp_path / "out.csv"
    run_cli(["compare", "--dir", inputs["dir"], "--csv", str(out)])
    corpus = {name: open(os.path.join(inputs["dir"], name), encoding="utf-8").read()
              for name in os.listdir(inputs["dir"])}
    text = out.read_text()
    errors, props = check.check_compare(corpus, text)
    assert errors == [] and props["exact_rows"] >= 1
    header, first, *rest = text.splitlines()
    row = first.split(",")
    row[8] = str(int(row[6]) + 1)  # exact_size above alg_size
    tampered = "\n".join([header, ",".join(row), *rest]) + "\n"
    assert check.check_compare(corpus, tampered)[0]


@pytest.mark.parametrize("n,p,seed", [(0, 0.5, 1), (1, 0.5, 1), (2, 1.0, 3), (12, 0.3, 7),
                                      (30, 0.1, 2**64 - 1), (40, 0.0, 9)])
def test_splitmix64_reference_matches_gnp(n, p, seed):
    assert check.gnp_reference(n, p, seed) == serialize_graph(gnp(n, p, seed))


def test_checker_rejects_a_changed_gen_byte():
    expected = check.gnp_reference(20, 0.2, 4)
    stdout = run_cli(["gen", "gnp", "--n", "20", "--p", "0.2", "--seed", "4"])
    assert stdout == expected
    g = check.CheckedGraph(expected)
    ok = f"n=20 edges={len(g.edges)}\n"
    assert check.check_gen(expected, ok, expected)[0] == []
    assert check.check_gen(expected, ok, expected.replace("e 1 ", "e 2 ", 1))[0]


def test_generators_are_seeded_and_simple():
    size = gen.SIZES["full"]
    n, pairs = gen.sparse_graph(size, random.Random(1))
    assert n == 6000 + 3 * 300 + 60
    assert pairs == gen.sparse_graph(size, random.Random(1))[1]
    assert pairs != gen.sparse_graph(size, random.Random(2))[1]
    canon = {(min(u, v), max(u, v)) for u, v in pairs}
    assert len(canon) == len(pairs) and all(u != v for u, v in canon)
    assert abs(len(pairs) - (7500 + 900)) < 400
    n, pairs = gen.hubs_graph(size)
    assert (n, len(pairs)) == (6001, 7500)
    for name, n, pairs in gen.compare_corpus(size, random.Random(1)):
        assert len(set(pairs)) == len(pairs)
        assert n + len(pairs) <= 32 or name.startswith("x")


def test_matching_size_matches_networkx(tmp_path):
    nx = pytest.importorskip("networkx")
    for workload in ("solve-sparse", "solve-hubs"):
        graph, stdout, _ = solve(tmp_path, workload)
        g = check.CheckedGraph(graph)
        reference = nx.Graph()
        reference.add_nodes_from(range(g.n))
        reference.add_edges_from(g.edges)
        m = int(stdout.split()[1].split("=")[1])
        assert m == len(nx.max_weight_matching(reference, maxcardinality=True))


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "solve-sparse", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
