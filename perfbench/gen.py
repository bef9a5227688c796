"""Seeded input generators for the benchmark workloads.

Stdlib only and independent of ``tcover``: the program under test sees
nothing but the graph files written here.  Every generator runs in
O(n + m) time, drawing from a ``random.Random`` seeded per workload and
run; sparse random graphs use
the geometric-skipping method of Batagelj & Brandes, "Efficient
generation of large random networks", Phys. Rev. E 71 (2005).
"""

from __future__ import annotations

import math
import os
import random

# Input sizes per workload.  "full" is the measured size, "smoke" a tiny
# one used by smoke mode and the tests.
SIZES = {
    "full": {
        "sparse_core": (6000, 7500), "sparse_triangles": 300, "sparse_isolated": 60,
        "hubs_n": 3000,
        "compare_small": 240, "compare_large": 3, "compare_large_size": (300, 600),
        "gnp": (1200, 0.0033),
    },
    "smoke": {
        "sparse_core": (60, 75), "sparse_triangles": 4, "sparse_isolated": 3,
        "hubs_n": 20,
        "compare_small": 3, "compare_large": 1, "compare_large_size": (30, 60),
        "gnp": (40, 0.1),
    },
}


def skip_gnp_pairs(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p), 0 < p < 1, by geometric skipping over the pairs (v, w),
    w < v.  The gap to the next kept pair is geometric with parameter p,
    so the loop runs once per kept edge plus once per vertex.
    """
    log_q = math.log(1.0 - p)
    pairs = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            pairs.append((v, w))
    return pairs


def gnm_pairs(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, M): exactly m distinct pairs by rejection, O(m) expected while
    m is at most half of all pairs."""
    if 2 * m > n * (n - 1) // 2:
        raise ValueError(f"gnm_pairs needs m <= C(n,2)/2, got n={n} m={m}")
    seen: set[tuple[int, int]] = set()
    pairs = []
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


def scramble(n: int, pairs: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    """Relabel vertices by a random permutation, shuffle the edge order
    and the orientation of each pair."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in pairs]
    rng.shuffle(out)
    return out


def sparse_graph(size: dict, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Random sparse core, disjoint triangles and extra isolated vertices.

    The triangles give bad vertices (k), the core's own degree-0 vertices
    and the extras give isolated ones (t), and the sparse core leaves many
    vertices unmatched, so every step of the approximation has work.
    """
    core_n, core_m = size["sparse_core"]
    pairs = skip_gnp_pairs(core_n, core_m / (core_n * (core_n - 1) / 2), rng)
    base = core_n
    for _ in range(size["sparse_triangles"]):
        pairs += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
        base += 3
    n = base + size["sparse_isolated"]
    return n, scramble(n, pairs, rng)


def hubs_graph(size: dict) -> tuple[int, list[tuple[int, int]]]:
    """The apex/rails/rungs hard family at size hubs_n, as the family
    defines it: apex 0 joins tops 1..h, rail i joins top i to bottom
    h+i, rungs join bottoms h+2j-1 and h+2j.  The apex has degree h.

    It takes no seed.  Both the labels and the edge order decide which
    edge at the apex, if any, lands in the cover, and with it how far
    validation scans the apex's h incident edges for each spoke: with
    shuffled labels or edges that cost moved eightfold or more from seed
    to seed.  As defined, every spoke scans all of them.
    """
    h = size["hubs_n"]
    pairs = [(0, i) for i in range(1, h + 1)]
    pairs += [(i, h + i) for i in range(1, h + 1)]
    pairs += [(h + 2 * j - 1, h + 2 * j) for j in range(1, h // 2 + 1)]
    return 2 * h + 1, pairs


def compare_corpus(size: dict, rng: random.Random) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """Many small graphs the exact oracle solves plus large ones it skips.

    Small graph i has 8 vertices and 8 + i % 5 edges (n + |E| <= 20, inside
    the default exact limit of 32), so every seed gets the same size mix
    and only the structure varies.  Exact-search time per graph varies by
    about its own mean from graph to graph, so the batch holds many small
    graphs rather than a few larger ones to keep the op time steady
    across seeds.
    """
    corpus = []
    for i in range(size["compare_small"]):
        corpus.append((f"s{i:03d}.gr", 8, gnm_pairs(8, 8 + i % 5, rng)))
    big_n, big_m = size["compare_large_size"]
    for i in range(size["compare_large"]):
        corpus.append((f"x{i:02d}.gr", big_n, gnm_pairs(big_n, big_m, rng)))
    return corpus


def graph_text(n: int, pairs: list[tuple[int, int]]) -> str:
    lines = [f"p edge {n} {len(pairs)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, smoke: bool, work: str) -> dict:
    """Write the workload's input files under ``work``; return the paths
    and parameters the ops need."""
    size = SIZES["smoke" if smoke else "full"]
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("solve-sparse", "solve-hubs"):
        n, pairs = sparse_graph(size, rng) if workload == "solve-sparse" else hubs_graph(size)
        graph = os.path.join(work, "input.gr")
        with open(graph, "w", encoding="utf-8") as handle:
            handle.write(graph_text(n, pairs))
        return {"graph": graph}
    if workload == "compare-batch":
        corpus = os.path.join(work, "corpus")
        os.mkdir(corpus)
        for name, n, pairs in compare_corpus(size, rng):
            with open(os.path.join(corpus, name), "w", encoding="utf-8") as handle:
                handle.write(graph_text(n, pairs))
        return {"dir": corpus}
    if workload == "gen-gnp":
        n, p = size["gnp"]
        return {"n": n, "p": p, "seed": rng.getrandbits(64)}
    raise ValueError(f"unknown workload {workload!r}")
