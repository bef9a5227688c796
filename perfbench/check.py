"""Output checker for the benchmark, sharing no code with ``tcover``.

Each check takes the text the program was given and the text it produced
and returns ``(errors, props)``: a list of failed checks (empty when the
output is correct) and the input properties the report records.  Every
check runs in O(n + m) except the ``gen`` reference, which replays the
whole splitmix64 stream the way ``tcover gen gnp`` documents it.
"""

from __future__ import annotations

import csv
import io

COMPARE_HEADER = [
    "instance", "n", "edges", "m", "k", "t", "alg_size", "lower_bound",
    "exact_size", "baseline_size", "greedy_size", "ratio_vs_lb",
    "ratio_vs_exact", "error",
]


class CheckedGraph:
    """A graph file read back with a parser of the checker's own."""

    def __init__(self, text: str):
        n = -1
        edges: list[tuple[int, int]] = []
        for line in text.splitlines():
            fields = line.split()
            if not fields or fields[0][0] in "#c":
                continue
            if fields[0] == "p":
                n = int(fields[2])
            else:
                u, v = int(fields[1]) - 1, int(fields[2]) - 1
                edges.append((u, v) if u < v else (v, u))
        self.n = n
        self.edges = edges
        self.edge_set = set(edges)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.isolated = sum(1 for a in self.adj if not a)
        self.sum_deg_sq = sum(len(a) ** 2 for a in self.adj)


def format_ratio(num: int, den: int) -> str:
    """num/den to four decimals, halves rounded up; 1.0000 when den is 0."""
    if den == 0:
        return "1.0000"
    units, rem = divmod(num * 10000, den)
    if 2 * rem >= den:
        units += 1
    return f"{units // 10000}.{units % 10000:04d}"


def _parse_element(fields: list[str], g: CheckedGraph, errors: list[str]):
    """("v", vertex) or ("e", (u, v)) from a cover or trace line, 0-indexed;
    None, with an error recorded, when the line names no element of g."""
    try:
        if fields[0] == "v" and len(fields) == 2:
            v = int(fields[1]) - 1
            if 0 <= v < g.n:
                return ("v", v)
        elif fields[0] == "e" and len(fields) == 3:
            u, v = int(fields[1]) - 1, int(fields[2]) - 1
            pair = (u, v) if u < v else (v, u)
            if pair in g.edge_set:
                return ("e", pair)
    except (IndexError, ValueError):
        pass
    errors.append(f"{' '.join(fields)!r} names no element of the graph")
    return None


def uncovered(g: CheckedGraph, vertices: set[int], edges: set[tuple[int, int]]) -> list[str]:
    """Elements no member of the cover reaches.  A vertex outside the set
    needs a chosen neighbour or a chosen incident edge; an edge outside
    the set needs a chosen endpoint or a chosen edge at an endpoint."""
    touched = [False] * g.n
    for u, v in edges:
        touched[u] = touched[v] = True
    missing = []
    for x in range(g.n):
        if x not in vertices and not touched[x] and not any(y in vertices for y in g.adj[x]):
            missing.append(f"vertex {x + 1}")
    for u, v in g.edges:
        if (u, v) in edges or u in vertices or v in vertices or touched[u] or touched[v]:
            continue
        missing.append(f"edge ({u + 1},{v + 1})")
    return missing


def _certificate_errors(g: CheckedGraph, m: int, k: int, t: int, size: int, lb: int,
                        ratio: str) -> list[str]:
    errors = []
    if not 0 <= k <= m <= g.n // 2:
        errors.append(f"need 0 <= k <= m <= n/2, got k={k} m={m} n={g.n}")
    if t != g.isolated:
        errors.append(f"t={t} but the graph has {g.isolated} isolated vertices")
    if size != m + k + t:
        errors.append(f"size {size} != m+k+t = {m + k + t}")
    if lb != (m + k + 1) // 2 + t:
        errors.append(f"lb {lb} != ceil((m+k)/2)+t = {(m + k + 1) // 2 + t}")
    if ratio != format_ratio(size, lb):
        errors.append(f"ratio {ratio} != size/lb = {format_ratio(size, lb)}")
    if size > 2 * lb:
        errors.append(f"ratio {ratio} exceeds 2")
    return errors


def check_solve(graph_text: str, stdout: str, cover_text: str) -> tuple[list[str], dict]:
    """Check ``tcover solve FILE --trace --output COVER``: the cover is a
    total cover of size m+k+t, lb and the ratio follow from m, k, t, and
    the trace lists the cover with t isolated vertices and k disjoint
    triangles, each bad vertex adjacent to both ends of its edge."""
    g = CheckedGraph(graph_text)
    errors: list[str] = []
    lines = stdout.splitlines()
    try:
        head = dict(field.split("=", 1) for field in lines[0].split())
        m, k, t, size, lb = (int(head[key]) for key in ("m", "k", "t", "size", "lb"))
        ratio = head["ratio"]
    except (IndexError, KeyError, ValueError):
        return [f"unparsable certificate line {lines[:1]!r}"], {}
    cover_lines = [line.split() for line in cover_text.splitlines() if line.strip()]
    cover = [_parse_element(fields, g, errors) for fields in cover_lines]
    vertices = {x for kind, x in filter(None, cover) if kind == "v"}
    edges = {x for kind, x in filter(None, cover) if kind == "e"}
    if len(vertices) + len(edges) != len(cover_lines):
        errors.append("cover file lists an element twice")
    errors += uncovered(g, vertices, edges)[:5]
    if len(cover_lines) != size:
        errors.append(f"cover file has {len(cover_lines)} elements, certificate says {size}")
    errors += _certificate_errors(g, m, k, t, size, lb, ratio)

    steps = [line.split() for line in lines[1:]]
    traced = [_parse_element(fields[2:], g, errors) for fields in steps]
    if sorted(filter(None, traced)) != sorted(filter(None, cover)):
        errors.append("trace elements differ from the cover file")
    reasons = [fields[1] if len(fields) > 1 else "" for fields in steps]
    for reason, want in (("isolated", t), ("bad-vertex", k), ("bad-edge", k)):
        if reasons.count(reason) != want:
            errors.append(f"trace has {reasons.count(reason)} {reason} steps, expected {want}")
    in_triangle: set[int] = set()
    for i, (reason, element) in enumerate(zip(reasons, traced)):
        if reason == "isolated" and (element is None or element[0] != "v" or g.adj[element[1]]):
            errors.append(f"isolated step {i} is not an isolated vertex")
        if reason == "bad-vertex":
            edge = traced[i + 1] if i + 1 < len(traced) and reasons[i + 1] == "bad-edge" else None
            if element is None or element[0] != "v" or edge is None or edge[0] != "e":
                errors.append(f"bad-vertex step {i} is not a vertex followed by its bad edge")
                continue
            v, (u, w) = element[1], edge[1]
            if (min(u, v), max(u, v)) not in g.edge_set or (min(w, v), max(w, v)) not in g.edge_set:
                errors.append(f"bad vertex {v + 1} does not close a triangle over its edge")
            if in_triangle & {u, v, w}:
                errors.append(f"triangle at bad vertex {v + 1} overlaps another")
            in_triangle |= {u, v, w}
    props = {"n": g.n, "edges": len(g.edges), "m": m, "k": k, "t": t,
             "unmatched": g.n - 2 * m, "sum_deg_sq": g.sum_deg_sq, "size": size, "lb": lb}
    return errors, props


def check_compare(corpus: dict[str, str], csv_text: str, exact_limit: int = 32) -> tuple[list[str], dict]:
    """Check ``tcover compare --csv``: one row per corpus file in name
    order, an empty error column, alg = m+k+t and lb, the ratios and
    ``lower_bound <= exact <= alg <= 2*exact`` wherever the exact oracle
    ran; both baselines are valid covers, so never below lb or exact."""
    errors: list[str] = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != COMPARE_HEADER:
        return [f"CSV header {rows[:1]!r} differs from {COMPARE_HEADER}"], {}
    names = sorted(corpus)
    if [row[0] for row in rows[1:]] != names:
        return [f"CSV lists {len(rows) - 1} rows, corpus has {len(names)} files"], {}
    props = {"graphs": len(names), "n": 0, "edges": 0, "m": 0, "k": 0, "t": 0,
             "unmatched": 0, "sum_deg_sq": 0, "alg": 0, "lb": 0, "exact_rows": 0,
             "alg_on_exact_rows": 0, "exact": 0}
    for row in rows[1:]:
        rec = dict(zip(COMPARE_HEADER, row))
        name = rec["instance"]
        g = CheckedGraph(corpus[name])
        if len(row) != len(COMPARE_HEADER):
            errors.append(f"{name}: {len(row)} CSV fields, expected {len(COMPARE_HEADER)}")
            continue
        if rec["error"]:
            errors.append(f"{name}: error column {rec['error']!r}")
            continue
        try:
            n, e, m, k, t, alg, lb, base, greedy = (int(rec[key]) for key in (
                "n", "edges", "m", "k", "t", "alg_size", "lower_bound", "baseline_size", "greedy_size"))
        except ValueError:
            errors.append(f"{name}: non-integer field in {row!r}")
            continue
        if (n, e) != (g.n, len(g.edges)):
            errors.append(f"{name}: n={n} edges={e}, file has {g.n} and {len(g.edges)}")
        errors += [f"{name}: {err}" for err in _certificate_errors(g, m, k, t, alg, lb, rec["ratio_vs_lb"])]
        if base != 2 * m + t:
            errors.append(f"{name}: matched-vertices baseline {base} != 2m+t = {2 * m + t}")
        if greedy < lb:
            errors.append(f"{name}: greedy cover {greedy} below the lower bound {lb}")
        if g.n + len(g.edges) <= exact_limit:
            if not rec["exact_size"].isdigit():
                errors.append(f"{name}: exact size missing inside the exact limit")
                continue
            exact = int(rec["exact_size"])
            if not lb <= exact <= alg <= 2 * exact:
                errors.append(f"{name}: need lb <= exact <= alg <= 2*exact, got {lb}, {exact}, {alg}")
            if min(base, greedy) < exact:
                errors.append(f"{name}: a baseline cover is smaller than the exact optimum {exact}")
            if rec["ratio_vs_exact"] != format_ratio(alg, exact):
                errors.append(f"{name}: ratio_vs_exact {rec['ratio_vs_exact']} != {format_ratio(alg, exact)}")
            props["exact_rows"] += 1
            props["alg_on_exact_rows"] += alg
            props["exact"] += exact
        elif rec["exact_size"] or rec["ratio_vs_exact"]:
            errors.append(f"{name}: exact columns filled outside the exact limit")
        for key, value in (("n", n), ("edges", e), ("m", m), ("k", k), ("t", t),
                           ("unmatched", n - 2 * m), ("sum_deg_sq", g.sum_deg_sq),
                           ("alg", alg), ("lb", lb)):
            props[key] += value
    return errors, props


def gnp_reference(n: int, p: float, seed: int) -> str:
    """The graph file ``tcover gen gnp`` must write: pairs (u, v), u < v,
    in lexicographic order, each kept when its splitmix64 draw from the
    stream seeded with ``seed`` falls below ``p * 2**64``."""
    mask = (1 << 64) - 1
    threshold = int(p * 2.0 ** 64)
    state = seed & mask
    lines = []
    for u in range(n):
        for v in range(u + 1, n):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            if z ^ (z >> 31) < threshold:
                lines.append(f"e {u + 1} {v + 1}")
    return "\n".join([f"p edge {n} {len(lines)}"] + lines) + "\n"


def check_gen(expected: str, stdout: str, graph_text: str) -> tuple[list[str], dict]:
    """Check ``tcover gen gnp -o FILE`` byte for byte against the reference."""
    errors = []
    g = CheckedGraph(expected)
    if graph_text != expected:
        errors.append("generated graph differs from the splitmix64 reference")
    if stdout != f"n={g.n} edges={len(g.edges)}\n":
        errors.append(f"unexpected gen output {stdout!r}")
    return errors, {"n": g.n, "edges": len(g.edges), "sum_deg_sq": g.sum_deg_sq}
