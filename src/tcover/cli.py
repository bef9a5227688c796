"""Command line front end: tcover solve | exact | baseline | verify | gen | compare.

Exit codes: 0 ok, 1 invalid cover, 2 parse/parameter/file error, 3 internal
validation failure, 4 search guard exceeded, 5 candidate budget exceeded,
6 out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from .approx import approx_total_cover, greedy_domination_cover, matched_vertices_cover
from .exact import MAX_CANDIDATES, MAX_ELEMENTS, BudgetExceededError, TooLargeError
from .exact import exact_total_cover
from .graph import (
    CertificateError,
    Graph,
    GraphError,
    element_cover_line,
    format_element,
    is_total_cover,
    parse_cover,
    parse_graph,
    serialize_cover,
    serialize_graph,
)
from .matching import maximum_matching
from .instances import (
    complete,
    cycle,
    gnp,
    hard_instance,
    path,
    star,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_TOO_LARGE = 4
EXIT_BUDGET = 5
EXIT_MEMORY = 6

# main() turns exceptions of these classes into exit codes; anything else,
# such as the plain ValueError of negative search limits, propagates.
# UnicodeDecodeError is an input file that is not UTF-8 text.
EXIT_CODES: dict[type[BaseException], int] = {
    OSError: EXIT_PARSE,
    UnicodeDecodeError: EXIT_PARSE,
    GraphError: EXIT_PARSE,
    TooLargeError: EXIT_TOO_LARGE,
    BudgetExceededError: EXIT_BUDGET,
    MemoryError: EXIT_MEMORY,
    # a solver bug, not bad input
    CertificateError: EXIT_INTERNAL,
}

CSV_HEADER = [
    "instance", "n", "edges", "m", "k", "t", "alg_size", "lower_bound",
    "exact_size", "baseline_size", "greedy_size", "ratio_vs_lb",
    "ratio_vs_exact", "error",
]


def exit_status(exc: BaseException) -> tuple[int, str]:
    """Exit code and message of an exception listed in EXIT_CODES.  A
    solver bug's message starts with "internal error: "; a MemoryError,
    whose own text is usually empty, says "out of memory"."""
    code = next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
    text = (str(exc) or "out of memory") if code == EXIT_MEMORY else str(exc)
    return code, f"internal error: {text}" if code == EXIT_INTERNAL else text


def format_ratio(num: int, den: int) -> str:
    """num/den to four decimals, halves rounded up; 1.0000 when den is 0."""
    if den == 0:
        return "1.0000"
    units, rem = divmod(num * 10000, den)
    if 2 * rem >= den:
        units += 1
    return f"{units // 10000}.{units % 10000:04d}"


def _limit(text: str) -> int:
    """argparse type of a search guard: a non-negative int, else exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


def _read_graph(path_arg: str) -> Graph:
    with open(path_arg, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    result = approx_total_cover(g)  # validates the cover, raises CertificateError
    if args.output:  # before any print, so an unwritable path leaves stdout empty
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(serialize_cover(result.cover))
    print(
        f"size={len(result.cover)} m={result.matching.size} k={result.bad_vertex_count} "
        f"t={result.isolated_count} lb={result.lower_bound} "
        f"ratio={format_ratio(len(result.cover), result.lower_bound)}"
    )
    if args.trace:
        sys.stdout.writelines(f"{step} {reason} {element_cover_line(g, element)}\n"
                              for step, reason, element in result.trace)
    return EXIT_OK


def cmd_exact(args) -> int:
    g = _read_graph(args.graph)
    result = exact_total_cover(g, max_elements=args.max_elements,
                               max_candidates=args.max_candidates)
    print(f"size={result.size} candidates={result.candidates_checked}")
    sys.stdout.write(serialize_cover(result.optimum))
    return EXIT_OK


def cmd_baseline(args) -> int:
    g = _read_graph(args.graph)
    if args.method == "matched-vertices":
        cover = matched_vertices_cover(maximum_matching(g))
    else:
        cover = greedy_domination_cover(g)
    ok, witness = is_total_cover(cover)
    if not ok:
        raise CertificateError(f"baseline cover misses {format_element(g, witness)}")
    print(f"size={len(cover)} valid=true")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    with open(args.cover, "r", encoding="utf-8") as handle:
        cover = parse_cover(handle.read(), g)
    ok, witness = is_total_cover(cover)
    if ok:
        print(f"VALID size={len(cover)}")
        return EXIT_OK
    print(f"INVALID witness={format_element(g, witness)}")
    return EXIT_INVALID


# Family -> generator of the parsed arguments.  The lambdas look each
# generator up when called, so a wrapper put on its name is honoured.
GENERATORS = {
    "figure1": lambda args: hard_instance(args.n),
    "path": lambda args: path(args.n),
    "cycle": lambda args: cycle(args.n),
    "star": lambda args: star(args.n),
    "complete": lambda args: complete(args.n),
    "gnp": lambda args: gnp(args.n, args.p, args.seed),
}


def cmd_gen(args) -> int:
    if args.family == "gnp" and (args.p is None or args.seed is None):
        raise GraphError("gnp requires --p and --seed")
    if args.family != "gnp" and (args.p is not None or args.seed is not None):
        raise GraphError(f"{args.family} takes no --p or --seed")
    g = GENERATORS[args.family](args)
    text = serialize_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"n={g.n} edges={len(g.edges)}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _compare_row(path_arg: str) -> tuple[list, int]:
    """One CSV row, and EXIT_INTERNAL if a solver bug hit it (else EXIT_OK).
    The row holds results only when every one of them was found; an
    instance that fails part-way gets its name and its error alone."""
    name = os.path.basename(path_arg)
    try:
        g = _read_graph(path_arg)
        result = approx_total_cover(g)
        alg_size = len(result.cover)
        baseline_size = len(matched_vertices_cover(result.matching))
        greedy_size = len(greedy_domination_cover(g))
        exact_size = ratio_vs_exact = ""
        if g.n + len(g.edges) <= MAX_ELEMENTS:
            exact_size = exact_total_cover(g).size
            ratio_vs_exact = format_ratio(alg_size, exact_size)
    except tuple(EXIT_CODES) as exc:  # keep the batch going
        code, message = exit_status(exc)
        row = [name] + [""] * (len(CSV_HEADER) - 2) + [message]
        # a solver bug fails the batch at its end
        return row, code if code == EXIT_INTERNAL else EXIT_OK
    return [name, g.n, len(g.edges), result.matching.size, result.bad_vertex_count,
            result.isolated_count, alg_size, result.lower_bound, exact_size, baseline_size,
            greedy_size, format_ratio(alg_size, result.lower_bound), ratio_vs_exact, ""], EXIT_OK


def cmd_compare(args) -> int:
    paths: list[str] = list(args.graphs)
    if args.dir:
        names = sorted(os.listdir(args.dir))
        paths += [os.path.join(args.dir, name) for name in names
                  if os.path.isfile(os.path.join(args.dir, name))]
    if not paths:
        raise GraphError("no input instances (pass files or --dir)")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    status = EXIT_OK
    for path_arg in paths:
        row, code = _compare_row(path_arg)
        writer.writerow(row)
        status = max(status, code)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcover",
        description="Total covers of undirected graphs: approximation, exact search, baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the 2-approximation with its certificate")
    p_solve.add_argument("graph", help="graph file")
    p_solve.add_argument("--trace", action="store_true", help="print one line per cover element")
    p_solve.add_argument("--output", metavar="FILE", help="write the cover as a cover file")
    p_solve.set_defaults(func=cmd_solve)

    p_exact = sub.add_parser("exact", help="minimum total cover by branch and bound")
    p_exact.add_argument("graph", help="graph file")
    p_exact.add_argument("--max-elements", type=_limit, default=MAX_ELEMENTS,
                         metavar="N", help="refuse graphs with more than N vertices + edges")
    p_exact.add_argument("--max-candidates", type=_limit, default=MAX_CANDIDATES,
                         metavar="N", help="search-node budget")
    p_exact.set_defaults(func=cmd_exact)

    p_base = sub.add_parser("baseline", help="run a baseline cover construction")
    p_base.add_argument("graph", help="graph file")
    p_base.add_argument("--method", required=True,
                        choices=["matched-vertices", "greedy-domination"])
    p_base.set_defaults(func=cmd_baseline)

    p_verify = sub.add_parser("verify", help="validate a cover file against a graph")
    p_verify.add_argument("graph", help="graph file")
    p_verify.add_argument("--cover", required=True, help="cover file")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("family", choices=list(GENERATORS))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("-o", "--output", metavar="FILE")
    p_gen.set_defaults(func=cmd_gen)

    p_cmp = sub.add_parser("compare", help="batch comparison, CSV output")
    p_cmp.add_argument("graphs", nargs="*", help="graph files")
    p_cmp.add_argument("--dir", help="directory of graph files (sorted by name)")
    p_cmp.add_argument("--csv", metavar="FILE", help="write CSV here instead of stdout")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, message = exit_status(exc)
        print(message if code == EXIT_INTERNAL else f"error: {message}", file=sys.stderr)
        return code
