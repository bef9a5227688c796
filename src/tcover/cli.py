"""Command line front end: tcover solve | exact | baseline | verify | gen | compare.

Exit codes: 0 ok, 1 invalid cover, 2 parse/parameter/file error, 3 internal
validation failure, 4 search guard exceeded, 5 candidate budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from fractions import Fraction

from .approx import CertificateError, NotMaximumError
from .approx import approx_total_cover, greedy_domination_cover, matched_vertices_cover
from .exact import SearchLimits, exact_total_cover
from .graph import (
    BudgetExceededError,
    Graph,
    GraphError,
    TooLargeError,
    element_cover_line,
    format_element,
    is_total_cover,
    parse_cover,
    parse_graph,
    serialize_cover,
    serialize_graph,
)
from .instances import (
    OddParameterError,
    ParameterOutOfRangeError,
    add_isolated,
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

# Errors that mean a solver bug, not bad input.
INTERNAL_ERRORS = (CertificateError, NotMaximumError, AssertionError)

# main() turns exceptions of these classes into (exit code, stderr prefix);
# anything else, such as the plain ValueError of SearchLimits, propagates.
# UnicodeDecodeError is an input file that is not UTF-8 text.
EXIT_CODES: dict[type[BaseException], tuple[int, str]] = {
    OSError: (EXIT_PARSE, "error"),
    UnicodeDecodeError: (EXIT_PARSE, "error"),
    GraphError: (EXIT_PARSE, "error"),
    OddParameterError: (EXIT_PARSE, "error"),
    ParameterOutOfRangeError: (EXIT_PARSE, "error"),
    TooLargeError: (EXIT_TOO_LARGE, "error"),
    BudgetExceededError: (EXIT_BUDGET, "error"),
    **dict.fromkeys(INTERNAL_ERRORS, (EXIT_INTERNAL, "internal error")),
}

CSV_HEADER = [
    "instance", "n", "edges", "m", "k", "t", "alg_size", "lower_bound",
    "exact_size", "baseline_size", "greedy_size", "ratio_vs_lb",
    "ratio_vs_exact", "error",
]


def exit_status(exc: BaseException) -> tuple[int, str]:
    """Exit code and stderr prefix of an exception listed in EXIT_CODES."""
    return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


def format_ratio(value: Fraction) -> str:
    """Exact 4-decimal rendering of a non-negative rational (round half up)."""
    units, rem = divmod(value.numerator * 10000, value.denominator)
    if 2 * rem >= value.denominator:
        units += 1
    return f"{units // 10000}.{units % 10000:04d}"


def _read_graph(path_arg: str) -> Graph:
    with open(path_arg, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    result = approx_total_cover(g)  # validates the cover, raises CertificateError
    print(
        f"size={len(result.cover)} m={result.matching_size} k={result.bad_vertex_count} "
        f"t={result.isolated_count} lb={result.lower_bound} "
        f"ratio={format_ratio(result.certified_ratio)}"
    )
    if args.trace:
        for step in result.trace:
            print(f"{step.step} {step.reason} {element_cover_line(g, step.element)}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(serialize_cover(result.cover))
    return EXIT_OK


def cmd_exact(args) -> int:
    g = _read_graph(args.graph)
    start_size = approx_total_cover(g).lower_bound if args.start_at_lower_bound else 0
    limits = SearchLimits(
        max_elements=args.max_elements,
        max_candidates=args.max_candidates,
        start_size=start_size,
    )
    result = exact_total_cover(g, limits)
    print(f"size={result.size} candidates={result.candidates_checked}")
    sys.stdout.write(serialize_cover(result.optimum))
    return EXIT_OK


def cmd_baseline(args) -> int:
    g = _read_graph(args.graph)
    if args.method == "matched-vertices":
        cover = matched_vertices_cover(g, matching_mode=args.matching)
    else:
        cover = greedy_domination_cover(g)
    ok, witness = is_total_cover(g, cover)
    if not ok:
        raise CertificateError(f"baseline cover misses {format_element(g, witness)}")
    print(f"size={len(cover)} valid=true")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    with open(args.cover, "r", encoding="utf-8") as handle:
        cover = parse_cover(handle.read(), g)
    ok, witness = is_total_cover(g, cover)
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
        raise ParameterOutOfRangeError("gnp requires --p and --seed")
    g = GENERATORS[args.family](args)
    if args.isolated:
        g = add_isolated(g, args.isolated)
    text = serialize_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"n={g.n} edges={len(g.edges)}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _compare_row(name: str, path_arg: str, exact_limit: int) -> tuple[dict[str, str], int]:
    """One CSV row, and EXIT_INTERNAL if a solver bug hit it (else EXIT_OK)."""
    row = {field: "" for field in CSV_HEADER}
    row["instance"] = name
    try:
        g = _read_graph(path_arg)
        result = approx_total_cover(g)
        alg_size = len(result.cover)
        row["n"] = str(g.n)
        row["edges"] = str(len(g.edges))
        row["m"] = str(result.matching_size)
        row["k"] = str(result.bad_vertex_count)
        row["t"] = str(result.isolated_count)
        row["alg_size"] = str(alg_size)
        row["lower_bound"] = str(result.lower_bound)
        row["baseline_size"] = str(len(matched_vertices_cover(g)))
        row["greedy_size"] = str(len(greedy_domination_cover(g)))
        row["ratio_vs_lb"] = format_ratio(result.certified_ratio)
        if g.n + len(g.edges) <= exact_limit:
            exact = exact_total_cover(g, SearchLimits(max_elements=exact_limit))
            row["exact_size"] = str(exact.size)
            ratio = Fraction(alg_size, exact.size) if exact.size else Fraction(1)
            row["ratio_vs_exact"] = format_ratio(ratio)
    except (OSError, UnicodeDecodeError, GraphError, BudgetExceededError) as exc:
        row["error"] = str(exc)
    except INTERNAL_ERRORS as exc:  # keep the batch going, tag the failure
        code, prefix = exit_status(exc)
        row["error"] = f"{prefix}: {exc}"
        return row, code
    return row, EXIT_OK


def cmd_compare(args) -> int:
    paths: list[str] = list(args.graphs)
    if args.dir:
        names = sorted(os.listdir(args.dir))
        paths += [os.path.join(args.dir, name) for name in names
                  if os.path.isfile(os.path.join(args.dir, name))]
    if not paths:
        print("error: no input instances (pass files or --dir)", file=sys.stderr)
        return EXIT_PARSE
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    status = EXIT_OK
    for path_arg in paths:
        row, code = _compare_row(os.path.basename(path_arg), path_arg, args.exact_limit)
        writer.writerow([row[field] for field in CSV_HEADER])
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

    p_exact = sub.add_parser("exact", help="exhaustive minimum total cover")
    p_exact.add_argument("graph", help="graph file")
    p_exact.add_argument("--max-elements", type=int, default=32)
    p_exact.add_argument("--max-candidates", type=int, default=100_000_000)
    p_exact.add_argument("--start-at-lower-bound", action="store_true",
                         help="start the search at the certified lower bound")
    p_exact.set_defaults(func=cmd_exact)

    p_base = sub.add_parser("baseline", help="run a baseline cover construction")
    p_base.add_argument("graph", help="graph file")
    p_base.add_argument("--method", required=True,
                        choices=["matched-vertices", "greedy-domination"])
    p_base.add_argument("--matching", choices=["maximal", "maximum"], default="maximum")
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
    p_gen.add_argument("--isolated", type=int, default=0, metavar="T",
                       help="append T isolated vertices")
    p_gen.add_argument("-o", "--output", metavar="FILE")
    p_gen.set_defaults(func=cmd_gen)

    p_cmp = sub.add_parser("compare", help="batch comparison, CSV output")
    p_cmp.add_argument("graphs", nargs="*", help="graph files")
    p_cmp.add_argument("--dir", help="directory of graph files (sorted by name)")
    p_cmp.add_argument("--csv", metavar="FILE", help="write CSV here instead of stdout")
    p_cmp.add_argument("--exact-limit", type=int, default=32,
                       help="run the exact oracle when n + |E| fits this many elements")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, prefix = exit_status(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
