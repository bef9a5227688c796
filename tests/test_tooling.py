"""Checks over the source tree itself: the package and the demo scripts."""

import argparse
import ast
import glob
import os
import re
import subprocess
import sys
import types

import pytest

import tcover
from tcover.cli import build_parser

SRC = os.path.dirname(os.path.dirname(tcover.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "tcover", "*.py"))),
                         ids=os.path.basename)
def test_no_invariant_lives_in_assert(path):
    # `python -O` strips assert statements, and the CLI reports a bare
    # AssertionError as nothing in particular: invariants raise named errors
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    names = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert asserts == [], f"assert statements at lines {asserts}"
    assert names == [], f"AssertionError at lines {names}"


def test_exports_are_exactly_the_public_names():
    # a deleted function cannot leave a dangling export or an unexported import
    bound = {name for name, value in vars(tcover).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(tcover.__all__) == bound
    # each name is listed once, by the module that defines it, and
    # tcover.__all__ is the concatenation of the modules' lists
    modules = [tcover.approx, tcover.exact, tcover.graph, tcover.instances, tcover.matching]
    assert all(hasattr(module, "__all__") for module in modules)
    for module in modules:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert tcover.__all__ == names
    # the public names themselves, module by module; a new one needs an edit here
    assert tcover.__all__ == [
        "ApproxResult", "BadVertexAssignment", "TraceStep", "approx_total_cover",
        "bad_vertex_assignment", "greedy_domination_cover", "matched_vertices_cover",
        "total_cover_lower_bound",
        "BudgetExceededError", "ExactResult", "TooLargeError", "exact_total_cover",
        "CertificateError", "ElementSet", "Graph", "GraphError", "ParseError",
        "element_cover_line", "format_element", "is_total_cover", "isolated_vertices",
        "parse_cover", "parse_graph", "serialize_cover", "serialize_graph", "total_graph",
        "complete", "cycle", "gnp", "hard_instance", "path", "star",
        "Matching", "maximum_matching",
    ]
    assert len(names) == 34


def test_cli_options_are_exactly_these():
    # each subcommand's optional arguments, -h excluded, counted as the
    # "Source size" CI step counts them; a new option needs an edit here
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {command: [action.option_strings for action in parser._actions
                         if action.option_strings and not isinstance(action, argparse._HelpAction)]
               for command, parser in sub.choices.items()}
    assert options == {
        "solve": [["--trace"], ["--output"]],
        "exact": [["--max-elements"], ["--max-candidates"]],
        "verify": [["--cover"]],
        "gen": [["--n"], ["--p"], ["--seed"], ["-o", "--output"]],
        "compare": [["--dir"], ["--csv"]],
    }
    assert sum(map(len, options.values())) == 11


def test_cli_reports_errors_only_in_main():
    # one error path: commands raise, and main alone maps the exception
    # through EXIT_CODES to an exit code and its `error:` line
    path = os.path.join(SRC, "tcover", "cli.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr"]
    assert len(uses) == 1, f"sys.stderr at lines {[node.lineno for node in uses]}"
    assert uses[0] in list(ast.walk(main))


def test_cli_constructs_no_certificate_error():
    # the library certifies every cover it returns; the CLI only reports
    path = os.path.join(SRC, "tcover", "cli.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    raised = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "CertificateError"]
    assert raised == [], f"CertificateError constructed at lines {raised}"


def test_demos_are_found():
    assert len(DEMOS) >= 5


def run_python(args):
    env = {**os.environ, "PYTHONPATH": SRC}  # the child needs only tcover and the stdlib
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the result records are named tuples, so a start need not load
    # dataclasses, which pulls in inspect; ratios are rendered from two
    # ints, so it need not load fractions, which pulls in decimal; only the
    # modules the import adds count, which leaves out whatever site hooks
    # loaded before it
    added = run_python(["-c", "import sys; before = set(sys.modules); import tcover.cli; "
                              "print(*sorted(set(sys.modules) - before))"]).split()
    assert "tcover.cli" in added
    assert {"dataclasses", "inspect", "fractions", "decimal"}.isdisjoint(added), added


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    run_python([path])


def test_readme_python_runs():
    # a public API change cannot leave the quick start stale
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.M | re.S)
    assert blocks
    for code in blocks:
        run_python(["-c", code])
