"""Workload process: set up, then run ``tcover`` CLI ops in a closed loop.

Started by ``run.py``; not meant to be run by hand.  It imports
``tcover`` from the checkout's ``src``, writes the workload's inputs,
prints ``READY`` (the parent times set-up up to that line), then calls
``tcover.cli.main`` in-process, one op after the other from one caller,
for the given number of seconds.  A fixed reference kernel is timed
right before and after each op, outside its timing.  Each op's stdout and output file are
hashed; the first op's are kept for the parent's checker.  With
``--trace 1`` every second op runs with spans around every public
layer call, written to ``spans.json`` when the loop ends.  The
last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402  (perfbench/gen.py, next to this file)
import tcover.cli  # noqa: E402

# Public functions timed by the traced run, by module.
LAYERS = {
    "graph": ("parse_graph", "is_total_cover", "serialize_cover", "total_graph", "serialize_graph"),
    "matching": ("maximum_matching",),
    "approx": ("bad_vertex_assignment", "approx_total_cover", "matched_vertices_cover",
               "greedy_domination_cover"),
    "exact": ("exact_total_cover",),
    "instances": ("gnp",),
}
MODULES = ("tcover", "tcover.graph", "tcover.matching", "tcover.approx", "tcover.exact",
           "tcover.instances", "tcover.cli")


class Tracer:
    """Spans (name, start, end, parent, op) around layer calls, in memory.

    ``enable`` replaces each layer function, in every ``tcover`` module
    that binds it, by a wrapper that records a span and keeps the call's
    arguments and result so counts can be taken after the op, outside
    the timed interval.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self.op = -1
        self.patches: list[tuple[object, str, object, object]] = []

    def enable(self, on: bool) -> None:
        """Swap the wrappers in (on) or the original functions back (off)."""
        if not self.patches:
            self._find_patches()
        for module, attr, original, wrapper in self.patches:
            setattr(module, attr, wrapper if on else original)

    def _find_patches(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        for module_name, names in LAYERS.items():
            home = importlib.import_module(f"tcover.{module_name}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    raise SystemExit(f"trace: tcover.{module_name}.{name} not found")
                wrapper = self._wrap(f"{module_name}.{name}", original)
                self.patches += [(module, attr, original, wrapper) for module in modules
                                 for attr, value in vars(module).items() if value is original]

    def _wrap(self, span_name: str, fn):
        def traced(*args, **kwargs):
            result = self.run(span_name, fn, *args, **kwargs)
            self.calls.append((span_name, args, result))
            return result
        return traced

    def run(self, span_name: str, fn, *args, **kwargs):
        span = [span_name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def take_counts(self) -> dict[str, int]:
        """Counts at the layer boundaries for the op just finished."""
        counts = dict.fromkeys((
            "graph.elements", "graph.sum_deg_sq", "matching.size", "matching.unmatched",
            "approx.k", "approx.t", "approx.bad_scan_pairs", "approx.bad_attempts",
            "approx.bad_hits", "approx.trace_endpoint", "approx.trace_matching_edge",
            "approx.greedy_picks", "exact.candidates_checked"), 0)
        for name, args, result in self.calls:
            if name in ("graph.parse_graph", "instances.gnp"):
                counts["graph.elements"] += result.n + len(result.edges)
                counts["graph.sum_deg_sq"] += sum(len(a) ** 2 for a in result.adj)
            elif name == "matching.maximum_matching":
                counts["matching.size"] += result.size
                counts["matching.unmatched"] += result.graph.n - 2 * result.size
            elif name == "approx.bad_vertex_assignment":
                g, matching = args[0], args[1]
                counts["approx.bad_scan_pairs"] += (g.n - 2 * matching.size) * matching.size
                counts["approx.bad_attempts"] += sum(
                    1 for v in range(g.n) if g.adj[v] and not matching.is_matched(v))
                counts["approx.bad_hits"] += result.count
            elif name == "approx.approx_total_cover":
                counts["approx.k"] += result.bad_vertex_count
                counts["approx.t"] += result.isolated_count
                for step in result.trace:
                    if step.reason == "endpoint":
                        counts["approx.trace_endpoint"] += 1
                    elif step.reason == "matching-edge":
                        counts["approx.trace_matching_edge"] += 1
            elif name == "approx.greedy_domination_cover":
                counts["approx.greedy_picks"] += len(result)
            elif name == "exact.exact_total_cover":
                counts["exact.candidates_checked"] += result.candidates_checked
        self.calls.clear()
        return counts


class ReferenceKernel:
    """A fixed pure-Python workload that shares no code with ``tcover``.

    The shared cores of the host change speed by +-15% within seconds and
    by more over minutes, and ``tcover`` ops slow down with them.  Timing
    the kernel right before and after each op measures the machine's speed
    at that moment; op time divided by kernel time cancels most of the
    drift.  One pass breadth-first searches a fixed random graph and runs
    a 64-bit integer mixing loop: the dict, list and integer work that
    the ops do.
    """

    PASSES = 10  # per side of each op

    def __init__(self):
        rng = random.Random(20050301)
        n = 3000
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for _ in range(2 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            self.adj[a].append(b)
            self.adj[b].append(a)

    def one_pass(self) -> int:
        total = 0
        for source in range(0, 40, 4):
            dist = {source: 0}
            queue = [source]
            for v in queue:
                d = dist[v] + 1
                for w in self.adj[v]:
                    if w not in dist:
                        dist[w] = d
                        queue.append(w)
            total += sum(dist.values())
        x = 0x9E3779B97F4A7C15
        for _ in range(20000):
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        return total ^ x

    def seconds(self) -> float:
        """Wall seconds of ``PASSES`` passes."""
        t0 = time.perf_counter()
        for _ in range(self.PASSES):
            self.one_pass()
        return time.perf_counter() - t0


def op_argv(workload: str, inputs: dict, out: str) -> list[str]:
    if workload.startswith("solve-"):
        return ["solve", inputs["graph"], "--trace", "--output", out]
    if workload == "compare-batch":
        return ["compare", "--dir", inputs["dir"], "--csv", out]
    return ["gen", "gnp", "--n", str(inputs["n"]), "--p", repr(inputs["p"]),
            "--seed", str(inputs["seed"]), "-o", out]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    inputs = gen.write_inputs(args.workload, args.seed, args.smoke, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out = os.path.join(args.work, "out")
    argv = op_argv(args.workload, inputs, out)
    span_name = "cli." + args.workload.split("-")[0]
    tracer = Tracer()
    kernel = ReferenceKernel()
    ops: list[dict] = []
    start = time.perf_counter()
    while True:
        if len(ops) > args.trace and time.perf_counter() - start >= args.seconds:
            break
        # traced and untraced ops alternate, so drift in machine speed
        # reaches both halves of the tracing-overhead comparison alike
        traced = bool(args.trace) and len(ops) % 2 == 1
        if args.trace:
            tracer.enable(traced)
        tracer.op = len(ops)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        before = kernel.seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if traced:
                    rc = tracer.run(span_name, tcover.cli.main, argv)
                else:
                    rc = tcover.cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op; keep measuring
            rc = -1
            stderr.write(traceback.format_exc())
        t1 = time.perf_counter()
        ref_pass = (before + kernel.seconds()) / (2 * kernel.PASSES)
        record = {"seconds": t1 - t0, "ref_pass_seconds": ref_pass, "rc": rc, "traced": traced}
        if traced:
            record["counts"] = tracer.take_counts()
        digest = hashlib.sha256(stdout.getvalue().encode())
        output = b""
        if os.path.exists(out):
            with open(out, "rb") as handle:
                output = handle.read()
            os.remove(out)
        digest.update(b"\0" + output)
        record["sha256"] = digest.hexdigest()
        if rc != 0:
            record["stderr"] = stderr.getvalue()[-2000:]
        if not ops:
            with open(os.path.join(args.work, "first.stdout"), "w", encoding="utf-8") as handle:
                handle.write(stdout.getvalue())
            with open(os.path.join(args.work, "first.out"), "wb") as handle:
                handle.write(output)
        ops.append(record)

    if tracer.spans:
        with open(os.path.join(args.work, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ops": ops, "inputs": inputs, "peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
