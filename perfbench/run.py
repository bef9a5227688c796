"""tcover benchmark: one workload per call, results as one JSON line.

    python3 perfbench/run.py --workload solve-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed on several fresh
workload processes (``child.py``); the last of them then runs the timed
closed loop of ``tcover`` CLI ops.  Op times are reported in passes of a
fixed reference kernel timed next to each op, which cancels most of the
drift in the speed of shared cores.  Every output is checked by
``check.py``, which shares no code with ``tcover``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run.  ``--smoke`` shrinks the inputs to a few dozen vertices.
Human-readable lines come first; the last stdout line is the JSON
result.  Exit status 0 means the run completed, whatever the checks
found; anything else means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
DEADLINE_S = 170.0

# Spans each workload's traced ops must contain; the first is the op itself.
SOLVE_SPANS = ("cli.solve", "graph.parse_graph", "approx.approx_total_cover",
               "matching.maximum_matching", "approx.bad_vertex_assignment",
               "graph.is_total_cover", "graph.serialize_cover")
EXPECTED_SPANS = {
    "solve-sparse": SOLVE_SPANS,
    "solve-hubs": SOLVE_SPANS,
    "compare-batch": ("cli.compare", "graph.parse_graph", "approx.approx_total_cover",
                      "matching.maximum_matching", "approx.bad_vertex_assignment",
                      "graph.is_total_cover", "approx.matched_vertices_cover",
                      "approx.greedy_domination_cover", "graph.total_graph",
                      "exact.exact_total_cover"),
    "gen-gnp": ("cli.gen", "instances.gnp", "graph.serialize_graph"),
}

LAYER_TIMES = (
    "graph.parse_graph", "graph.is_total_cover", "graph.serialize_cover", "graph.total_graph",
    "graph.serialize_graph", "matching.maximum_matching", "approx.bad_vertex_assignment",
    "approx.approx_total_cover", "approx.matched_vertices_cover",
    "approx.greedy_domination_cover", "exact.exact_total_cover", "instances.gnp",
)
COUNTS = (
    "graph.elements", "graph.sum_deg_sq", "matching.size", "matching.unmatched", "approx.k",
    "approx.t", "approx.bad_scan_pairs", "approx.trace_endpoint", "approx.trace_matching_edge",
    "approx.greedy_picks", "exact.candidates_checked",
)
# (workload, description, numerator spans, bound, at least?) from the design
SHARE_CHECKS = (
    ("solve-sparse", "maximum_matching share", ("matching.maximum_matching",), 0.50, True),
    ("solve-sparse", "validation share", ("graph.is_total_cover",), 0.05, False),
    ("solve-hubs", "validation share", ("graph.is_total_cover",), 0.30, True),
    ("compare-batch", "maximum_matching share", ("matching.maximum_matching",), 0.05, False),
    ("compare-batch", "exact + greedy share",
     ("exact.exact_total_cover", "approx.greedy_domination_cover"), 0.80, True),
)


def start_child(args, work: str, setup_only: bool, deadline: float) -> tuple[float, list[str]]:
    """Run one workload process; return its set-up seconds and the stdout
    lines after READY."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    # kills the process if it outlives the run's deadline
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "READY" or rc != 0:
        raise RuntimeError(f"workload process failed (exit {rc}) before reporting")
    return setup, rest


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model,
            "loadavg_start": os.getloadavg()}


def check_outputs(workload: str, inputs: dict, work: str) -> tuple[list[str], dict]:
    with open(os.path.join(work, "first.stdout"), encoding="utf-8") as handle:
        stdout = handle.read()
    with open(os.path.join(work, "first.out"), encoding="utf-8") as handle:
        output = handle.read()
    if workload.startswith("solve-"):
        with open(inputs["graph"], encoding="utf-8") as handle:
            return check.check_solve(handle.read(), stdout, output)
    if workload == "compare-batch":
        corpus = {}
        for name in os.listdir(inputs["dir"]):
            with open(os.path.join(inputs["dir"], name), encoding="utf-8") as handle:
                corpus[name] = handle.read()
        errors, props = check.check_compare(corpus, output)
        if stdout:
            errors.append("compare --csv printed to stdout")
        return errors, props
    expected = check.gnp_reference(inputs["n"], inputs["p"], inputs["seed"])
    return check.check_gen(expected, stdout, output)


def layer_metrics(workload: str, spans: list, ops: list) -> dict[str, float]:
    """Per-layer medians over the traced ops, from the spans."""
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    missing = set(EXPECTED_SPANS[workload]) - {span[0] for span in spans}
    if missing:
        raise RuntimeError(f"expected spans missing from the traced run: {sorted(missing)}")
    per_op = {i: {} for i in traced}
    for span in spans:
        name, start, end, parent, op = span
        sums = per_op[op]
        sums[name] = sums.get(name, 0.0) + (end - start)
        if parent >= 0:
            key = spans[parent][0] + ":children"
            sums[key] = sums.get(key, 0.0) + (end - start)

    def med(fn) -> float:
        return statistics.median(fn(per_op[i], ops[i]) for i in traced)

    metrics = {f"{name}_s": med(lambda s, o, name=name: s.get(name, 0.0)) for name in LAYER_TIMES}
    metrics["approx.step3_s"] = med(
        lambda s, o: s.get("approx.approx_total_cover", 0.0)
        - s.get("approx.approx_total_cover:children", 0.0))
    for command in ("solve", "compare", "gen"):
        span = "cli." + command
        metrics[f"cli.{command}_self_s"] = med(
            lambda s, o, span=span: s.get(span, 0.0) - s.get(span + ":children", 0.0))
    metrics["exact.s_per_candidate"] = med(
        lambda s, o: s.get("exact.exact_total_cover", 0.0)
        / max(1, o["counts"]["exact.candidates_checked"]))
    for name in COUNTS:
        metrics[name] = med(lambda s, o, name=name: o["counts"][name])
    metrics["approx.bad_hit_ratio"] = med(
        lambda s, o: o["counts"]["approx.bad_hits"] / max(1, o["counts"]["approx.bad_attempts"]))
    untraced = statistics.median(op["seconds"] for op in ops if not op["traced"])
    traced_p50 = statistics.median(ops[i]["seconds"] for i in traced)
    metrics["trace.untraced_op_p50_s"] = untraced
    metrics["trace.traced_op_p50_s"] = traced_p50
    metrics["trace.overhead_frac"] = traced_p50 / untraced - 1.0

    op_span = EXPECTED_SPANS[workload][0]
    op_total = med(lambda s, o: s[op_span])
    for name, label, parts, bound, at_least in SHARE_CHECKS:
        if name == workload:
            share = sum(metrics[f"{part}_s"] for part in parts) / op_total
            ok = share >= bound if at_least else share <= bound
            print(f"design check: {label} {share:.1%} (want {'>=' if at_least else '<='} "
                  f"{bound:.0%}): {'ok' if ok else 'MISMATCH'}")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s") or name == "exact.s_per_candidate":
        return "s"
    return "ratio" if name.endswith(("_frac", "_ratio")) else "count"


def report(args, setups: list[float], child: dict, errors: list[str], props: dict,
           work: str, info: dict) -> dict:
    ops = child["ops"]
    hashes = {op["sha256"] for op in ops}
    first = ops[0]["sha256"]
    failed = sum(1 for op in ops if op["rc"] != 0 or op["sha256"] != first or errors)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        why = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
    print(f"workload {args.workload} seed {args.seed}: {why[args.workload]}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print("input: " + ", ".join(f"{k}={v}" for k, v in props.items()))
    print(f"determinism: {len(hashes)} distinct output hash(es) over {len(ops)} ops; sha256 {first}")
    for op in ops:
        if op["rc"] != 0:
            print(f"op failed with exit {op['rc']}: {op.get('stderr', '')}", file=sys.stderr)
            break
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)

    if args.trace:
        with open(os.path.join(work, "spans.json"), encoding="utf-8") as handle:
            spans = json.load(handle)
        metrics = {name: (value, unit_of(name))
                   for name, value in layer_metrics(args.workload, spans, ops).items()}
    else:
        times = [op["seconds"] for op in ops]
        elements = props["n"] + props["edges"]
        # op seconds over the reference-kernel seconds timed next to each
        # op: the share of machine-speed drift that both see cancels
        cost = sum(times) / sum(op["ref_pass_seconds"] for op in ops)
        size = props.get("alg", props.get("size"))
        metrics = {
            "op_cost_ref": (cost, "ref"),
            "elements_per_ref": (elements / cost, "1/ref"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
            # 1.0 where the ratio does not apply (gen-gnp; alg_over_exact off compare-batch)
            "cover_over_lb": (size / props["lb"] if size else 1.0, "ratio"),
            "alg_over_exact": (props["alg_on_exact_rows"] / props["exact"]
                               if props.get("exact") else 1.0, "ratio"),
        }
        p50 = statistics.median(times)
        print(f"{len(times)} ops; wall op_p50_s = {p50:.4g} s, elements_per_s = "
              f"{elements / p50:.6g} 1/s; reference pass median "
              f"{statistics.median(op['ref_pass_seconds'] for op in ops):.4g} s; "
              f"setup_s median of {len(setups)} set-ups; fail_frac {failed}/{len(ops)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_SPANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "tcover", "cli.py")):
        print(f"error: no tcover sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    info = machine_info()
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            probe = os.path.join(run_dir, f"setup{i}")
            os.mkdir(probe)
            setups.append(start_child(args, probe, True, deadline)[0])
            shutil.rmtree(probe)
        work = os.path.join(run_dir, "run")
        os.mkdir(work)
        setup, lines = start_child(args, work, False, deadline)
        setups.append(setup)
        child = json.loads(lines[-1])
        errors, props = check_outputs(args.workload, child["inputs"], work)
        info["loadavg_end"] = os.getloadavg()
        result = report(args, setups, child, errors, props, work, info)
        if args.trace:
            shutil.copy(os.path.join(work, "spans.json"),
                        os.path.join(scratch, f"spans-{args.workload}.json"))
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
