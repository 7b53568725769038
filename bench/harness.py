"""Closed-loop runner, metrics, drift record and environment record."""

import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
from time import perf_counter

import numpy as np

import checks
import workloads
from tracing import LAYERS, Tracer, summarize

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DRIFT_RECORD = os.path.join(BENCH, "drift_record.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# The traced run's summed self times must match each op's wall time within
# this share (plus SELF_SUM_SLACK_S for the benchmark's own call overhead).
SELF_SUM_TOL = 0.05
SELF_SUM_SLACK_S = 1e-3


# ------------------------------------------------------------- environment

def _blas_threads_live():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "sched_affinity": affinity,
        "openblas_threads_set": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "openblas_threads_live": _blas_threads_live(),
    }


# ----------------------------------------------------------------- helpers

def tail(values):
    """Value with TAIL_BEYOND samples above it, its percentile, and n.

    With fewer than TAIL_BEYOND + 1 samples no such value exists and the
    minimum is reported."""
    xs = sorted(values)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, 1)
    return xs[rank - 1], 100.0 * rank / n, n


def _run_op(op):
    t0 = perf_counter()
    try:
        raw = op.run()
        wall = perf_counter() - t0
    except Exception as exc:  # a failed op is counted and named, not fatal
        return perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    cli = "argv" in raw
    out = checks.parse_cli(raw) if cli else raw
    return wall, out, checks.check(op, out, cli)


def _record_fields(out):
    return {k: out.get(k) for k in ("epsilon", "verdict", "mc") if out.get(k) is not None}


def _setup(workload, seed, workdir):
    times = []
    for _ in range(SETUP_REPEATS):
        os.makedirs(workdir, exist_ok=True)
        t0 = perf_counter()
        ops = workloads.SETUPS[workload](seed, workdir)
        times.append(perf_counter() - t0)
    return ops, statistics.median(times)


def _drift(workload, first_out, counts=None):
    """Anchor ops whose outputs differ from the stored record."""
    try:
        with open(DRIFT_RECORD, encoding="utf-8") as fh:
            record = json.load(fh).get(workload, {})
    except FileNotFoundError:
        record = {}
    drifted, checked, worst = [], 0, 0.0
    for op_id, want in record.items():
        if op_id not in first_out:
            continue
        got = _record_fields(first_out[op_id])
        if counts is not None:
            got.update(counts.get(op_id, {}))
        else:
            want = {k: v for k, v in want.items() if k not in ("cells", "stars")}
        checked += 1
        if got != want:
            drifted.append(op_id)
        if "epsilon" in got and "epsilon" in want and want["epsilon"]:
            worst = max(worst, abs(got["epsilon"] - want["epsilon"]) / abs(want["epsilon"]))
    return drifted, checked, worst


def _print_drift(drifted, checked, worst):
    print(f"  drift: {len(drifted)} of {checked} anchor ops differ from the stored "
          f"record (max relative epsilon change {worst:.3g})"
          + (f": {', '.join(drifted)}" if drifted else ""))


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<40} {value:>14.6g} {unit}{'  ' + note if note else ''}")


# ------------------------------------------------------------------- runs

def run(args):
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        ops, setup_s = _setup(args.workload, args.seed, workdir)
        if args.trace:
            result = _traced(args, ops)
        else:
            result = _timed(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _report_failures(failures):
    for op_id, problems in failures:
        print(f"FAILED {op_id}: {'; '.join(problems)}")


def _warm_up(ops, failures):
    """Run, check and discard the first op of every kind, so that the timed
    loop starts with first-call costs paid and set-up garbage collected."""
    attempted = 0
    for kind in workloads.KINDS:
        op = next(op for op in ops if op.kind == kind)
        _, _, problems = _run_op(op)
        attempted += 1
        if problems:
            failures.append((op.op_id + " (warm-up)", problems))
    gc.collect()
    return attempted


def _timed(args, ops, setup_s):
    samples = {k: [] for k in workloads.KINDS}
    first_out = {}
    failures = []
    warm = _warm_up(ops, failures)
    warm_failed = len(failures)
    attempted = 0
    t_start = perf_counter()
    i = 0
    # Every distinct op runs at least once, so the quality metrics and the
    # drift check cover the whole workload.
    while perf_counter() - t_start < args.seconds or i < len(ops):
        op = ops[i % len(ops)]
        i += 1
        wall, out, problems = _run_op(op)
        attempted += 1
        if problems:
            failures.append((op.op_id, problems))
            continue
        samples[op.kind].append(wall)
        first_out.setdefault(op.op_id, out)
    elapsed = perf_counter() - t_start
    completed = attempted - (len(failures) - warm_failed)
    attempted += warm
    _report_failures(failures)

    metrics = {"setup_s": (setup_s, "s")}
    notes = {}
    missing = [kind for kind in workloads.KINDS if not samples[kind]]
    for kind in workloads.KINDS:
        xs = samples[kind] or [0.0]
        value, pct, n = tail(xs)
        metrics[f"{kind}.p50_s"] = (statistics.median(xs), "s")
        metrics[f"{kind}.tail_s"] = (value, "s")
        notes[f"{kind}.tail_s"] = f"p{pct:.1f} of n={n}"
    metrics["ops_per_s"] = (completed / elapsed, "1/s")

    # Quality metrics count each distinct op once: its outputs are the same
    # on every repeat (the drift check relies on that too).
    distinct = [op for op_id, op in {op.op_id: op for op in ops}.items()
                if op_id in first_out]
    verdicts = [(op, first_out[op.op_id]) for op in distinct
                if op.kind in ("verify", "compressed")]
    n_safe = sum(out["verdict"] == checks.SAFE for _, out in verdicts)
    metrics["safe_frac"] = (n_safe / max(len(verdicts), 1), "frac")
    ratios = [first_out[op.op_id]["epsilon"] / op.pair.lb for op in distinct
              if op.kind == "bisim"]
    metrics["eps_ratio.p50"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    print("end-to-end metrics (closed loop, one client):")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit, notes.get(name, ""))
    print(f"  failed {len(failures)} of {attempted} ops attempted "
          f"(failed_frac {len(failures) / max(attempted, 1):.6g})")
    c9 = metrics["verify.p50_s"][0] / metrics["compressed.p50_s"][0]
    print(f"  criterion-9 ratio verify.p50_s / compressed.p50_s = {c9:.4g} (not gated)")
    mix = {}
    for op, out in verdicts:
        key = f"{op.kind}:{op.pair.level}:{out['verdict']}"
        mix[key] = mix.get(key, 0) + 1
    print("  verdict mix " + json.dumps(dict(sorted(mix.items()))))
    _print_drift(*_drift(args.workload, first_out))

    correct = not failures and not missing and bool(ratios)
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _traced(args, ops):
    tracer = Tracer()
    per = {}
    failures = []
    first_out = {}
    counts = {}
    wall_plain = wall_traced = wall_twin = 0.0
    self_total = 0.0
    attempted = 0
    for i, op in enumerate(ops):
        # Every op runs traced. Every other op also runs untraced, first or
        # second in turn, for the overhead estimate; the pattern shifts by
        # one every four ops so that every op kind gets twins.
        copies = [True]
        if (i + i // 4) % 2 == 0:
            copies = [False, True] if (i // 2) % 2 == 0 else [True, False]
        for traced in copies:
            attempted += 1
            if traced:
                tracer.install()
            try:
                wall, out, problems = _run_op(op)
            finally:
                if traced:
                    tracer.uninstall()
            spans = tracer.take() if traced else None
            if problems:
                failures.append((op.op_id, problems))
                continue
            if not traced:
                wall_plain += wall
                continue
            first_out[op.op_id] = out
            if len(copies) == 2:
                wall_twin += wall
            wall_traced += wall
            op_per, self_ns, parallel = summarize(tracer.names, spans)
            self_s = self_ns / 1e9
            self_total += self_s
            low = wall * (1 - SELF_SUM_TOL) - SELF_SUM_SLACK_S
            high = math.inf if parallel else wall * (1 + SELF_SUM_TOL) + SELF_SUM_SLACK_S
            if not low <= self_s <= high:
                failures.append((op.op_id, [f"span self times sum to {self_s:.6f} s, "
                                            f"op wall time {wall:.6f} s"]))
            for name, (calls, ns, amount) in op_per.items():
                acc = per.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += ns
                acc[2] += amount
            counts[op.op_id] = {
                "cells": op_per.get("interval.reach_box_split", (0, 0, 0))[2],
                "stars": op_per.get("star.reach_stars", (0, 0, 0))[2],
            }
    _report_failures(failures)

    def fn(name):
        calls, ns, amount = per.get(name, (0, 0, 0))
        return calls, ns / 1e9, amount

    def layer(prefix):
        items = [v for k, v in per.items() if k.startswith(prefix + ".")]
        return sum(v[0] for v in items), sum(v[1] for v in items) / 1e9

    m = {}
    for name in LAYERS:
        m[f"{name}.self_s"] = (layer(name)[1], "s")
    cells = fn("interval.reach_box_split")[2]
    m["interval.reach_box_split.self_s"] = (fn("interval.reach_box_split")[1], "s")
    m["interval.reach_box.self_s"] = (fn("interval.reach_box")[1], "s")
    m["interval.split_box.self_s"] = (fn("interval.split_box")[1], "s")
    m["interval.cells"] = (cells, "count")
    m["interval.us_per_cell"] = (1e6 * m["interval.self_s"][0] / cells if cells else 0.0, "us")
    lp_max_calls = fn("lp.lp_max")[0]
    feas_calls, _, feas_hits = fn("lp.lp_feasible")
    stars = fn("star.reach_stars")[2]
    m["lp.lp_max.calls"] = (lp_max_calls, "count")
    m["lp.lp_feasible.calls"] = (feas_calls, "count")
    m["lp.us_per_call"] = (1e6 * m["lp.self_s"][0] / lp_max_calls if lp_max_calls else 0.0, "us")
    m["lp.lp_feasible.hit_frac"] = (feas_hits / feas_calls if feas_calls else 0.0, "frac")
    m["lp.calls_per_star"] = (lp_max_calls / stars if stars else 0.0, "count")
    m["star.reach_stars.self_s"] = (fn("star.reach_stars")[1], "s")
    m["star.star_sup_norm.self_s"] = (fn("star.star_sup_norm")[1], "s")
    m["star.out_stars"] = (stars, "count")
    fb_calls, fb_s, fb_rows = fn("network.forward_batch")
    m["network.forward_batch.calls"] = (fb_calls, "count")
    m["network.forward_batch.rows"] = (fb_rows, "count")
    m["network.forward_batch.self_s"] = (fb_s, "s")
    m["bisim.bisim_error_upper.self_s"] = (fn("bisim.bisim_error_upper")[1], "s")
    m["bisim.bisim_error_lower_mc.self_s"] = (fn("bisim.bisim_error_lower_mc")[1], "s")
    m["norms.calls"] = (layer("norms")[0], "count")
    m["safety.verify.self_s"] = (fn("safety.verify")[1], "s")
    m["safety.verify_via_compressed.self_s"] = (fn("safety.verify_via_compressed")[1], "s")
    m["cli.main.self_s"] = (fn("cli.main")[1], "s")
    parse = [fn(f"formats.{n}") for n in ("parse_nnet", "parse_json_net", "parse_problem")]
    m["formats.parse.self_s"] = (sum(p[1] for p in parse), "s")
    m["formats.parse.bytes"] = (sum(p[2] for p in parse), "bytes")
    m["merge.merge.calls"] = (fn("merge.merge")[0], "count")
    m["merge.merge.self_s"] = (fn("merge.merge")[1], "s")
    m["trace.overhead_frac"] = (wall_twin / wall_plain - 1 if wall_plain else 0.0, "frac")
    drifted, checked, worst = _drift(args.workload, first_out, counts)
    m["drift.ops"] = (len(drifted), "count")

    print("per-layer metrics (one traced pass over the workload):")
    for name, (value, unit) in m.items():
        _print_metric(name, value, unit)
    print(f"  traced op wall {wall_traced:.6f} s, summed span self time "
          f"{self_total:.6f} s, untraced op wall {wall_plain:.6f} s")
    # Shares of summed self time: with the CLI's worker threads, spans
    # overlap and self times add up to more than wall time.
    shares = sorted(((m[f"{n}.self_s"][0] / max(self_total, 1e-12), n) for n in LAYERS),
                    reverse=True)
    print("  layer share of summed self time: "
          + ", ".join(f"{n} {s:.3f}" for s, n in shares))
    _print_drift(drifted, checked, worst)

    if args.write_drift_record:
        _write_drift_record(args.workload, ops, first_out, counts)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


def _write_drift_record(workload, ops, first_out, counts):
    try:
        with open(DRIFT_RECORD, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    record[workload] = {
        op.op_id: {**_record_fields(first_out[op.op_id]), **counts[op.op_id]}
        for op in ops if op.pair.name.startswith("a") and op.op_id in counts
    }
    with open(DRIFT_RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record[workload])} anchor ops to {DRIFT_RECORD}")
