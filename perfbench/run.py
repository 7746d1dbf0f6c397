#!/usr/bin/env python3
"""csidhsim benchmark: one workload as one closed loop in one thread.

    python3 perfbench/run.py --workload ct-exchange --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/`` beside
this directory and nowhere else.  With ``--trace 0`` the workload loops for
``--seconds`` and the last output line is one JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it runs a fixed
amount of work twice with the same inputs, untraced and then traced, and
reports the per-layer metrics.  The lines before it name every detailed
metric with its unit; the full result (host, model invariants, gates) and
the spans of a traced run are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("ct-exchange", "vartime-exchange", "toy-verify",
                  "datapath-verify")

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

SETUP_REPEATS = 15
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import refspeed
with refspeed.SpeedProbe(interval=0.004) as probe:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import csidhsim
    from csidhsim.fp import Fp
    Fp(csidhsim.get_params("csidh512"))
    csidhsim.get_params("toy419")
    t1 = time.perf_counter()
print(t1 - t0, probe.scale(t0, t1))
"""


def measure_setup() -> tuple[list[float], list[float]]:
    """Import, get_params and first Fp context, each in a fresh interpreter.

    Returns raw and rescaled seconds; a speed probe runs inside each set-up.
    One untimed round first lets the bytecode cache fill.
    """
    raw, scaled = [], []
    here = Path(__file__).resolve().parent
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(here)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, scale = map(float, done.stdout.split())
        if i:
            raw.append(seconds)
            scaled.append(seconds * scale)
    return raw, scaled


def measure_params_load() -> float:
    """Median time to build the csidh512 set from its constants file."""
    from csidhsim import params
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        params.csidh512_params()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it (None when there are too few)."""
    out = {"p50": statistics.median(values), "n": len(values),
           "top": None, "top_value": None}
    ordered = sorted(values)
    for q in (99.9, 99.0, 90.0):
        if len(values) * (100 - q) / 100 >= 10:
            out["top"] = f"p{q:g}"
            out["top_value"] = ordered[math.ceil(q / 100 * len(values)) - 1]
            break
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str:
    """HEAD of the checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "csidhsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": git_commit(), "src_sha256": src.hexdigest()}


def _seconds(spans, probe=None) -> list[float]:
    """Durations of (start, end) spans, rescaled when a probe is given."""
    if probe is None:
        return [t1 - t0 for t0, t1 in spans]
    return [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in spans]


def _timing(spans, probe) -> dict:
    summary = summarize(_seconds(spans, probe))
    summary["raw_p50"] = statistics.median(_seconds(spans))
    return summary


def detailed_metrics(run, probe, scaled_loop_s: float) -> dict:
    """The workload's metrics by their detailed names:
    {name: (value, unit, summary or None)}.  Timings are rescaled."""
    out = {}
    for series in ("keygen_s", "dh_s", "estimate_s"):
        if run.samples[series]:
            s = _timing(run.samples[series], probe)
            out[series + ".p50"] = (s["p50"], "s", s)
    if run.sim_ops:
        out["sim_ops_per_s"] = (
            run.sim_ops / sum(_seconds(run.samples["ct_action_s"], probe)), "1/s", None)
    if run.samples["key_s"]:
        out["keys_verified_per_s"] = (
            len(run.samples["key_s"]) / scaled_loop_s, "1/s", None)
    if run.samples["unit_s"]:
        out["dp_checks_per_s"] = (run.attempted / scaled_loop_s, "1/s", None)
    for mode, cycles in run.invariants.get("sim_cycles", {}).items():
        out[f"sim_cycles.{mode}"] = (cycles, "cycles", None)
    return out


def bench_untraced(wl, name, seed, seconds, **workload_args):
    import refspeed
    import workloads
    setup_raw, setup_scaled = measure_setup()
    setup = summarize(setup_scaled)
    setup["raw_p50"] = statistics.median(setup_raw)
    run = workloads.Run(OUT_DIR)
    with refspeed.SpeedProbe() as probe:
        budget = workloads.Budget(seconds=seconds)
        t0 = time.perf_counter()
        wl.run(run, workloads.inputs(name, seed), budget, **workload_args)
        loop_s = time.perf_counter() - t0
    speed = probe.scale(0, math.inf)        # every sample lies in the loop
    ops = [span for series in wl.op_samples for span in run.samples[series]]
    op = _timing(ops, probe)
    detail = {"setup_s": (setup["p50"], "s", setup),
              "op_s.p50": (op["p50"], "s", op),
              "ops_per_s": (len(ops) / (loop_s * speed), "1/s", None),
              "peak_rss_mb": (peak_rss_mb(), "MB", None)}
    detail.update(detailed_metrics(run, probe, loop_s * speed))
    metrics = {key: detail[key][0] for key, _ in END_TO_END}
    extra = {"loop_s": loop_s, "units": budget.done, "host_speed": speed,
             "speed_samples": len(probe.seconds)}
    return run, metrics, dict(END_TO_END), detail, extra


def bench_traced(wl, name, seed, **workload_args):
    import layers
    import workloads
    load_s = measure_params_load()
    untraced = workloads.Run(OUT_DIR)
    t0 = time.perf_counter()
    wl.run(untraced, workloads.inputs(name, seed),
           workloads.Budget(units=wl.trace_units), **workload_args)
    untraced_s = time.perf_counter() - t0

    tracer = layers.Tracer()
    run = workloads.Run(OUT_DIR)
    tracer.install()
    try:
        t0 = time.perf_counter()
        wl.run(run, workloads.inputs(name, seed),
               workloads.Budget(units=wl.trace_units), **workload_args)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    run.attempted += untraced.attempted
    run.failed += untraced.failed
    run.failures.update(untraced.failures)

    metrics = tracer.metrics(load_s, traced_s, untraced_s)
    units = {m[0]: m[1] for m in layers.PER_LAYER}
    detail = {k: (v, units[k], None) for k, v in metrics.items()}
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    with open(spans_path, "w") as f:
        json.dump({"fields": ["id", "parent", "name", "layer", "start_s",
                              "end_s"], "spans": tracer.spans}, f)
    extra = {"untraced_s": untraced_s, "traced_s": traced_s,
             "units": wl.trace_units, "spans": str(spans_path.relative_to(ROOT))}
    return run, metrics, units, detail, extra


def measure(name, seed, seconds, trace, **workload_args):
    """One benchmark run: (Run, gated metrics, their units, detailed
    metrics, run facts).  `workload_args` go to the workload function."""
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name]
    if trace:
        out = bench_traced(wl, name, seed, **workload_args)
    else:
        out = bench_untraced(wl, name, seed, seconds, **workload_args)
    run, detail = out[0], out[3]
    detail["fail_ratio"] = (run.failed / max(run.attempted, 1), "ratio", None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "csidhsim" / "__init__.py").is_file():
        print(f"perfbench: no csidhsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import csidhsim
    if Path(csidhsim.__file__).resolve().parent != SRC / "csidhsim":
        print(f"perfbench: imported csidhsim from {csidhsim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    run, metrics, units, detail, extra = measure(
        args.workload, args.seed, args.seconds, args.trace)
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted, "failed": run.failed,
        "failures": dict(run.failures), "invariants": run.invariants,
        "host": host_info(), "run": extra,
        "metrics": {k: {"value": v, "unit": u, "summary": s}
                    for k, (v, u, s) in detail.items()},
    }
    out_path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in extra.items()))
    for name, (value, unit, summ) in detail.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        line = f"  {name:<36} {shown} {unit}"
        if summ is not None:
            line += f"  (n={summ['n']}"
            if summ["top"]:
                line += f", {summ['top']}={summ['top_value']:.6g}"
            line += f", raw p50={summ['raw_p50']:.6g})"
        print(line)
    for gate, n in sorted(run.failures.items()):
        print(f"  FAILED {gate}: {n}")
    for key, value in sorted(run.invariants.items()):
        print(f"  invariant {key} = {value}")
    print(f"  host {json.dumps(result['host'], sort_keys=True)}")
    print(f"  result -> {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"], "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
