#!/usr/bin/env python3
"""Self-check of the benchmark's own code.

    python3 perfbench/selfcheck.py

Runs every workload at minimal size (one unit of work; the two exchanges on
toy419 instead of csidh512) untraced and traced, and checks that:

* BENCHMARK.json, run.py and layers.py name the same metrics and units;
* every gated metric and every detailed metric of a workload is emitted;
* model invariants agree across two seeds, and traced counts repeat;
* a deliberately corrupted output is counted in fail_ratio;
* the command line prints the result contract, and refuses to run (no
  result, non-zero exit) where the library sources are missing.

Exits non-zero on the first failed check.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402
from csidhsim.fp import FieldElement  # noqa: E402

MINIMAL = {"ct-exchange": {"params_name": "toy419"},
           "vartime-exchange": {"params_name": "toy419"},
           "toy-verify": {}, "datapath-verify": {}}

DETAILED = {
    "ct-exchange": ("keygen_s.p50", "dh_s.p50", "estimate_s.p50",
                    "sim_ops_per_s", "sim_cycles.fpga", "sim_cycles.asic"),
    "vartime-exchange": ("keygen_s.p50", "dh_s.p50"),
    "toy-verify": ("sim_ops_per_s", "keys_verified_per_s",
                   "sim_cycles.fpga", "sim_cycles.asic"),
    "datapath-verify": ("dp_checks_per_s",),
}
ALWAYS = ("setup_s", "op_s.p50", "ops_per_s", "peak_rss_mb", "fail_ratio")
REPEATABLE = (".calls", "trace.ops", "accept_ratio", "shadow_share",
              "ladder_steps", "kernel_multiples", "dump_bytes")


def check(ok, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")


def check_declarations() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
          == list(workloads.WORKLOADS), "workload names")
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]]
          == list(run.END_TO_END), "end-to-end metrics")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == [row[:3] for row in layers.PER_LAYER], "per-layer metrics")
    return bench


def check_emitted(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, kwargs in MINIMAL.items():
        r, metrics, units, detail, _ = run.measure(name, 1, 0, 0, **kwargs)
        check(r.attempted > 0 and r.failed == 0, f"{name}: clean run")
        check({k: units[k] for k in metrics} == e2e, f"{name}: gated metrics")
        for metric in ALWAYS + DETAILED[name]:
            check(metric in detail and detail[metric][1], f"{name}: {metric}")
        check(all(v > 0 for v in metrics.values()), f"{name}: a zero metric")

        counts = []
        for _ in range(2):
            r, metrics, units, _, _ = run.measure(name, 1, 0, 1, **kwargs)
            check(r.failed == 0, f"{name}: clean traced run")
            check({k: units[k] for k in metrics} == per_layer,
                  f"{name}: per-layer metrics")
            counts.append({k: v for k, v in metrics.items()
                           if k.endswith(REPEATABLE)})
        check(counts[0] == counts[1], f"{name}: traced counts repeat")


def check_invariants() -> None:
    for name in ("ct-exchange", "toy-verify"):
        seen = []
        for seed in (1, 2):
            r = workloads.Run(run.OUT_DIR)
            workloads.WORKLOADS[name].run(
                r, workloads.inputs(name, seed), workloads.Budget(units=2),
                **MINIMAL[name])
            check(r.failed == 0 and r.invariants, f"{name}: invariants")
            seen.append(r.invariants)
        check(seen[0] == seen[1], f"{name}: invariants differ across seeds")


@contextlib.contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_corruption() -> None:
    """Each corrupted output must show up as a failure, not pass."""
    def bad_secret(original):
        calls = []

        def wrapped(sk, peer, params, *args, **kwargs):
            out = original(sk, peer, params, *args, **kwargs)
            calls.append(1)
            if len(calls) == 1:
                return FieldElement((out.value + 1) % params.p, params)
            return out
        return wrapped

    def bad_mont_mul(original):
        return lambda a, b, params, mode: (
            original(a, b, params, mode)[0] ^ 1, original(a, b, params, mode)[1])

    def bad_oracle(original):
        return lambda A, e, primes, p: (original(A, e, primes, p) + 1) % p

    cases = (("ct-exchange", workloads.action, "shared_secret", bad_secret),
             ("datapath-verify", workloads.datapath, "mont_mul_dp_int",
              bad_mont_mul),
             ("toy-verify", workloads.oracle, "brute_group_action",
              bad_oracle))
    for name, owner, attr, make in cases:
        with patched(owner, attr, make):
            r, _, _, detail, _ = run.measure(name, 1, 0, 0, **MINIMAL[name])
        check(r.failed > 0 and detail["fail_ratio"][0] > 0,
              f"{name}: corrupted {attr} not counted")


def check_cli(bench: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "datapath-verify", "--seed", "7", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        check(done.returncode == 0, f"cli trace={trace}: exit code")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        check(set(last) == {"correct", "attempted", "failed", "metrics"},
              f"cli trace={trace}: result keys")
        check(last["correct"] and last["failed"] == 0, "cli: correct")
        check({k: v["unit"] for k, v in last["metrics"].items()}
              == {m["name"]: m["unit"] for m in bench[group]},
              f"cli trace={trace}: metrics")

    bare = run.OUT_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "toy-verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0 and '"correct"' not in done.stdout,
              "cli without sources must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = check_declarations()
    check_emitted(bench)
    check_invariants()
    check_corruption()
    check_cli(bench)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
