#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload serve_mixed --seed 1 \
        --seconds 40 --trace 0

Builds perfbench/harness.cpp and the dopar library from the checkout's
sources (CMake, Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the harness, and prints as the last stdout
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports every end_to_end metric of BENCHMARK.json; --trace 1
reports every per_layer metric, folding the harness's trace file with
trace_fold.py. A per-layer metric a workload does not exercise reads 0.

Every result is also saved with its fingerprint (kernel ISA, nproc,
compiler, build type, seed) under <build>/results/ for compare.py.

Exit codes: 0 ok; 1 an output mismatched its oracle (the result line is
still printed, with "correct": false); 2 build or usage error; 3 the run is
invalid (the open-loop generator fell behind) and no result is printed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import trace_fold  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170

# Per-layer metrics each workload measures; the rest of BENCHMARK.json's
# per_layer list reads 0 for it (the workload does not enter that layer).
COMMON_LAYERS = {
    "obl.network_ns_per_cmp", "sched.job_queue_wait_mean_ms",
    "sched.lease_lifetime_mean_ms", "sched.jobs", "pool.busy_ratio",
    "pool.steal_success_ratio", "pool.tasks_per_key",
    "obs.trace_overhead_ratio", "obs.trace_valid",
}
WORKLOAD_LAYERS = {
    "serve_mixed": COMMON_LAYERS | {
        "svc.window_wait_mean_ms", "svc.requests_per_batch",
        "svc.coalesced_ratio", "svc.solo_requests",
        "svc.queue_depth_high_water", "svc.policy_switches",
        "svc.submit_us_p50", "svc.sort_p50_ms", "svc.sort_p99_ms",
        "svc.join_p50_ms", "svc.join_p99_ms", "svc.groupby_p50_ms",
        "svc.groupby_p99_ms", "gen.late_p99_ms", "gen.late_max_ms",
        "rel.batch_join_self_ms", "rel.batch_groupby_self_ms",
    },
    "bulk_sort": COMMON_LAYERS | {
        "core.sort_s", "core.permute_s", "core.bin_assign_s",
        "core.backend_sort_s", "core.orp_share",
    },
    "bulk_relational": COMMON_LAYERS | {
        "rel.equi_join_s", "rel.band_join_s", "rel.group_by_s",
        "rel.multiplicity_self_s", "rel.distribute_expand_self_s",
        "rel.align_concat_self_s",
    },
}

# Library-span metrics: (metric, enclosing span, span-name prefix of the
# folded self time, scale from microseconds). Each is the self time of the
# matching spans nested under the enclosing span, per enclosing span.
SPAN_LAYERS = [
    ("rel.multiplicity_self_s", "rt.equi_join", "rel.multiplicity", 1e-6),
    ("rel.distribute_expand_self_s", "rt.equi_join", "rel.distribute_expand",
     1e-6),
    ("rel.align_concat_self_s", "rt.equi_join", "rel.align_concat", 1e-6),
    ("rel.batch_join_self_ms", "rt.join_batched", "rel.", 1e-3),
    ("rel.batch_groupby_self_ms", "rt.group_by_batched", "rel.", 1e-3),
]


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then let CMake rebuild whatever changed."""
    if not (ROOT / "src" / "dopar.hpp").is_file():
        fail(2, f"no dopar sources under {ROOT / 'src'}; nothing to build")
    log = sys.stderr
    if not (bdir / "CMakeCache.txt").is_file():
        r = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if r.returncode != 0:
            fail(2, "cmake configure failed")
    r = subprocess.run(
        ["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1)],
        stdout=log, stderr=log)
    if r.returncode != 0:
        fail(2, "build failed")
    return bdir / "perfbench_harness"


def span_layers(trace_path):
    """Per-layer numbers from the library's spans in the trace file; -1
    marks every one of them invalid when a thread's ring overflowed."""
    folded = trace_fold.fold(trace_fold.load(trace_path))
    out = {"obs.trace_valid": 1.0 if folded["valid"] else 0.0}
    for name, outer, prefix, scale in SPAN_LAYERS:
        if not folded["valid"]:
            out[name] = -1.0
            continue
        calls = folded["spans"].get(outer, {}).get("count", 0)
        nested = folded["nested"].get(outer, {})
        self_us = sum(v for k, v in nested.items() if k.startswith(prefix))
        out[name] = self_us * scale / calls if calls else 0.0
    if not folded["valid"]:
        print("perfbench: library trace truncated on "
              f"{folded['truncated']}; span metrics marked -1",
              file=sys.stderr)
    return out


def main():
    seeds = json.loads((HERE / "seeds.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=seeds["default"])
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        fail(2, "BENCHMARK.json not found at the checkout root")
    bench = json.loads(bench_path.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(2, f"unknown workload {args.workload!r}")
    seconds = args.seconds or bench["run_seconds"]

    bdir = build_dir()
    exe = build(bdir)
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = results / f"{stem}.trace.json"

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        if r.returncode == 3 and lines:
            fail(3, "run invalid: " + json.loads(lines[-1])["invalid"])
        fail(2, f"harness exited with code {r.returncode}")
    raw = json.loads(lines[-1])

    if args.trace:
        layer = dict(raw["layer"])
        layer.update(span_layers(trace_path))
        want = WORKLOAD_LAYERS[args.workload]
        missing = sorted(want - layer.keys())
        if missing:
            fail(2, f"harness did not measure {missing}")
        specs = bench["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0.0) for m in specs}
    else:
        specs = bench["end_to_end"]
        missing = sorted({m["name"] for m in specs} - raw["e2e"].keys())
        if missing:
            fail(2, f"harness did not measure {missing}")
        values = {m["name"]: raw["e2e"][m["name"]] for m in specs}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": seconds,
              "fingerprint": raw["fingerprint"], "correct": raw["correct"],
              "attempted": raw["attempted"], "failed": raw["failed"],
              "rejected": raw["rejected"], "thrown": raw["thrown"],
              "mismatched": raw["mismatched"], "metrics": metrics,
              "diagnostics": raw["layer"] if not args.trace else {}}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print("fingerprint " + json.dumps(raw["fingerprint"], sort_keys=True))
    if record["diagnostics"]:
        print("diagnostics " + json.dumps(record["diagnostics"],
                                          sort_keys=True))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
