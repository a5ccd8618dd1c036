#!/usr/bin/env python3
"""Compare two sets of saved benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files saved by run.py (<build>/results/*.json,
one per workload, seed and trace mode). For every workload and metric
present in both sets it prints the base and new medians across seeds, the
change, and whether the change is worse than the metric's bound in
BENCHMARK.json.

It refuses (exit 2) to compare runs whose fingerprints differ: the kernel
ISA, nproc, compiler and build type of every result must be equal. (The
seed is part of each result's fingerprint too; medians pool the seeds of
one set.)
Exit 1 when some metric got worse by more than its bound, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MACHINE_KEYS = ("isa", "nproc", "compiler", "build_type")


def load_set(d):
    out = {}
    for p in sorted(Path(d).glob("*.json")):
        if p.name.endswith(".trace.json"):
            continue
        r = json.loads(p.read_text())
        out[(r["workload"], r["trace"], r["seed"])] = r
    return out


def machine(r):
    return tuple(r["fingerprint"][k] for k in MACHINE_KEYS)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load_set(argv[1]), load_set(argv[2])
    machines = {machine(r) for r in list(base.values()) + list(new.values())}
    if len(machines) > 1:
        print(f"refusing to compare: fingerprints differ: {sorted(machines)}",
              file=sys.stderr)
        return 2
    if not base or not new:
        print("nothing to compare", file=sys.stderr)
        return 2
    specs = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = {m["name"]: m for m in specs["end_to_end"] + specs["per_layer"]}

    worse = False
    groups = sorted({k[:2] for k in base} & {k[:2] for k in new})
    for workload, trace in groups:
        b = [r for k, r in base.items() if k[:2] == (workload, trace)]
        n = [r for k, r in new.items() if k[:2] == (workload, trace)]
        print(f"{workload} (trace {trace}): {len(b)} base runs, "
              f"{len(n)} new runs")
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b]
            nv = [r["metrics"][name]["value"] for r in n
                  if name in r["metrics"]]
            if not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            spec = bound.get(name, {})
            verdict = ""
            if "bound" in spec:
                sign = 1 if spec["better"] == "lower" else -1
                if sign * change > spec["bound"]:
                    verdict = f"WORSE than bound {spec['bound']}"
                    worse = True
            print(f"  {name:32s} {bm:14.6g} -> {nm:14.6g} "
                  f"{change * 100:+7.1f}% {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
