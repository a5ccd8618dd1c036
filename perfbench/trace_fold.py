#!/usr/bin/env python3
"""Fold a perfbench trace file into total and self time per span name.

    python3 perfbench/trace_fold.py TRACE.json

The trace file is Chrome trace-event JSON written by the harness:

* pid 1 holds the library's own spans (rt.*, rel.*, sched.*, pool.run,
  svc.batch), one event list per traced window (args.window). Their nesting
  is recovered from containment on the same thread.
* pid 2 holds the harness's spans around public calls; they name their
  parent explicitly (args.parent, 0 = root) and share args.req per request.
* otherData.windows gives each window's open/close time and
  otherData.ring_capacity the size of the library tracer's per-thread ring.

A span's self time is its duration minus the time its direct children
cover.

The library's ring overwrites its oldest events silently, so before
summing anything the fold checks every (window, thread): the ring can have
lost events only if it holds ring_capacity of them, and then the window is
complete only if that thread's oldest surviving event was recorded (ended)
before the window opened. Otherwise the library-span numbers are marked
invalid (valid = False) rather than summed over a partial trace. Harness
spans are kept in memory by the harness and never truncated.

Exits 1 when the library trace is truncated.
"""

import json
import sys
from collections import defaultdict

EPS_US = 1e-3  # timestamps carry nanoseconds as fractional microseconds


def load(path):
    with open(path) as f:
        return json.load(f)


def _self_times(events, parent_of):
    """Self time of each event: duration minus its direct children's."""
    child_us = defaultdict(float)
    for i, p in enumerate(parent_of):
        if p is not None:
            child_us[p] += events[i]["dur"]
    return [max(0.0, e["dur"] - child_us[i]) for i, e in enumerate(events)]


def _end(e):
    return e["ts"] + e.get("dur", 0.0)


def _nest_by_containment(events):
    """Parent index of each event among same-thread events, by interval
    containment (RAII spans on one thread nest properly)."""
    order = sorted(range(len(events)),
                   key=lambda i: (events[i]["ts"], -events[i]["dur"]))
    parent_of = [None] * len(events)
    stack = []
    for i in order:
        start = events[i]["ts"]
        end = start + events[i]["dur"]
        while stack and _end(events[stack[-1]]) <= start + EPS_US:
            stack.pop()
        if stack and end <= _end(events[stack[-1]]) + EPS_US:
            parent_of[i] = stack[-1]
        stack.append(i)
    return parent_of


def _accumulate(events, parent_of, spans, nested):
    self_us = _self_times(events, parent_of)
    for i, e in enumerate(events):
        s = spans[e["name"]]
        s["count"] += 1
        s["total_us"] += e["dur"]
        s["self_us"] += self_us[i]
        seen = set()
        p = parent_of[i]
        while p is not None:
            anc = events[p]["name"]
            if anc not in seen:
                seen.add(anc)
                nested[anc][e["name"]] += self_us[i]
            p = parent_of[p]


def _new_table():
    return defaultdict(lambda: {"count": 0, "total_us": 0.0, "self_us": 0.0})


def fold(trace):
    """Return {"valid", "truncated", "events", "spans", "nested",
    "harness"}: spans[name] = {count, total_us, self_us} of library spans;
    nested[ancestor][name] = self time (us) of `name` spans nested anywhere
    under `ancestor` spans; harness = the same table for harness spans."""
    other = trace.get("otherData", {})
    windows = other.get("windows", [])
    capacity = other["ring_capacity"]
    lib = defaultdict(list)
    harness = []
    for e in trace["traceEvents"]:
        if e.get("pid") == 1:
            lib[(e["args"]["window"], e["tid"])].append(e)
        elif e.get("pid") == 2 and e.get("ph") == "X":
            harness.append(e)

    truncated = []
    for (w, tid), evs in sorted(lib.items()):
        if len(evs) < capacity:
            continue
        oldest_end = min(_end(e) for e in evs)
        if oldest_end > windows[w]["open_us"]:
            truncated.append({"window": w, "tid": tid})

    spans, nested = _new_table(), defaultdict(lambda: defaultdict(float))
    if not truncated:
        for evs in lib.values():
            xs = [e for e in evs if e.get("ph") == "X"]
            _accumulate(xs, _nest_by_containment(xs), spans, nested)

    htable = _new_table()
    index = {e["args"]["id"]: i for i, e in enumerate(harness)}
    _accumulate(harness,
                [index.get(e["args"]["parent"]) for e in harness],
                htable, defaultdict(lambda: defaultdict(float)))

    return {
        "valid": not truncated,
        "truncated": truncated,
        "events": sum(len(v) for v in lib.values()),
        "spans": {k: dict(v) for k, v in spans.items()},
        "nested": {k: dict(v) for k, v in nested.items()},
        "harness": {k: dict(v) for k, v in htable.items()},
    }


def _table(title, rows):
    print(title)
    print(f"  {'span':32s} {'count':>8s} {'total ms':>12s} {'self ms':>12s}")
    for name, s in sorted(rows.items(), key=lambda kv: -kv[1]["self_us"]):
        print(f"  {name:32s} {s['count']:8d} {s['total_us'] / 1e3:12.3f} "
              f"{s['self_us'] / 1e3:12.3f}")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    f = fold(load(argv[1]))
    print(f"library events: {f['events']}  valid: {f['valid']}")
    if not f["valid"]:
        print(f"truncated rings (window, tid): {f['truncated']}")
    else:
        _table("library spans", f["spans"])
    _table("harness spans", f["harness"])
    return 0 if f["valid"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
