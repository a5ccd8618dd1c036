#!/usr/bin/env python3
"""Tests of trace_fold.py on a small hand-written trace.

    python3 perfbench/test_trace_fold.py

fixtures/small_trace.json has two windows and a ring capacity of 4:

* window 0, thread 1: rt.equi_join > sched.primitive > three rel phases,
  plus one instant: 6 events, all recorded after the window opened, so its
  full ring may have dropped events (truncated);
* window 0, thread 2: 3 events, ring not full (complete);
* window 1, thread 3: 4 events, ring full, but the oldest one ended before
  the window opened, so nothing inside the window was lost (complete);
* window 1, thread 4: rt.equi_join > rel.multiplicity;
* harness spans (pid 2) with explicit parents.
"""

import copy
import io
import os
import sys
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_fold  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "small_trace.json")


def with_capacity(trace, capacity):
    t = copy.deepcopy(trace)
    t["otherData"]["ring_capacity"] = capacity
    return t


class TraceFoldTest(unittest.TestCase):
    def setUp(self):
        self.trace = trace_fold.load(FIXTURE)

    def test_self_time_subtracts_direct_children(self):
        f = trace_fold.fold(with_capacity(self.trace, 1 << 13))
        self.assertTrue(f["valid"])
        s = f["spans"]
        self.assertEqual(s["rt.equi_join"]["count"], 2)
        self.assertAlmostEqual(s["rt.equi_join"]["total_us"], 160.0)
        self.assertAlmostEqual(s["rt.equi_join"]["self_us"], 50.0)
        self.assertAlmostEqual(s["sched.primitive"]["self_us"], 10.0)
        self.assertAlmostEqual(s["rel.multiplicity"]["self_us"], 50.0)
        self.assertAlmostEqual(s["rel.distribute_expand"]["self_us"], 30.0)
        self.assertAlmostEqual(s["rel.align_concat"]["self_us"], 20.0)
        self.assertEqual(s["rt.backend_sort"]["count"], 7)
        self.assertAlmostEqual(s["rt.backend_sort"]["self_us"], 69.0)
        self.assertNotIn("svc.policy_switch", s)  # instants carry no time
        self.assertEqual(f["events"], 15)

    def test_nested_self_time_by_ancestor(self):
        f = trace_fold.fold(with_capacity(self.trace, 1 << 13))
        under_join = f["nested"]["rt.equi_join"]
        self.assertAlmostEqual(under_join["rel.multiplicity"], 50.0)
        self.assertAlmostEqual(under_join["sched.primitive"], 10.0)
        self.assertAlmostEqual(
            f["nested"]["sched.primitive"]["rel.distribute_expand"], 30.0)
        self.assertNotIn("rt.backend_sort", f["nested"])

    def test_full_ring_after_window_open_is_truncated(self):
        f = trace_fold.fold(self.trace)
        self.assertFalse(f["valid"])
        self.assertEqual(f["truncated"], [{"window": 0, "tid": 1}])
        self.assertEqual(f["spans"], {})  # no partial sums

    def test_full_ring_holding_a_pre_window_event_is_complete(self):
        t = copy.deepcopy(self.trace)
        t["traceEvents"] = [e for e in t["traceEvents"]
                            if not (e["pid"] == 1 and e["tid"] == 1)]
        f = trace_fold.fold(t)
        self.assertTrue(f["valid"])
        self.assertEqual(f["spans"]["rt.backend_sort"]["count"], 7)

    def test_harness_spans_fold_by_explicit_parent(self):
        f = trace_fold.fold(self.trace)  # valid or not, harness spans stay
        h = f["harness"]
        self.assertAlmostEqual(h["rt.equi_join"]["self_us"], 120.0)
        self.assertAlmostEqual(h["serve.sort"]["self_us"], 45.0)
        self.assertAlmostEqual(h["svc.try_submit"]["total_us"], 5.0)

    def test_cli_exit_code_reports_truncation(self):
        with redirect_stdout(io.StringIO()) as out:
            code = trace_fold.main(["trace_fold.py", FIXTURE])
        self.assertEqual(code, 1)
        self.assertIn("truncated", out.getvalue())


if __name__ == "__main__":
    unittest.main()
